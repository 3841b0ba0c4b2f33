"""Single command-line entry point: every pipeline as a subcommand with
uniform file I/O, JSON reports, and a manifest per run.

Exit codes: 0 success, 1 domain error (bad group, malformed or missing
file), 2 usage error (bad flags or flag values).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__, apcount, fourier, improve, rounding, search
from . import subspace as sub
from .gfspace import (
    DensityFunction,
    FileFormatError,
    GroupParams,
    PointSet,
    load_density,
    load_set,
    save_density,
    save_set,
)

log = logging.getLogger("ap3")


class UsageError(Exception):
    """Bad flag value; maps to exit code 2."""


def _parse_subspace(spec: str, params: GroupParams) -> sub.Subspace:
    """Parse generators like '1,2;0,1' (digit vectors separated by ';')."""
    gens = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            digits = [int(x) for x in part.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad subspace generator {part!r}: {exc}") from exc
        if len(digits) != params.n:
            raise UsageError(
                f"generator {part!r} has {len(digits)} digits, expected {params.n}"
            )
        gens.append(digits)
    return sub.span(params, gens)


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(args, inputs: list[str]) -> None:
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    digests = {}
    for path in inputs:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            h.update(fh.read())
        digests[path] = h.hexdigest()
    manifest = {
        "command": args.command,
        "argv": args._argv,
        "inputs": digests,
        "seed": getattr(args, "seed", None),
        "threads": args.threads,
        "version": __version__,
    }
    _write_json(manifest, os.path.join(outdir, f"{args.command}_manifest.json"))


def _out(args, name: str) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_count(args) -> int:
    f = load_density(args.input)
    _write_manifest(args, [args.input])
    raw = apcount.t3_raw(f)  # the one count: an exact int for an indicator
    print(f"lambda3={raw / f.params.size**2:.17g}")
    print(f"t3_raw={float(raw):.17g}")
    if f.is_indicator:
        print(f"t3_nontrivial={raw - int(np.count_nonzero(f.values))}")
    return 0


def cmd_spectrum(args) -> int:
    if args.delta <= 0:
        raise UsageError("--delta must be positive")
    f = load_density(args.input)
    _write_manifest(args, [args.input])
    lines = fourier.spectrum_export_lines(fourier.dft_forward(f), args.delta)
    text = "\n".join(lines)
    if args.output:
        with open(_out(args, args.output), "w", encoding="ascii", newline="\n") as fh:
            fh.write(text + "\n" if text else "")
    else:
        if text:
            print(text)
    return 0


def cmd_average(args) -> int:
    f = load_density(args.input)
    w = _parse_subspace(args.subspace, f.params)
    _write_manifest(args, [args.input])
    fw = sub.average_over_cosets(f, w)
    save_density(fw, _out(args, args.output))
    return 0


def cmd_improve(args) -> int:
    if not 0.0 < args.epsilon <= 1.0:
        raise UsageError(f"--epsilon must be in (0,1], got {args.epsilon}")
    if args.delta is not None and args.delta <= 0:
        raise UsageError("--delta must be positive")
    if args.c_p <= 0:
        raise UsageError("--c-p must be positive")
    f = load_density(args.input)
    _write_manifest(args, [args.input])
    config = improve.ImprovePipelineConfig(
        epsilon=args.epsilon, c_p=args.c_p, delta_override=args.delta
    )
    g, report = improve.construct_g(f, config)
    payload = report.to_dict()
    if args.indicator:
        g, rr = rounding.round_to_indicator(g, args.seed or 0, monitored=[report.W])
        payload["rounding"] = rr.to_dict()
    save_density(g, _out(args, args.output))
    _write_json(payload, _out(args, args.report))
    print(
        f"lambda3_f={report.lambda3_f:.17g} lambda3_g={report.lambda3_g:.17g} "
        f"cases_pass={report.all_cases_pass()}"
    )
    return 0


def cmd_round(args) -> int:
    j = load_density(args.input)
    monitored = [_parse_subspace(spec, j.params) for spec in args.monitor]
    _write_manifest(args, [args.input])
    j2, report = rounding.round_to_indicator(j, args.seed or 0, monitored=monitored)
    save_density(j2, _out(args, args.output))
    _write_json(report.to_dict(), _out(args, args.report))
    print(f"mean_after={report.mean_after:.17g} repaired={report.repaired_points}")
    return 0


def cmd_search(args) -> int:
    if not 0.0 < args.alpha <= 1.0:
        raise UsageError(f"--alpha must be in (0,1], got {args.alpha}")
    params = GroupParams(args.p, args.n)
    _write_manifest(args, [])
    if args.exhaustive:
        result = search.exhaustive_min(params, args.alpha)
    else:
        result = search.local_min(
            params, args.alpha, args.restarts, args.iters, args.seed
        )
    save_set(result.best_set, _out(args, args.witness))
    _write_json(result.to_dict(), _out(args, args.report))
    print(f"count={result.count} lambda3={result.lambda3}")
    return 0


def cmd_structure(args) -> int:
    s = load_set(args.input)
    if args.max_codim < 0:
        raise UsageError("--max-codim must be >= 0")
    _write_manifest(args, [args.input])
    report = search.structure_report(s, args.max_codim)
    _write_json(report.to_dict(), _out(args, args.report))
    print(f"symmetric_difference={report.symmetric_difference}")
    return 0


def cmd_varnavides(args) -> int:
    s = load_set(args.input)
    if not args.exhaustive and args.samples < 1:
        raise UsageError("--samples must be >= 1 unless --exhaustive")
    _write_manifest(args, [args.input])
    report = apcount.varnavides_estimate(
        s, args.m_dim, samples=args.samples, seed=args.seed, exhaustive=args.exhaustive
    )
    _write_json(report.to_dict(), _out(args, args.report))
    print(f"certified_lower_bound={report.certified_lower_bound:.17g}")
    return 0


# ---------------------------------------------------------------------------
# Selfcheck: built-in identity suite on small instances.


def _random_density(params: GroupParams, rng) -> DensityFunction:
    return DensityFunction(params, rng.random(params.size))


def selfcheck_checks() -> list[dict]:
    checks = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    rng = np.random.Generator(np.random.PCG64(20240901))

    # Phase convention: the transform of the delta at index 1 in F_3 must
    # carry omega^(+a), which a conjugation bug flips.
    p3 = GroupParams(3, 1)
    delta1 = DensityFunction(p3, np.array([0.0, 1.0, 0.0]))
    coeff = fourier.dft_forward(delta1).coeffs[1]
    expected = np.exp(2j * np.pi / 3)
    record("transform_phase", abs(coeff - expected) < 1e-12, f"fhat(1)={coeff:.6f}")

    for p, n in [(3, 2), (5, 2), (3, 3)]:
        params = GroupParams(p, n)
        f = _random_density(params, rng)
        spec = fourier.dft_forward(f)
        back = fourier.dft_inverse(spec)
        record(
            f"roundtrip_p{p}_n{n}",
            float(np.abs(back.values - f.values).max()) < 1e-10,
        )
        lhs = float(np.sum(np.abs(spec.coeffs) ** 2)) / params.size
        rhs = float(np.sum(f.values**2))
        record(f"parseval_p{p}_n{n}", abs(lhs - rhs) <= 1e-9 * max(1.0, rhs))
        # Float kernel against two independent counts: the pair enumeration
        # on a density and the exact F_q count on an indicator.
        full = PointSet(params, tuple(range(params.size)))
        direct = apcount.t3_restricted(f, full, full, full) / params.size**2
        diff = abs(fourier.lambda3_spectral(f) - direct)
        record(f"lambda3_identity_p{p}_n{n}", diff < 1e-9, f"diff={diff:.3g}")
        s = PointSet.from_mask(params, rng.random(params.size) < 0.5)
        exact = apcount.count_raw(s) / params.size**2
        diff = abs(fourier.lambda3_spectral(s.density()) - exact)
        record(f"lambda3_exact_p{p}_n{n}", diff < 1e-9, f"diff={diff:.3g}")

    params = GroupParams(3, 2)
    h1 = _random_density(params, rng)
    l1, l2, beta = apcount.complement_lambda3(h1)
    record(
        "complementation_float",
        abs(l1 + l2 - (1 - 3 * beta + 3 * beta**2)) < 1e-9,
    )
    s = PointSet(params, (0, 1, 3, 4))
    e1, e2, eb = apcount.complement_lambda3_exact(s)
    record("complementation_exact", e1 + e2 == 1 - 3 * eb + 3 * eb**2)

    # Subspace closed forms at p in {3, 5}.
    for p, n in [(3, 3), (5, 2)]:
        params = GroupParams(p, n)
        w = sub.full_space(params)
        ok = True
        for ell in range(1, n + 1):
            s_sp = sub.canonical_codim_subspace(w, ell)
            s_set = PointSet(params, tuple(int(i) for i in s_sp.elements()))
            w_set = PointSet(params, tuple(range(params.size)))
            t_set = PointSet(
                params, tuple(i for i in w_set.members if i not in set(s_set.members))
            )
            w_size = params.size
            s_size = len(s_set)
            t_size = w_size - s_size
            ok &= apcount.t3_restricted_count(s_set, s_set, s_set) == s_size**2
            # (2*beta^2 - beta) |W|^2 with beta = |T|/|W|
            ok &= apcount.t3_restricted_count(t_set, t_set, t_set) == 2 * t_size**2 - t_size * w_size
        record(f"closed_forms_p{p}_n{n}", ok)

    # Coset-averaging spectrum support.
    params = GroupParams(3, 2)
    f = _random_density(params, rng)
    w = sub.span(params, [[0, 1]])
    fw = sub.average_over_cosets(f, w)
    fhat = fourier.dft_forward(f).coeffs
    fwhat = fourier.dft_forward(fw).coeffs
    wperp = set(int(i) for i in sub.orthogonal_complement(w).elements())
    ok = all(
        abs(fwhat[a] - (fhat[a] if a in wperp else 0.0)) < 1e-9
        for a in range(params.size)
    )
    record("coset_average_support", ok)

    # Worked pipeline example: constant 1/2 on F_3^2.
    params = GroupParams(3, 2)
    f = DensityFunction.constant(params, 0.5)
    g, report = improve.construct_g(f, improve.ImprovePipelineConfig(epsilon=1.0))
    ok = (
        abs(report.beta - 8 / 9) < 1e-12
        and abs(g.values[0]) < 1e-12
        and np.allclose(g.values[1:], 9 / 16, atol=1e-12)
        and abs(g.expectation() - 0.5) < 1e-12
        and abs(report.lambda3_g - 63 / 512) < 1e-12
        and report.all_cases_pass()
    )
    record("pipeline_worked_example", ok)

    return checks


def cmd_selfcheck(args) -> int:
    start = time.monotonic()
    checks = selfcheck_checks()
    elapsed = time.monotonic() - start
    if args.json:
        print(json.dumps({"checks": checks, "elapsed_s": elapsed}, indent=2))
    else:
        for c in checks:
            status = "ok" if c["passed"] else "FAIL"
            detail = f" ({c['detail']})" if c["detail"] else ""
            print(f"{status:>4}  {c['name']}{detail}")
        print(f"{sum(c['passed'] for c in checks)}/{len(checks)} passed in {elapsed:.2f}s")
    return 0 if all(c["passed"] for c in checks) else 1


# ---------------------------------------------------------------------------
# Parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ap3",
        description="Three-term arithmetic progression counts on F_p^n",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--output-dir", default=".")
    common.add_argument("--log-level", default="WARNING")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("count", parents=[common], help="triple counts of a density or set")
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=cmd_count)

    sp = subs.add_parser("spectrum", parents=[common], help="export large Fourier coefficients")
    sp.add_argument("--input", required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_spectrum)

    sp = subs.add_parser("average", parents=[common], help="coset-average a density")
    sp.add_argument("--input", required=True)
    sp.add_argument("--subspace", required=True, help="generators, e.g. '1,0;0,1'")
    sp.add_argument("--output", default="averaged.apf")
    sp.set_defaults(func=cmd_average)

    sp = subs.add_parser("improve", parents=[common], help="run the decrease pipeline")
    sp.add_argument("--input", required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--c-p", dest="c_p", type=float, default=1.0)
    sp.add_argument("--indicator", action="store_true")
    sp.add_argument("--output", default="g.apf")
    sp.add_argument("--report", default="improve_report.json")
    sp.set_defaults(func=cmd_improve)

    sp = subs.add_parser("round", parents=[common], help="randomized rounding to an indicator")
    sp.add_argument("--input", required=True)
    sp.add_argument("--monitor", action="append", default=[])
    sp.add_argument("--output", default="rounded.apf")
    sp.add_argument("--report", default="round_report.json")
    sp.set_defaults(func=cmd_round)

    sp = subs.add_parser("search", parents=[common], help="minimize the triple count")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--restarts", type=int, default=50)
    sp.add_argument("--iters", type=int, default=1000)
    sp.add_argument("--witness", default="witness.aps")
    sp.add_argument("--report", default="search_result.json")
    sp.set_defaults(func=cmd_search)

    sp = subs.add_parser("structure", parents=[common], help="coset-structure diagnostic")
    sp.add_argument("--input", required=True)
    sp.add_argument("--max-codim", dest="max_codim", type=int, required=True)
    sp.add_argument("--report", default="structure_report.json")
    sp.set_defaults(func=cmd_structure)

    sp = subs.add_parser("varnavides", parents=[common], help="subgroup-averaged lower bound")
    sp.add_argument("--input", required=True)
    sp.add_argument("--m-dim", dest="m_dim", type=int, required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--report", default="varnavides_report.json")
    sp.set_defaults(func=cmd_varnavides)

    sp = subs.add_parser("selfcheck", parents=[common], help="run the built-in identity suite")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_selfcheck)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args._argv = list(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"ap3: usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"ap3: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except (FileFormatError, ValueError, RuntimeError) as exc:
        print(f"ap3: error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    return dispatch(list(sys.argv[1:]) if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
