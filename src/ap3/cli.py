"""Single command-line entry point: every pipeline as a subcommand with
uniform file I/O, JSON reports, and a manifest per run.

Exit codes: 0 success, 1 domain error (bad group, malformed, missing or
unreadable file, or out of memory), 2 usage error (bad flags or flag values).
A flag value invalid for every input (a negative --seed or generator digit,
a flag the chosen mode does not read, such as --samples with --exhaustive)
is a usage error at parse time, before any input is read; one invalid only
for this input (varnavides --m-dim above n, a generator not in F_p^n, a
subgroup scan over the budget) is a domain error, and so is a bad group
(search --p 4).

A run has two steps, `parse` and `run`. Parsing loads neither numpy nor
`gfspace`, so `--help` and every usage error finish without them; `run`
and the subcommand it calls import what the subcommand uses.

The `ap3` program (`main()` with no argv), after a successful parse,
compiles every ap3 module the subcommand runs, then executes them,
`gfspace` and so numpy first, and freezes the garbage collector before it
runs the subcommand; a run that parsing ends (help, a usage error, help
that cannot be written) freezes it before it returns, so the program
freezes on every exit path. Compiling first keeps the modules' compile
memory off the top of numpy's, which lowers a job's peak RSS where there
is no bytecode cache; the freeze lets the collections at interpreter
shutdown skip the objects that the imports created. It flushes stdout
before it returns, so output that cannot be written is a domain error
whether or not stdout is buffered, and a job started with stdout closed
fails its first write as it would on a full stdout (help still falls
back to stderr).
`main(argv)`, the library entry point, runs the same two steps and does
not freeze or flush.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import math
import numbers
import os
import sys
import time
from types import SimpleNamespace

# The interpreter's built-in SHA-256, where it has one, spares every job
# loading OpenSSL's libcrypto through hashlib (CPython's random.py does the
# same for SHA-512).
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

# Each subcommand imports the modules it runs, numpy and `gfspace`
# included, so a job loads only those, and parsing loads none.
from . import __version__

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

# Bytes of an input file hashed at a time: below glibc's default 128 KiB
# mmap threshold, since freeing a larger buffer raises that threshold for
# the rest of the job and so its later peak RSS.  Not `gfspace.BLOCK`: it
# counts bytes, not 8-byte entries, and parsing must not import `gfspace`.
HASH_CHUNK = 2**16


def _bounded(kind, ok, rule: str):
    """argparse type: a `kind` (int or float) value for which `ok` holds;
    any other value is a usage error that names `rule`."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} {rule}")
        return value

    return parse


# nan fails every comparison, so the float types reject it with inf.
_non_negative_int = _bounded(int, lambda v: v >= 0, "is negative")
_positive_int = _bounded(int, lambda v: v >= 1, "is below 1")
_positive_float = _bounded(float, lambda v: 0.0 < v < math.inf, "is not a finite positive number")
_unit_float = _bounded(float, lambda v: 0.0 < v <= 1.0, "is not in (0, 1]")


def _generators(spec: str) -> list[list[int]]:
    """argparse type: subspace generators like '1,2;0,1', digit vectors
    separated by ';', each digit a non-negative integer.  `subspace.span`
    checks them against the input's group."""
    gens = []
    for part in filter(str.strip, spec.split(";")):
        try:
            gens.append([_non_negative_int(x) for x in part.split(",")])
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"generator {part.strip()!r}: {exc}") from None
    return gens


def _json_value(obj):
    """json `default` hook, the one place that decides how report values
    look in JSON: a report (a SimpleNamespace) as its fields, a PointSet as
    its members, a Subspace as its `describe()` text and a Fraction as its
    str."""
    from .gfspace import PointSet

    if isinstance(obj, PointSet):
        return list(obj.members)
    # numpy's ints are Integral, so they stay an error rather than a str.
    if isinstance(obj, numbers.Rational) and not isinstance(obj, numbers.Integral):
        return str(obj)
    if hasattr(obj, "describe"):  # a Subspace, whose module cli does not import
        return obj.describe()
    if isinstance(obj, SimpleNamespace):
        return vars(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(payload, path: str) -> None:
    """Write json.dump(payload, indent=2, sort_keys=True, default=_json_value)
    and a newline, for a dict with str keys (the manifest) or a report.

    A top-level value with a `write_json(fh)` method (improve's CaseTable)
    writes itself; any other value is encoded by json and indented one
    level, which is safe because json escapes newlines in strings, so each
    newline it writes is indentation.
    """
    if not isinstance(payload, dict):
        payload = vars(payload)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        sep = "{"
        for key in sorted(payload):
            value = payload[key]
            fh.write(f"{sep}\n  {json.dumps(key)}: ")
            if hasattr(value, "write_json"):
                value.write_json(fh)
            else:
                text = json.dumps(value, indent=2, sort_keys=True, default=_json_value)
                fh.write(text.replace("\n", "\n  "))
            sep = ","
        fh.write("\n}\n" if payload else "{}\n")


def _file_sha256(path: str) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(HASH_CHUNK):
            h.update(chunk)
    return h.hexdigest()


def _unread_flag(args) -> str | None:
    """The usage error for a flag that the chosen mode does not read, the
    one way a mode refuses a flag: --seed on a run that draws nothing, and
    --restarts, --iters and --samples on an exhaustive run.  They default
    to None, so an explicit default value counts."""
    if args.command == "improve" and not args.indicator:
        mode, unread = "without argument --indicator", ("seed",)
    elif args.command in ("search", "varnavides") and args.exhaustive:
        mode, unread = "with argument --exhaustive", ("seed", "restarts", "iters", "samples")
    else:
        return None
    for dest in unread:
        if getattr(args, dest, None) is not None:
            return f"argument --{dest}: not allowed {mode}"
    return None


def _resolve_seed(args) -> int | None:
    """The seed a run draws from, so that its manifest records it: --seed
    when given, and without it 0 for rounding (`round`, `improve
    --indicator`), a fresh 63-bit draw from os.urandom for local `search`
    and sampled `varnavides`, and None for a run that draws nothing."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    if args.command == "round" or (args.command == "improve" and args.indicator):
        return 0
    if args.command in ("search", "varnavides") and not args.exhaustive:
        return int.from_bytes(os.urandom(8), "little") >> 1
    return None


def _write_manifest(args, inputs: list[str]) -> None:
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "command": args.command,
        "argv": args._argv,
        "inputs": {path: _file_sha256(path) for path in inputs},
        "seed": args.seed,
        "version": __version__,
    }
    _write_json(manifest, os.path.join(outdir, f"{args.command}_manifest.json"))


def _out(args, name: str) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_count(args) -> int:
    from . import fourier
    from .gfspace import load_density

    f = load_density(args.input)
    _write_manifest(args, [args.input])
    # An indicator is counted as a mask, exactly; any other density as floats.
    indicator = f.is_indicator
    x = f.values > 0.0 if indicator else f.values
    raw = fourier.triple_counts(x, f.params)[0].item()
    print(f"lambda3={raw / f.params.size**2:.17g}")
    print(f"t3_raw={raw}" if indicator else f"t3_raw={raw:.17g}")
    if indicator:
        print(f"t3_nontrivial={raw - int(x.sum())}")
    return 0


def cmd_spectrum(args) -> int:
    from . import fourier
    from .gfspace import load_density

    f = load_density(args.input)
    _write_manifest(args, [args.input])
    coeffs, params = fourier.dft_forward(f), f.params
    del f  # its values are not needed once the coefficients exist
    a = fourier.large_spectrum(coeffs, args.delta, params)
    lines = fourier.spectrum_export_lines(coeffs, a)
    text = "\n".join(lines)
    if args.output:
        with open(_out(args, args.output), "w", encoding="ascii", newline="\n") as fh:
            fh.write(text + "\n" if text else "")
    else:
        if text:
            print(text)
    return 0


def cmd_average(args) -> int:
    from . import subspace as sub
    from .gfspace import load_density, save_density

    f = load_density(args.input)
    w = sub.span(f.params, args.subspace)
    _write_manifest(args, [args.input])
    fw = sub.average_over_cosets(f, w)
    save_density(fw, _out(args, args.output))
    return 0


def cmd_improve(args) -> int:
    from . import improve
    from .gfspace import load_density, save_density

    f = load_density(args.input)
    _write_manifest(args, [args.input])
    g, report = improve.construct_g(f, args.epsilon, args.delta)
    payload = vars(report)
    if args.indicator:
        from . import rounding

        g, rr = rounding.round_to_indicator(g, args.seed, monitored=[report.W])
        payload = {**payload, "rounding": rr}
    save_density(g, _out(args, args.output))
    _write_json(payload, _out(args, args.report))
    print(
        f"lambda3_f={report.lambda3_f:.17g} lambda3_g={report.lambda3_g:.17g} "
        f"cases_pass={bool(report.per_case_checks.all_passed)}"
    )
    return 0


def cmd_round(args) -> int:
    from . import rounding, subspace as sub
    from .gfspace import load_density, save_density

    j = load_density(args.input)
    monitored = [sub.span(j.params, gens) for gens in args.monitor]
    _write_manifest(args, [args.input])
    j2, report = rounding.round_to_indicator(j, args.seed, monitored=monitored)
    save_density(j2, _out(args, args.output))
    _write_json(report, _out(args, args.report))
    print(f"mean_after={report.mean_after:.17g} repaired={report.repaired_points}")
    return 0


def cmd_search(args) -> int:
    from . import search
    from .gfspace import GroupParams, save_set

    params = GroupParams(args.p, args.n)
    _write_manifest(args, [])
    if args.exhaustive:
        result = search.exhaustive_min(params, args.alpha)
    else:
        restarts = 50 if args.restarts is None else args.restarts
        iters = 1000 if args.iters is None else args.iters
        result = search.local_min(params, args.alpha, restarts, iters, args.seed)
    save_set(result.best_set, _out(args, args.witness))
    _write_json(result, _out(args, args.report))
    print(f"count={result.count} lambda3={result.lambda3}")
    return 0


def cmd_structure(args) -> int:
    from . import subspace as sub
    from .gfspace import load_set

    s = load_set(args.input)
    _write_manifest(args, [args.input])
    report = sub.structure_report(s, args.max_codim)
    _write_json(report, _out(args, args.report))
    print(f"symmetric_difference={report.symmetric_difference}")
    return 0


def cmd_varnavides(args) -> int:
    from . import subspace as sub
    from .gfspace import load_set

    s = load_set(args.input)
    _write_manifest(args, [args.input])
    samples = 100 if args.samples is None else args.samples
    report = sub.varnavides_estimate(
        s, args.m_dim, samples=samples, seed=args.seed, exhaustive=args.exhaustive
    )
    _write_json(report, _out(args, args.report))
    print(f"certified_lower_bound={report.certified_lower_bound:.17g}")
    return 0


def cmd_selfcheck(args) -> int:
    from .selfcheck import selfcheck_checks

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
# Parser and entry point


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own, except that an OSError is raised, not dropped: help
        # written to a full stdout would exit 0 with nothing written.
        (file or sys.stdout or sys.stderr).write(self.format_help())


class _ClosedStdout:
    """sys.stdout for a job started with stdout closed, where Python sets
    it to None and print() would drop the report: every write fails as a
    write to a closed descriptor does."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self) -> None:
        pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ap3",
        description="Three-term arithmetic progression counts on F_p^n",
    )
    # Nested flag sets: every subcommand takes --log-level, each that writes
    # files --output-dir, and each that can draw random numbers --seed.
    logs = argparse.ArgumentParser(add_help=False)
    logs.add_argument("--log-level", type=str.upper, choices=LOG_LEVELS, default="WARNING")
    files = argparse.ArgumentParser(add_help=False, parents=[logs])
    files.add_argument("--output-dir", default=".")
    seeded = argparse.ArgumentParser(add_help=False, parents=[files])
    seeded.add_argument("--seed", type=_non_negative_int, default=None)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("count", parents=[files], help="triple counts of an .apf density")
    sp.add_argument("--input", required=True, help="a set goes in as its 0/1 indicator")
    sp.set_defaults(func=cmd_count, modules=("gfspace", "fourier"))

    sp = subs.add_parser("spectrum", parents=[files], help="export large Fourier coefficients")
    sp.add_argument("--input", required=True)
    sp.add_argument("--delta", type=_positive_float, required=True)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_spectrum, modules=("gfspace", "fourier"))

    sp = subs.add_parser("average", parents=[files], help="coset-average a density")
    sp.add_argument("--input", required=True)
    sp.add_argument(
        "--subspace", type=_generators, required=True, help="generators, e.g. '1,0;0,1'"
    )
    sp.add_argument("--output", default="averaged.apf")
    sp.set_defaults(func=cmd_average, modules=("gfspace", "subspace"))

    sp = subs.add_parser("improve", parents=[seeded], help="run the decrease pipeline")
    sp.add_argument("--input", required=True)
    sp.add_argument("--epsilon", type=_unit_float, required=True)
    sp.add_argument("--delta", type=_positive_float, default=None)
    sp.add_argument("--indicator", action="store_true")
    sp.add_argument("--output", default="g.apf")
    sp.add_argument("--report", default="improve_report.json")
    sp.set_defaults(func=cmd_improve, modules=("gfspace", "fourier", "subspace", "improve"))

    sp = subs.add_parser("round", parents=[seeded], help="randomized rounding to an indicator")
    sp.add_argument("--input", required=True)
    sp.add_argument("--monitor", type=_generators, action="append", default=[])
    sp.add_argument("--output", default="rounded.apf")
    sp.add_argument("--report", default="round_report.json")
    sp.set_defaults(func=cmd_round, modules=("gfspace", "fourier", "subspace", "rounding"))

    sp = subs.add_parser("search", parents=[seeded], help="minimize the triple count")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=_unit_float, required=True)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--restarts", type=_positive_int, help="local search only (default 50)")
    sp.add_argument("--iters", type=_non_negative_int, help="local search only (default 1000)")
    sp.add_argument("--witness", default="witness.aps")
    sp.add_argument("--report", default="search_result.json")
    sp.set_defaults(func=cmd_search, modules=("gfspace", "fourier", "search"))

    sp = subs.add_parser("structure", parents=[files], help="coset-structure diagnostic")
    sp.add_argument("--input", required=True)
    sp.add_argument("--max-codim", dest="max_codim", type=_non_negative_int, required=True)
    sp.add_argument("--report", default="structure_report.json")
    sp.set_defaults(func=cmd_structure, modules=("gfspace", "fourier", "subspace"))

    sp = subs.add_parser(
        "varnavides",
        parents=[seeded],
        help="Varnavides lower bound on T3'(S) from averaging over subgroups",
    )
    sp.add_argument("--input", required=True)
    sp.add_argument("--m-dim", dest="m_dim", type=_positive_int, required=True)
    sp.add_argument(
        "--samples",
        type=_positive_int,
        help="subgroups to sample for the dense-coset share (default 100)",
    )
    sp.add_argument(
        "--exhaustive", action="store_true", help="scan every subgroup for the dense-coset share"
    )
    sp.add_argument("--report", default="varnavides_report.json")
    sp.set_defaults(func=cmd_varnavides, modules=("gfspace", "fourier", "subspace"))

    sp = subs.add_parser("selfcheck", parents=[logs], help="run the built-in identity suite")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(
        func=cmd_selfcheck,
        modules=("gfspace", "fourier", "subspace", "improve", "selfcheck"),
    )

    # A flag that the chosen mode does not read is the subcommand's usage error.
    for sp in subs.choices.values():
        sp.set_defaults(parser=sp)
    return parser


def _fail(message) -> int:
    """Write the one-line error `ap3: error: <message>`; exit code 1."""
    print(f"ap3: error: {message}", file=sys.stderr)
    return 1


def parse(argv: list[str]) -> argparse.Namespace | int:
    """The first step of a run: argv parsed and checked, or the exit code of
    a run that ends here (0 after help, 1 if help cannot be written, 2 on a
    usage error).  Loads neither numpy nor `gfspace`."""
    try:
        args = build_parser().parse_args(argv)
        if unread := _unread_flag(args):
            args.parser.error(unread)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except OSError as exc:  # help that cannot be written
        return _fail(exc)
    args._argv = list(argv)
    args.seed = _resolve_seed(args)
    return args


def run(args: argparse.Namespace) -> int:
    """The second step: run the subcommand that `parse` chose; its exit code."""
    if args.log_level != "WARNING":  # logging's default; nothing in ap3 logs
        import logging

        logging.basicConfig(level=args.log_level)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:  # gfspace's FileFormatError included
        return _fail(exc)
    except MemoryError as exc:
        return _fail(str(exc) or "out of memory")


def _load_modules(args) -> None:
    """Import the ap3 modules that the job runs in two passes over them, in
    the dependency order of the subcommand's `modules`: compile each, then
    execute each.  The first body run is `gfspace`'s, which imports numpy,
    so no module compiles on top of numpy's memory.  A module already in
    sys.modules is left as it is, and one whose body raises is removed from
    it, as `import` does."""
    import importlib.util

    names = [f"{__package__}.{name}" for name in args.modules]
    if args.command == "improve" and args.indicator:
        names.append(f"{__package__}.rounding")
    specs = [importlib.util.find_spec(name) for name in names if name not in sys.modules]
    # get_code reads a valid bytecode cache where there is one.
    codes = [(spec, spec.loader.get_code(spec.name)) for spec in specs]
    package = sys.modules[__package__]
    for spec, code in codes:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        try:
            exec(code, vars(module))
        except BaseException:
            del sys.modules[spec.name]
            raise
        setattr(package, spec.name.rpartition(".")[2], module)


def main(argv: list[str] | None = None) -> int:
    if argv is not None:
        args = parse(list(argv))
        return args if isinstance(args, int) else run(args)
    # The program's own run.  It loads the job's modules, compiled before
    # numpy loads, and then freezes the objects they leave tracked, which
    # shutdown would otherwise spend ~20 ms collecting; all after parsing,
    # so that `--help` and usage errors load none of them.  A run that
    # parsing ends freezes too, sparing shutdown the ~7 ms of collecting
    # what site, argparse and cli made.
    args = parse(sys.argv[1:])
    if isinstance(args, int):
        gc.freeze()
        code = args
    else:
        _load_modules(args)
        gc.freeze()
        if sys.stdout is None:  # the program started with stdout closed
            sys.stdout = _ClosedStdout()
        code = run(args)
    try:
        if sys.stdout is not None:  # still None after help or a usage error
            sys.stdout.flush()
    except OSError as exc:
        # Point stdout at /dev/null, or shutdown flushes the unwritten
        # output again and exits 120.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
