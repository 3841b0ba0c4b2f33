"""Verification of every job's output against the benchmark's references.

`verify(job, out_dir, stdout)` raises CheckFailed on the first defect and
otherwise returns facts read from the outputs (cases audited, search
iterations, the witness count, ...), which the traced run reports.
"""

from __future__ import annotations

import json
import math
import os
import re
from fractions import Fraction

import numpy as np

import reference as ref

# E(g) must equal E(f) to this absolute tolerance, read back from g.apf.
MEAN_TOL = 1e-12
# Float sums over p^(2n) terms: relative tolerance per unit of p^n.
LAMBDA3_REL_TOL_PER_POINT = 1e-14
# Transform coefficients: absolute tolerance per unit of p^n.
SPECTRUM_TOL_PER_POINT = 1e-10
AVERAGE_TOL = 1e-12


class CheckFailed(Exception):
    """An output that disagrees with the reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def stdout_fields(stdout: str) -> dict[str, str]:
    return dict(re.findall(r"(\w+)=(\S+)", stdout))


def read_values(path: str, p: int, n: int) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        tokens = fh.read().split()
    require(tokens[:2] == [str(p), str(n)], f"{path}: header {tokens[:2]} is not '{p} {n}'")
    values = np.array(tokens[2:], dtype=np.float64)
    require(values.shape == (p**n,), f"{path}: {values.size} values, expected {p**n}")
    return values


def read_mask(path: str, p: int, n: int) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        tokens = fh.read().split()
    require(tokens[:2] == [str(p), str(n)], f"{path}: header {tokens[:2]} is not '{p} {n}'")
    members = np.array(tokens[2:], dtype=np.int64)
    require(bool(np.all((members >= 0) & (members < p**n))), f"{path}: member out of range")
    require(bool(np.all(np.diff(members) > 0)), f"{path}: members not strictly ascending")
    mask = np.zeros(p**n, dtype=bool)
    mask[members] = True
    return mask


def read_json(path: str) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def lambda3_tol(p: int, n: int) -> float:
    return LAMBDA3_REL_TOL_PER_POINT * p**n


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def check_count(e: dict, out_dir: str, stdout: str) -> dict:
    f = stdout_fields(stdout)
    p, n = e["p"], e["n"]
    lam = float(f["lambda3"])
    require(close(lam, e["lambda3"], lambda3_tol(p, n)), f"lambda3 {lam!r} != reference {e['lambda3']!r}")
    if e["indicator"]:
        raw = float(f["t3_raw"])
        require(raw == e["t3_raw"], f"t3_raw {raw!r} != reference {e['t3_raw']}")
        nontrivial = int(f["t3_nontrivial"])
        require(nontrivial == e["t3_nontrivial"], f"t3_nontrivial {nontrivial} != reference {e['t3_nontrivial']}")
    else:
        require("t3_nontrivial" not in f, "t3_nontrivial printed for a non-indicator")
    return {}


def check_improve(e: dict, out_dir: str, stdout: str) -> dict:
    p, n, k = e["p"], e["n"], e["k"]
    report = read_json(os.path.join(out_dir, "improve_report.json"))
    cases = report["per_case_checks"]
    require(stdout_fields(stdout).get("cases_pass") == "True", "cases_pass is not True")
    require(all(c["passed"] for c in cases), "a per-case check failed")
    require(report["aggregate_ok"] is True, "aggregate_ok is not true")
    require(report["W"].startswith(f"dim {n - k};"), f"W is {report['W']!r}, planted dim is {n - k}")
    require(len(cases) == p ** (2 * k), f"{len(cases)} cases audited, expected |T|^2 = {p ** (2 * k)}")
    require(
        close(report["lambda3_f"], e["lambda3"], lambda3_tol(p, n)),
        f"lambda3_f {report['lambda3_f']!r} != reference {e['lambda3']!r}",
    )
    g = read_values(os.path.join(out_dir, "g.apf"), p, n)
    require(bool(np.all((g >= 0.0) & (g <= 1.0))), "g leaves [0, 1]")
    facts = {"cases_audited": len(cases)}
    if e["indicator"]:
        r = report["rounding"]
        require(bool(np.all((g == 0.0) | (g == 1.0))), "rounded g is not 0/1")
        require(r["mean_after"] >= r["mean_before"], "rounding lowered the mean")
        require(close(math.fsum(g) / p**n, r["mean_after"], 1e-12), "g.apf disagrees with mean_after")
        facts["repaired_points"] = r["repaired_points"]
    else:
        drift = abs(math.fsum(g) / p**n - e["mean"])
        require(drift <= MEAN_TOL, f"E(g) differs from E(f) by {drift:.3g}")
    return facts


def check_search(e: dict, out_dir: str, stdout: str) -> dict:
    p, n = e["p"], e["n"]
    report = read_json(os.path.join(out_dir, "search_result.json"))
    mask = read_mask(os.path.join(out_dir, "witness.aps"), p, n)
    raw, _ = ref.raw_count(mask, p, n)
    require(int(mask.sum()) >= e["floor"], f"witness has {int(mask.sum())} points, floor is {e['floor']}")
    require(raw == report["count"], f"witness recounts to {raw}, report says {report['count']}")
    require(int(stdout_fields(stdout)["count"]) == raw, "printed count disagrees with the witness")
    require(Fraction(report["lambda3"]) == Fraction(raw, p ** (2 * n)), "lambda3 disagrees with count")
    if e["exhaustive"]:
        require(raw == e["min_count"], f"exhaustive minimum {raw} != reference {e['min_count']}")
        return {"witness_count": raw}
    return {"witness_count": raw, "iterations": report["iterations"]}


def parse_basis(describe: str, n: int) -> np.ndarray:
    rows = re.findall(r"\(([-\d,]+)\)", describe)
    return np.array([[int(x) for x in r.split(",")] for r in rows], dtype=np.int64).reshape(-1, n)


def check_structure(e: dict, out_dir: str, stdout: str) -> dict:
    p, n = e["p"], e["n"]
    report = read_json(os.path.join(out_dir, "structure_report.json"))
    basis = parse_basis(report["W"], n)
    w = ref.span_elements(basis, p, n)
    a_plus_w = np.zeros(p**n, dtype=bool)
    for rep in report["A_reps"]:
        a_plus_w[ref.to_index((ref.digits(p, n)[rep] + ref.digits(p, n)[w]) % p, p)] = True
    diff = int(np.count_nonzero(a_plus_w ^ e["mask"]))
    require(diff == report["symmetric_difference"], f"W and A give |S delta (A+W)| = {diff}, report says {report['symmetric_difference']}")
    require(diff == e["min_difference"], f"symmetric difference {diff} != reference minimum {e['min_difference']}")
    return {}


def check_varnavides(e: dict, out_dir: str, stdout: str) -> dict:
    p, n, m = e["p"], e["n"], e["m_dim"]
    report = read_json(os.path.join(out_dir, "varnavides_report.json"))
    bound = Fraction(report["certified_lower_bound_exact"])
    t3 = e["t3_nontrivial"]
    if e["samples"] is None:
        want = ref.varnavides_exhaustive_bound(t3, p, n, m)
        require(bound == want, f"exhaustive bound {bound} != closed form {want}")
        require(bound <= t3, f"exhaustive bound {bound} exceeds T3'(S) = {t3}")
    else:
        require(report["sampled_subgroups"] == e["samples"], "wrong number of sampled subgroups")
        require(0 <= bound <= t3 * p ** (n - m), f"sampled bound {bound} out of [0, p^(n-m) T3'(S)]")
    return {}


def check_spectrum(e: dict, out_dir: str, stdout: str) -> dict:
    p, n = e["p"], e["n"]
    spec = e["spectrum"]
    with open(os.path.join(out_dir, "spectrum.txt"), encoding="ascii") as fh:
        rows = [line.split() for line in fh if line.strip()]
    idx = np.array([int(r[0]) for r in rows], dtype=np.int64)
    got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    want = np.nonzero(np.abs(spec) > e["delta"] * p**n)[0]
    require(sorted(idx.tolist()) == want.tolist(), f"{len(idx)} coefficients exported, reference has {len(want)}")
    err = float(np.abs(got - spec[idx]).max()) if len(idx) else 0.0
    require(err <= SPECTRUM_TOL_PER_POINT * p**n, f"coefficient error {err:.3g}")
    mags = np.abs(got)
    require(bool(np.all(mags[:-1] >= mags[1:] - SPECTRUM_TOL_PER_POINT * p**n)), "export not by descending magnitude")
    return {}


def check_average(e: dict, out_dir: str, stdout: str) -> dict:
    got = read_values(os.path.join(out_dir, "averaged.apf"), e["p"], e["n"])
    err = float(np.abs(got - e["average"]).max())
    require(err <= AVERAGE_TOL, f"coset average differs from the reference by {err:.3g}")
    return {}


CHECKS = {
    "count": check_count,
    "improve": check_improve,
    "search": check_search,
    "structure": check_structure,
    "varnavides": check_varnavides,
    "spectrum": check_spectrum,
    "average": check_average,
}


def verify(job, out_dir: str, stdout: str) -> dict:
    """Check one job's outputs; missing or malformed output is a failure."""
    try:
        return CHECKS[job.command](job.expect, out_dir, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from exc
