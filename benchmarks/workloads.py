"""The four workloads: seeded inputs, the job list of one pass, and the
reference answer each job's output is checked against.

Every input comes from the workload seed alone, through one numpy
generator per job, so a seed names a byte-identical set of files.  Each
job is one `ap3 <subcommand>` run; `args` omits the common
`--output-dir`, which the runner adds per job.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

# Planted densities: h(Lx) with h in [PLANT_LO, PLANT_HI] on F_p^k, plus
# uniform noise of this amplitude.
PLANT_LO, PLANT_HI, PLANT_NOISE = 0.15, 0.85, 0.02
# A large-spectrum coefficient this close to the cutoff (relative) is
# redrawn, so that rounding differences cannot move it across.
CUTOFF_MARGIN = 1e-6
INDICATOR_DENSITY = 0.3
STRUCTURE_FLIP = 0.05


@dataclass
class Job:
    """One ap3 run: its subcommand, arguments and reference answer."""

    command: str
    args: list[str]
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        e = self.expect
        return f"{self.command} {e['p']}^{e['n']}"


def job_rng(seed: int, job_no: int) -> np.random.Generator:
    return np.random.default_rng([seed, job_no])


def write_density(values: np.ndarray, p: int, n: int, path: str) -> None:
    text = [f"{p} {n}"]
    vals = [repr(float(v)) if v not in (0.0, 1.0) else str(int(v)) for v in values]
    text += [" ".join(vals[i : i + 16]) for i in range(0, len(vals), 16)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(text) + "\n")


def write_set(mask: np.ndarray, p: int, n: int, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{p} {n}\n" + " ".join(str(int(i)) for i in np.nonzero(mask)[0]) + "\n")


def planted_density(rng, p: int, n: int, k: int, delta: float):
    """(f, L): f = h(Lx) + noise whose large spectrum spans exactly row(L).

    Draws are repeated until every coefficient off row(L) is below
    delta * p^n, the ones above span all k dimensions, and none sits
    within CUTOFF_MARGIN of the cutoff.
    """
    while True:
        forms = rng.integers(0, p, size=(k, n))
        h = rng.uniform(PLANT_LO, PLANT_HI, size=p**k)
        noise = rng.uniform(-PLANT_NOISE, PLANT_NOISE, size=p**n)
        if ref.rank_mod_p(forms, p) != k:
            continue
        f = h[ref.coset_labels(forms, p, n)] + noise
        if planted_spectrum_ok(f, forms, p, n, delta):
            return f, forms


def planted_spectrum_ok(f, forms, p: int, n: int, delta: float) -> bool:
    cutoff = delta * p**n
    mags = np.abs(ref.spectrum(f, p, n))
    if np.any(np.abs(mags - cutoff) <= CUTOFF_MARGIN * cutoff):
        return False
    above = np.nonzero(mags > cutoff)[0]
    planted = np.zeros(p**n, dtype=bool)
    planted[ref.span_elements(forms, p, n)] = True
    k = len(ref.row_reduce(forms, p))
    return bool(planted[above].all()) and ref.rank_mod_p(ref.digits(p, n)[above], p) == k


def mean(values) -> float:
    return math.fsum(values) / len(values)


# ---------------------------------------------------------------------------
# Job builders: each writes its input files and returns the Job.


def count_job(rng, path, p, n, indicator):
    if indicator:
        f = (rng.random(p**n) < INDICATOR_DENSITY).astype(np.float64)
    else:
        f = rng.random(p**n)
    write_density(f, p, n, path)
    expect = {"p": p, "n": n, "indicator": indicator}
    if indicator:
        raw, nontrivial = ref.raw_count(f, p, n)
        expect.update(t3_raw=raw, t3_nontrivial=nontrivial, lambda3=raw / p ** (2 * n))
    else:
        expect["lambda3"] = ref.lambda3(f, p, n)
    return Job("count", ["--input", path], expect)


def improve_job(rng, path, p, n, k, epsilon, indicator, delta=0.004):
    f, forms = planted_density(rng, p, n, k, delta)
    write_density(f, p, n, path)
    args = ["--input", path, "--epsilon", str(epsilon), "--delta", str(delta)]
    if indicator:
        args += ["--indicator", "--seed", str(int(rng.integers(0, 2**31)))]
    expect = {
        "p": p,
        "n": n,
        "k": k,
        "indicator": indicator,
        "mean": mean(f),
        "lambda3": ref.lambda3(f, p, n),
    }
    return Job("improve", args, expect)


def search_job(rng, p, n, alpha, restarts=0, iters=0, exhaustive=False):
    floor = max(1, math.ceil(alpha * p**n - 1e-9))
    args = ["--p", str(p), "--n", str(n), "--alpha", str(alpha)]
    expect = {"p": p, "n": n, "floor": floor, "exhaustive": exhaustive}
    if exhaustive:
        args.append("--exhaustive")
        expect["min_count"] = ref.minimal_count(p, n, floor)
    else:
        args += ["--restarts", str(restarts), "--iters", str(iters)]
        args += ["--seed", str(int(rng.integers(0, 2**31)))]
    return Job("search", args, expect)


def structured_set(rng, p, n, codim):
    """A union of random cosets of a random codim-`codim` subspace, with a
    few points flipped."""
    while True:
        forms = rng.integers(0, p, size=(codim, n))
        if ref.rank_mod_p(forms, p) == codim:
            break
    chosen = rng.random(p**codim) < 0.5
    chosen[0], chosen[-1] = True, False
    mask = chosen[ref.coset_labels(forms, p, n)]
    return mask ^ (rng.random(p**n) < STRUCTURE_FLIP)


def structure_job(rng, path, p, n, max_codim):
    mask = structured_set(rng, p, n, max_codim)
    write_set(mask, p, n, path)
    expect = {
        "p": p,
        "n": n,
        "mask": mask,
        "min_difference": ref.min_structure_difference(mask, p, n, max_codim),
    }
    return Job("structure", ["--input", path, "--max-codim", str(max_codim)], expect)


def varnavides_job(rng, path, p, n, m_dim, samples=None):
    mask = rng.random(p**n) < INDICATOR_DENSITY
    write_set(mask, p, n, path)
    args = ["--input", path, "--m-dim", str(m_dim)]
    if samples is None:
        args.append("--exhaustive")
    else:
        args += ["--samples", str(samples), "--seed", str(int(rng.integers(0, 2**31)))]
    expect = {
        "p": p,
        "n": n,
        "m_dim": m_dim,
        "samples": samples,
        "t3_nontrivial": ref.raw_count(mask, p, n)[1],
    }
    return Job("varnavides", args, expect)


def spectrum_job(rng, path, p, n, k, delta):
    f, _ = planted_density(rng, p, n, k, delta)
    write_density(f, p, n, path)
    expect = {"p": p, "n": n, "delta": delta, "spectrum": ref.spectrum(f, p, n)}
    return Job("spectrum", ["--input", path, "--delta", str(delta), "--output", "spectrum.txt"], expect)


def average_job(rng, path, p, n, w_dim):
    f = rng.random(p**n)
    write_density(f, p, n, path)
    while True:
        gens = rng.integers(0, p, size=(w_dim, n))
        if ref.rank_mod_p(gens, p) == w_dim:
            break
    spec = ";".join(",".join(str(int(c)) for c in row) for row in gens)
    expect = {"p": p, "n": n, "mean": mean(f), "average": ref.coset_average(f, gens, p, n)}
    return Job("average", ["--input", path, "--subspace", spec, "--output", "averaged.apf"], expect)


# ---------------------------------------------------------------------------
# The workloads.  Sizes stay within the p^(2n) index tables that `count`,
# `improve` and `round` build today: 3^7 and 7^4 need 545-779 MB per job;
# 3^8 would need about 5.4 GB.


def count_cold(seed, d):
    specs = [(3, 6, True), (3, 7, True), (5, 4, True), (5, 5, True), (7, 3, True),
             (7, 4, True), (3, 7, False), (5, 5, False), (7, 4, False)]
    return [count_job(job_rng(seed, i), os.path.join(d, f"count{i}.apf"), p, n, ind)
            for i, (p, n, ind) in enumerate(specs)]


def improve_audit(seed, d):
    specs = [(3, 6, 3, 1.0, False), (3, 6, 4, 1.0, False), (5, 4, 2, 1.0, True),
             (7, 3, 1, 1.0, True), (3, 7, 3, 1.0, False), (3, 6, 3, 0.25, False)]
    return [improve_job(job_rng(seed, i), os.path.join(d, f"improve{i}.apf"), p, n, k, eps, ind)
            for i, (p, n, k, eps, ind) in enumerate(specs)]


def minimize(seed, d):
    r = [job_rng(seed, i) for i in range(9)]
    return [
        # The iteration caps bind (descent from a random start takes 5-8,
        # 12-19 and 1-2 moves at these sizes), so every seed does the same
        # number of move scans.
        search_job(r[0], 3, 4, 0.3, restarts=2, iters=4),
        search_job(r[1], 5, 3, 0.3, restarts=1, iters=6),
        search_job(r[2], 3, 3, 0.4, restarts=8, iters=1),
        search_job(r[3], 3, 2, 0.45, exhaustive=True),
        structure_job(r[4], os.path.join(d, "structure4.aps"), 3, 5, 2),
        structure_job(r[5], os.path.join(d, "structure5.aps"), 3, 6, 1),
        varnavides_job(r[6], os.path.join(d, "varnavides6.aps"), 3, 5, 2),
        varnavides_job(r[7], os.path.join(d, "varnavides7.aps"), 3, 4, 1),
        varnavides_job(r[8], os.path.join(d, "varnavides8.aps"), 3, 6, 2, samples=20),
    ]


def large_domain(seed, d):
    r = [job_rng(seed, i) for i in range(7)]
    path = [os.path.join(d, f"large{i}.apf") for i in range(7)]
    return [
        spectrum_job(r[0], path[0], 3, 9, 2, 0.01),
        spectrum_job(r[1], path[1], 3, 10, 2, 0.01),
        spectrum_job(r[2], path[2], 5, 6, 2, 0.01),
        spectrum_job(r[3], path[3], 7, 5, 2, 0.01),
        average_job(r[4], path[4], 3, 10, 1),
        average_job(r[5], path[5], 3, 9, 1),
        average_job(r[6], path[6], 5, 6, 5),
    ]


WORKLOADS = {
    "count-cold": count_cold,
    "improve-audit": improve_audit,
    "minimize": minimize,
    "large-domain": large_domain,
}


def build(name: str, seed: int, input_dir: str) -> list[Job]:
    """Write the workload's inputs for this seed and return its job list."""
    os.makedirs(input_dir, exist_ok=True)
    return WORKLOADS[name](seed, input_dir)
