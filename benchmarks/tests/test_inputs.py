"""Inputs are a function of the seed alone, and the files hold what ap3 reads."""

import json
import os

import numpy as np

import reference as ref
import run
import spans
import workloads
from ap3.gfspace import load_density
from conftest import ROOT


def build_bytes(name, seed, d):
    workloads.build(name, seed, str(d))
    return {f: open(os.path.join(d, f), "rb").read() for f in sorted(os.listdir(d))}


def test_inputs_are_byte_identical_per_seed(tmp_path):
    for name in ("improve-audit", "minimize"):
        a = build_bytes(name, 11, tmp_path / name / "a")
        b = build_bytes(name, 11, tmp_path / name / "b")
        c = build_bytes(name, 12, tmp_path / name / "c")
        assert a == b
        assert a.keys() == c.keys() and a != c


def test_density_files_round_trip_through_ap3(tmp_path):
    rng = np.random.default_rng(3)
    f = rng.random(27)
    f[:3] = [0.0, 1.0, 0.5]
    path = str(tmp_path / "f.apf")
    workloads.write_density(f, 3, 3, path)
    assert np.array_equal(load_density(path).values, f)


def test_reference_counts_match_a_plain_loop():
    p, n = 3, 2
    rng = np.random.default_rng(4)
    f = rng.random(p**n)
    mask = f < 0.5
    dig = ref.digits(p, n)
    idx = lambda d: int(ref.to_index(d % p, p))  # noqa: E731
    total = raw = 0
    for m in range(p**n):
        for d in range(p**n):
            a, b = idx(dig[m] + dig[d]), idx(dig[m] + 2 * dig[d])
            total += f[m] * f[a] * f[b]
            raw += int(mask[m] and mask[a] and mask[b])
    assert abs(ref.lambda3(f, p, n) - total / p ** (2 * n)) < 1e-15
    assert ref.raw_count(mask, p, n) == (raw, raw - int(mask.sum()))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(run.PASS_SECONDS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
