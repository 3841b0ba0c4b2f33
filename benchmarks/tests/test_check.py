"""The checker accepts real ap3 outputs and rejects each kind of corruption."""

import json
import os
import re

import numpy as np
import pytest

import check
import reference as ref
import workloads
from ap3 import cli
from check import CheckFailed


def run_job(job, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert cli.main([job.command, *job.args, "--output-dir", out]) == 0
    return out, capsys.readouterr().out


def rewrite(path, edit):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def test_count_rejects_wrong_counts(tmp_path, capsys):
    job = workloads.count_job(np.random.default_rng(1), str(tmp_path / "f.apf"), 3, 3, True)
    out, stdout = run_job(job, tmp_path, capsys)
    check.verify(job, out, stdout)
    raw = job.expect["t3_raw"]
    with pytest.raises(CheckFailed, match="t3_raw"):
        check.verify(job, out, stdout.replace(f"t3_raw={raw}", f"t3_raw={raw + 1}"))
    nontrivial = job.expect["t3_nontrivial"]
    bad = stdout.replace(f"t3_nontrivial={nontrivial}", f"t3_nontrivial={nontrivial - 1}")
    with pytest.raises(CheckFailed, match="t3_nontrivial"):
        check.verify(job, out, bad)


def test_count_rejects_float_lambda3_off_by_more_than_tolerance(tmp_path, capsys):
    job = workloads.count_job(np.random.default_rng(2), str(tmp_path / "f.apf"), 3, 3, False)
    out, stdout = run_job(job, tmp_path, capsys)
    check.verify(job, out, stdout)
    lam = job.expect["lambda3"]
    bad = re.sub(r"lambda3=\S+", f"lambda3={lam * (1 + 1e-9)!r}", stdout)
    with pytest.raises(CheckFailed, match="lambda3"):
        check.verify(job, out, bad)


def test_improve_rejects_mean_drift(tmp_path, capsys):
    job = workloads.improve_job(np.random.default_rng(3), str(tmp_path / "f.apf"), 3, 4, 2, 1.0, False)
    out, stdout = run_job(job, tmp_path, capsys)
    check.verify(job, out, stdout)
    g_path = os.path.join(out, "g.apf")
    g = check.read_values(g_path, 3, 4)
    g[np.argmax((g > 0.1) & (g < 0.9))] += 1e-9  # E(g) moves by 1.2e-11
    workloads.write_density(g, 3, 4, g_path)
    with pytest.raises(CheckFailed, match="E\\(g\\)"):
        check.verify(job, out, stdout)


def test_improve_rejects_failed_case(tmp_path, capsys):
    job = workloads.improve_job(np.random.default_rng(3), str(tmp_path / "f.apf"), 3, 4, 2, 1.0, False)
    out, stdout = run_job(job, tmp_path, capsys)
    report = os.path.join(out, "improve_report.json")
    rewrite(report, lambda t: t.replace('"passed": true', '"passed": false', 1))
    with pytest.raises(CheckFailed, match="per-case"):
        check.verify(job, out, stdout)


def test_rounding_rejects_non_binary_output(tmp_path, capsys):
    job = workloads.improve_job(np.random.default_rng(4), str(tmp_path / "f.apf"), 3, 4, 2, 1.0, True)
    out, stdout = run_job(job, tmp_path, capsys)
    facts = check.verify(job, out, stdout)
    assert "repaired_points" in facts
    g_path = os.path.join(out, "g.apf")
    g = check.read_values(g_path, 3, 4)
    assert set(np.unique(g)) <= {0.0, 1.0}
    g[np.argmax(g == 1.0)] = 0.5
    workloads.write_density(g, 3, 4, g_path)
    with pytest.raises(CheckFailed, match="0/1"):
        check.verify(job, out, stdout)


def test_rounding_rejects_lowered_mean(tmp_path, capsys):
    job = workloads.improve_job(np.random.default_rng(4), str(tmp_path / "f.apf"), 3, 4, 2, 1.0, True)
    out, stdout = run_job(job, tmp_path, capsys)
    report_path = os.path.join(out, "improve_report.json")
    report = json.load(open(report_path))
    report["rounding"]["mean_after"] = report["rounding"]["mean_before"] - 0.01
    json.dump(report, open(report_path, "w"))
    with pytest.raises(CheckFailed, match="lowered the mean"):
        check.verify(job, out, stdout)


def test_search_rejects_witness_below_floor(tmp_path, capsys):
    job = workloads.search_job(np.random.default_rng(5), 3, 3, 0.4, restarts=2, iters=3)
    out, stdout = run_job(job, tmp_path, capsys)
    facts = check.verify(job, out, stdout)
    assert facts["witness_count"] >= job.expect["floor"]
    # Drop one point and make every reported number agree with the smaller
    # set, so that the size floor is the only defect left.
    witness = os.path.join(out, "witness.aps")
    mask = check.read_mask(witness, 3, 3)
    mask[np.nonzero(mask)[0][0]] = False
    workloads.write_set(mask, 3, 3, witness)
    raw, _ = ref.raw_count(mask, 3, 3)
    report_path = os.path.join(out, "search_result.json")
    report = json.load(open(report_path))
    report.update(count=raw, lambda3=f"{raw}/729")
    json.dump(report, open(report_path, "w"))
    stdout = re.sub(r"count=\d+", f"count={raw}", stdout)
    with pytest.raises(CheckFailed, match="floor"):
        check.verify(job, out, stdout)


def test_search_rejects_miscounted_witness(tmp_path, capsys):
    job = workloads.search_job(np.random.default_rng(6), 3, 2, 0.45, exhaustive=True)
    out, stdout = run_job(job, tmp_path, capsys)
    check.verify(job, out, stdout)
    report_path = os.path.join(out, "search_result.json")
    rewrite(report_path, lambda t: re.sub(r'"count": (\d+)', lambda m: f'"count": {int(m[1]) - 1}', t))
    with pytest.raises(CheckFailed, match="recounts"):
        check.verify(job, out, stdout)


def test_structure_and_varnavides_checks(tmp_path, capsys):
    rng = np.random.default_rng(7)
    s_job = workloads.structure_job(rng, str(tmp_path / "s.aps"), 3, 3, 1)
    out, stdout = run_job(s_job, tmp_path, capsys)
    check.verify(s_job, out, stdout)
    s_job.expect["min_difference"] -= 1
    with pytest.raises(CheckFailed, match="reference minimum"):
        check.verify(s_job, out, stdout)
    report_path = os.path.join(out, "structure_report.json")
    report = json.load(open(report_path))
    report["symmetric_difference"] += 1
    json.dump(report, open(report_path, "w"))
    with pytest.raises(CheckFailed, match="report says"):
        check.verify(s_job, out, stdout)

    v_job = workloads.varnavides_job(rng, str(tmp_path / "v.aps"), 3, 3, 1)
    out, stdout = run_job(v_job, tmp_path, capsys)
    check.verify(v_job, out, stdout)
    v_job.expect["t3_nontrivial"] += 1
    with pytest.raises(CheckFailed, match="closed form"):
        check.verify(v_job, out, stdout)


def test_missing_output_is_a_failure(tmp_path):
    job = workloads.search_job(np.random.default_rng(5), 3, 2, 0.45, exhaustive=True)
    with pytest.raises(CheckFailed, match="unreadable"):
        check.verify(job, str(tmp_path), "count=1")


def test_planted_check_rejects_an_extra_large_coefficient():
    rng = np.random.default_rng(8)
    p, n, k, delta = 3, 4, 2, 0.004
    f, forms = workloads.planted_density(rng, p, n, k, delta)
    assert workloads.planted_spectrum_ok(f, forms, p, n, delta)
    off = next(a for a in range(p**n) if a not in set(ref.span_elements(forms, p, n).tolist()))
    phase = (ref.digits(p, n) @ ref.digits(p, n)[off]) % p
    bumped = f + 0.01 * np.cos(2 * np.pi * phase / p)
    assert not workloads.planted_spectrum_ok(bumped, forms, p, n, delta)
