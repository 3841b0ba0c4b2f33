import json
import os

import jsonschema
import numpy as np
import pytest

from ap3.cli import dispatch, selfcheck_checks
from ap3.gfspace import (
    DensityFunction,
    GroupParams,
    PointSet,
    load_density,
    load_set,
    save_density,
    save_set,
)

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "ap3", "schemas", "reports.schema.json"
)
with open(SCHEMA_PATH) as fh:
    SCHEMA = json.load(fh)


def validate(payload, def_name):
    jsonschema.validate(
        payload, {**SCHEMA, "$ref": f"#/$defs/{def_name}"}
    )


@pytest.fixture
def half_density(tmp_path):
    params = GroupParams(3, 2)
    path = tmp_path / "half.apf"
    save_density(DensityFunction.constant(params, 0.5), str(path))
    return str(path)


@pytest.fixture
def cap_set(tmp_path):
    params = GroupParams(3, 2)
    path = tmp_path / "cap.aps"
    save_set(PointSet(params, (0, 1, 3, 4)), str(path))
    return str(path)


def run(args, tmp_path):
    return dispatch(args + ["--output-dir", str(tmp_path / "out")])


class TestCount:
    def test_count(self, half_density, tmp_path, capsys):
        assert run(["count", "--input", half_density], tmp_path) == 0
        out = capsys.readouterr().out
        assert "lambda3=0.125" in out

    def test_indicator_prints_nontrivial(self, tmp_path, capsys):
        params = GroupParams(3, 2)
        path = tmp_path / "ind.apf"
        save_density(PointSet(params, (0, 1, 3, 4)).density(), str(path))
        assert run(["count", "--input", str(path)], tmp_path) == 0
        assert "t3_nontrivial=0" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert run(["count", "--input", str(tmp_path / "no.apf")], tmp_path) == 1

    def test_nan_value(self, tmp_path, capsys):
        bad = tmp_path / "nan.apf"
        bad.write_text("3 1\n0.5 nan 0\n")
        assert run(["count", "--input", str(bad)], tmp_path) == 1
        captured = capsys.readouterr()
        assert "not finite" in captured.err
        assert "lambda3" not in captured.out

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.apf"
        bad.write_text("3 1\n1 7 0\n")
        assert run(["count", "--input", str(bad)], tmp_path) == 1

    def test_manifest_written(self, half_density, tmp_path):
        run(["count", "--input", half_density], tmp_path)
        with open(tmp_path / "out" / "count_manifest.json") as fh:
            manifest = json.load(fh)
        validate(manifest, "manifest")
        assert manifest["command"] == "count"
        assert half_density in manifest["inputs"]


class TestSpectrum:
    def test_export(self, half_density, tmp_path, capsys):
        assert run(
            ["spectrum", "--input", half_density, "--delta", "0.1"], tmp_path
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1  # only the DC coefficient survives
        idx, re, im = lines[0].split()
        assert idx == "0" and float(re) == pytest.approx(4.5)

    def test_bad_delta_is_usage_error(self, half_density, tmp_path):
        assert run(
            ["spectrum", "--input", half_density, "--delta", "-1"], tmp_path
        ) == 2


class TestAverage:
    def test_average(self, tmp_path, rng):
        params = GroupParams(3, 2)
        src = tmp_path / "f.apf"
        save_density(DensityFunction(params, rng.random(9)), str(src))
        assert run(
            ["average", "--input", str(src), "--subspace", "0,1", "--output", "fw.apf"],
            tmp_path,
        ) == 0
        fw = load_density(str(tmp_path / "out" / "fw.apf"))
        f = load_density(str(src))
        assert abs(fw.expectation() - f.expectation()) < 1e-12

    def test_bad_generator(self, half_density, tmp_path):
        assert run(
            ["average", "--input", half_density, "--subspace", "1,x"], tmp_path
        ) == 2


class TestImprove:
    def test_worked_example(self, half_density, tmp_path, capsys):
        assert run(
            ["improve", "--input", half_density, "--epsilon", "1.0"], tmp_path
        ) == 0
        assert "cases_pass=True" in capsys.readouterr().out
        g = load_density(str(tmp_path / "out" / "g.apf"))
        assert g.values[0] == 0.0
        assert np.allclose(g.values[1:], 9 / 16)
        with open(tmp_path / "out" / "improve_report.json") as fh:
            report = json.load(fh)
        validate(report, "improve_report")
        assert report["ell"] == 2

    def test_indicator_flag(self, half_density, tmp_path):
        assert run(
            [
                "improve", "--input", half_density, "--epsilon", "1.0",
                "--indicator", "--seed", "5",
            ],
            tmp_path,
        ) == 0
        g = load_density(str(tmp_path / "out" / "g.apf"))
        assert set(np.unique(g.values)) <= {0.0, 1.0}
        with open(tmp_path / "out" / "improve_report.json") as fh:
            report = json.load(fh)
        validate(report, "improve_report")
        validate(report["rounding"], "rounding_report")

    def test_epsilon_out_of_range(self, half_density, tmp_path):
        assert run(
            ["improve", "--input", half_density, "--epsilon", "2.0"], tmp_path
        ) == 2

    def test_too_rich_spectrum_is_domain_error(self, tmp_path, rng):
        params = GroupParams(3, 2)
        src = tmp_path / "f.apf"
        save_density(DensityFunction(params, rng.random(9)), str(src))
        assert run(
            ["improve", "--input", str(src), "--epsilon", "1.0", "--delta", "1e-15"],
            tmp_path,
        ) == 1


class TestRound:
    def test_round(self, tmp_path, rng, capsys):
        params = GroupParams(3, 3)
        src = tmp_path / "j.apf"
        save_density(DensityFunction(params, rng.random(27)), str(src))
        assert run(
            ["round", "--input", str(src), "--seed", "9", "--monitor", "1,0,0;0,1,0"],
            tmp_path,
        ) == 0
        j2 = load_density(str(tmp_path / "out" / "rounded.apf"))
        assert set(np.unique(j2.values)) <= {0.0, 1.0}
        with open(tmp_path / "out" / "round_report.json") as fh:
            report = json.load(fh)
        validate(report, "rounding_report")
        assert report["seed"] == 9

    def test_replay(self, tmp_path, rng):
        params = GroupParams(3, 3)
        src = tmp_path / "j.apf"
        save_density(DensityFunction(params, rng.random(27)), str(src))
        for sub_dir in ["a", "b"]:
            dispatch(
                [
                    "round", "--input", str(src), "--seed", "11",
                    "--output-dir", str(tmp_path / sub_dir),
                ]
            )
        va = load_density(str(tmp_path / "a" / "rounded.apf")).values
        vb = load_density(str(tmp_path / "b" / "rounded.apf")).values
        assert np.array_equal(va, vb)


class TestSearch:
    def test_exhaustive(self, tmp_path, capsys):
        assert run(
            [
                "search", "--p", "3", "--n", "2", "--alpha", "0.444",
                "--exhaustive",
            ],
            tmp_path,
        ) == 0
        assert "count=4" in capsys.readouterr().out
        witness = load_set(str(tmp_path / "out" / "witness.aps"))
        assert len(witness) == 4
        with open(tmp_path / "out" / "search_result.json") as fh:
            report = json.load(fh)
        validate(report, "search_result")
        assert report["method"] == "exhaustive"

    def test_local(self, tmp_path):
        assert run(
            [
                "search", "--p", "3", "--n", "2", "--alpha", "0.444",
                "--restarts", "10", "--iters", "20", "--seed", "1",
            ],
            tmp_path,
        ) == 0
        with open(tmp_path / "out" / "search_result.json") as fh:
            report = json.load(fh)
        validate(report, "search_result")
        assert report["method"] == "local"

    def test_bad_alpha(self, tmp_path):
        assert run(
            ["search", "--p", "3", "--n", "2", "--alpha", "0"], tmp_path
        ) == 2

    def test_bad_group(self, tmp_path):
        assert run(
            ["search", "--p", "4", "--n", "2", "--alpha", "0.5"], tmp_path
        ) == 1

    def test_unknown_flag(self, tmp_path):
        assert run(["search", "--p", "3", "--frobnicate"], tmp_path) == 2


class TestStructure:
    def test_structure(self, cap_set, tmp_path, capsys):
        assert run(
            ["structure", "--input", cap_set, "--max-codim", "1"], tmp_path
        ) == 0
        with open(tmp_path / "out" / "structure_report.json") as fh:
            report = json.load(fh)
        validate(report, "structure_report")


class TestVarnavides:
    def test_exhaustive(self, cap_set, tmp_path, capsys):
        assert run(
            ["varnavides", "--input", cap_set, "--m-dim", "1", "--exhaustive"],
            tmp_path,
        ) == 0
        assert "certified_lower_bound=0" in capsys.readouterr().out
        with open(tmp_path / "out" / "varnavides_report.json") as fh:
            report = json.load(fh)
        validate(report, "varnavides_report")

    def test_bad_samples(self, cap_set, tmp_path):
        assert run(
            ["varnavides", "--input", cap_set, "--m-dim", "1", "--samples", "0"],
            tmp_path,
        ) == 2


class TestSelfcheck:
    def test_passes(self, tmp_path, capsys):
        assert run(["selfcheck"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_json_payload(self, tmp_path, capsys):
        assert run(["selfcheck", "--json"], tmp_path) == 0
        payload = json.loads(capsys.readouterr().out)
        validate(payload, "selfcheck_report")
        assert all(c["passed"] for c in payload["checks"])

    def test_sign_mutation_detected(self, monkeypatch):
        # conjugating the forward transform flips the phase convention;
        # the phase check must catch it
        from ap3 import fourier

        orig = fourier.dft_forward

        def conjugated(f):
            spec = orig(f)
            return fourier.Spectrum(spec.params, np.conj(spec.coeffs))

        monkeypatch.setattr(fourier, "dft_forward", conjugated)
        import ap3.cli as cli

        monkeypatch.setattr(cli.fourier, "dft_forward", conjugated)
        checks = selfcheck_checks()
        by_name = {c["name"]: c["passed"] for c in checks}
        assert by_name["transform_phase"] is False
