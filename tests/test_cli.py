import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from ap3 import cli, fourier, gfspace, rounding, search, subspace as sub
from ap3.cli import HASH_CHUNK, _file_sha256, _write_json, main
from ap3.gfspace import (
    BLOCK,
    DensityFunction,
    GroupParams,
    PointSet,
    load_density,
    load_set,
    save_density,
    save_set,
)
from ap3.improve import construct_g, write_case_blocks

from conftest import CASE_COLUMNS, case_columns, planted_density, subprocess_env

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
    return main(args + ["--output-dir", str(tmp_path / "out")])


def traced_run(args, tmp_path):
    """The traced peak of `run(args)`, after one untraced run of the same
    job, which fills the caches that every later run reuses (argparse's
    compiled patterns, the scale maps)."""
    assert run(args, tmp_path) == 0
    tracemalloc.start()
    try:
        assert run(args, tmp_path) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The `ap3` console script's call (pyproject: ap3.cli:main), for `python -c`.
PROGRAM = "import sys; from ap3.cli import main; sys.exit(main())"


class HandTable:
    """Hand-built case columns, written through the report writer's
    block-level entry `improve.write_case_blocks` in blocks of the given
    sizes (one empty block for no cases)."""

    def __init__(self, sizes, **columns) -> None:
        self.sizes = sizes
        self.columns = columns

    def blocks(self):
        ends = np.cumsum(self.sizes)
        for start, end in zip(ends - self.sizes, ends):
            yield SimpleNamespace(**{k: v[start:end] for k, v in self.columns.items()})

    def write_json(self, fh) -> None:
        write_case_blocks(fh, self.blocks())


class TestWriteJson:
    """_write_json writes the bytes json.dump wrote when every case of a
    case table was a dict."""

    @staticmethod
    def oracle(payload) -> bytes:
        def plain(value):
            if not hasattr(value, "blocks"):
                return value
            columns = case_columns(value)
            names = list(CASE_COLUMNS)
            cases = zip(*(getattr(columns, k).tolist() for k in names))
            return [dict(zip(names, case)) for case in cases]

        fields = payload if isinstance(payload, dict) else vars(payload)
        text = json.dumps(
            {k: plain(v) for k, v in fields.items()},
            indent=2,
            sort_keys=True,
            default=cli._json_value,
        )
        return (text + "\n").encode("ascii")

    def check(self, payload, tmp_path):
        path = tmp_path / "report.json"
        _write_json(payload, str(path))
        assert path.read_bytes() == self.oracle(payload)

    @pytest.mark.parametrize(
        "p, n, k, indicator, blocks, last",
        [
            pytest.param(3, 4, 2, False, 1, 81, id="3-4-2-False"),
            pytest.param(5, 3, 1, True, 1, 25, id="5-3-1-True"),
            pytest.param(3, 6, 4, False, 14, 3 * 81, id="3-6-4-False"),
            pytest.param(5, 4, 3, False, 32, 125, id="5-4-3-False"),
        ],
    )
    def test_planted_improve_report(self, tmp_path, p, n, k, indicator, blocks, last):
        # The last two tables span several blocks of whole u1 rows (6 and 4
        # rows of BLOCK // 8 = 512 cases) and end in a partial block.
        g, report = construct_g(planted_density(p, n, k, 0), 1.0, 0.004)
        sizes = [len(b.passed) for b in report.per_case_checks.blocks()]
        assert (len(sizes), sizes[-1], sum(sizes)) == (blocks, last, p ** (2 * k))
        assert max(sizes) <= max(BLOCK // 8, p**k)
        payload = report
        if indicator:
            _, rounded = rounding.round_to_indicator(g, 3, monitored=[report.W])
            payload = {**vars(report), "rounding": rounded}
        self.check(payload, tmp_path)

    def test_other_payloads(self, tmp_path, rng):
        params = GroupParams(3, 3)
        cap = PointSet(GroupParams(3, 2), (0, 1, 3, 4))
        j = DensityFunction(params, rng.random(params.size))
        payloads = [
            {},
            {
                "command": "count",
                "argv": ["count", "--input", "a\nb.apf"],
                "inputs": {"a\nb.apf": "00"},
                "seed": None,
                "version": "0",
            },
            rounding.round_to_indicator(j, 9, monitored=[])[1],
            search.exhaustive_min(GroupParams(3, 2), 0.444),
            search.local_min(params, 0.3, 2, 4, 5),
            sub.structure_report(cap, 1),
            sub.varnavides_estimate(cap, 1, exhaustive=True),
        ]
        for payload in payloads:
            self.check(payload, tmp_path)

    @pytest.mark.parametrize(
        "m", [0, 1, BLOCK // 8, BLOCK // 8 + 1, 3 * BLOCK // 8 + 7]
    )
    def test_hand_built_tables(self, tmp_path, rng, m):
        # Repeated floats, as in real audits, plus finite values written in
        # exponent form or that float equality would merge;
        # blocks of BLOCK // 8 cases and a partial last block, or ragged
        # blocks with an empty one inside.
        special = [-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2]
        pool = np.array(special + rng.random(7).tolist())
        base = pool[rng.integers(0, len(pool), size=m)]
        base[: len(special)] = special[:m]
        columns = dict(
            reps=rng.integers(0, 3**6, size=(m, 3)),
            all_in_v_prime=rng.random(m) < 0.5,
            lhs=np.roll(base, 1),
            rhs=base[::-1].copy(),
            base=base,
            passed=rng.random(m) < 0.5,
        )
        even = [min(BLOCK // 8, m - start) for start in range(0, m, BLOCK // 8)] or [0]
        ragged = [m // 3, 0, m - m // 3 - 1, 1] if m > 1 else [0, m]
        for sizes in (even, ragged):
            cases = HandTable(np.array(sizes), **columns)
            self.check({"z": {"a": [1, "x\ny"]}, "per_case_checks": cases, "a": 0.5}, tmp_path)

    # BLOCK = 448 writes slices of 7 cases, which end inside every block and
    # leave a partial slice at the end of each.

    @pytest.mark.parametrize("m", [BLOCK // 8, 3 * BLOCK // 8 + 7])
    def test_hand_built_tables_in_slices(self, tmp_path, rng, monkeypatch, m):
        monkeypatch.setattr(gfspace, "BLOCK", 64 * 7)
        self.test_hand_built_tables(tmp_path, rng, m)

    def test_planted_report_in_slices(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gfspace, "BLOCK", 64 * 7)
        _, report = construct_g(planted_density(3, 6, 4, 0), 1.0, 0.004)
        self.check(report, tmp_path)

    def test_writes_at_most_a_slice(self):
        # Each write holds at most BLOCK // 64 cases, so no text of a whole
        # block of BLOCK // 8 cases is made; the last write closes the list.
        sizes = [BLOCK // 8, 0, 3 * BLOCK // 64 + 5]
        m = sum(sizes)
        columns = dict(
            reps=np.zeros((m, 3), dtype=np.int64),
            all_in_v_prime=np.zeros(m, dtype=bool),
            lhs=np.zeros(m),
            rhs=np.zeros(m),
            base=np.zeros(m),
            passed=np.ones(m, dtype=bool),
        )
        writes = []
        write_case_blocks(SimpleNamespace(write=writes.append), HandTable(sizes, **columns).blocks())
        step = BLOCK // 64
        assert [text.count('"passed"') for text in writes] == [step] * 8 + [step] * 3 + [5, 0]


# Pinned bytes of small seeded reports of every type: any change to how a
# report is written fails here.
GOLDEN_REPORTS = {
    "rounding": """{
  "hoeffding_bound": 1.0,
  "lambda3_after": 0.04938271604938271,
  "lambda3_before": 0.07182501066426467,
  "max_coset_deviation": 0.14865901049396202,
  "mean_after": 0.4444444444444444,
  "mean_before": 0.4173669800188653,
  "repaired_points": 0,
  "seed": 9
}
""",
    "search_exhaustive": """{
  "best_set": [
    0,
    1,
    3,
    4
  ],
  "count": 4,
  "iterations": 0,
  "lambda3": "4/81",
  "lambda3_float": 0.04938271604938271,
  "method": "exhaustive",
  "restarts": 0,
  "seed": null
}
""",
    "search_local": """{
  "best_set": [
    7,
    11,
    14,
    15,
    16,
    19,
    20,
    22,
    23
  ],
  "count": 9,
  "iterations": 2,
  "lambda3": "1/81",
  "lambda3_float": 0.012345679012345678,
  "method": "local",
  "restarts": 2,
  "seed": 5
}
""",
    "structure": """{
  "A_reps": [
    0,
    1
  ],
  "W": "dim 1; basis: (0,1)",
  "best_positive_dim": {
    "A_reps": [
      0,
      1
    ],
    "W": "dim 1; basis: (0,1)",
    "normalized": 0.2222222222222222,
    "symmetric_difference": 2
  },
  "normalized": 0.2222222222222222,
  "searched_codims": [
    0,
    1
  ],
  "symmetric_difference": 2
}
""",
    "structure_max_codim": """{
  "A_reps": [
    0,
    1,
    3,
    4
  ],
  "W": "dim 0; basis:",
  "best_positive_dim": {
    "A_reps": [
      0,
      1
    ],
    "W": "dim 1; basis: (0,1)",
    "normalized": 0.2222222222222222,
    "symmetric_difference": 2
  },
  "normalized": 0.0,
  "searched_codims": [
    0,
    2
  ],
  "symmetric_difference": 0
}
""",
    "varnavides_exhaustive": """{
  "alpha": 0.4444444444444444,
  "certified_lower_bound": 0.0,
  "certified_lower_bound_exact": "0",
  "dense_coset_fraction": 0.8333333333333334,
  "exhaustive": true,
  "m_dim": 1,
  "sampled_subgroups": 4
}
""",
    "varnavides_sampled": """{
  "alpha": 0.25925925925925924,
  "certified_lower_bound": 11.076923076923077,
  "certified_lower_bound_exact": "144/13",
  "dense_coset_fraction": 0.6,
  "exhaustive": false,
  "m_dim": 2,
  "sampled_subgroups": 5
}
""",
}


def golden_report(name):
    cap = PointSet(GroupParams(3, 2), (0, 1, 3, 4))
    p33 = GroupParams(3, 3)
    if name == "rounding":
        j = DensityFunction(
            GroupParams(3, 2), np.random.Generator(np.random.PCG64(2024)).random(9)
        )
        return rounding.round_to_indicator(j, 9, monitored=[sub.span(j.params, [[0, 1]])])[1]
    if name == "search_exhaustive":
        return search.exhaustive_min(GroupParams(3, 2), 0.444)
    if name == "search_local":
        return search.local_min(p33, 0.3, 2, 4, 5)
    if name == "structure":
        return sub.structure_report(cap, 1)
    if name == "structure_max_codim":
        return sub.structure_report(cap, 2)  # the best W is {0}
    if name == "varnavides_exhaustive":
        return sub.varnavides_estimate(cap, 1, exhaustive=True)
    s = PointSet(p33, (0, 1, 3, 4, 9, 13, 26))
    return sub.varnavides_estimate(s, 2, samples=5, seed=1)


class TestReportGoldens:
    """Each report type writes its pinned bytes through the one json hook."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_small_report(self, tmp_path, name):
        path = tmp_path / "report.json"
        _write_json(golden_report(name), str(path))
        assert path.read_text(encoding="ascii") == GOLDEN_REPORTS[name]

    @pytest.mark.parametrize(
        "indicator, size, digest",
        [
            (False, 18702, "e7998f486d05c97320a5e6e3315fab27faf9b9f378a61aeecbcce5253f67f5ed"),
            (True, 19000, "d0dcca54b9c6e84822c71a96c42f1c991de2930cd5935a1a9095703a6b77cd02"),
        ],
        ids=["plain", "rounded"],
    )
    def test_planted_improve(self, tmp_path, indicator, size, digest):
        g, report = construct_g(planted_density(3, 4, 2, 0), 1.0, 0.004)
        payload = report
        if indicator:
            _, rounded = rounding.round_to_indicator(g, 3, monitored=[report.W])
            payload = {**vars(report), "rounding": rounded}
        path = tmp_path / "improve_report.json"
        _write_json(payload, str(path))
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)

    @pytest.mark.parametrize("value", [np.int64(3), np.float32(0.5), object(), {1, 2}])
    def test_other_values_are_errors(self, tmp_path, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _write_json({"x": value}, str(tmp_path / "r.json"))


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

    def test_indicator_count_drops_the_values(self, tmp_path, capsys, rng):
        # An indicator is counted from its mask alone: at 3^10 the job
        # traces 3.3-3.4 times the float64 values, and 4.3-4.4 while it
        # held them beside the count (which alone traces 3.1 times).
        params = GroupParams(3, 10)
        path = str(tmp_path / "ind.apf")
        save_density(PointSet.from_mask(params, rng.random(params.size) < 0.3).density(), path)
        peak = traced_run(["count", "--input", path], tmp_path)
        assert "t3_nontrivial=" in capsys.readouterr().out
        assert peak < 3.7 * 8 * params.size, peak

    @pytest.mark.parametrize("k", [1, 2, 1001, 50002])
    def test_interval_in_cyclic_group(self, tmp_path, capsys, k):
        # In Z_p with k <= (p + 1)/2, x + z = 2y within {0, ..., k-1} forces
        # x = z mod 2 (else y = (x + z + p)/2 >= k), and then y = (x + z)/2:
        # T3 counts the ordered pairs of equal parity.
        params = GroupParams(100003, 1)
        path = tmp_path / "interval.apf"
        save_density(PointSet(params, tuple(range(k))).density(), str(path))
        assert run(["count", "--input", str(path)], tmp_path) == 0
        raw = ((k + 1) // 2) ** 2 + (k // 2) ** 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [f"t3_raw={raw}", f"t3_nontrivial={raw - k}"]

    def test_indicator_count_above_2_53_prints_exactly(self, monkeypatch, tmp_path, capsys):
        # A float t3_raw would read 2^53 and contradict t3_nontrivial.
        params = GroupParams(3, 2)
        path = tmp_path / "ind.apf"
        save_density(PointSet(params, (0, 1)).density(), str(path))
        monkeypatch.setattr(fourier, "triple_counts", lambda x, params: np.array([2**53 + 1]))
        assert run(["count", "--input", str(path)], tmp_path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["t3_raw=9007199254740993", "t3_nontrivial=9007199254740991"]

    def test_missing_file(self, tmp_path, capsys):
        path = str(tmp_path / "no.apf")
        assert run(["count", "--input", path], tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ap3: error: [Errno 2] No such file or directory: {path!r}\n"

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

    @pytest.mark.parametrize(
        "argv, name, text, error",
        [
            (
                ["count"], "f.apf", "x 1\n0 0 0\n",
                "f.apf:1: non-integer header field: invalid literal for int() with base 10: 'x'",
            ),
            (
                ["structure", "--max-codim", "1"], "f.aps", "x 2\n0\n",
                "f.aps:1: non-integer header field: invalid literal for int() with base 10: 'x'",
            ),
            (["structure", "--max-codim", "1"], "empty.aps", "", "empty.aps:1: empty file"),
        ],
        ids=["apf-header", "aps-header", "empty-aps"],
    )
    def test_input_error_is_one_line(self, tmp_path, capsys, monkeypatch, argv, name, text, error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        assert run([argv[0], "--input", name, *argv[1:]], tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ap3: error: {error}\n"

    def test_directory_input(self, tmp_path, capsys):
        assert run(["count", "--input", str(tmp_path)], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("ap3: error:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_huge_header_fails_fast(self, tmp_path, capsys):
        bad = tmp_path / "huge.apf"
        bad.write_bytes(b"7\x1f126397162360691373\n0.5\n")
        start = time.monotonic()
        assert run(["count", "--input", str(bad)], tmp_path) == 1
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        message = "p^n = 7^126397162360691373 exceeds the supported index range"
        assert err == f"ap3: error: {bad}:1: {message}\n"

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 1.6 PiB"), "ap3: error: Unable to allocate 1.6 PiB\n"),
            (MemoryError(), "ap3: error: out of memory\n"),
        ],
    )
    def test_memory_error_is_one_line(self, half_density, tmp_path, capsys, monkeypatch, exc, line):
        def load_density(path):
            raise exc

        monkeypatch.setattr("ap3.gfspace.load_density", load_density)
        assert run(["count", "--input", half_density], tmp_path) == 1
        assert capsys.readouterr().err == line

    def test_manifest_written(self, half_density, tmp_path):
        run(["count", "--input", half_density], tmp_path)
        with open(tmp_path / "out" / "count_manifest.json") as fh:
            manifest = json.load(fh)
        validate(manifest, "manifest")
        assert manifest["command"] == "count"
        assert half_density in manifest["inputs"]


class TestCommonFlags:
    def test_threads_is_gone(self, half_density, tmp_path):
        assert run(["count", "--input", half_density, "--threads", "1"], tmp_path) == 2

    def test_bad_log_level(self, half_density, tmp_path):
        assert run(["count", "--input", half_density, "--log-level", "bogus"], tmp_path) == 2

    def test_log_level_any_case(self, half_density, tmp_path, capsys):
        assert run(["count", "--input", half_density, "--log-level", "info"], tmp_path) == 0
        assert "lambda3=0.125" in capsys.readouterr().out


class TestOptionSurface:
    # Every (subcommand, flag) pair the parser accepts; a flag that no
    # command body reads does not belong here.
    FLAGS = {
        "count": {"--log-level", "--output-dir", "--input"},
        "spectrum": {"--log-level", "--output-dir", "--input", "--delta", "--output"},
        "average": {"--log-level", "--output-dir", "--input", "--subspace", "--output"},
        "improve": {
            "--log-level", "--output-dir", "--seed", "--input", "--epsilon", "--delta",
            "--indicator", "--output", "--report",
        },
        "round": {
            "--log-level", "--output-dir", "--seed", "--input", "--monitor", "--output",
            "--report",
        },
        "search": {
            "--log-level", "--output-dir", "--seed", "--p", "--n", "--alpha", "--exhaustive",
            "--restarts", "--iters", "--witness", "--report",
        },
        "structure": {"--log-level", "--output-dir", "--input", "--max-codim", "--report"},
        "varnavides": {
            "--log-level", "--output-dir", "--seed", "--input", "--m-dim", "--samples",
            "--exhaustive", "--report",
        },
        "selfcheck": {"--log-level", "--json"},
    }

    def test_each_subcommand_takes_only_its_flags(self):
        (subs,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        surface = {
            name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
            for name, sp in subs.choices.items()
        }
        assert surface == self.FLAGS
        assert sum(map(len, surface.values())) == 55


class TestNumericFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--delta", "nan"],
            ["improve", "--epsilon", "1.0", "--delta", "nan"],
            ["improve", "--epsilon", "nan"],
            ["search", "--p", "3", "--n", "2", "--alpha", "inf"],
            ["search", "--p", "3", "--n", "2", "--alpha", "0.5", "--restarts", "-1"],
            ["search", "--p", "3", "--n", "2", "--alpha", "0.5", "--restarts", "0"],
            ["search", "--p", "3", "--n", "2", "--alpha", "0.5", "--iters", "-3"],
            ["structure", "--max-codim", "-1"],
            ["improve", "--epsilon", "0"],
            ["improve", "--epsilon", "1.5"],
            ["search", "--p", "3", "--n", "2", "--alpha", "0"],
            ["search", "--p", "3", "--n", "2", "--alpha", "2"],
            ["spectrum", "--delta", "0"],
            ["improve", "--epsilon", "1.0", "--delta", "0"],
            ["varnavides", "--m-dim", "1", "--samples", "0"],
            ["varnavides", "--m-dim", "0"],
            ["varnavides", "--m-dim", "1", "--samples", "3", "--exhaustive"],
        ],
        ids=[
            "spectrum-delta",
            "improve-delta",
            "epsilon",
            "alpha",
            "restarts",
            "restarts-zero",
            "iters",
            "max-codim",
            "epsilon-zero",
            "epsilon-above-one",
            "alpha-zero",
            "alpha-above-one",
            "spectrum-delta-zero",
            "improve-delta-zero",
            "samples-zero",
            "m-dim-zero",
            "samples-with-exhaustive",
        ],
    )
    def test_rejected_at_parse_time(self, half_density, tmp_path, capsys, argv):
        if argv[0] != "search":
            argv = argv[:1] + ["--input", half_density] + argv[1:]
        assert run(argv, tmp_path) == 2
        assert "error: argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["improve", "--input", "IN", "--epsilon", "1.0"],
            ["improve", "--input", "IN", "--epsilon", "1.0", "--indicator"],
            ["round", "--input", "IN"],
            ["search", "--p", "3", "--n", "2", "--alpha", "0.5", "--restarts", "1"],
            ["varnavides", "--input", "SET", "--m-dim", "1"],
            ["varnavides", "--input", "SET", "--m-dim", "1", "--exhaustive"],
        ],
        ids=[
            "improve",
            "improve-indicator",
            "round",
            "search",
            "varnavides-sampled",
            "varnavides-exhaustive",
        ],
    )
    def test_negative_seed_rejected(self, half_density, cap_set, tmp_path, capsys, argv):
        inputs = {"IN": half_density, "SET": cap_set}
        argv = [inputs.get(a, a) for a in argv] + ["--seed", "-1"]
        assert run(argv, tmp_path) == 2
        assert "argument --seed: '-1' is negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--input", "IN", "--output-dir", "OUT", "--seed", "-1"],
            ["spectrum", "--input", "IN", "--delta", "0.1", "--output-dir", "OUT", "--seed", "-1"],
            ["average", "--input", "IN", "--subspace", "0,1", "--output-dir", "OUT", "--seed", "-1"],
            ["structure", "--input", "SET", "--max-codim", "1", "--output-dir", "OUT", "--seed", "-1"],
            ["selfcheck", "--seed", "-1"],
            ["selfcheck", "--output-dir", "OUT"],
            ["improve", "--input", "IN", "--epsilon", "1.0", "--output-dir", "OUT", "--c-p", "nan"],
        ],
        ids=[
            "count-seed",
            "spectrum-seed",
            "average-seed",
            "structure-seed",
            "selfcheck-seed",
            "selfcheck-output-dir",
            "c-p",
        ],
    )
    def test_flag_not_taken(self, half_density, cap_set, tmp_path, capsys, argv):
        # A subcommand that never draws takes no --seed, one that writes no
        # file no --output-dir, and the default delta has no --c-p knob.
        out = str(tmp_path / "out")
        argv = [{"IN": half_density, "SET": cap_set, "OUT": out}.get(a, a) for a in argv]
        assert main(argv) == 2
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_iters_accepted(self, tmp_path):
        assert run(
            ["search", "--p", "3", "--n", "2", "--alpha", "0.5", "--restarts", "1", "--iters", "0"],
            tmp_path,
        ) == 0


class TestImportBudget:
    """A job loads only the ap3 modules its subcommand runs: `import ap3.cli`
    loads no numpy, and `--help` and a usage error load nothing more, so
    they finish without numpy.  `average` transforms nothing and loads no
    `ap3.fourier`, and so no `numpy.fft`, which `import numpy` leaves
    unloaded.
    None loads numpy's random package or OpenSSL (`_hashlib`), which that
    package imports through secrets and hmac: jobs that draw random numbers
    use the standard library's `random.Random`.  None loads `dataclasses`, whose
    classes each compile their methods at import, nor `logging` unless
    --log-level is other than its default WARNING.  Only the subcommands
    that report or check exact fractions (`search`, `varnavides`,
    `selfcheck`) load `fractions`, which loads `decimal`: 0.3-0.5 MB of
    peak RSS on top of numpy's."""

    NO_FRACTIONS = ("count", "spectrum", "average", "improve", "round", "structure")

    SCRIPT = (
        "import json, sys\n"
        "import ap3.cli\n"
        "loaded = lambda: {m for m in sys.modules if m.split('.')[0] == 'ap3'}\n"
        "before = loaded()\n"
        "code = ap3.cli.main(sys.argv[1:])\n"
        "banned = {'numpy.random', 'secrets', '_hashlib', 'logging', 'dataclasses'}\n"
        "banned = sorted(banned & set(sys.modules))\n"
        "fft, numpy = 'numpy.fft' in sys.modules, 'numpy' in sys.modules\n"
        "fractions = 'fractions' in sys.modules\n"
        "new = sorted(loaded() - before)\n"
        "print(json.dumps([code, sorted(before), new, banned, fft, numpy, fractions]))\n"
    )

    def job(self, argv, half_density, cap_set, tmp_path):
        """(exit code, ap3 modules loaded by import, by the job, banned,
        whether numpy.fft, numpy and fractions are loaded, stderr)."""
        inputs = {"IN": half_density, "SET": cap_set}
        argv = [inputs.get(a, a) for a in argv]
        if argv[0] != "selfcheck":  # which writes no files, so takes no --output-dir
            argv += ["--output-dir", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv],
            env=subprocess_env(), capture_output=True, text=True, check=True, timeout=60,
        )
        return [*json.loads(proc.stdout.splitlines()[-1]), proc.stderr]

    @pytest.mark.parametrize(
        "argv, added",
        [
            (["spectrum", "--input", "IN", "--delta", "0.1"], ["ap3.fourier", "ap3.gfspace"]),
            (["count", "--input", "IN"], ["ap3.fourier", "ap3.gfspace"]),
            (["average", "--input", "IN", "--subspace", "0,1"], ["ap3.gfspace", "ap3.subspace"]),
            (
                ["improve", "--input", "IN", "--epsilon", "1.0"],
                ["ap3.fourier", "ap3.gfspace", "ap3.improve", "ap3.subspace"],
            ),
            (
                ["improve", "--input", "IN", "--epsilon", "1.0", "--indicator"],
                ["ap3.fourier", "ap3.gfspace", "ap3.improve", "ap3.rounding", "ap3.subspace"],
            ),
            (
                ["round", "--input", "IN"],
                ["ap3.fourier", "ap3.gfspace", "ap3.rounding", "ap3.subspace"],
            ),
            (
                ["selfcheck"],
                ["ap3.fourier", "ap3.gfspace", "ap3.improve", "ap3.selfcheck", "ap3.subspace"],
            ),
            (
                ["search", "--p", "3", "--n", "2", "--alpha", "0.3", "--restarts", "1"],
                ["ap3.fourier", "ap3.gfspace", "ap3.search"],
            ),
            (
                ["structure", "--input", "SET", "--max-codim", "1"],
                ["ap3.fourier", "ap3.gfspace", "ap3.subspace"],
            ),
            (
                ["varnavides", "--input", "SET", "--m-dim", "1", "--exhaustive"],
                ["ap3.fourier", "ap3.gfspace", "ap3.subspace"],
            ),
            (
                ["varnavides", "--input", "SET", "--m-dim", "1", "--samples", "3"],
                ["ap3.fourier", "ap3.gfspace", "ap3.subspace"],
            ),
            (
                ["varnavides", "--input", "SET", "--m-dim", "1", "--samples", "3", "--seed", "4"],
                ["ap3.fourier", "ap3.gfspace", "ap3.subspace"],
            ),
            (["--help"], []),
        ],
    )
    def test_modules_loaded(self, half_density, cap_set, tmp_path, argv, added):
        code, before, new, banned, fft, numpy, fractions, _ = self.job(
            argv, half_density, cap_set, tmp_path
        )
        assert code == 0
        assert before == ["ap3", "ap3.cli"]
        assert new == added
        assert banned == []
        assert fft == ("ap3.fourier" in added)
        assert numpy == ("ap3.gfspace" in added)
        if argv[0] in self.NO_FRACTIONS:
            assert not fractions

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["count", "--help"], None),
            (["count", "--input", "IN", "--bogus"], "ap3: error: unrecognized arguments: --bogus"),
            (
                ["improve", "--input", "IN", "--epsilon", "0"],
                "ap3 improve: error: argument --epsilon: '0' is not in (0, 1]",
            ),
            (
                ["average", "--input", "IN", "--subspace", "1,-1"],
                "ap3 average: error: argument --subspace: generator '1,-1': '-1' is negative",
            ),
            (
                ["improve", "--input", "IN", "--epsilon", "1", "--seed", "3"],
                "ap3 improve: error: argument --seed: not allowed without argument --indicator",
            ),
        ],
        ids=["count-help", "unknown-flag", "epsilon-0", "negative-digit", "unread-seed"],
    )
    def test_parsing_loads_no_numpy(self, half_density, cap_set, tmp_path, argv, error):
        code, _, new, _, _, numpy, _, err = self.job(argv, half_density, cap_set, tmp_path)
        assert (code, new, numpy) == (0 if error is None else 2, [], False)
        assert err.splitlines()[-1:] == ([error] if error else [])

    def test_log_level_loads_logging(self, half_density, cap_set, tmp_path):
        argv = ["count", "--input", "IN", "--log-level", "INFO"]
        code, _, new, banned, *_ = self.job(argv, half_density, cap_set, tmp_path)
        assert code == 0
        assert new == ["ap3.fourier", "ap3.gfspace"]
        assert banned == ["logging"]


class TestProgramPath:
    """`main()` with no argv is the `ap3` program: after parsing it compiles
    the ap3 modules that the job runs, then executes them (`gfspace`, which
    imports numpy, first) and freezes the garbage collector, then runs as
    `main(sys.argv[1:])` does, byte for byte, and flushes stdout.  A run
    that parsing ends (help, a usage error) freezes the collector too, so
    the program freezes on every exit path.  `main(argv)`, called
    in-process, never freezes."""

    def program(self, argv, cwd, stdout=subprocess.PIPE, unbuffered=True, **kwargs):
        env = dict(subprocess_env(), COLUMNS="100")
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-c", PROGRAM, *argv], env=env,
            cwd=cwd, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60, **kwargs,
        )

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["count", "--input", "IN", "--output-dir", "out"], 0),
            (["count", "--input", "missing.apf", "--output-dir", "out"], 1),
            (["count", "--input", "IN", "--bogus"], 2),
            (["--help"], 0),
        ],
        ids=["count", "missing-input", "unknown-flag", "help"],
    )
    def test_matches_dispatch(self, argv, code, half_density, tmp_path, capsys, monkeypatch):
        argv = [half_density if a == "IN" else a for a in argv]
        (tmp_path / "program").mkdir()
        (tmp_path / "library").mkdir()
        proc = self.program(argv, tmp_path / "program")
        monkeypatch.chdir(tmp_path / "library")
        monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help to the terminal
        assert main(argv) == proc.returncode == code
        got = capsys.readouterr()
        assert (proc.stdout, proc.stderr) == (got.out, got.err)

    # Records, in order, each ap3 source file compiled and the first import
    # of numpy, and prints them with the ap3 files that the job loaded.
    AUDITED = (
        "import atexit, json, sys\n"
        "events = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile' and isinstance(args[1], str) and 'ap3' in args[1]:\n"
        "        events.append(args[1])\n"
        "    elif event == 'import' and args[0] == 'numpy':\n"
        "        events.append('numpy')\n"
        "sys.addaudithook(hook)\n"
        "loaded = lambda: [m.__file__ for n, m in sys.modules.items() if n.split('.')[0] == 'ap3']\n"
        "atexit.register(lambda: print(json.dumps([events, loaded()])))\n"
    ) + PROGRAM

    @pytest.fixture(scope="class")
    def no_ap3_cache(self, tmp_path_factory):
        """An environment in which ap3 finds no bytecode cache and writes
        none.  The cache directory holds numpy's and the standard library's
        bytecode, not ap3's, so that the jobs do not spend ~0.5 s each
        compiling numpy."""
        cache = tmp_path_factory.mktemp("pycache")
        env = dict(subprocess_env(), PYTHONPYCACHEPREFIX=str(cache))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        warm = "import argparse, fractions, json, numpy.fft"
        subprocess.run([sys.executable, "-c", warm], env=env, check=True, timeout=120)
        return dict(env, PYTHONDONTWRITEBYTECODE="1")

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--input", "IN"],
            ["spectrum", "--input", "IN", "--delta", "0.1"],
            ["average", "--input", "IN", "--subspace", "0,1"],
            ["improve", "--input", "IN", "--epsilon", "1.0"],
            ["improve", "--input", "IN", "--epsilon", "1.0", "--indicator"],
            ["round", "--input", "IN", "--monitor", "1,0"],
            ["search", "--p", "3", "--n", "2", "--alpha", "0.3", "--restarts", "1"],
            ["search", "--p", "3", "--n", "2", "--alpha", "0.3", "--exhaustive"],
            ["structure", "--input", "SET", "--max-codim", "1"],
            ["varnavides", "--input", "SET", "--m-dim", "1", "--exhaustive"],
            ["varnavides", "--input", "SET", "--m-dim", "1", "--samples", "3"],
            ["selfcheck"],
        ],
        ids=[
            "count", "spectrum", "average", "improve", "improve-indicator", "round-monitor",
            "search-local", "search-exhaustive", "structure", "varnavides-exhaustive",
            "varnavides-sampled", "selfcheck",
        ],
    )
    def test_compiles_before_numpy(self, argv, half_density, cap_set, tmp_path, no_ap3_cache):
        # Without a bytecode cache, as on a host that writes none, every ap3
        # module the job loads compiles once, and all of them before numpy
        # loads, so no compile adds to the memory that numpy holds.
        inputs = {"IN": half_density, "SET": cap_set}
        argv = [inputs.get(a, a) for a in argv]
        if argv[0] != "selfcheck":
            argv += ["--output-dir", "out"]
        proc = subprocess.run(
            [sys.executable, "-c", self.AUDITED, *argv], env=no_ap3_cache, cwd=tmp_path,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        events, loaded = json.loads(proc.stdout.splitlines()[-1])
        ap3_dir = os.path.dirname(cli.__file__)
        compiled = [e for e in events if e != "numpy" and os.path.dirname(e) == ap3_dir]
        assert sorted(compiled) == sorted(loaded) and len(loaded) > 3
        assert events.count("numpy") == 1 and events[-1] == "numpy", events

    @pytest.mark.parametrize("name", ["ap3.gfspace", "ap3.fourier"])
    def test_keeps_imported_modules(self, name, tmp_path):
        # A caller that imported some of ap3 before main() keeps those
        # module objects: the program loads only what is not yet loaded.
        script = (
            "import atexit, importlib, sys\n"
            f"importlib.import_module({name!r})\n"
            "ap3 = lambda: {n: m for n, m in sys.modules.items() if n.split('.')[0] == 'ap3'}\n"
            "before = ap3()\n"
            "same = lambda: all(ap3()[n] is m for n, m in before.items())\n"
            "parent = lambda: all(getattr(before['ap3'], n[4:]) is m for n, m in ap3().items()\n"
            "                     if n.count('.') == 1)\n"
            "atexit.register(lambda: print(sorted(before), same(), parent()))\n"
        ) + PROGRAM
        (tmp_path / "bad.apf").write_text("garbage\n")
        argv = ["average", "--input", "bad.apf", "--subspace", "1,0", "--output-dir", "out"]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=subprocess_env(), cwd=tmp_path,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == "ap3: error: bad.apf:1: header must be 'p n', got 'garbage'\n"
        assert name in proc.stdout and proc.stdout.endswith(" True True\n"), proc.stdout

    def test_program_freezes(self, half_density, tmp_path):
        # The freeze follows the imports of the job's modules, numpy among
        # them, so a count job leaves only the objects it made itself tracked
        # and unfrozen: 145 on Python 3.11 with numpy 2.4, 395 when only numpy
        # and gfspace loaded before the freeze, and 9113 with the freeze
        # before every import.
        script = (
            "import gc, sys\n"
            "from ap3.cli import main\n"
            "before = gc.get_freeze_count()\n"
            "code = main()\n"
            "print(before, gc.get_freeze_count(), len(gc.get_objects()), code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "count", "--input", half_density, "--output-dir", "out"],
            env=subprocess_env(), cwd=tmp_path, capture_output=True, text=True, check=True,
            timeout=60,
        )
        before, frozen, unfrozen, code = map(int, proc.stdout.split()[-4:])
        assert (before, code) == (0, 0)
        assert frozen > 10_000 and unfrozen < 2000, (frozen, unfrozen)

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["count", "--help"], 0), (["count", "--bogus"], 2)],
        ids=["help", "count-help", "unknown-flag"],
    )
    def test_program_freezes_when_parsing_ends(self, argv, code, tmp_path):
        # A run that parsing ends freezes what site, argparse and cli made,
        # which shutdown would otherwise collect: about 12.5k objects on
        # Python 3.11.
        script = (
            "import gc, sys\n"
            "from ap3.cli import main\n"
            "code = main()\n"
            "print(gc.get_freeze_count(), code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=subprocess_env(), cwd=tmp_path,
            capture_output=True, text=True, check=True, timeout=60,
        )
        frozen, got = map(int, proc.stdout.split()[-2:])
        assert got == code
        assert frozen > 5000, frozen

    def test_library_calls_do_not_freeze(self, half_density, tmp_path, capsys):
        argv = ["count", "--input", half_density, "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert cli.main(["--bogus"]) == 2
        capsys.readouterr()
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ap3")
        assert gc.get_freeze_count() == 0

    def full_stdout(self, argv, cwd):
        """(exit code, stderr) of the program with stdout on /dev/full, with
        PYTHONUNBUFFERED set, where a write fails at once, and unset, where
        it fails when stdout is flushed."""
        runs = set()
        for unbuffered in (True, False):
            with open("/dev/full", "w") as full:
                proc = self.program(argv, cwd, stdout=full, unbuffered=unbuffered)
            runs.add((proc.returncode, proc.stderr))
        return runs

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout(self, half_density, tmp_path):
        # A report that cannot be written is a domain error.
        argv = ["count", "--input", half_density, "--output-dir", "out"]
        assert self.full_stdout(argv, tmp_path) == {
            (1, "ap3: error: [Errno 28] No space left on device\n")
        }

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["--help"], ["count", "--help"]], ids=["help", "count-help"])
    def test_full_stdout_help(self, argv, tmp_path):
        # So is help, which argparse alone would drop and exit 0.
        assert self.full_stdout(argv, tmp_path) == {
            (1, "ap3: error: [Errno 28] No space left on device\n")
        }

    def closed_stdout(self, argv, cwd):
        """(exit code, stderr) of the program started with stdout closed,
        with PYTHONUNBUFFERED set and unset."""
        runs = set()
        for unbuffered in (True, False):
            proc = self.program(
                argv, cwd, unbuffered=unbuffered, preexec_fn=lambda: os.close(1)
            )
            runs.add((proc.returncode, proc.stderr))
        return runs

    def test_closed_stdout(self, half_density, tmp_path):
        # Python sets sys.stdout to None, where print() would drop the
        # report and exit 0; the job fails like one on a full stdout.
        argv = ["count", "--input", half_density, "--output-dir", "out"]
        assert self.closed_stdout(argv, tmp_path) == {
            (1, "ap3: error: [Errno 9] Bad file descriptor\n")
        }
        assert (tmp_path / "out" / "count_manifest.json").exists()

    def test_closed_stdout_help(self, tmp_path):
        # Help falls back to stderr and exits 0.
        help_text = self.program(["--help"], tmp_path).stdout
        assert help_text.startswith("usage: ap3")
        assert self.closed_stdout(["--help"], tmp_path) == {(0, help_text)}


class TestMemoryBudget:
    """Like TestImportBudget for memory: the 3^10 spectrum and average jobs
    and a count on Z_4001 peak within MARGIN_MB of the start-up that every
    job pays, and a planted improve job within IMPROVE_MARGIN_MB.  That
    start-up is `ap3 --help` after `import ap3.cli, ap3.gfspace`, which
    compiles `cli` and then loads numpy, in the order every job does:
    `ap3 --help` alone loads neither.  Measured on a 2-core x86-64 VM
    (Python 3.11.7, numpy 2.4.6, no bytecode cache), a job over that
    start-up: spectrum +1.9 MB with its input read into the buffer that
    the transform runs on (+2.2-2.3 MB with a float64 copy of the input
    beside it), average +1.5-1.6 MB once it drops its input before it
    writes (+1.8-2.0 MB holding it), the Z_4001 count
    (`fourier.triple_counts` on the set's mask) +1.4-1.5 MB, from the
    mask alone (+1.5-1.6 MB beside the float values), and improve
    +2.5-2.7 MB.  Before those three changes: spectrum +2.2-2.4 MB with
    the large spectrum compared a block at a time (+2.4-2.7 MB with a
    full-size |fhat|), average +1.9-2.0 MB and count +1.5-1.6 MB.  The
    figures that follow are over an older start-up that compiled `cli`
    after numpy and peaked 0.7 MB higher: spectrum +1.4-1.6 MB, average
    +0.9-1.1 MB and count +0.3-0.6 MB with the job's modules compiled
    before numpy loads (+1.9-2.2, +1.8-2.0 and +0.9-1.0 MB with each
    compiled after it),
    in-place FFTs, averaging that lays out one block of cosets at a time
    and a spectrum export sorted in Python (average +2.5-2.6 and spectrum
    +2.1-2.4 MB with the whole coset layout and numpy's lexsort).  The
    count was +367 MB when each transform multiplied by a dense p x p
    character matrix, and spectrum +4.0 MB with an FFT that is not in
    place; spectrum +4.3 and average +3.2 MB when a transform held up to
    three full-size copies and averaging gathered every coset row and an
    element-to-row table."""

    MARGIN_MB = 2.9
    # `ap3 improve` on planted 3^8 with k = 5 audits |T|^2 = 59049 cases:
    # +2.6-2.8 MB over the start-up with each case written from one text
    # template, +3.1-3.3 MB while each block's values were deduped with
    # np.unique, +3.2-3.3 MB (once read +3.3-3.5) while f_W was laid out and
    # counted at full size.  Over the older start-up: +2.1-2.4 MB
    # with its modules compiled before numpy loads (+2.9-3.0 MB compiled
    # after it) and the case table computed a block at a time, +13.1-13.5
    # MB when it held every case as arrays and the report was formatted a
    # whole column at a time.
    IMPROVE_MARGIN_MB = 4.0
    # Jobs start from this small process, not from pytest: on Linux a
    # child's ru_maxrss counts the memory of the process it was forked from.
    LAUNCH = (
        "import resource, subprocess, sys\n"
        "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )

    # The start-up: `ap3 --help` after what every job loads, `cli`
    # compiled before `gfspace` brings in numpy, as a job compiles it.
    STARTUP = "import ap3.cli, ap3.gfspace; " + PROGRAM

    def peak_mb(self, argv, cwd, program=PROGRAM):
        """Least peak RSS of three runs, which sheds the host's noise."""
        cmd = [sys.executable, "-c", self.LAUNCH, sys.executable, "-c", program, *argv]
        runs = [
            subprocess.run(
                cmd, env=subprocess_env(), cwd=cwd, capture_output=True, text=True,
                check=True, timeout=60,
            ).stdout
            for _ in range(3)
        ]
        return min(int(out.split()[-1]) for out in runs) / 1024

    def test_large_jobs_near_startup(self, tmp_path, rng):
        params = GroupParams(3, 10)
        path = str(tmp_path / "in.apf")
        save_density(DensityFunction(params, rng.random(params.size)), path)
        cyclic = GroupParams(4001, 1)
        cyclic_path = str(tmp_path / "cyclic.apf")
        cyclic_set = PointSet.from_mask(cyclic, rng.random(cyclic.size) < 0.3)
        save_density(cyclic_set.density(), cyclic_path)
        out = ["--output-dir", str(tmp_path / "out")]
        base = self.peak_mb(["--help"], tmp_path, self.STARTUP)
        jobs = {
            "spectrum": ["spectrum", "--input", path, "--delta", "0.01", "--output", "s.txt"],
            "average": ["average", "--input", path, "--subspace", "1,1,0,0,0,0,0,0,0,0"],
            "count": ["count", "--input", cyclic_path],
        }
        growth = {name: self.peak_mb(argv + out, tmp_path) - base for name, argv in jobs.items()}
        assert all(g <= self.MARGIN_MB for g in growth.values()), growth

    def test_improve_audit_near_startup(self, tmp_path):
        path = str(tmp_path / "planted.apf")
        save_density(planted_density(3, 8, 5, 0), path)
        base = self.peak_mb(["--help"], tmp_path, self.STARTUP)
        argv = ["improve", "--input", path, "--epsilon", "1", "--delta", "0.004"]
        growth = self.peak_mb(argv + ["--output-dir", str(tmp_path / "out")], tmp_path) - base
        assert growth <= self.IMPROVE_MARGIN_MB, growth


class TestManifestDigest:
    @pytest.mark.parametrize(
        "size", [0, 1, HASH_CHUNK - 1, HASH_CHUNK, HASH_CHUNK + 1]
    )
    def test_matches_hashlib(self, tmp_path, rng, size):
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        path = tmp_path / "in.bin"
        path.write_bytes(data)
        assert _file_sha256(str(path)) == hashlib.sha256(data).hexdigest()

    def test_large_density_file(self, tmp_path, rng):
        params = GroupParams(3, 10)
        path = tmp_path / "f.apf"
        save_density(DensityFunction(params, rng.random(params.size)), str(path))
        data = path.read_bytes()
        assert len(data) > HASH_CHUNK
        assert _file_sha256(str(path)) == hashlib.sha256(data).hexdigest()


class TestSpectrum:
    def test_export(self, half_density, tmp_path, capsys):
        assert run(
            ["spectrum", "--input", half_density, "--delta", "0.1"], tmp_path
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1  # only the DC coefficient survives
        idx, re, im = lines[0].split()
        assert idx == "0" and float(re) == pytest.approx(4.5)

    def test_lines_are_the_large_spectrum(self, tmp_path, rng):
        params = GroupParams(3, 4)
        src = tmp_path / "f.apf"
        save_density(DensityFunction(params, rng.random(params.size)), str(src))
        f = load_density(str(src))
        for delta in (0.01, 0.02, 0.05, 0.5):
            assert run(
                ["spectrum", "--input", str(src), "--delta", str(delta), "--output", "s.txt"],
                tmp_path,
            ) == 0
            lines = (tmp_path / "out" / "s.txt").read_text().splitlines()
            want = fourier.large_spectrum(fourier.dft_forward(f), delta, params)
            assert sorted(int(line.split()[0]) for line in lines) == list(want.members)

    def test_holds_one_complex_buffer(self, tmp_path, rng):
        # The values are read into the buffer that the transform runs on in
        # place.  At 3^10 the job traces 1.21-1.22 times that buffer, the
        # rest being the manifest's hash chunks and the parser, and
        # 1.53-1.57 times it while it held a float64 copy of the values.
        params = GroupParams(3, 10)
        path = str(tmp_path / "f.apf")
        save_density(DensityFunction(params, rng.random(params.size)), path)
        argv = ["spectrum", "--input", path, "--delta", "0.01", "--output", "s.txt"]
        peak = traced_run(argv, tmp_path)
        assert peak < 1.3 * 16 * params.size, peak

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

    def test_bad_generator(self, half_density, tmp_path, capsys):
        # Parsed before the input is read, so a missing input is not reported.
        for source in [half_density, str(tmp_path / "missing.apf")]:
            assert run(["average", "--input", source, "--subspace", "1,x"], tmp_path) == 2
            err = capsys.readouterr().err
            assert "argument --subspace: generator '1,x': invalid int value: 'x'" in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "spec, bad", [("3,3", "3,3"), ("1,0;4,2", "4,2"), ("1,2,0", "1,2,0"), ("1", "1")]
    )
    def test_digit_outside_range(self, half_density, tmp_path, capsys, spec, bad):
        # A digit is never reduced mod p: 3,3 would be 0 on F_3^2.
        assert run(["average", "--input", half_density, "--subspace", spec], tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"ap3: error: generator ({bad}) is not in F_3^2: it needs 2 digits, each in [0, 3)\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, bad", [("1,0;4,-1", "4,-1"), ("0,-1", "0,-1")])
    def test_negative_digit_is_usage_error(self, half_density, tmp_path, capsys, spec, bad):
        argv = ["average", "--input", half_density, f"--subspace={spec}"]
        assert run(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --subspace: generator '{bad}': '-1' is negative\n")
        assert not (tmp_path / "out").exists()


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

    def test_codimension_above_n_is_one_line(self, tmp_path, capsys):
        # At epsilon = 1, p = 3 the pipeline needs ell = 2 > n = 1.
        src = tmp_path / "f.apf"
        save_density(DensityFunction.constant(GroupParams(3, 1), 0.5), str(src))
        assert run(["improve", "--input", str(src), "--epsilon", "1.0"], tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ap3: error: n = 1 < ell = 2")

    @pytest.mark.parametrize(
        "flags",
        [["--epsilon", "0.5", "--delta", "1e-200"], ["--epsilon", "1e-310"]],
        ids=["delta-squared-overflows", "epsilon-power-overflows"],
    )
    def test_extreme_finite_flags_are_one_line(self, tmp_path, rng, capsys, flags):
        # delta^-2 and eps * p^ell leave the float range; both end in one
        # domain error, not a traceback.
        params = GroupParams(3, 4)
        src = tmp_path / "f.apf"
        save_density(DensityFunction(params, rng.random(params.size)), str(src))
        assert run(["improve", "--input", str(src), *flags], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("ap3: error:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_default_delta_underflow_names_epsilon(self, tmp_path, rng, capsys):
        # With no --delta, epsilon = 0.02 at p = 3 gives a default that
        # underflows to 0; the error names epsilon and --delta.
        params = GroupParams(3, 4)
        src = tmp_path / "f.apf"
        save_density(DensityFunction(params, rng.random(params.size)), str(src))
        assert run(["improve", "--input", str(src), "--epsilon", "0.02"], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("ap3: error:") and err.count("\n") == 1
        assert "epsilon = 0.02" in err and "--delta" in err


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

    @pytest.mark.parametrize("monitor", ["1,0,0;0,5,0", "0,1"])
    def test_monitor_digit_outside_range(self, tmp_path, rng, capsys, monitor):
        params = GroupParams(5, 3)
        src = tmp_path / "j.apf"
        save_density(DensityFunction(params, rng.random(params.size)), str(src))
        argv = ["round", "--input", str(src), "--monitor", "1,1,1", f"--monitor={monitor}"]
        assert run(argv, tmp_path) == 1
        bad = monitor.split(";")[-1]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"ap3: error: generator ({bad}) is not in F_5^3: it needs 3 digits, each in [0, 5)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_monitor_negative_digit_is_usage_error(self, tmp_path, capsys):
        # The input is never read: its group does not decide a negative digit.
        argv = ["round", "--input", str(tmp_path / "missing.apf"), "--monitor=-1,0,0"]
        assert run(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --monitor: generator '-1,0,0': '-1' is negative\n")
        assert not (tmp_path / "out").exists()

    def test_tiny_weight_sets_a_point(self, tmp_path, capsys):
        # E(j) = (3 + 5e-10) / 9 lies above 3 / 9, so the rounded set needs
        # a fourth point, and repair sets the lowest zero.
        src = tmp_path / "j.apf"
        src.write_text("3 2\n1 1 1 5e-10 0 0 0 0 0\n")
        assert run(["round", "--input", str(src), "--seed", "0"], tmp_path) == 0
        assert capsys.readouterr().out == "mean_after=0.44444444444444442 repaired=1\n"
        j2 = load_density(str(tmp_path / "out" / "rounded.apf"))
        assert j2.values.tolist() == [1.0] * 4 + [0.0] * 5
        with open(tmp_path / "out" / "round_report.json") as fh:
            report = json.load(fh)
        assert report["mean_before"] == 0.3333333333888889
        assert report["mean_after"] == 0.4444444444444444

    def test_replay(self, tmp_path, rng):
        params = GroupParams(3, 3)
        src = tmp_path / "j.apf"
        save_density(DensityFunction(params, rng.random(27)), str(src))
        for sub_dir in ["a", "b"]:
            main(
                [
                    "round", "--input", str(src), "--seed", "11",
                    "--output-dir", str(tmp_path / sub_dir),
                ]
            )
        va = load_density(str(tmp_path / "a" / "rounded.apf")).values
        vb = load_density(str(tmp_path / "b" / "rounded.apf")).values
        assert np.array_equal(va, vb)


class TestRecordedSeed:
    """A manifest records the seed its run drew from: an unseeded run's
    recorded seed, passed back as --seed, gives the same outputs."""

    @pytest.mark.parametrize(
        "argv, fixed",
        [
            (["round", "--input", "J"], 0),
            (["improve", "--input", "HALF", "--epsilon", "1.0", "--indicator"], 0),
            (["search", "--p", "3", "--n", "3", "--alpha", "0.3", "--restarts", "2"], None),
            (["varnavides", "--input", "SET", "--m-dim", "1", "--samples", "3"], None),
        ],
    )
    def test_unseeded_run_replays(self, half_density, cap_set, tmp_path, rng, capsys, argv, fixed):
        j = tmp_path / "j.apf"
        save_density(DensityFunction(GroupParams(3, 3), rng.random(27)), str(j))
        inputs = {"J": str(j), "HALF": half_density, "SET": cap_set}
        argv = [inputs.get(a, a) for a in argv]

        def once(extra, out):
            assert main(argv + extra + ["--output-dir", str(out)]) == 0
            seed = json.loads((out / f"{argv[0]}_manifest.json").read_text())["seed"]
            files = {
                f.name: f.read_bytes() for f in out.iterdir() if not f.name.endswith("_manifest.json")
            }
            return seed, capsys.readouterr().out, files

        seed, *first = once([], tmp_path / "first")
        assert isinstance(seed, int) and 0 <= seed < 2**63
        assert fixed is None or seed == fixed
        replay_seed, *replay = once(["--seed", str(seed)], tmp_path / "replay")
        assert replay_seed == seed and replay == first

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--input", "HALF"],
            ["improve", "--input", "HALF", "--epsilon", "1.0"],
            ["search", "--p", "3", "--n", "2", "--alpha", "0.444", "--exhaustive"],
            ["varnavides", "--input", "SET", "--m-dim", "1", "--exhaustive"],
        ],
    )
    def test_run_that_draws_nothing_records_none(self, half_density, cap_set, tmp_path, argv):
        inputs = {"HALF": half_density, "SET": cap_set}
        assert run([inputs.get(a, a) for a in argv], tmp_path) == 0
        manifest = json.loads((tmp_path / "out" / f"{argv[0]}_manifest.json").read_text())
        assert manifest["seed"] is None

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["improve", "--input", "IN", "--epsilon", "1.0", "--seed", "5"],
             "argument --seed: not allowed without argument --indicator"),
            (["search", "--exhaustive", "--seed", "5"],
             "argument --seed: not allowed with argument --exhaustive"),
            (["search", "--exhaustive", "--restarts", "7"],
             "argument --restarts: not allowed with argument --exhaustive"),
            (["search", "--restarts", "50", "--exhaustive"],
             "argument --restarts: not allowed with argument --exhaustive"),
            (["search", "--exhaustive", "--rest", "7"],
             "argument --restarts: not allowed with argument --exhaustive"),
            (["search", "--exhaustive", "--iters", "3"],
             "argument --iters: not allowed with argument --exhaustive"),
            (["varnavides", "--input", "IN", "--m-dim", "1", "--exhaustive", "--seed", "4"],
             "argument --seed: not allowed with argument --exhaustive"),
            (["improve", "--seed", "5", "--input", "IN", "--epsilon", "1.0"],
             "argument --seed: not allowed without argument --indicator"),
            (["search", "--seed", "5", "--exhaustive"],
             "argument --seed: not allowed with argument --exhaustive"),
            (["search", "--iters", "3", "--exhaustive"],
             "argument --iters: not allowed with argument --exhaustive"),
            (["varnavides", "--input", "IN", "--m-dim", "1", "--seed", "4", "--exhaustive"],
             "argument --seed: not allowed with argument --exhaustive"),
            (["varnavides", "--input", "IN", "--m-dim", "1", "--exhaustive", "--samples", "3"],
             "argument --samples: not allowed with argument --exhaustive"),
            (["varnavides", "--input", "IN", "--m-dim", "1", "--samples", "3", "--exhaustive"],
             "argument --samples: not allowed with argument --exhaustive"),
            (["varnavides", "--input", "IN", "--m-dim", "1", "--samples", "100", "--exhaustive"],
             "argument --samples: not allowed with argument --exhaustive"),
        ],
        ids=[
            "improve-seed",
            "search-exhaustive-seed",
            "search-exhaustive-restarts",
            "search-exhaustive-default-restarts",
            "search-exhaustive-abbreviated-restarts",
            "search-exhaustive-iters",
            "varnavides-exhaustive-seed",
            "improve-seed-first",
            "search-seed-exhaustive",
            "search-iters-exhaustive",
            "varnavides-seed-exhaustive",
            "varnavides-exhaustive-samples",
            "varnavides-samples-exhaustive",
            "varnavides-default-samples-exhaustive",
        ],
    )
    def test_flag_the_mode_does_not_read_is_rejected(self, tmp_path, capsys, argv, error):
        # A usage error at parse time: the input, missing here, is never read.
        if argv[0] == "search":
            argv = argv[:1] + ["--p", "3", "--n", "2", "--alpha", "0.444"] + argv[1:]
        argv = [str(tmp_path / "missing") if a == "IN" else a for a in argv]
        assert run(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"ap3 {argv[0]}: error: {error}\n")
        assert err.count("error:") == 1
        assert not (tmp_path / "out").exists()

    def test_modes_refuse_flags_in_one_place(self):
        # `_unread_flag` refuses every flag a mode does not read; no
        # parser, top level or subcommand, has a mutually exclusive group.
        parser = cli.build_parser()
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for p in [parser, *subs.choices.values()]:
            assert p._mutually_exclusive_groups == []


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

    def test_max_codim_above_n_is_domain_error(self, tmp_path, capsys):
        # Whether --max-codim fits depends on the input's n, so it is
        # checked after the input is read.
        save_set(PointSet(GroupParams(3, 4), (0, 1)), str(tmp_path / "s.aps"))
        argv = ["structure", "--input", str(tmp_path / "s.aps"), "--max-codim", "9"]
        assert run(argv, tmp_path) == 1
        assert capsys.readouterr().err == "ap3: error: max_codim=9 out of range [0, 4]\n"

    def test_cyclic_group_is_domain_error(self, tmp_path, capsys):
        save_set(PointSet(GroupParams(7, 1), (0, 1, 3)), str(tmp_path / "z7.aps"))
        argv = ["structure", "--input", str(tmp_path / "z7.aps"), "--max-codim", "1"]
        assert run(argv, tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "ap3: error: n = 1: F_7^1 = Z_7 has no subspaces except 0 and Z_7\n"
        )


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

    def test_m_dim_above_n_is_domain_error(self, cap_set, tmp_path, capsys):
        # Whether --m-dim fits depends on the input's n, so it is checked
        # after the input is read.
        assert run(["varnavides", "--input", cap_set, "--m-dim", "3"], tmp_path) == 1
        assert capsys.readouterr().err == "ap3: error: m_dim=3 out of range [1, 2]\n"

    @pytest.mark.parametrize("mode", [["--exhaustive"], ["--samples", "3", "--seed", "1"]])
    def test_cyclic_group_is_domain_error(self, tmp_path, capsys, mode):
        save_set(PointSet(GroupParams(7, 1), (0, 1, 3)), str(tmp_path / "z7.aps"))
        argv = ["varnavides", "--input", str(tmp_path / "z7.aps"), "--m-dim", "1", *mode]
        assert run(argv, tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "ap3: error: n = 1: F_7^1 = Z_7 has no subspaces except 0 and Z_7\n"
        )

    def test_bad_samples_before_missing_input(self, tmp_path, capsys):
        # A usage error is reported before the input is read.
        missing = str(tmp_path / "no.aps")
        assert run(["varnavides", "--input", missing, "--m-dim", "1", "--samples", "0"], tmp_path) == 2
        assert "--samples" in capsys.readouterr().err

    def test_exhaustive_scan_over_budget_fails_fast(self, tmp_path, capsys):
        # F_3^8 has 75913222 subspaces of dimension 4: the exhaustive scan
        # is refused before it starts, as structure's is, and the sampled
        # one, which --samples bounds, still runs.
        path = str(tmp_path / "s8.aps")
        save_set(PointSet(GroupParams(3, 8), tuple(range(0, 3**8, 7))), path)
        argv = ["varnavides", "--input", path, "--m-dim", "4"]
        start = time.monotonic()
        assert run(argv + ["--exhaustive"], tmp_path) == 1
        assert time.monotonic() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ap3: error: 75913222 subspaces to enumerate exceeds budget 20000\n"
        assert run(argv + ["--samples", "2", "--seed", "1"], tmp_path) == 0
        assert capsys.readouterr().out.startswith("certified_lower_bound=")


class TestSelfcheck:
    def test_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_json_payload(self, capsys):
        assert main(["selfcheck", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate(payload, "selfcheck_report")
        assert all(c["passed"] for c in payload["checks"])

    def test_sign_mutation_detected(self, monkeypatch):
        # conjugating the forward transform flips the phase convention;
        # the phase check must catch it
        from ap3 import fourier

        orig = fourier.dft_forward

        def conjugated(f):
            return np.conj(orig(f))

        monkeypatch.setattr(fourier, "dft_forward", conjugated)
        from ap3 import selfcheck

        monkeypatch.setattr(selfcheck.fourier, "dft_forward", conjugated)
        checks = selfcheck.selfcheck_checks()
        by_name = {c["name"]: c["passed"] for c in checks}
        assert by_name["transform_phase"] is False

    def test_check_names(self):
        from ap3 import selfcheck

        sizes = ["p3_n2", "p5_n2", "p3_n3"]
        identities = ["roundtrip", "parseval", "lambda3_identity", "lambda3_exact"]
        assert [c["name"] for c in selfcheck.selfcheck_checks()] == [
            "transform_phase",
            *(f"{check}_{size}" for size in sizes for check in identities),
            "complementation_float",
            "complementation_exact",
            "closed_forms_p3_n3",
            "closed_forms_p5_n2",
            "coset_average_support",
            "pipeline_worked_example",
        ]

    def test_inverse_sign_mutation_detected(self, monkeypatch):
        # conjugating the inverse's argument flips its phase to omega^(+a.m),
        # which maps a real f to m -> f(-m); every round trip must catch it.
        # (Conjugating its result would not: the preimage is real.)
        from ap3 import selfcheck

        orig = fourier.inverse
        monkeypatch.setattr(fourier, "inverse", lambda x, p, k: orig(np.conj(x), p, k))
        roundtrips = [c for c in selfcheck.selfcheck_checks() if c["name"].startswith("roundtrip_")]
        assert len(roundtrips) == 3 and not any(c["passed"] for c in roundtrips)
