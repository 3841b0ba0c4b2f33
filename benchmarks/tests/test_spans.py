"""Self-time arithmetic and the tracer's wrapping, on small cases."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import spans
import workloads
from conftest import BENCH, ROOT


def tree(rows):
    parent, start, end = zip(*rows)
    return np.array(parent, dtype=np.int32), np.array(start, float), np.array(end, float)


def test_self_time_subtracts_what_children_cover():
    # 0: [0, 10] root; 1: [1, 3] and 2: [4, 8] under it; 3: [5, 6] under 2;
    # 4: [20, 21], a second root.
    parent, start, end = tree([(-1, 0, 10), (0, 1, 3), (0, 4, 8), (2, 5, 6), (-1, 20, 21)])
    own = spans.self_times(parent, start, end)
    assert own.tolist() == [4.0, 2.0, 3.0, 1.0, 1.0]
    assert own.sum() == pytest.approx(11.0)  # the union of all root intervals


def test_self_time_rejects_overlapping_siblings():
    parent, start, end = tree([(-1, 0, 10), (0, 1, 5), (0, 4, 8)])
    with pytest.raises(ValueError, match="overlap"):
        spans.self_times(parent, start, end)


def test_self_time_rejects_child_outside_parent():
    parent, start, end = tree([(-1, 0, 10), (0, 9, 12)])
    with pytest.raises(ValueError, match="interval"):
        spans.self_times(parent, start, end)


def test_tracer_rebinds_names_imported_by_other_modules(tmp_path):
    # improve imports add_indices by name, so its calls are only seen when
    # the wrapper is rebound in improve's namespace as well.
    job = workloads.improve_job(np.random.default_rng(1), str(tmp_path / "f.apf"), 3, 4, 2, 1.0, True)
    span_file = str(tmp_path / "spans.npz")
    argv = [sys.executable, os.path.join(BENCH, "tracer.py"), repr(time.monotonic()), span_file, "0",
            job.command, *job.args, "--output-dir", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(argv, env=env, check=True, capture_output=True)
    tr = spans.load(span_file)
    names = tr["meta"]["names"]
    assert tr["meta"]["absent"] == []

    def ancestors(i):
        while tr["parent"][i] >= 0:
            i = tr["parent"][i]
            yield names[tr["name"][i]]

    adds = np.nonzero(tr["name"] == names.index("gfspace.add_indices"))[0]
    assert any("improve.construct_g" in set(ancestors(i)) and names[tr["name"][tr["parent"][i]]] == "improve.construct_g" for i in adds)
    m = spans.pass_metrics([tr], [{"cases_audited": 81, "repaired_points": 0}])
    assert set(m) == set(spans.PER_LAYER)
    assert m["cli.jobs"] == 1 and m["improve.cases_audited"] == 81
    assert m["apcount.restricted_counts"] == 2 * 81  # base and lhs per case
    assert m["rounding.points_rounded"] == 81
    assert m["improve.construct_s"] > m["improve.self_s"] > 0
    assert 0 < m["cli.startup_s"] < 60


def test_tracer_records_absent_functions():
    # install() rebinds ap3 for the whole process, so it runs in a child.
    code = (
        "import tracer; tracer.NAMED['fourier'].append('no_such_function'); "
        "tr = tracer.Tracer(); tracer.install(tr); print(tr.absent)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "['fourier.no_such_function']"
