"""Turn the tracer's span files into per-layer metrics for one pass."""

from __future__ import annotations

import json

import numpy as np

from tracer import LAYERS

# name -> (unit, better).  The traced run reports exactly these.
PER_LAYER = {
    "cli.startup_s": ("s", "lower"),
    "cli.jobs": ("count", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "gfspace.load_s": ("s", "lower"),
    "gfspace.save_s": ("s", "lower"),
    "gfspace.bytes_read": ("bytes", "lower"),
    "gfspace.bytes_written": ("bytes", "lower"),
    "gfspace.index_ops": ("count", "lower"),
    "gfspace.index_ops_s": ("s", "lower"),
    "fourier.self_s": ("s", "lower"),
    "fourier.transforms": ("count", "lower"),
    "fourier.points_transformed": ("count", "lower"),
    "fourier.ops_computed": ("ops", "lower"),
    "subspace.self_s": ("s", "lower"),
    "subspace.average_calls": ("count", "lower"),
    "subspace.average_s": ("s", "lower"),
    "subspace.cosets_averaged": ("count", "lower"),
    "subspace.decompositions": ("count", "lower"),
    "subspace.decomposition_s": ("s", "lower"),
    "subspace.subspaces_enumerated": ("count", "lower"),
    "apcount.self_s": ("s", "lower"),
    "apcount.full_counts": ("count", "lower"),
    "apcount.full_count_s": ("s", "lower"),
    "apcount.triples_covered": ("triples", "lower"),
    "apcount.ns_per_triple": ("ns", "lower"),
    "apcount.rss_growth_mb": ("MB", "lower"),
    "apcount.restricted_counts": ("count", "lower"),
    "apcount.restricted_count_s": ("s", "lower"),
    "apcount.varnavides_s": ("s", "lower"),
    "improve.self_s": ("s", "lower"),
    "improve.construct_s": ("s", "lower"),
    "improve.cases_audited": ("count", "lower"),
    "improve.audit_s_per_case": ("s", "lower"),
    "rounding.self_s": ("s", "lower"),
    "rounding.points_rounded": ("count", "lower"),
    "rounding.repaired_points": ("count", "lower"),
    "search.self_s": ("s", "lower"),
    "search.local_s": ("s", "lower"),
    "search.exhaustive_s": ("s", "lower"),
    "search.structure_s": ("s", "lower"),
    "search.iterations": ("count", "lower"),
    "search.s_per_iteration": ("s", "lower"),
    "search.count_total": ("triples", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Summed from the outputs the checker read, not from the trace.
FACTS = {
    "cases_audited": "improve.cases_audited",
    "repaired_points": "rounding.repaired_points",
    "iterations": "search.iterations",
    "witness_count": "search.count_total",
}


def load(path: str) -> dict:
    with np.load(path) as z:
        trace = {key: z[key] for key in ("name", "parent", "start", "end")}
        trace["meta"] = json.loads(str(z["meta"]))
    return trace


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    One thread opens and closes spans in stack order, so the children of
    a span never overlap each other; that is checked, then their
    durations are summed per parent.
    """
    dur = end - start
    order = np.lexsort((start, parent))
    p, s, e = parent[order], start[order], end[order]
    same = p[1:] == p[:-1]
    if np.any(same & (s[1:] < e[:-1])):
        raise ValueError("sibling spans overlap")
    child = parent >= 0
    if np.any(child & ((start < start[parent]) | (end > end[parent]))):
        raise ValueError("a child span leaves its parent's interval")
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def pass_metrics(traces: list[dict], facts: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the jobs of one traced pass."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    for tr in traces:
        meta = tr["meta"]
        names = meta["names"]
        layer_of = np.array([LAYERS.index(nm.split(".")[0]) for nm in names], dtype=np.int64)
        span_layer = layer_of[tr["name"]] if len(tr["name"]) else np.zeros(0, dtype=np.int64)
        own = self_times(tr["parent"], tr["start"], tr["end"])
        for i, layer in enumerate(LAYERS):
            if f"{layer}.self_s" in m:
                m[f"{layer}.self_s"] += float(own[span_layer == i].sum())
        if "cli.main" in names:
            is_main = tr["name"] == names.index("cli.main")
            m["cli.main_s"] += float((tr["end"] - tr["start"])[is_main].sum())
        m["cli.startup_s"] += meta["main_entry"] - meta["spawn"]
        m["cli.jobs"] += 1
        for key, value in meta["counters"].items():
            if key in m:
                m[key] += value
    for f in facts:
        for key, metric in FACTS.items():
            m[metric] += f.get(key, 0)
    audit_s = sum(tr["meta"]["counters"].get("improve.audit_s", 0.0) for tr in traces)
    count_s = m["apcount.full_count_s"] + m["apcount.restricted_count_s"]
    m["apcount.ns_per_triple"] = 1e9 * count_s / m["apcount.triples_covered"] if m["apcount.triples_covered"] else 0.0
    m["improve.audit_s_per_case"] = audit_s / m["improve.cases_audited"] if m["improve.cases_audited"] else 0.0
    m["search.s_per_iteration"] = m["search.local_s"] / m["search.iterations"] if m["search.iterations"] else 0.0
    return m


def absent(traces: list[dict]) -> list[str]:
    return sorted({name for tr in traces for name in tr["meta"]["absent"]})
