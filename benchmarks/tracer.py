"""Run one ap3 job with every public function of every layer timed.

Usage: python3 tracer.py SPAWN_TIME OUT_FILE JOB_ID COMMAND [ARGS...]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks
agree).  The tracer wraps, from outside, each plain public function of
the layer modules, rebinds the wrapper in every ap3 namespace that
imported the name, then calls ap3.cli.main(ARGS).  Spans (name, start,
end, parent) and counters stay in memory and are written to OUT_FILE, a
.npz, when the job ends.  Private names are never touched: a function
the program no longer has is recorded as absent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import resource
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "gfspace", "fourier", "subspace", "apcount", "improve", "rounding", "search")

FULL_COUNTS = {"t3_raw", "lambda3_direct", "count_raw", "lambda3_exact", "t3_nontrivial"}
RESTRICTED_COUNTS = {"t3_restricted", "t3_restricted_count"}
INDEX_OPS = {"add_indices", "sub_indices", "scale_indices"}

# Public functions the per-layer metrics are defined on.  Each one the
# program lacks is listed as absent in the trace instead of failing it.
NAMED = {
    "cli": ["main"],
    "gfspace": ["load_density", "load_set", "save_density", "save_set", *sorted(INDEX_OPS)],
    "fourier": ["dft_forward", "dft_inverse"],
    "subspace": ["average_over_cosets", "coset_decomposition", "all_subspaces"],
    "apcount": [*sorted(FULL_COUNTS), *sorted(RESTRICTED_COUNTS), "varnavides_estimate"],
    "improve": ["construct_g"],
    "rounding": ["round_to_indicator"],
    "search": ["local_min", "exhaustive_min", "structure_report"],
}


class Tracer:
    """Span and counter store for one process (single-threaded)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.count_depth = 0  # open apcount counting spans
        self.construct_depth = 0  # open improve.construct_g spans

    def open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.monotonic())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        t = time.monotonic()
        self.end[idx] = t
        self.stack.pop()
        return t - self.start[idx]

    def save(self, path: str, meta: dict) -> None:
        meta = dict(meta, names=self.names, absent=self.absent, counters=dict(self.counters))
        np.savez(
            path,
            meta=np.array(json.dumps(meta)),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _size_of(obj) -> int:
    params = getattr(obj, "params", None)
    return int(getattr(params, "size", 0) or 0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_wrapper(tr: Tracer, layer: str, name: str, fn):
    qual = f"{layer}.{name}"
    c = tr.counters

    if inspect.isgeneratorfunction(fn):
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tr.open(qual)
                try:
                    item = next(it)
                except StopIteration:
                    tr.close(idx)
                    return
                tr.close(idx)
                if name == "all_subspaces":
                    c["subspace.subspaces_enumerated"] += 1
                yield item

        gen_wrapper.__wrapped__ = fn
        return gen_wrapper

    counting = layer == "apcount" and (name in FULL_COUNTS or name in RESTRICTED_COUNTS)

    def wrapper(*args, **kwargs):
        outer = counting and tr.count_depth == 0
        if counting:
            tr.count_depth += 1
            rss0 = _peak_rss_mb() if outer else 0.0
        if qual == "improve.construct_g":
            tr.construct_depth += 1
        idx = tr.open(qual)
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = tr.close(idx)
            if counting:
                tr.count_depth -= 1
            if qual == "improve.construct_g":
                tr.construct_depth -= 1
        account(tr, layer, name, args, result, dt, outer)
        if outer:
            c["apcount.rss_growth_mb"] += _peak_rss_mb() - rss0
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = name
    return wrapper


def account(tr: Tracer, layer: str, name: str, args, result, dt: float, outer: bool) -> None:
    """Counters for one finished call of a named public function."""
    c = tr.counters
    if layer == "gfspace":
        if name in INDEX_OPS:
            c["gfspace.index_ops"] += 1
            c["gfspace.index_ops_s"] += dt
        elif name in ("load_density", "load_set"):
            c["gfspace.load_s"] += dt
            c["gfspace.bytes_read"] += os.path.getsize(args[0])
        elif name in ("save_density", "save_set"):
            c["gfspace.save_s"] += dt
            c["gfspace.bytes_written"] += os.path.getsize(args[1])
    elif layer == "fourier" and name in ("dft_forward", "dft_inverse"):
        size = _size_of(args[0])
        params = args[0].params
        c["fourier.transforms"] += 1
        c["fourier.points_transformed"] += size
        c["fourier.ops_computed"] += params.n * size * params.p
    elif layer == "subspace":
        if name == "average_over_cosets":
            c["subspace.average_calls"] += 1
            c["subspace.average_s"] += dt
            c["subspace.cosets_averaged"] += _size_of(args[0]) // args[1].params.p ** args[1].dim
        elif name == "coset_decomposition":
            c["subspace.decompositions"] += 1
            c["subspace.decomposition_s"] += dt
    elif layer == "apcount":
        if outer and name in FULL_COUNTS:
            c["apcount.full_counts"] += 1
            c["apcount.full_count_s"] += dt
            c["apcount.triples_covered"] += _size_of(args[0]) ** 2
        elif outer and name in RESTRICTED_COUNTS:
            v, w = args[-2], args[-1]
            c["apcount.restricted_counts"] += 1
            c["apcount.restricted_count_s"] += dt
            c["apcount.triples_covered"] += len(v.members) * len(w.members)
            if tr.construct_depth:
                c["improve.audit_s"] += dt
        elif name == "varnavides_estimate":
            c["apcount.varnavides_s"] += dt
    elif layer == "improve" and name == "construct_g":
        c["improve.construct_s"] += dt
    elif layer == "rounding" and name == "round_to_indicator":
        c["rounding.points_rounded"] += _size_of(args[0])
    elif layer == "search" and name in ("local_min", "exhaustive_min", "structure_report"):
        key = {"local_min": "local_s", "exhaustive_min": "exhaustive_s", "structure_report": "structure_s"}[name]
        c[f"search.{key}"] += dt


def install(tr: Tracer):
    """Wrap every plain public function of each layer; return cli.main."""
    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"ap3.{layer}")
        except ImportError:
            tr.absent.append(layer)
            continue
        for name in NAMED[layer]:
            if not inspect.isfunction(getattr(mod, name, None)):
                tr.absent.append(f"{layer}.{name}")
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped[id(fn)] = make_wrapper(tr, layer, name, fn)
    # Rebind in every namespace that holds the original, including modules
    # that imported the name directly (from .gfspace import add_indices).
    for modname, mod in list(sys.modules.items()):
        if modname != "ap3" and not modname.startswith("ap3."):
            continue
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped and wrapped[id(obj)].__wrapped__ is obj:
                setattr(mod, name, wrapped[id(obj)])
    return sys.modules["ap3.cli"].main


def main(argv: list[str]) -> int:
    spawn, out_path, job_id, job_argv = float(argv[0]), argv[1], int(argv[2]), argv[3:]
    tr = Tracer()
    entry = install(tr)
    code = 1
    main_entry = time.monotonic()
    try:
        code = entry(job_argv)
    finally:
        meta = {"job": job_id, "spawn": spawn, "main_entry": main_entry, "exit_code": code}
        tr.save(out_path, meta)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
