"""Print each benchmark job's least peak RSS on two ap3 source trees.

Usage (from the repository root):

    python3 tools/job_peaks.py PARENT_SRC CHANGE_SRC --workload improve-audit --seed 101 --runs 3

PARENT_SRC and CHANGE_SRC are directories that hold the `ap3` package, such
as the `src/` of two checkouts.  The workload's inputs are made once for the
seed with `benchmarks/workloads.py`, and every job runs --runs times on each
tree, alternating which tree runs it first.  Each job is started as
`benchmarks/measure.py` starts it: the `ap3` console script's call, with the
tree on PYTHONPATH and a fresh output directory as its working directory,
from the benchmark's small launcher process, which reads the job's ru_maxrss
from `os.wait4`.  Jobs run under `setarch <machine> -R`, which turns address
space randomization off, where that works; the first line of the output says
whether it did, since with randomization on a job's peak varies from run to
run by more than the benchmark's bound on `peak_rss_mb`.

One line per job gives its least peak on each tree and the difference, and
the last line the greatest of those peaks over the jobs, which is what the
benchmark's `peak_rss_mb` takes.  The exit code is 1 when a job exits
nonzero on either tree, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import measure  # noqa: E402
import workloads  # noqa: E402


def no_aslr_prefix() -> list[str]:
    """`setarch <machine> -R` when it can run a program here, else []."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run([*prefix, sys.executable, "-c", ""], capture_output=True)
    return prefix if probe.returncode == 0 else []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", metavar="PARENT_SRC")
    parser.add_argument("change_src", metavar="CHANGE_SRC")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent_src), "change": os.path.abspath(args.change_src)}
    for src in trees.values():
        if not os.path.isfile(os.path.join(src, "ap3", "cli.py")):
            parser.error(f"no ap3 package under {src}")
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    prefix = no_aslr_prefix()
    print(
        f"setarch {prefix[1]} -R: address randomization off"
        if prefix
        else "setarch -R is not available: address randomization stays on"
    )
    failed = 0
    launchers = {tree: measure.Launcher(src) for tree, src in trees.items()}
    try:
        with tempfile.TemporaryDirectory(prefix="job_peaks-") as work:
            jobs = workloads.build(args.workload, args.seed, os.path.join(work, "inputs"))
            peaks = [dict.fromkeys(trees, float("inf")) for _ in jobs]
            order = list(trees)
            for _ in range(args.runs):
                for i, job in enumerate(jobs):
                    for tree in order:
                        out = os.path.join(work, "out")
                        os.makedirs(out)
                        argv = measure.ap3_argv(job.command, [*job.args, "--output-dir", out])
                        run = launchers[tree].run([*prefix, *argv], out, os.path.join(out, "stdout"))
                        shutil.rmtree(out)
                        if run.exit_code != 0:
                            failed += 1
                            print(f"FAILED {tree} job {i} ({job.label}): exit {run.exit_code}")
                        peaks[i][tree] = min(peaks[i][tree], run.peak_rss_mb)
                    order.reverse()
    finally:
        for launcher in launchers.values():
            launcher.close()

    print(f"{args.workload} seed {args.seed}: least peak RSS (MB) of {args.runs} runs")
    for i, (job, peak) in enumerate(zip(jobs, peaks)):
        print(
            f"job {i} ({job.label}): parent {peak['parent']:.2f}, change {peak['change']:.2f}, "
            f"change - parent {peak['change'] - peak['parent']:+.2f}"
        )
    top = {tree: max(peak[tree] for peak in peaks) for tree in trees}
    print(
        f"max over jobs: parent {top['parent']:.2f}, change {top['change']:.2f}, "
        f"change - parent {top['change'] - top['parent']:+.2f}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
