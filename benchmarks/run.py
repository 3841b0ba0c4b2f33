"""The ap3 benchmark: one workload, one seed, every metric by name.

Usage (from the repository root):

    python3 benchmarks/run.py --workload count-cold --seed 1 --seconds 16 --trace 0

Each job is `ap3 <subcommand>` in a fresh process, run one at a time
(closed loop, one client).  A run makes the workload's inputs from the
seed, repeats the job list for about --seconds, checks every output
against the benchmark's own references, and prints one JSON object as the
last line of stdout.  With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.  Any failed job makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import check
import measure
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Seconds one pass of each job list took at the seed commit on a 2-core
# x86-64 box; --seconds / this fixes the pass count, so that every run of a
# workload sees the same jobs and the tail is taken over the same count.
PASS_SECONDS = {"count-cold": 7.0, "improve-audit": 6.0, "minimize": 5.5, "large-domain": 2.5}
# Fresh-process start-ups timed per run for setup_s, spread over the passes.
SETUP_PROBES = 9
# The host's speed drifts by up to 1.7x within minutes on shared VMs, so
# each run also times calibrate.py, a fixed job that does not involve ap3,
# and reports times at the speed where it takes REFERENCE_CALIBRATION_S
# (its median on the quiet 2-core Xeon VM the baseline was taken on).
CALIBRATIONS = 7
REFERENCE_CALIBRATION_S = 0.25

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Runner:
    """Runs the jobs, setup probes and calibrations of one run in a work dir."""

    def __init__(self, work: str) -> None:
        self.work = work
        self.launcher = measure.Launcher(SRC)
        self.attempted = 0  # jobs, setup probes and calibrations
        self.failures: list[str] = []

    def fresh_dir(self) -> str:
        self.attempted += 1
        d = os.path.join(self.work, "jobs", str(self.attempted))
        os.makedirs(d)
        return d

    def timed(self, what: str, argv: list[str]) -> float:
        """Seconds a fresh process takes to run argv; it must exit 0."""
        d = self.fresh_dir()
        run = self.launcher.run(argv, d, os.path.join(d, "stdout"))
        if run.exit_code != 0:
            self.failures.append(f"{what} exited {run.exit_code}")
        shutil.rmtree(d)
        return run.seconds

    def probe(self) -> float:
        return self.timed("setup probe", measure.ap3_argv("--help", []))

    def calibrate(self) -> float:
        return self.timed("calibration", [sys.executable, os.path.join(HERE, "calibrate.py")])

    def run_pass(self, jobs: list, traced: bool) -> tuple[float, list, list, list]:
        """(wall, job runs, checker facts, traces) for one pass of the job list."""
        dirs, runs, traces = [], [], []
        start = time.perf_counter()
        for job_id, job in enumerate(jobs):
            d = self.fresh_dir()
            args = [*job.args, "--output-dir", d]
            argv = measure.ap3_argv(job.command, args)
            if traced:
                span_file = os.path.join(d, "spans.npz")
                argv = [sys.executable, os.path.join(HERE, "tracer.py"), repr(time.monotonic()),
                        span_file, str(job_id), job.command, *args]
            dirs.append(d)
            runs.append(self.launcher.run(argv, d, os.path.join(d, "stdout")))
        wall = time.perf_counter() - start
        facts = []
        for job, d, run in zip(jobs, dirs, runs):
            facts.append(self.verify(job, d, run))
            if traced and run.exit_code == 0:
                traces.append(spans.load(os.path.join(d, "spans.npz")))
            shutil.rmtree(d)
        return wall, runs, facts, traces

    def verify(self, job, d: str, run: measure.Run) -> dict:
        if run.exit_code != 0:
            self.failures.append(f"{job.label}: exit {run.exit_code}: {run.stdout.strip()[-300:]}")
            return {}
        try:
            return check.verify(job, d, run.stdout)
        except check.CheckFailed as exc:
            self.failures.append(f"{job.label}: {exc}")
            return {}


def end_to_end(walls, runs, probes, slowdown: float) -> tuple[dict, str]:
    """The end-to-end metrics, times divided by the host's slowdown."""
    latencies = [r.seconds for r in runs]
    tail, pct = measure.tail(latencies)
    raw = {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "setup_s": statistics.median(probes),
    }
    values = {name: value / slowdown for name, value in raw.items()}
    values["peak_rss_mb"] = max(r.peak_rss_mb for r in runs)
    note = (
        f"job_tail_s is p{pct:.1f} of {len(latencies)} jobs; setup_s is the median of "
        f"{len(probes)} probes; host slowdown {slowdown:.3f}; unscaled: "
        + ", ".join(f"{name} {value:.4f}" for name, value in raw.items())
    )
    return values, note


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    runner = Runner(work)
    started = time.perf_counter()
    try:
        jobs = workloads.build(workload, seed, os.path.join(work, "inputs"))
        built = time.perf_counter() - started
        probe_times, calibrations, walls, all_runs = [], [], [], []
        layer_rows = []
        plan = [False] * passes if not trace else [False, True] * max(1, passes // 2)
        for k, traced in enumerate(plan):
            probe_times += [runner.probe() for _ in range(k, SETUP_PROBES, len(plan))]
            calibrations += [runner.calibrate() for _ in range(k, CALIBRATIONS, len(plan))]
            wall, runs, facts, traces = runner.run_pass(jobs, traced)
            if traced:
                row = spans.pass_metrics(traces, facts)
                row["trace.overhead_frac"] = (wall - walls[-1]) / walls[-1]
                layer_rows.append(row)
                absent = spans.absent(traces)
            else:
                walls.append(wall)
                all_runs += runs
    finally:
        runner.launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    for failure in runner.failures:
        print(f"FAILED {failure}")
    if trace:
        metrics = {
            name: {"value": statistics.median(row[name] for row in layer_rows), "unit": unit}
            for name, (unit, _) in spans.PER_LAYER.items()
        }
        print(f"# {len(layer_rows)} traced passes of {len(jobs)} jobs; absent functions: {absent or 'none'}")
    else:
        slowdown = statistics.median(calibrations) / REFERENCE_CALIBRATION_S
        values, note = end_to_end(walls, all_runs, probe_times, slowdown)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"# {workload} seed {seed}: {passes} passes of {len(jobs)} jobs; {note}")
        print(f"# pass walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"# inputs and references {built:.2f} s; whole run {time.perf_counter() - started:.2f} s")
    failed, attempted = len(runner.failures), runner.attempted
    print(f"# failed_frac {failed / attempted:.4g} ({failed} of {attempted} jobs, probes and calibrations)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "ap3", "cli.py")):
        print(f"benchmark: no ap3 sources under {SRC}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
