"""Check that two ap3 source trees give the same outputs on every benchmark job.

Usage (from the repository root):

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC --seeds 101 7

PARENT_SRC and CHANGE_SRC are directories that hold the `ap3` package, such
as the `src/` of two checkouts.  For each seed, each workload's inputs are
made once with `benchmarks/workloads.py`, and every job runs on both trees,
started as `benchmarks/measure.py` starts it: the `ap3` console script's call,
with the tree on PYTHONPATH and the job's output directory as its working
directory.  A job differs when its exit code, stdout, stderr or any file it
writes differs; the output directory is replaced by one placeholder in all of
them, since the manifests record it.  A differing JSON file that holds an
object is named with its top-level keys whose values differ, as
`improve_report.json[lambda3_fW, lambda3_g]`, and a differing stdout with
its differing `key=` fields, as `stdout[lambda3_g]`.

Both trees also run the start-up that the benchmark's `setup_s` times and
the other runs that parsing ends: `ap3 --help`, `ap3 <command> --help` for
every subcommand and one usage error, with COLUMNS=100 (argparse wraps help
to the terminal).  Such a run differs when its exit code, stdout or stderr
differs.

Two subcommands that no workload runs are compared too: for each seed, one
`ap3 round` job on the seed's first `improve-audit` density, with that
seed and e_0 as its one `--monitor` generator, compared as a job; and one
`ap3 selfcheck` run, compared as a parse run once the time in its closing
`N/N passed in Xs` line is masked.  Each differing job or run is named,
and the exit code is then 1; it is 0 when every one matches.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import measure  # noqa: E402
import workloads  # noqa: E402

COMMANDS = (
    "count", "spectrum", "average", "improve", "round", "search", "structure", "varnavides",
    "selfcheck",
)
# Runs that parsing ends, as (command, args) of `measure.ap3_argv`.
PARSE_RUNS = [
    ("--help", []),
    *((command, ["--help"]) for command in COMMANDS),
    ("count", ["--bogus"]),
]


def run_program(src: str, argv: list[str], cwd: str, **env: str) -> dict[str, bytes]:
    """The exit code, stdout and stderr of `argv` run on the tree at `src`."""
    env = dict(os.environ, PYTHONPATH=src, **env)
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
    return {"exit code": b"%d" % proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def run_job(src: str, command: str, args: list[str], out: str) -> dict[str, bytes]:
    """The exit code, stdout, stderr and written files of one job run on
    the tree at `src`, keyed by name, with `out` replaced everywhere."""
    os.makedirs(out)
    result = run_program(src, measure.ap3_argv(command, [*args, "--output-dir", out]), out)
    for folder, _, names in os.walk(out):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                result[os.path.relpath(path, out)] = fh.read()
    placeholder = os.fsencode(out)
    return {key: value.replace(placeholder, b"<output-dir>") for key, value in result.items()}


def round_args(seed: int, jobs: list) -> list[str]:
    """`ap3 round`'s arguments on the first of an `improve-audit` seed's
    jobs: its density, the seed and e_0 of F_p^n as one monitored span."""
    args = jobs[0].args
    density = args[args.index("--input") + 1]
    with open(density, encoding="ascii") as fh:
        n = int(fh.readline().split()[1])
    e0 = ",".join(["1"] + ["0"] * (n - 1))
    return ["--input", density, "--seed", str(seed), "--monitor", e0]


def selfcheck_run(src: str, cwd: str) -> dict[str, bytes]:
    """`ap3 selfcheck` on the tree at `src`, its time masked."""
    result = run_program(src, measure.ap3_argv("selfcheck", []), cwd)
    result["stdout"] = re.sub(rb"passed in [0-9.]+s", b"passed in <time>s", result["stdout"])
    return result


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """The names whose bytes differ, or that only one run has, each with
    the fields of `differing_fields` in brackets when it names any."""
    names = []
    for key in sorted(parent.keys() | change.keys()):
        old, new = parent.get(key), change.get(key)
        if old == new:
            continue
        fields = differing_fields(key, old, new) if old is not None and new is not None else []
        names.append(f"{key}[{', '.join(fields)}]" if fields else key)
    return names


def differing_fields(name: str, old: bytes, new: bytes) -> list[str]:
    """The top-level keys whose values differ, or that only one side has,
    of a `.json` file that both runs wrote as an object, or the `key=`
    fields of stdout; [] for any other output."""
    if name == "stdout":
        sides = [
            dict(tok.split("=", 1) for tok in text.decode(errors="replace").split() if "=" in tok)
            for text in (old, new)
        ]
    elif name.endswith(".json"):
        try:
            sides = [json.loads(text) for text in (old, new)]
        except ValueError:
            return []
        if not all(isinstance(side, dict) for side in sides):
            return []
    else:
        return []
    a, b = sides
    # Compared as text, so that NaN equals NaN and 1 differs from 1.0.
    same = {k for k in a.keys() & b.keys() if json.dumps(a[k]) == json.dumps(b[k])}
    return sorted((a.keys() | b.keys()) - same)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", metavar="PARENT_SRC")
    parser.add_argument("change_src", metavar="CHANGE_SRC")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent_src), "change": os.path.abspath(args.change_src)}
    for src in trees.values():
        if not os.path.isfile(os.path.join(src, "ap3", "cli.py")):
            parser.error(f"no ap3 package under {src}")

    jobs = differing = parse_differing = round_differing = selfcheck_differing = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as work:

        def job_differences(command: str, args: list[str], name: str) -> list[str]:
            return differences(
                *(run_job(src, command, args, os.path.join(work, tree, name)) for tree, src in trees.items())
            )

        for command, rest in PARSE_RUNS:
            argv = measure.ap3_argv(command, rest)
            runs = [run_program(src, argv, work, COLUMNS="100") for src in trees.values()]
            if diff := differences(*runs):
                parse_differing += 1
                print(f"DIFFERS ap3 {' '.join([command, *rest])}: {', '.join(diff)}")
        if diff := differences(*(selfcheck_run(src, work) for src in trees.values())):
            selfcheck_differing = 1
            print(f"DIFFERS ap3 selfcheck: {', '.join(diff)}")
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                inputs = os.path.join(work, f"{workload}-{seed}")
                built = workloads.build(workload, seed, inputs)
                for i, job in enumerate(built):
                    jobs += 1
                    if diff := job_differences(job.command, job.args, f"{workload}-{seed}-{i}"):
                        differing += 1
                        print(f"DIFFERS {workload} seed {seed} job {i} ({job.label}): {', '.join(diff)}")
                if workload == "improve-audit":
                    if diff := job_differences("round", round_args(seed, built), f"round-{seed}"):
                        round_differing += 1
                        print(f"DIFFERS round seed {seed}: {', '.join(diff)}")
    print(
        f"{differing} of {jobs} jobs differ; "
        f"{parse_differing} of {len(PARSE_RUNS)} help and usage runs differ; "
        f"{round_differing} of {len(args.seeds)} round runs differ; "
        f"{selfcheck_differing} of 1 selfcheck runs differ"
    )
    return 1 if differing or parse_differing or round_differing or selfcheck_differing else 0


if __name__ == "__main__":
    sys.exit(main())
