"""Running ap3 as fresh processes, and the tail statistic of their latencies."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

# The `ap3` console script is exactly this call (pyproject: ap3.cli:main).
ENTRY = "import sys; from ap3.cli import main; sys.exit(main())"


@dataclass
class Run:
    """One finished child process."""

    exit_code: int
    seconds: float  # spawn to exit
    peak_rss_mb: float  # the child's own ru_maxrss
    stdout: str


class Launcher:
    """The helper process (launcher.py) that starts every job of a run."""

    def __init__(self, src_dir: str) -> None:
        env = dict(os.environ, PYTHONPATH=src_dir)
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
        self.proc = subprocess.Popen(
            [sys.executable, "-S", script], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list[str], cwd: str, stdout_path: str) -> Run:
        """Run argv to completion; its time and peak RSS come from wait4."""
        self.proc.stdin.write(json.dumps([argv, cwd, stdout_path]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended early")
        exit_code, seconds, max_rss_kb = json.loads(line)
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        return Run(exit_code, seconds, max_rss_kb / 1024.0, text)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def ap3_argv(command: str, args: list[str]) -> list[str]:
    return [sys.executable, "-c", ENTRY, command, *args]


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    `beyond` samples above it; needs more than `beyond` samples."""
    if len(values) <= beyond:
        raise ValueError(f"{len(values)} samples cannot leave {beyond} beyond the tail")
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)
