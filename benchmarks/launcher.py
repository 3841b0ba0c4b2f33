"""Start jobs on behalf of the benchmark and report how each one ran.

Reads one JSON list per line on stdin, [argv, cwd, stdout_path], runs argv
to completion and writes one JSON list per line on stdout:
[exit_code, seconds from spawn to exit, peak RSS in KB].

On Linux a child's ru_maxrss also counts the memory of the process it was
forked from, so jobs are started from this small process rather than from
the benchmark, which holds numpy and the references.  Children inherit a
CPU-time limit, so that a runaway job fails the run instead of hanging it.
"""

import json
import os
import resource
import subprocess
import sys
import time

# The longest job needs under 10 CPU seconds.
JOB_CPU_LIMIT_S = 60


def main() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (JOB_CPU_LIMIT_S, JOB_CPU_LIMIT_S))
    for line in sys.stdin:
        argv, cwd, stdout_path = json.loads(line)
        with open(stdout_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, seconds, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
