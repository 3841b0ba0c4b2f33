"""A fixed amount of work that does not involve ap3, timed as a fresh
process to measure the host's speed during a run.

It does what an ap3 job does, in small: start the interpreter, import
numpy, touch fresh memory, sort an array and run a Python loop.
"""

import numpy as np

values = np.random.default_rng(0).random(1 << 20)
order = np.argsort(values)
total = 0
for i in range(200_000):
    total += i * i
if order.size != values.size or total <= 0:
    raise SystemExit("calibration computed a wrong result")
