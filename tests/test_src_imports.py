"""The package draws every seeded stream from one generator, the standard
library's `random.Random`, so no module names another: not numpy's random
package (importing it loads OpenSSL through secrets and hmac), its
`default_rng` or `SeedSequence`, nor `secrets`.  And `fourier` runs every
transform, so no other module names numpy's FFT."""

import pathlib
import re

import ap3

SRC = pathlib.Path(ap3.__file__).parent


def test_no_module_names_numpy_random():
    pattern = re.compile(r"numpy\.random|np\.random|default_rng|SeedSequence|secrets")
    hits = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_only_fourier_calls_numpy_fft():
    pattern = re.compile(r"numpy\.fft|np\.fft|fftn")
    hits = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "fourier.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
