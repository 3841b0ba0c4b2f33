"""Tools for counting, analyzing, and minimizing three-term arithmetic
progressions of density functions on F_p^n."""

__version__ = "0.1.0"

from .gfspace import (
    DensityFunction,
    GroupParams,
    PointSet,
    load_density,
    load_set,
    save_density,
    save_set,
)

__all__ = [
    "DensityFunction",
    "GroupParams",
    "PointSet",
    "load_density",
    "load_set",
    "save_density",
    "save_set",
    "__version__",
]
