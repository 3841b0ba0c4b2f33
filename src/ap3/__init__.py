"""Tools for counting, analyzing, and minimizing three-term arithmetic
progressions of density functions on F_p^n.

Importing the package loads nothing else: the density and set types and
their file I/O are in `ap3.gfspace`."""

__version__ = "0.1.0"
