"""Exact symbolic toolkit for slices of Lie superalgebras.

Builds basic classical Lie superalgebras from structure constants, slices
through nilpotent orbits in exponential gauge, the finite and arc-space
Miura maps, and the graded complexes needed to verify all of it with
exact rational arithmetic.
"""

from .superpoly import PolyRing, SuperPolynomial, Variable
from .linalg import RationalMatrix, exact_rank, nullspace, rref, solve

__version__ = "0.1.0"

# perfbench records this with every run; the product kernel is pure Python.
kernel_implementation = "python"
