"""Kernel selector for the sparse product: compiled extension when
available, pure Python otherwise.

Set SUPERSLICE_PURE=1 to force the pure implementation (used by the
benchmark and the equivalence tests).
"""

from __future__ import annotations

import os

from . import _kernels_py

IMPLEMENTATION = "python"

if not os.environ.get("SUPERSLICE_PURE"):
    try:
        from . import _speedups  # type: ignore[attr-defined]

        mul_terms = _speedups.mul_terms
        IMPLEMENTATION = "compiled"
    except ImportError:
        mul_terms = _kernels_py.mul_terms
else:
    mul_terms = _kernels_py.mul_terms

mul_monomials = _kernels_py.mul_monomials
