"""Matrices of Laurent polynomials in two variables (x, y) over the rationals.

An entry is a MultiPoly over ("x", "y") with the Laurent flag set.  These
are the functions on the two standard charts of the punctured plane: chart
x (x != 0) allows negative x-exponents, chart y allows negative
y-exponents.  Used to move connection matrices between chart frames.
"""
from __future__ import annotations

from . import matrices as qm
from .multipoly import MultiPoly

VARS = ("x", "y")

# The name under which the benchmark's tracer books two-variable evaluation.
BiLaurent = MultiPoly


def bmat_from_laurent(m: list, zx: int, zy: int) -> list:
    """Substitute z -> x^zx * y^zy into a matrix of univariate Laurent
    polynomials."""
    return [[MultiPoly(VARS, {(e * zx, e * zy): c for (e,), c in p.terms.items()},
                       laurent=True) for p in row] for row in m]


# A named function, not an alias of qm.mat_mul, so that per-function
# profiling (perfbench/tracer.py) books bi-Laurent products on their own.
def bmat_mul(a: list, b: list) -> list:
    return qm.mat_mul(a, b)

