"""Square matrices of univariate Laurent polynomials (transition data for
two-chart bundle presentations).

An entry is a MultiPoly over one variable (by default z) with the Laurent
flag set, so it lives in Q[z, 1/z].
"""
from __future__ import annotations

from . import matrices as qm
from .multipoly import MultiPoly


# -- matrices -----------------------------------------------------------

def lmat_identity(n: int, var: str = "z") -> list:
    return [[MultiPoly.constant((var,), int(i == j), laurent=True) for j in range(n)]
            for i in range(n)]


# lmat_mul and lmat_det are named functions, not aliases of the generic ones,
# so that per-function profiling (perfbench/tracer.py) books Laurent work
# apart from rational and polynomial work.
def lmat_mul(a: list, b: list) -> list:
    return qm.mat_mul(a, b)


def lmat_det(a: list) -> MultiPoly:
    return qm.det_bareiss(a)


def lmat_inverse(a: list) -> list:
    """Inverse of a Laurent matrix whose determinant is a unit c*z^k."""
    d = lmat_det(a)
    if len(d.terms) != 1:
        raise ValueError("determinant is not a unit monomial")
    ((e,), c), = d.terms.items()
    inv_det = MultiPoly(d.vars, {(-e,): 1 / c}, laurent=True)
    return qm.mat_scale(qm.adjugate(a), inv_det)


class Transition:
    """A two-chart transition: square Laurent matrix whose determinant is a
    unit monomial c*z^k (checked at construction)."""

    def __init__(self, matrix: list):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("transition matrix must be square")
        self.matrix = matrix
        self.rank = n
        d = lmat_det(matrix)
        if len(d.terms) != 1:
            raise ValueError("transition determinant is not a unit c*z^k")
        ((self.det_exp,), self.det_coeff), = d.terms.items()

    @property
    def var(self) -> str:
        return self.matrix[0][0].vars[0]

