"""Logarithmic vector fields, the Saito freeness criterion, weighted
homogeneity, and flatness of logarithmic connection matrices.

A candidate basis of logarithmic fields is input data; the criterion forms
the coefficient matrix, takes its exact determinant, and compares with the
divisor equation.  The equation must be reduced: ``multipoly.is_reduced``
certifies that on one line mod a prime and falls back to the exact
squarefree part only when the line cannot decide, so "not reduced" is
always exact.  Negative verdicts are returned as values with a witness,
never raised.

Flatness has one path, ``flatness_check``: `flat-check` and every flatness
test of ``extend`` (the glued connection, the planted corpus connections)
run it, on polynomial or two-variable Laurent matrices alike.
Its structure constants come from Cramer's rule on the Saito matrix M:
[delta_i, delta_j] adj(M) is divided exactly by det M, and fields that are
dependent or do not close under the bracket raise NotASaitoSystemError.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .multipoly import MultiPoly, is_reduced, normalize
from . import matrices as qm
from .matrices import det_bareiss


@dataclass(frozen=True)
class VectorField:
    """A polynomial vector field sum_i a_i d/dx_i, one coefficient per
    ambient variable."""
    coefficients: tuple  # tuple[MultiPoly, ...]

    def __post_init__(self):
        vs = self.coefficients[0].vars
        if any(c.vars != vs for c in self.coefficients):
            raise ValueError("coefficient variable lists disagree")
        if len(self.coefficients) != len(vs):
            raise ValueError("coefficient count must equal ambient dimension")

    @property
    def vars(self):
        return self.coefficients[0].vars

    def apply(self, f: MultiPoly) -> MultiPoly:
        out = MultiPoly.zero(self.vars)
        for c, v in zip(self.coefficients, self.vars):
            out = out + c * f.derivative(v)
        return out

    def apply_matrix(self, m: list) -> list:
        return [[self.apply(p) for p in row] for row in m]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)


def euler_field(variables, weights) -> VectorField:
    vs = tuple(variables)
    return VectorField(tuple(
        MultiPoly.var(vs, v) * Fraction(w) for v, w in zip(vs, weights)))


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[V, W], computed exactly."""
    if v.vars != w.vars:
        raise ValueError("ambient dimension mismatch")
    coeffs = tuple(v.apply(wc) - w.apply(vc)
                   for vc, wc in zip(v.coefficients, w.coefficients))
    return VectorField(coeffs)


def euler_check(f: MultiPoly, weights) -> Optional[Fraction]:
    """Degree n with E(f) = n*f for E = sum w_i x_i d_i, or None if f is
    not weighted homogeneous for these weights."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    e = euler_field(f.vars, weights)
    ef = e.apply(f)
    # candidate n from any single term
    any_exp = next(iter(f.terms))
    n = sum(Fraction(w) * k for w, k in zip(weights, any_exp))
    if ef == f * n:
        return n
    return None


@dataclass(frozen=True)
class SaitoSystem:
    """n candidate logarithmic fields on n variables plus the divisor
    equation f."""
    fields: tuple  # tuple[VectorField, ...]
    divisor: MultiPoly

    def __post_init__(self):
        if len(self.fields) != len(self.divisor.vars):
            raise ValueError("need as many fields as ambient variables")
        if any(fld.vars != self.divisor.vars for fld in self.fields):
            raise ValueError("field variables disagree with divisor")

    @property
    def vars(self):
        return self.divisor.vars

    def saito_matrix(self) -> list:
        return [list(fld.coefficients) for fld in self.fields]


@dataclass(frozen=True)
class SaitoVerdict:
    free: bool
    unit: Optional[Fraction]       # det = unit * f when free
    reduced: bool
    witness: str = ""
    # the determinant of the Saito matrix that a free verdict certified
    det: Optional[MultiPoly] = field(default=None, compare=False, repr=False)

    def __bool__(self):
        return self.free


def saito_check(sys: SaitoSystem) -> SaitoVerdict:
    """Saito's criterion: free iff the fields are logarithmic for f and det
    of the coefficient matrix equals a nonzero rational multiple of the
    (reduced) divisor equation."""
    d = det_bareiss(sys.saito_matrix())
    f = sys.divisor
    if d.is_zero():
        return SaitoVerdict(False, None, bool(f) and is_reduced(f),
                            "saito determinant vanishes")
    if not is_reduced(f):
        return SaitoVerdict(False, None, False, "divisor equation is not reduced")
    # d = c*f  <=>  same normalization and proportional
    if normalize(d) != normalize(f):
        return SaitoVerdict(False, None, True,
                            "determinant is not proportional to the divisor")
    i = nonlogarithmic_field(f, sys.fields)
    if i is not None:
        return SaitoVerdict(False, None, True, f"field {i} is not logarithmic: "
                                               f"f does not divide delta_{i}(f)")
    le, lc = d.leading()
    return SaitoVerdict(True, lc / f.coeff(*le), True, det=d)


def nonlogarithmic_field(f: MultiPoly, fields) -> Optional[int]:
    """Index of the first field delta_i that is not logarithmic for f, that
    is with delta_i(f) not in (f) (K. Saito 1980, 1.9); None when every
    field is."""
    return next((i for i, fld in enumerate(fields) if not f.divides(fld.apply(f))),
                None)


# -- structure constants and flatness -----------------------------------

class NotASaitoSystemError(ValueError):
    """The candidate fields are dependent, or do not close under the Lie
    bracket."""


def structure_constants(fields) -> dict:
    """Polynomial c_ijk with [delta_i, delta_j] = sum_k c_ijk delta_k, by
    Cramer's rule: with M the Saito matrix (row k holds delta_k), the row
    (c_ij1, ..., c_ijn) is [delta_i, delta_j] adj(M) / det M, each entry an
    exact division.

    Raises NotASaitoSystemError when the fields are dependent (det M = 0)
    or a bracket leaves their polynomial span (a division is not exact).
    """
    fields = tuple(fields)
    m = [fld.coefficients for fld in fields]
    d = det_bareiss(m)
    if d.is_zero():
        raise NotASaitoSystemError("the fields are dependent: "
                                   "the saito determinant vanishes")
    adj = qm.adjugate(m)
    out = {}
    for i, j in combinations(range(len(fields)), 2):
        (row,) = qm.mat_mul([lie_bracket(fields[i], fields[j]).coefficients], adj)
        try:
            out[(i, j)] = [c.exact_div(d) for c in row]
        except ValueError:
            raise NotASaitoSystemError(f"bracket [delta_{i}, delta_{j}] is not "
                                       f"in the span of the fields") from None
    return out


@dataclass(frozen=True)
class LogConnection:
    """Connection matrices Omega_i against a basis of logarithmic fields."""
    system: SaitoSystem
    omegas: tuple  # tuple of m x m MultiPoly matrices
    rank: int

    def __post_init__(self):
        if len(self.omegas) != len(self.system.fields):
            raise ValueError("need one Omega per basis field")
        for om in self.omegas:
            if len(om) != self.rank or any(len(r) != self.rank for r in om):
                raise ValueError("Omega matrices must be rank x rank")


@dataclass(frozen=True)
class FlatnessResult:
    flat: bool
    witness: Optional[tuple] = None   # offending pair (i, j)

    def __bool__(self):
        return self.flat


def flatness_check(conn: LogConnection) -> FlatnessResult:
    """Exact flatness in the chosen frame:
    sum_k c_ijk Omega_k = delta_i(Omega_j) - delta_j(Omega_i) + [Omega_i, Omega_j].

    The Omega entries may be Laurent polynomials (a chart's matrices).
    Raises NotASaitoSystemError when the fields are dependent or a bracket
    leaves their span (see structure_constants).
    """
    fields = conn.system.fields
    cs = structure_constants(fields)
    vs = conn.system.vars
    for (i, j), coeffs in cs.items():
        lhs = [[MultiPoly.zero(vs) for _ in range(conn.rank)] for _ in range(conn.rank)]
        for k, c in enumerate(coeffs):
            if not c.is_zero():
                lhs = qm.mat_add(lhs, qm.mat_scale(conn.omegas[k], c))
        rhs = qm.mat_sub(fields[i].apply_matrix(conn.omegas[j]),
                         fields[j].apply_matrix(conn.omegas[i]))
        rhs = qm.mat_add(rhs, qm.commutator(conn.omegas[i], conn.omegas[j]))
        if not qm.is_zero_matrix(qm.mat_sub(lhs, rhs)):
            return FlatnessResult(False, (i, j))
    return FlatnessResult(True)
