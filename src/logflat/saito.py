"""Logarithmic vector fields, the Saito freeness criterion, weighted
homogeneity, and flatness of logarithmic connection matrices.

A candidate basis of logarithmic fields is input data; the criterion forms
the coefficient matrix, takes its exact determinant, and compares with the
divisor equation.  The equation must be reduced: ``multipoly.is_reduced``
certifies that on one line mod a prime and falls back to the exact
squarefree part only when the line cannot decide, so "not reduced" is
always exact.  Negative verdicts are returned as values with a witness,
never raised.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
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
    """The candidate fields do not close under the Lie bracket."""


def _monomials(variables, bound: int):
    nv = len(variables)
    out = []
    for d in range(bound + 1):
        for combo in combinations_with_replacement(range(nv), d):
            e = [0] * nv
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def _solve_in_field_span(fields, target: VectorField, bound: int):
    """Polynomial coefficients c_k (degree <= bound) with
    sum_k c_k * delta_k = target, or None."""
    vs = target.vars
    monos = _monomials(vs, bound)
    # unknowns: the coefficients of each c_k at monos; equations: the
    # coefficient of each monomial of each ambient component
    rows, ncols = qm.coefficient_rows(
        qm.transpose([fld.coefficients for fld in fields]), [monos] * len(fields))
    for i, coef in enumerate(target.coefficients):
        for e in coef.terms:
            rows.setdefault((i, e), [Fraction(0)] * ncols)
    sol = qm.solve(list(rows.values()),
                   [target.coefficients[i].coeff(*e) for i, e in rows])
    if sol is None:
        return None
    n = len(monos)
    return [MultiPoly(vs, dict(zip(monos, sol[k * n:(k + 1) * n])))
            for k in range(len(fields))]


def structure_constants(fields) -> dict:
    """Polynomial c_ijk with [delta_i, delta_j] = sum_k c_ijk delta_k.

    Raises NotASaitoSystemError when a bracket leaves the span.
    """
    fields = tuple(fields)
    out = {}
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            br = lie_bracket(fields[i], fields[j])
            if br.is_zero():
                out[(i, j)] = [MultiPoly.zero(br.vars)] * len(fields)
                continue
            bound = max(c.total_degree() for c in br.coefficients if not c.is_zero())
            sol = None
            for extra in (0, 1, 2):
                sol = _solve_in_field_span(fields, br, bound + extra)
                if sol is not None:
                    break
            if sol is None:
                raise NotASaitoSystemError(
                    f"bracket [delta_{i}, delta_{j}] is not in the span of the fields")
            out[(i, j)] = sol
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
