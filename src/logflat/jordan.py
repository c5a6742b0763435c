"""Exact multiplicative Jordan-Chevalley decomposition, quasi-unipotent
weight extraction, central logarithms in spectral form, and the
well-behaved-monodromy check.

Everything is exact, and one characteristic polynomial chi of M serves the
decomposition: chi(0) != 0 tests invertibility, the semisimple part S is
produced by Newton iteration against the squarefree part of chi, and the
weights of S (which shares chi), rationals q in [0,1), are read off its
cyclotomic factors.  The logarithm of the semisimple part is a combination
of spectral projectors over Q[t]/Phi_m.  No floating point, no complex
embedding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm

from .cyclotomic import (CycloNum, cmat_from_rational, cmat_identity,
                         cyclotomic_split_upoly)
from .matrices import (QMatrix, eval_poly_at_matrix, is_zero_matrix,
                       mat_add, mat_eq, mat_inv, mat_mul, mat_scale, mat_sub,
                       charpoly)
from .multipoly import squarefree_part


@dataclass(frozen=True)
class JCPair:
    """M = S*U = U*S with S semisimple (squarefree minimal polynomial) and
    U unipotent; weights is the weight data of S, read off chi(M) = chi(S)."""
    S: QMatrix
    U: QMatrix
    weights: WeightData | NotQuasiUnipotent


def jordan_chevalley(m: QMatrix) -> JCPair:
    """Multiplicative Jordan-Chevalley decomposition of an invertible
    rational matrix, with the weights of its semisimple part."""
    n = len(m)
    chi = charpoly(m)
    if not chi.coeff(0):        # chi(0) = (-1)^n det m
        raise ValueError("matrix is singular")
    p = squarefree_part(chi)[0]
    dp = p.derivative(p.vars[0])
    s = [row[:] for row in m]
    # Newton: s <- s - p(s) * p'(s)^{-1}; converges quadratically since
    # p(m) is nilpotent and gcd(p, p') = 1.  Scaling p leaves the step alone.
    for _ in range(max(1, n.bit_length() + 1)):
        ps = eval_poly_at_matrix(p, s)
        if is_zero_matrix(ps):
            break
        dps = eval_poly_at_matrix(dp, s)
        s = mat_sub(s, mat_mul(ps, mat_inv(dps)))
    else:
        raise AssertionError("Newton iteration did not converge")
    u = mat_mul(mat_inv(s), m)
    return JCPair(S=s, U=u, weights=_weights_from_charpoly(chi))


@dataclass(frozen=True)
class WeightEntry:
    order: int          # cyclotomic order d of the eigenvalue
    exponent: int       # class k with gcd(k, d) = 1; eigenvalue is zeta_d^k
    multiplicity: int
    weight: Fraction    # k/d in [0, 1)


@dataclass(frozen=True)
class WeightData:
    entries: tuple      # tuple[WeightEntry, ...]
    field_order: int    # lcm of the orders

    def dimension(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def weights(self) -> list:
        return [e.weight for e in self.entries]


@dataclass(frozen=True)
class NotQuasiUnipotent:
    """Failure value naming a non-cyclotomic factor of the minimal
    polynomial."""
    factor: object      # MultiPoly

    def __bool__(self):
        return False


def quasi_unipotent_weights(s: QMatrix):
    """WeightData for a semisimple rational matrix whose eigenvalues are all
    roots of unity, or a NotQuasiUnipotent failure value.

    s is semisimple iff its minimal polynomial is squarefree, that is iff
    rad(chi)(s) = 0 for chi = charpoly(s); the weights are then read off
    the same chi."""
    chi = charpoly(s)
    if not is_zero_matrix(eval_poly_at_matrix(squarefree_part(chi)[0], s)):
        raise ValueError("matrix is not semisimple (minimal polynomial not squarefree)")
    return _weights_from_charpoly(chi)


def _weights_from_charpoly(chi):
    """Weights of a semisimple matrix with characteristic polynomial chi:
    one cyclotomic split of chi gives each order with its multiplicity."""
    factors, rem = cyclotomic_split_upoly(chi)
    if rem.total_degree() > 0:
        # the non-cyclotomic part of the minimal polynomial, made monic
        factor = squarefree_part(rem)[0]
        return NotQuasiUnipotent(factor=factor * (1 / factor.leading()[1]))
    entries = []
    for d, md in factors:
        for k in range(d):
            if int_gcd(k if k else d, d) == 1:
                entries.append(WeightEntry(order=d, exponent=k if d > 1 else 0,
                                           multiplicity=md,
                                           weight=Fraction(k, d)))
    entries.sort(key=lambda e: e.weight)
    m = lcm(*(e.order for e in entries))
    data = WeightData(entries=tuple(entries), field_order=m)
    if data.dimension() != chi.total_degree():
        raise AssertionError("weight multiplicities do not sum to the dimension")
    return data


@dataclass(frozen=True)
class SpectralLog:
    """A = sum_j q_j P_j with exact spectral projectors over Q[t]/Phi_m.

    exp(2*pi*i*A) = S is encoded by the verified identities
    sum P_j = I, P_j P_k = 0 (j != k), and S P_j = zeta^{e_j} P_j.
    """
    field_order: int
    weights: tuple        # tuple[WeightEntry, ...]
    projectors: tuple     # tuple of CycloNum matrices, aligned with weights
    matrix: tuple         # A itself as a CycloNum matrix (rows of tuples)


def central_log(s: QMatrix) -> SpectralLog:
    """Spectral logarithm of a quasi-unipotent semisimple matrix.

    No subcommand emits it; acceptance criterion 4 checks it."""
    data = quasi_unipotent_weights(s)
    if isinstance(data, NotQuasiUnipotent):
        raise ValueError(f"not quasi-unipotent: factor {data.factor!r}")
    m = data.field_order
    n = len(s)
    sc = cmat_from_rational(m, s)
    ident = cmat_identity(m, n)
    lambdas = [CycloNum.zeta(m, e.exponent * (m // e.order)) for e in data.entries]
    projectors = []
    for j, lam_j in enumerate(lambdas):
        p = ident
        for l, lam_l in enumerate(lambdas):
            if l == j:
                continue
            factor = mat_scale(mat_add(sc, mat_scale(ident, -lam_l)),
                               (lam_j - lam_l).inverse())
            p = mat_mul(p, factor)
        projectors.append(p)
    # verified identities
    total = mat_scale(ident, CycloNum.rational(m, 0))
    for p in projectors:
        total = mat_add(total, p)
    if not mat_eq(total, ident):
        raise AssertionError("projectors do not resolve the identity")
    for j in range(len(projectors)):
        for k in range(j + 1, len(projectors)):
            if not is_zero_matrix(mat_mul(projectors[j], projectors[k])):
                raise AssertionError("projectors are not orthogonal")
    for lam, p in zip(lambdas, projectors):
        if not mat_eq(mat_mul(sc, p), mat_scale(p, lam)):
            raise AssertionError("eigen-equation S P = lambda P fails")
    a = mat_scale(ident, CycloNum.rational(m, 0))
    for e, p in zip(data.entries, projectors):
        a = mat_add(a, mat_scale(p, CycloNum.rational(m, e.weight)))
    return SpectralLog(field_order=m, weights=data.entries,
                       projectors=tuple(tuple(tuple(row) for row in p) for p in projectors),
                       matrix=tuple(tuple(row) for row in a))


def well_behaved_check(data, group: str) -> bool:
    """Whether the semisimple quasi-unipotent monodromy S with weight data
    `data` (JCPair.weights, or quasi_unipotent_weights(S)) admits a central
    logarithm inside the given structure group.

    GL: always true (the centralizer is a product of general linear groups
    with connected centre).  SL: true iff the weights admit integer shifts,
    one per eigenvalue, with multiplicity-weighted sum zero.
    """
    group = group.upper()
    if group not in ("GL", "SL"):
        raise ValueError("group must be GL or SL")
    if isinstance(data, NotQuasiUnipotent):
        raise ValueError(f"not quasi-unipotent: factor {data.factor!r}")
    if group == "GL":
        return True
    # det S = exp(2 pi i * total) is rational, so it is +-1, and it is 1
    # exactly when the weight sum is an integer
    total = sum((Fraction(e.multiplicity) * e.weight for e in data.entries),
                Fraction(0))
    if total.denominator != 1:
        raise ValueError("SL check requires det S = 1")
    g = 0
    for e in data.entries:
        g = int_gcd(g, e.multiplicity)
    return total.numerator % g == 0
