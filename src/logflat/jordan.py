"""Exact multiplicative Jordan-Chevalley decomposition, quasi-unipotent
weight extraction, central logarithms in spectral form, and the
well-behaved-monodromy check.

Everything is exact, and one characteristic polynomial chi of M serves the
decomposition: chi(0) != 0 tests invertibility, the semisimple part S = q(M)
comes from Newton's iteration on one polynomial q in Q[x]/(chi), against the
squarefree part of chi, with no matrix inverse, and the weights of S (which
shares chi), rationals in [0,1), are read off its cyclotomic factors.  The
logarithm of the semisimple part is a combination of spectral projectors
over Q[t]/Phi_m.  No floating point, no complex embedding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm

from .cyclotomic import (QuotientNum, cmat_from_rational, cyclotomic_split_upoly,
                         cyclotomic_upoly)
from .matrices import (QMatrix, eval_poly_at_matrix, identity, is_zero_matrix,
                       mat_add, mat_eq, mat_mul, mat_scale, charpoly)
from .multipoly import MultiPoly, squarefree_part


@dataclass(frozen=True)
class JCPair:
    """M = S*U = U*S with S semisimple (squarefree minimal polynomial) and
    U unipotent; weights is the weight data of S, read off chi(M) = chi(S)."""
    S: QMatrix
    U: QMatrix
    weights: WeightData | NotQuasiUnipotent


def jordan_chevalley(m: QMatrix) -> JCPair:
    """Multiplicative Jordan-Chevalley decomposition of an invertible
    rational matrix, with the weights of its semisimple part: S = q(M) and
    U = (x/q)(M), where q in Q[x]/(chi) solves p(q) = 0, p the squarefree part
    of chi; p(q) = 0 proves S semisimple.  q is a unit, since
    q(lambda) = lambda != 0 at every root lambda of chi."""
    n = len(m)
    chi = charpoly(m)
    if not chi.coeff(0):        # chi(0) = (-1)^n det m
        raise ValueError("matrix is singular")
    p = squarefree_part(chi)[0]
    dp = p.derivative(p.vars[0])
    # Newton from q = x: p(x) is nilpotent mod chi and gcd(p, p') = 1, so
    # p'(q) is a unit and the iteration converges quadratically
    x = q = QuotientNum(chi, MultiPoly.var(chi.vars, chi.vars[0]))
    for _ in range(max(1, n.bit_length() + 1)):
        pq = q.substitute(p)
        if not pq:
            break
        q = q - pq / q.substitute(dp)
    else:
        raise AssertionError("Newton iteration did not converge")
    return JCPair(S=eval_poly_at_matrix(q.poly, m), U=eval_poly_at_matrix((x / q).poly, m),
                  weights=_weights_from_charpoly(chi))


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
    projectors: tuple     # tuple of QuotientNum matrices, aligned with weights
    matrix: tuple         # A itself as a QuotientNum matrix (rows of tuples)


def central_log(s: QMatrix) -> SpectralLog:
    """Spectral logarithm of a quasi-unipotent semisimple matrix.

    No subcommand emits it; acceptance criterion 4 checks it."""
    data = quasi_unipotent_weights(s)
    if isinstance(data, NotQuasiUnipotent):
        raise ValueError(f"not quasi-unipotent: factor {data.factor!r}")
    m = data.field_order
    phi = cyclotomic_upoly(m)
    sc = cmat_from_rational(phi, s)
    ident = cmat_from_rational(phi, identity(len(s)))
    lambdas = [QuotientNum.zeta(m, e.exponent * (m // e.order)) for e in data.entries]
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
    total = mat_scale(ident, 0)
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
    a = mat_scale(ident, 0)
    for e, p in zip(data.entries, projectors):
        a = mat_add(a, mat_scale(p, e.weight))
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
