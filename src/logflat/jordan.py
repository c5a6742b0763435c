"""Exact multiplicative Jordan-Chevalley decomposition, quasi-unipotent
weight extraction, central logarithms in spectral form, Deligne residues,
and the well-behaved-monodromy check.

Everything is exact: the semisimple part is produced by Newton iteration
against the squarefree part of the characteristic polynomial, weights are
rationals q in [0,1) read off cyclotomic factors, and the logarithm of the
semisimple part is a combination of spectral projectors over Q[t]/Phi_m.
No floating point, no complex embedding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm

from . import matrices as qm
from . import univariate as uv
from .cyclotomic import (CycloNum, cmat_from_rational, cmat_identity,
                         cyclotomic_split_upoly)
from .matrices import (QMatrix, det_rational, eval_poly_at_matrix, identity,
                       is_zero_matrix, mat_add, mat_eq, mat_inv, mat_mul,
                       mat_scale, mat_sub, charpoly, minpoly)
from .univariate import from_multipoly, to_multipoly


@dataclass(frozen=True)
class JCPair:
    """M = S*U = U*S with S semisimple (squarefree minimal polynomial) and
    U unipotent."""
    S: QMatrix
    U: QMatrix


def jordan_chevalley(m: QMatrix) -> JCPair:
    """Multiplicative Jordan-Chevalley decomposition of an invertible
    rational matrix."""
    n = len(m)
    if det_rational(m) == 0:
        raise ValueError("matrix is singular")
    chi = from_multipoly(charpoly(m))
    p = uv.usquarefree(chi)
    dp = uv.uderiv(p)
    s = [row[:] for row in m]
    # Newton: s <- s - p(s) * p'(s)^{-1}; converges quadratically since
    # p(m) is nilpotent and gcd(p, p') = 1.
    for _ in range(max(1, n.bit_length() + 1)):
        ps = eval_poly_at_matrix(to_multipoly(p), s)
        if is_zero_matrix(ps):
            break
        dps = eval_poly_at_matrix(to_multipoly(dp), s)
        s = mat_sub(s, mat_mul(ps, mat_inv(dps)))
    else:
        raise AssertionError("Newton iteration did not converge")
    if not is_zero_matrix(eval_poly_at_matrix(to_multipoly(p), s)):
        raise AssertionError("Newton iteration did not converge")
    u = mat_mul(mat_inv(s), m)
    return JCPair(S=s, U=u)


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
    roots of unity, or a NotQuasiUnipotent failure value."""
    mp = from_multipoly(minpoly(s))
    if not uv.is_squarefree(mp):
        raise ValueError("matrix is not semisimple (minimal polynomial not squarefree)")
    factors, rem = cyclotomic_split_upoly(mp)
    if uv.udeg(rem) > 0:
        return NotQuasiUnipotent(factor=to_multipoly(rem))
    chi = from_multipoly(charpoly(s))
    entries = []
    for d, mult_in_min in factors:
        if mult_in_min != 1:
            raise ValueError("minimal polynomial not squarefree")
        # multiplicity of Phi_d in the characteristic polynomial
        from .cyclotomic import cyclotomic_upoly
        phi = list(cyclotomic_upoly(d))
        md = 0
        work = chi
        while True:
            q, r = uv.udivmod(work, phi)
            if r:
                break
            work = q
            md += 1
        for k in range(d):
            if int_gcd(k if k else d, d) == 1:
                entries.append(WeightEntry(order=d, exponent=k if d > 1 else 0,
                                           multiplicity=md,
                                           weight=Fraction(k, d)))
    entries.sort(key=lambda e: e.weight)
    m = lcm(*(e.order for e in entries))
    data = WeightData(entries=tuple(entries), field_order=m)
    if data.dimension() != len(s):
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
    """Spectral logarithm of a quasi-unipotent semisimple matrix."""
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


def well_behaved_check(s: QMatrix, group: str) -> bool:
    """Whether the semisimple quasi-unipotent monodromy S admits a central
    logarithm inside the given structure group.

    GL: always true (the centralizer is a product of general linear groups
    with connected centre).  SL: true iff the weights admit integer shifts,
    one per eigenvalue, with multiplicity-weighted sum zero.
    """
    group = group.upper()
    if group not in ("GL", "SL"):
        raise ValueError("group must be GL or SL")
    data = quasi_unipotent_weights(s)
    if isinstance(data, NotQuasiUnipotent):
        raise ValueError(f"not quasi-unipotent: factor {data.factor!r}")
    if group == "GL":
        return True
    if det_rational(s) != 1:
        raise ValueError("SL check requires det S = 1")
    total = sum((Fraction(e.multiplicity) * e.weight for e in data.entries),
                Fraction(0))
    if total.denominator != 1:
        raise AssertionError("det S = 1 forces an integer weight sum")
    g = 0
    for e in data.entries:
        g = int_gcd(g, e.multiplicity)
    return total.numerator % g == 0


@dataclass(frozen=True)
class ResiduePair:
    """Semisimple residue weights plus the nilpotent logarithm of the
    unipotent part (rational entries; they commute)."""
    weights: WeightData
    nilpotent: QMatrix


def nilpotent_log(u: QMatrix) -> QMatrix:
    """log U = sum_{k>=1} (-1)^{k+1} (U - I)^k / k, a finite sum."""
    n = len(u)
    nil = mat_sub(u, identity(n))
    out = qm.zeros(n)
    power = identity(n)
    for k in range(1, n + 1):
        power = mat_mul(power, nil)
        if is_zero_matrix(power):
            break
        out = mat_add(out, mat_scale(power, Fraction((-1) ** (k + 1), k)))
    return out


def matrix_exp_nilpotent(n_mat: QMatrix) -> QMatrix:
    """exp of a nilpotent matrix (finite sum)."""
    n = len(n_mat)
    out = identity(n)
    power = identity(n)
    for k in range(1, n + 1):
        power = mat_scale(mat_mul(power, n_mat), Fraction(1, k))
        if is_zero_matrix(power):
            break
        out = mat_add(out, power)
    return out


def deligne_residue(m: QMatrix, branch: str = "[0,1)"):
    """Residue data for quasi-unipotent monodromy: weights on the chosen
    branch of the logarithm plus the nilpotent log of the unipotent part.

    branch "[0,1)" is the default; "(-1,0]" shifts every nonzero weight
    down by one.
    """
    jc = jordan_chevalley(m)
    data = quasi_unipotent_weights(jc.S)
    if isinstance(data, NotQuasiUnipotent):
        return data
    if branch == "(-1,0]":
        shifted = tuple(
            WeightEntry(e.order, e.exponent, e.multiplicity,
                        e.weight - 1 if e.weight > 0 else e.weight)
            for e in data.entries)
        data = WeightData(entries=shifted, field_order=data.field_order)
    elif branch != "[0,1)":
        raise ValueError("unknown branch convention")
    return ResiduePair(weights=data, nilpotent=nilpotent_log(jc.U))

