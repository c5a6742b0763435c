"""Exact Birkhoff factorization of Laurent-matrix transitions, splitting
types over the projective line, and equivariant splitting over weighted
(football) orbifolds.

Conventions, fixed once:
  * a transition T(z) relates the chart frames of a rank-m bundle;
    admissible regauging is T -> A*T*B with A unimodular over C[1/z] and
    B unimodular over C[z];
  * birkhoff_factorize returns T = Pminus * D * Pplus with Pminus
    polynomial in 1/z, Pplus polynomial in z, both with constant nonzero
    determinant, and D = diag(z^{t_i});
  * the line bundle of class n is presented by the transition z^{-n}, so
    the splitting type reports the classes n_i = -t_i;
  * global sections of the twist by class j are the polynomial vectors s
    with z^{-j}*T*s polynomial in 1/z.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd as int_gcd

from . import matrices as qm
from .laurent import Transition, lmat_identity, lmat_inverse, lmat_mul
from .multipoly import MultiPoly


@dataclass(frozen=True)
class BirkhoffFactors:
    """T = pminus * diag * pplus, exactly; diag stores the z-exponents of
    D in descending order."""
    pminus: tuple
    diag: tuple
    pplus: tuple

    def d_matrix(self, var: str = "z") -> list:
        n = len(self.diag)
        out = [[MultiPoly((var,), laurent=True) for _ in range(n)] for _ in range(n)]
        for i, e in enumerate(self.diag):
            out[i][i] = MultiPoly((var,), {(e,): 1}, laurent=True)
        return out

    def splitting_type(self) -> SplittingType:
        """The classes n_i = -t_i read off the diagonal exponents."""
        return SplittingType(tuple(sorted((-e for e in self.diag), reverse=True)))


@dataclass(frozen=True)
class SplittingType:
    """Classes n_1 >= ... >= n_m of the line-bundle summands."""
    classes: tuple

    def __iter__(self):
        return iter(self.classes)

    def __eq__(self, other):
        if isinstance(other, SplittingType):
            return self.classes == other.classes
        return tuple(self.classes) == tuple(other)


def _col_degrees(m: list) -> list:
    degs = []
    for j in range(len(m)):
        col_max = None
        for i in range(len(m)):
            if not m[i][j].is_zero():
                e = m[i][j].max_exp()
                col_max = e if col_max is None else max(col_max, e)
        if col_max is None:
            raise ValueError("transition has a zero column")
        degs.append(col_max)
    return degs


def birkhoff_factorize(t: Transition) -> BirkhoffFactors:
    """Factor T = Pminus * D * Pplus by exact column reduction.

    The matrix is shifted to polynomial entries, then columns are combined
    (right multiplication by unimodular polynomial matrices) until the
    leading column-coefficient matrix is invertible; the column degrees
    then peel off as the diagonal exponents.  Terminates because every
    reduction strictly decreases the sum of column degrees.
    """
    n = t.rank
    var = t.var
    shift = max(0, -min(p.min_exp() for row in t.matrix for p in row
                        if not p.is_zero()))
    m = [[p.shift(shift) for p in row] for row in t.matrix]
    pplus = lmat_identity(n, var)   # accumulates (E_1 E_2 ...)^{-1}
    while True:
        degs = _col_degrees(m)
        lead = [[m[i][j].coeff(degs[j]) for j in range(n)] for i in range(n)]
        null = qm.nullspace(lead)
        if not null:
            break
        v = null[0]
        k = max((j for j in range(n) if v[j] != 0), key=lambda j: degs[j])
        # column k <- sum_j v_j z^{deg_k - deg_j} column j; kills the top
        # coefficient of column k.
        for i in range(n):
            total = MultiPoly((var,), laurent=True)
            for j in range(n):
                if v[j] != 0:
                    total = total + m[i][j].shift(degs[k] - degs[j]) * v[j]
            m[i][k] = total
        # fold the inverse column operation into Pplus as row operations:
        # row k <- row k / v_k, then row j <- row j - v_j z^{deg_k - deg_j} row k
        pplus[k] = [p * (1 / v[k]) for p in pplus[k]]
        for j in range(n):
            if j != k and v[j] != 0:
                pplus[j] = [a - b.shift(degs[k] - degs[j]) * v[j]
                            for a, b in zip(pplus[j], pplus[k])]
    # m is column-reduced: peel the degrees into D
    pminus = [[m[i][j].shift(-degs[j]) for j in range(n)] for i in range(n)]
    exps = [d - shift for d in degs]
    # sort D descending by exponent via a permutation on both sides
    order = sorted(range(n), key=lambda j: -exps[j])
    pminus = [[pminus[i][order[j]] for j in range(n)] for i in range(n)]
    pplus = [pplus[order[i]] for i in range(n)]
    exps = [exps[j] for j in order]
    factors = BirkhoffFactors(
        pminus=tuple(tuple(row) for row in pminus),
        diag=tuple(exps),
        pplus=tuple(tuple(row) for row in pplus))
    _verify_factorization(t, factors)
    return factors


def _verify_factorization(t: Transition, f: BirkhoffFactors):
    """Check T = Pminus * D * Pplus by multiplication and one rational rank.

    The reconstruction and sum(diag) = k give det Pminus * det Pplus = c,
    the nonzero constant of det T = c*z^k.  So both determinants are units
    of Q[z, 1/z]: det Pplus = a*z^j in Q[z] and det Pminus = (c/a)*z^-j in
    Q[1/z], with j >= 0.  det Pplus(0), the determinant of the constant
    coefficients of Pplus, is nonzero only if j = 0, and then both
    determinants are constants: both factors are unimodular.
    """
    pm, pp = f.pminus, f.pplus
    for row in pm:
        for p in row:
            if p.max_exp() > 0:
                raise AssertionError("Pminus is not polynomial in 1/z")
    for row in pp:
        for p in row:
            if not p.is_polynomial():
                raise AssertionError("Pplus is not polynomial in z")
    if sum(f.diag) != t.det_exp:
        raise AssertionError("diagonal exponents do not sum to the det exponent")
    if qm.rank([[p.coeff(0) for p in row] for row in pp]) != len(pp):
        raise AssertionError("Pplus(0) is singular: the factors are not unimodular")
    pm_d = [[p.shift(e) for p, e in zip(row, f.diag)] for row in pm]   # Pminus * D
    if not qm.mat_eq(lmat_mul(pm_d, pp), t.matrix):
        raise AssertionError("reconstruction Pminus*D*Pplus != T failed")


# -- independent rank oracle ----------------------------------------------


def _h0_twist(t: Transition, j: int, einv: int) -> int:
    """dim of {s polynomial : z^{-j} T s is polynomial in 1/z}, the global
    sections of the twist by class j; einv is the top z-exponent of T^{-1},
    which bounds the degree of a section."""
    dmax = j + einv
    if dmax < 0:
        return 0
    # unknowns: coefficients of s_c at z^d, 0 <= d <= dmax; T s must have
    # no term above z^j
    window = [(d,) for d in range(dmax + 1)]
    rows, ncols = qm.coefficient_rows(t.matrix, [window] * t.rank)
    return ncols - qm.rank([row for (_, (e,)), row in rows.items() if e > j])


def splitting_type_rank_oracle(t: Transition) -> SplittingType:
    """Recover the splitting type from the jump pattern of the section
    counts, independently of any factorization.

    h0(j) - h0(j-1) = #{i : n_i >= -j}, so scanning j upward reveals each
    class n_i at the twist where it first contributes a section.
    """
    n = t.rank
    tinv = lmat_inverse(t.matrix)
    einv = max(p.max_exp() for row in tinv for p in row if not p.is_zero())
    emax = max(p.max_exp() for row in t.matrix for p in row if not p.is_zero())
    cap = einv + n * (abs(emax) + abs(einv)) + abs(t.det_exp) + 2
    classes = []
    j = -einv - 1
    prev = _h0_twist(t, j, einv)
    if prev != 0:
        raise AssertionError("section space nonzero below the provable bound")
    while len(classes) < n:
        j += 1
        if j > cap:
            raise AssertionError("rank-oracle scan exceeded its degree cap")
        cur = _h0_twist(t, j, einv)
        fresh = (cur - prev) - len(classes)
        if fresh < 0:
            raise AssertionError("section counts decreased along the scan")
        classes.extend([-j] * fresh)
        prev = cur
    return SplittingType(tuple(sorted(classes, reverse=True)))


# -- equivariant (football) splitting --------------------------------------


def _ext_gcd(a: int, b: int) -> tuple:
    if b == 0:
        return a, 1, 0
    g, s, t = _ext_gcd(b, a % b)
    return g, t, s - (a // b) * t


class EquivariantTransition:
    """Transition data of a weight-(p, q) equivariant bundle on the
    punctured plane, in the factored form G_ij = m_{a_i - b_j} * tau_ij(z).

    Here z = x^{-q/g} y^{p/g} is the basic invariant (g = gcd(p, q)),
    m_w = (x^{s*} y^{t*})^{w/g} with p s* + q t* = g is the canonical
    monomial of weight w, a_i are the chart-x frame characters and b_j the
    chart-y frame characters.  Entries with g not dividing a_i - b_j must
    vanish (no monomial of that weight exists on the overlap).
    """

    def __init__(self, p: int, q: int, isotropy0, isotropy_inf, tau):
        if p < 1 or q < 1:
            raise ValueError("weights must be positive")
        self.p, self.q = int(p), int(q)
        self.g = int_gcd(self.p, self.q)
        g, s, t = _ext_gcd(self.p, self.q)
        self.s_star, self.t_star = s, t     # p*s + q*t = g
        self.a = [int(v) for v in isotropy0]
        self.b = [int(v) for v in isotropy_inf]
        self.tau = Transition(tau)          # checks the unit-determinant invariant
        m = self.tau.rank
        if len(self.a) != m or len(self.b) != m:
            raise ValueError("character lists must match the rank")
        for i in range(m):
            for j in range(m):
                if not tau[i][j].is_zero() and (self.a[i] - self.b[j]) % self.g:
                    raise ValueError(
                        f"equivariance violated at entry ({i}, {j}): "
                        f"characters {self.a[i]} and {self.b[j]} differ by a "
                        f"non-multiple of gcd(p, q) = {self.g}")

    @property
    def rank(self) -> int:
        return self.tau.rank


def _h0_equivariant(et: EquivariantTransition, j: int, spread: int) -> int:
    """Invariant sections of the twist by the class-j line bundle.

    A section is a chart-y coefficient vector psi with psi_c supported in
    z-exponents e <= floor(s*(b_c+j)/q) (regularity off y = 0) such that
    tau*psi is supported in e >= ceil(-t*(a_i+j)/p) per row (regularity off
    x = 0); components whose character is not a multiple of gcd(p, q)
    vanish identically.  spread bounds |min| + |max| z-exponent over the
    entries of tau^{-1}.
    """
    m = et.rank
    g, s, t = et.g, et.s_star, et.t_star
    uppers = []
    for c in range(m):
        w = et.b[c] + j
        if w % g:
            uppers.append(None)     # component forced to zero
        else:
            uppers.append((s * w) // et.q if s * w >= 0
                          else -((-s * w + et.q - 1) // et.q))
    lowers = []
    for i in range(m):
        w = et.a[i] + j
        if w % g:
            lowers.append(None)     # row must vanish entirely
        else:
            v = -t * w
            lowers.append((v + et.p - 1) // et.p if v >= 0 else -((-v) // et.p))
    finite_lowers = [v for v in lowers if v is not None]
    if not finite_lowers or all(u is None for u in uppers):
        return 0
    low = min(finite_lowers) - spread - 1
    # unknowns: psi_c coefficients at z^e, low <= e <= uppers[c]
    windows = [[] if u is None else [(e,) for e in range(low, u + 1)]
               for u in uppers]
    rows, ncols = qm.coefficient_rows(et.tau.matrix, windows)
    return ncols - qm.rank([row for (i, (e,)), row in rows.items()
                            if lowers[i] is None or e < lowers[i]])


def deconvolution_bound(et: EquivariantTransition) -> int:
    """The first class range [-bound, bound] football_split searches:
    max |a_i| + max |b_j| + (p + q)(spread(tau) + 2).  Its cost is linear
    in the bound."""
    tau_spread = max(abs(x.min_exp()) + abs(x.max_exp())
                     for row in et.tau.matrix for x in row if not x.is_zero())
    return (max(map(abs, et.a), default=0) + max(map(abs, et.b), default=0)
            + (et.p + et.q) * (tau_spread + 2))


def football_split(et: EquivariantTransition) -> list:
    """Classes k_i of the equivariant line-bundle summands, descending.

    The section counts of the class-(-k) twists are deconvolved against the
    counting function N(k) = #{(alpha, beta) >= 0 : p*alpha + q*beta = k}:
    the multiplicity of class k is H(-k) - H(-k-p) - H(-k-q) + H(-k-p-q).
    """
    m = et.rank
    p, q = et.p, et.q
    bound = deconvolution_bound(et)
    inv_spread = max(abs(x.min_exp()) + abs(x.max_exp())
                     for row in lmat_inverse(et.tau.matrix) for x in row
                     if not x.is_zero())
    cache: dict[int, int] = {}

    def h(j):
        if j not in cache:
            cache[j] = _h0_equivariant(et, j, inv_spread)
        return cache[j]

    for _ in range(6):
        classes = []
        for k in range(-bound, bound + 1):
            mult = h(-k) - h(-k - p) - h(-k - q) + h(-k - p - q)
            if mult < 0:
                raise AssertionError("negative multiplicity in deconvolution")
            classes.extend([k] * mult)
        if len(classes) == m and h(-bound - 1) == 0 and h(-bound - 1 - p - q) == 0:
            break
        bound *= 2
    else:
        raise AssertionError("equivariant splitting did not stabilize")
    if len(classes) != m:
        raise AssertionError("class multiplicities do not sum to the rank")
    if sorted(k % p for k in classes) != sorted(a % p for a in et.a):
        raise AssertionError("classes mod p disagree with the chart-x isotropy")
    if sorted(k % q for k in classes) != sorted(b % q for b in et.b):
        raise AssertionError("classes mod q disagree with the chart-y isotropy")
    return sorted(classes, reverse=True)
