"""Exact linear algebra over the rationals, and ring-generic matrix
arithmetic and determinants.

Matrices are row-major sequences of rows (lists or tuples).  Elimination
(rref, rank, solve, inverses) works over the rationals on Fraction entries.
The helpers mat_add, mat_sub, mat_mul, mat_scale, mat_eq, is_zero_matrix,
commutator, det_bareiss and det_cofactor work over any commutative ring
whose elements support + - * and ==, and whose truth value is false
exactly for zero: Fraction, MultiPoly (polynomials and, with the Laurent
flag, Laurent polynomials in any number of variables) and CycloNum.
det_bareiss divides exactly with the elements' exact_div, so it needs an
integral domain (MultiPoly); det_cofactor, exponential, is kept only as an
independent oracle for it.
"""
from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, _as_fraction

QMatrix = list  # list[list[Fraction]]


# -- rational matrices -------------------------------------------------

def qmat(rows) -> QMatrix:
    return [[_as_fraction(c) for c in row] for row in rows]


def identity(n: int) -> QMatrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(n: int, m: int | None = None) -> QMatrix:
    m = n if m is None else m
    return [[Fraction(0)] * m for _ in range(n)]


def mat_add(a: QMatrix, b: QMatrix) -> QMatrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def mat_sub(a: QMatrix, b: QMatrix) -> QMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: QMatrix, c) -> QMatrix:
    return [[x * c for x in row] for row in a]


def mat_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    n, k, m = len(a), len(b), len(b[0])
    zero = a[0][0] * 0
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            ait = a[i][t]
            if not ait:
                continue
            bt = b[t]
            oi = out[i]
            for j in range(m):
                oi[j] += ait * bt[j]
    return out


def mat_eq(a: QMatrix, b: QMatrix) -> bool:
    return len(a) == len(b) and all(tuple(ra) == tuple(rb) for ra, rb in zip(a, b))


def is_zero_matrix(a: QMatrix) -> bool:
    return not any(c for row in a for c in row)


def commutator(a: QMatrix, b: QMatrix) -> QMatrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def transpose(a: QMatrix) -> QMatrix:
    return [list(col) for col in zip(*a)]


def rref(a: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [row[:] for row in a]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r] + m[r:], pivots


def row_space(a: QMatrix) -> QMatrix:
    """Canonical (rref, no zero rows) basis of the row space."""
    red, pivots = rref(a)
    return red[: len(pivots)]


def rank(a: QMatrix) -> int:
    return len(rref(a)[1])


def nullspace(a: QMatrix) -> QMatrix:
    """Basis (as rows) of the right kernel of a."""
    if not a:
        return []
    red, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a: QMatrix, b: list) -> list | None:
    """One solution of a x = b, or None if inconsistent."""
    aug = [row[:] + [bb] for row, bb in zip(a, b)]
    red, pivots = rref(aug)
    cols = len(a[0]) if a else 0
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def mat_inv(a: QMatrix) -> QMatrix:
    n = len(a)
    aug = [row[:] + identity(n)[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def det_rational(a: QMatrix) -> Fraction:
    m = [row[:] for row in a]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def intersect_row_spaces(a: QMatrix, b: QMatrix) -> QMatrix:
    """Canonical basis of rowspace(a) ∩ rowspace(b)."""
    if not a or not b:
        return []
    cols = len(a[0])
    # x = u a = v b  <=>  [a^T | -b^T] (u, v)^T = 0
    stacked = [[a[r][c] for r in range(len(a))] + [-b[r][c] for r in range(len(b))]
               for c in range(cols)]
    combos = nullspace(stacked)
    vecs = []
    for w in combos:
        u = w[: len(a)]
        vecs.append([sum(ui * a[i][c] for i, ui in enumerate(u)) for c in range(cols)])
    return row_space(vecs) if vecs else []


def in_row_space(v: list, a: QMatrix) -> bool:
    if all(c == 0 for c in v):
        return True
    if not a:
        return False
    rows = [list(r) for r in a]
    return rank(rows + [list(v)]) == rank(rows)


# -- characteristic and minimal polynomials ----------------------------

def charpoly(a: QMatrix, var: str = "t") -> MultiPoly:
    """Characteristic polynomial det(t*I - a) as a univariate MultiPoly."""
    n = len(a)
    vs = (var,)
    t = MultiPoly.var(vs, var)
    entries = [[t - a[i][j] if i == j else MultiPoly.constant(vs, -a[i][j])
                for j in range(n)] for i in range(n)]
    return det_bareiss(entries)


def minpoly(a: QMatrix, var: str = "t") -> MultiPoly:
    """Monic minimal polynomial, found by the first linear dependence among
    the powers of a."""
    n = len(a)
    powers = [identity(n)]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], a))
    flat = [[p[i][j] for i in range(n) for j in range(n)] for p in powers]
    for k in range(1, n + 1):
        system = transpose(flat[:k])
        target = flat[k]
        sol = solve(system, target)
        if sol is not None:
            terms = {(k,): Fraction(1)}
            for i, c in enumerate(sol):
                if c != 0:
                    terms[(i,)] = -c
            return MultiPoly((var,), terms)
    raise AssertionError("Cayley-Hamilton violated")


def eval_poly_at_matrix(p: MultiPoly, a: QMatrix) -> QMatrix:
    """Evaluate a univariate polynomial at a rational matrix."""
    if len(p.vars) != 1:
        raise ValueError("univariate polynomial expected")
    n = len(a)
    out = zeros(n)
    power = identity(n)
    coeffs = {e[0]: c for e, c in p.terms.items()}
    for k in range(max(coeffs, default=0) + 1):
        c = coeffs.get(k)
        if c is not None:
            out = mat_add(out, mat_scale(power, c))
        power = mat_mul(power, a)
    return out


# -- ring-generic determinants ------------------------------------------

def det_cofactor(m):
    """Determinant by cofactor expansion along the first row.  Exponential;
    intended as an independent oracle for small dimensions."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return m[0][0]
    total = m[0][0] * 0
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = m[0][j] * det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def det_bareiss(m):
    """Fraction-free (Bareiss) determinant over an integral domain whose
    elements provide exact_div."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return m[0][0] * 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num if prev is None else num.exact_div(prev)
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result
