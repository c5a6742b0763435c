"""Exact linear algebra over the rationals, and ring-generic matrix
arithmetic and determinants.

Matrices are row-major sequences of rows (lists or tuples).  Elimination
(rref, rank, nullspace, solve, inverses, intersections) has one kernel,
fraction-free Bareiss elimination on integer rows: each row of Fraction or
int entries is scaled by the lcm of its denominators, every division in
the elimination is exact, and Fractions appear only in the rows returned;
rank builds none.
A subspace of Q^m is held as its canonical basis, the rref rows with no zero
rows, as row_space, intersect_row_spaces and Filtration.subspace return it;
in_row_space relies on this and runs no elimination.
The helpers mat_add, mat_sub, mat_mul, mat_scale, mat_eq, is_zero_matrix,
commutator, det_bareiss, adjugate and det_cofactor work over any
commutative ring whose elements support + - * and ==, and whose truth value
is false exactly for zero: Fraction, MultiPoly (polynomials and, with the
Laurent flag, Laurent polynomials in any number of variables) and
QuotientNum (quotient rings Q[t]/(g), cyclotomic ones included).
det_bareiss, and adjugate through it, divide exactly with the elements'
exact_div, so they need an integral domain (MultiPoly); det_cofactor,
exponential, is kept only as an independent oracle for det_bareiss.

coefficient_rows is the one place where a polynomial linear system becomes
rational rows: for a matrix of MultiPoly entries and an unknown vector s
whose component s_c ranges over the monomials of a window (a list of
exponent vectors), each coefficient of (entries * s)_i is a linear form in
the unknown coefficients.  The section counts of the rank oracle and of the
football split read their systems off these rows.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add

from .multipoly import MultiPoly, _as_fraction

QMatrix = list  # list[list[Fraction]]

_ZERO = Fraction(0)


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


def _integer_rows(a) -> list:
    """Each row of rationals (Fraction or int) times the lcm of its
    denominators: int rows with the same row space, fresh lists."""
    out = []
    for row in a:
        den = lcm(*[x.denominator for x in row])
        out.append([x.numerator for x in row] if den == 1 else
                   [x.numerator * (den // x.denominator) for x in row])
    return out


def _eliminate(m: list, reduce: bool = True) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of the int rows m, in place;
    returns the pivot columns and d, the last pivot (1 if there is none).

    At the pivot p in column c every other row taking part, including rows
    with a zero in column c, becomes (p * row - row[c] * pivot_row) // prev,
    prev being the previous pivot.  Each entry stays a minor of m, so every
    division is exact (Bareiss 1968, Sylvester's identity).  Rows below the
    pivot always take part; with reduce (Gauss-Jordan) the rows above do
    too, and at the end the pivot rows come first and each equals d times
    its rref row, the rows below them zero.  Without reduce (the forward
    half) the pivot rows are left in echelon form, which is all rank needs.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots, prev, r = [], 1, 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        tail = prow[c:]
        for i in range(r + 1, nrows):      # columns before c are zero here
            row = m[i]
            f = row[c]
            row[c:] = ([(p * x - f * y) // prev for x, y in zip(row[c:], tail)] if f
                       else [p * x // prev for x in row[c:]])
        if reduce:
            for i in range(r):
                row = m[i]
                f = row[c]
                m[i] = ([(p * x - f * y) // prev for x, y in zip(row, prow)] if f
                        else [p * x // prev for x in row])
        pivots.append(c)
        prev = p
        r += 1
        if r == nrows:
            break
    return pivots, prev


def _divided(row, d: int) -> list:
    """The int row divided by d, as Fractions."""
    return [Fraction(x, d) if x else _ZERO for x in row]


def _primitive(row: list) -> list:
    """The nonzero int row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g == 1 else [x // g for x in row]


def _kernel_rows(m: list) -> tuple[list, int]:
    """Integer rows spanning the right kernel of the int rows m (consumed),
    and d: dividing each by d gives the nullspace basis, whose free column
    holds 1."""
    pivots, d = _eliminate(m)
    cols = len(m[0]) if m else 0
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = d
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis, d


def rref(a: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form, as Fractions, and pivot column indices."""
    m = _integer_rows(a)
    pivots, d = _eliminate(m)
    return [_divided(row, d) for row in m], pivots


def row_space(a: QMatrix) -> QMatrix:
    """Canonical (rref, no zero rows) basis of the row space."""
    red, pivots = rref(a)
    return red[: len(pivots)]


def rank(a: QMatrix) -> int:
    return len(_eliminate(_integer_rows(a), reduce=False)[0])


def nullspace(a: QMatrix) -> QMatrix:
    """Basis (as rows) of the right kernel of a."""
    basis, d = _kernel_rows(_integer_rows(a))
    return [_divided(v, d) for v in basis]


def solve(a: QMatrix, b: list) -> list | None:
    """One solution of a x = b, or None if inconsistent."""
    m = _integer_rows([[*row, bb] for row, bb in zip(a, b)])
    pivots, d = _eliminate(m)
    cols = len(a[0]) if a else 0
    if cols in pivots:
        return None
    x = [_ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(m[r][cols], d)
    return x


def mat_inv(a: QMatrix) -> QMatrix:
    n = len(a)
    m = _integer_rows([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)])
    pivots, d = _eliminate(m)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [_divided(row[n:], d) for row in m]


def intersect_row_spaces(*spaces) -> QMatrix:
    """Canonical basis of the intersection of the row spaces: the common
    kernel of their equations (each space's nullspace)."""
    if not all(spaces):
        return []
    # Integer rows throughout.  A kernel row carries the factor d of its
    # elimination, which for a canonical basis is the product of the rows'
    # denominator lcms; dividing out each row's content keeps the next
    # elimination's entries small.
    equations = [_primitive(e) for space in spaces
                 for e in _kernel_rows(_integer_rows(space))[0]]
    if not equations:
        return row_space(spaces[0])
    m = [_primitive(v) for v in _kernel_rows(equations)[0]]
    pivots, d = _eliminate(m)
    return [_divided(row, d) for row in m[: len(pivots)]]


def in_row_space(v, basis) -> bool:
    """v in the span of a canonical basis: subtract v[p] * row for each
    row's pivot p and test what is left."""
    for row in basis:
        c = v[next(p for p, x in enumerate(row) if x)]
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return not any(v)


def coefficient_rows(entries, windows) -> tuple[dict, int]:
    """Rows of the linear map s -> entries * s on coefficient vectors.

    entries is a matrix of MultiPoly values and windows[c] the list of
    exponent vectors that s_c may use; the unknowns are laid out window
    after window.  Returns ({(i, e): row}, ncols) with one Fraction row per
    coefficient z^e of (entries * s)_i that some unknown reaches; rows
    appear in no particular order.  Only the nonzero terms of the entries
    are visited.
    """
    offsets, ncols = [], 0
    for window in windows:
        offsets.append(ncols)
        ncols += len(window)
    rows: dict = {}
    for i, entry_row in enumerate(entries):
        for c, p in enumerate(entry_row):
            terms = p.terms.items()
            for col, d in enumerate(windows[c], offsets[c]):
                for a, coef in terms:
                    key = (i, tuple(map(add, a, d)))
                    row = rows.get(key)
                    if row is None:
                        row = rows[key] = [Fraction(0)] * ncols
                    row[col] = coef
    return rows, ncols


# -- characteristic polynomials ------------------------------------------

def charpoly(a: QMatrix, var: str = "t") -> MultiPoly:
    """Characteristic polynomial det(t*I - a) as a univariate MultiPoly."""
    n = len(a)
    vs = (var,)
    t = MultiPoly.var(vs, var)
    entries = [[t - a[i][j] if i == j else MultiPoly.constant(vs, -a[i][j])
                for j in range(n)] for i in range(n)]
    return det_bareiss(entries)


def eval_poly_at_matrix(p: MultiPoly, a: QMatrix) -> QMatrix:
    """p(a) by Horner: deg p products, each coefficient added on the diagonal."""
    if len(p.vars) != 1:
        raise ValueError("univariate polynomial expected")
    n = len(a)
    out = zeros(n)
    for k in range(p.total_degree(), -1, -1):
        c = p.coeff(k)
        if c:
            for i in range(n):
                out[i][i] += c
        if k:
            out = mat_mul(out, a)
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


def adjugate(m):
    """The adjugate adj(m), with m adj(m) = adj(m) m = det(m) I: entry (j, i)
    is (-1)^(i+j) times the Bareiss determinant of m without row i and
    column j."""
    n = len(m)
    if n == 1:
        return [[m[0][0] ** 0]]         # the ring's one
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = det_bareiss([[m[r][c] for c in range(n) if c != j]
                               for r in range(n) if r != i])
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj
