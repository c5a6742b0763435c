"""Shared independent oracles and generators for the test suite."""
import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from logflat import matrices as qm
from logflat.castling import minor_product_divisor, minor_product_variables
from logflat.filtrations import (AdaptedBasis, Filtration, NotSplittable,
                                 _avoiding_vector)
from logflat.multipoly import MultiPoly, squarefree_part
from logflat.saito import SaitoSystem, VectorField, lie_bracket


def transpose(a):
    return [list(col) for col in zip(*a)]


def fraction_rref(a):
    """Reduced row echelon form and pivot columns by Gauss-Jordan elimination
    on Fractions: the independent oracle for the library's fraction-free
    integer kernel."""
    m = [[Fraction(x) for x in row] for row in a]
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
    return m, pivots


def fraction_nullspace(a):
    """Kernel basis read off fraction_rref: one row per free column, 1 there."""
    if not a:
        return []
    red, pivots = fraction_rref(a)
    cols = len(a[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def fraction_solve(a, b):
    """One solution of a x = b through fraction_rref, or None."""
    red, pivots = fraction_rref([list(row) + [bb] for row, bb in zip(a, b)])
    cols = len(a[0]) if a else 0
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def fraction_inverse(a):
    """Inverse through fraction_rref of [a | I], or None if a is singular."""
    n = len(a)
    red, pivots = fraction_rref([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(a)])
    return [row[n:] for row in red] if pivots == list(range(n)) else None


def fraction_intersection(*spaces):
    """Canonical basis of the intersection, through fraction_rref."""
    if not all(spaces):
        return []
    equations = [e for space in spaces for e in fraction_nullspace(space)]
    red, pivots = fraction_rref(fraction_nullspace(equations) if equations else spaces[0])
    return red[: len(pivots)]


# -- Fraction polynomial kernels ---------------------------------------------
# The independent oracles for MultiPoly's integer kernels: term maps
# {exponent tuple: nonzero Fraction}, with the linear leading-term scan and
# the Euclid over Q that MultiPoly used before it held int numerators.

def _grlex(e):
    return (sum(e), e)


def fraction_poly_mul(f, g):
    terms = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


def _fraction_poly_sub(f, g):
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def fraction_exact_div(f, d, laurent=False):
    """Long division by the graded-lex leading term of d; raises ValueError
    when a quotient exponent falls below the floor (0, or min(f) - min(d)
    per variable for Laurent maps)."""
    if not d:
        raise ZeroDivisionError("division by zero polynomial")
    n = len(next(iter(d)))
    if laurent and f:
        floor = tuple(min(e[i] for e in f) - min(e[i] for e in d) for i in range(n))
    else:
        floor = (0,) * n
    de = max(d, key=_grlex)
    rem, q = dict(f), {}
    while rem:
        re = max(rem, key=_grlex)
        qe = tuple(map(sub, re, de))
        if any(a < b for a, b in zip(qe, floor)):
            raise ValueError("not an exact division")
        qc = rem[re] / d[de]
        q[qe] = qc
        rem = _fraction_poly_sub(rem, fraction_poly_mul({qe: qc}, d))
    return q


def fraction_divmod(f, d):
    """Univariate division with remainder over Q on term maps {(k,): c}."""
    (dd,) = max(d)
    rem, q = dict(f), {}
    while rem and max(rem)[0] >= dd:
        (top,) = max(rem)
        qc = rem[(top,)] / d[(dd,)]
        q[(top - dd,)] = qc
        rem = _fraction_poly_sub(rem, fraction_poly_mul({(top - dd,): qc}, d))
    return q, rem


def fraction_normalize(f):
    """Integer coefficients with content 1 and a positive graded-lex leading
    coefficient."""
    if not f:
        return f
    den = lcm(*(c.denominator for c in f.values()))
    content = 0
    for c in f.values():
        content = gcd(content, abs(c.numerator * (den // c.denominator)))
    scale = Fraction(den, content)
    if f[max(f, key=_grlex)] < 0:
        scale = -scale
    return {e: c * scale for e, c in f.items()}


def fraction_gcd(f, g, nvars):
    """Normalized gcd by Euclid over Q in one variable, and otherwise by a
    primitive PRS over the first variable with polynomial contents in the
    others."""
    if not f:
        return fraction_normalize(g)
    if not g:
        return fraction_normalize(f)
    if nvars == 0 or not any(any(e) for e in f) or not any(any(e) for e in g):
        return {(0,) * nvars: Fraction(1)}
    if nvars == 1:
        while g:
            f, g = g, fraction_divmod(f, g)[1]
        return fraction_normalize(f)

    def split(p):
        out = {}
        for e, c in p.items():
            out.setdefault(e[0], {})[e[1:]] = c
        return out

    def primitive(u):
        c = {}
        for coef in u.values():
            c = fraction_gcd(c, coef, nvars - 1)
        return c, {k: fraction_exact_div(v, c) for k, v in u.items()}

    def pseudo_rem(a, b):
        db = max(b)
        rem = dict(a)
        while rem and max(rem) >= db:
            dr = max(rem)
            lr = rem[dr]
            new = {k: fraction_poly_mul(c, b[db]) for k, c in rem.items()}
            for k, c in b.items():
                kk = k + dr - db
                new[kk] = _fraction_poly_sub(new.get(kk, {}), fraction_poly_mul(lr, c))
            rem = {k: v for k, v in new.items() if v}
        return rem

    cf, a = primitive(split(f))
    cg, b = primitive(split(g))
    if max(a) < max(b):
        a, b = b, a
    while True:
        r = pseudo_rem(a, b)
        if not r:
            break
        a, b = b, primitive(r)[1]
    prim = {(k,) + e: c for k, coef in b.items() for e, c in coef.items()}
    cont = {(0,) + e: c for e, c in fraction_gcd(cf, cg, nvars - 1).items()}
    return fraction_normalize(fraction_poly_mul(prim, cont))


# -- structure constants by a degree-window solve ---------------------------

def _monomials(nvars, bound):
    """Exponent vectors of total degree <= bound."""
    out = []
    for d in range(bound + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def _solve_in_field_span(fields, target, bound):
    """Polynomial c_k of degree <= bound with sum_k c_k delta_k = target, as
    one rational linear solve on their coefficients, or None."""
    vs = target.vars
    monos = _monomials(len(vs), bound)
    rows, ncols = qm.coefficient_rows(
        transpose([fld.coefficients for fld in fields]), [monos] * len(fields))
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


def window_structure_constants(fields):
    """c_ijk with [delta_i, delta_j] = sum_k c_ijk delta_k, solved in the
    degree windows deg [delta_i, delta_j] + 0, 1, 2; None when a bracket has
    no solution there.  The independent oracle for saito's Cramer's rule;
    it does not notice dependent fields."""
    fields = tuple(fields)
    out = {}
    for i, j in itertools.combinations(range(len(fields)), 2):
        br = lie_bracket(fields[i], fields[j])
        if br.is_zero():
            out[(i, j)] = [MultiPoly.zero(br.vars)] * len(fields)
            continue
        bound = max(c.total_degree() for c in br.coefficients)
        for extra in (0, 1, 2):
            sol = _solve_in_field_span(fields, br, bound + extra)
            if sol is not None:
                break
        else:
            return None
        out[(i, j)] = sol
    return out


def sextic_system():
    """The minor-product sextic (n = 3) with the six linear fields of
    (C*)^3 x SL(2): three torus rows, then e12, e21 and h."""
    vs = minor_product_variables(3)
    v = lambda s: MultiPoly.var(vs, s)
    zero = MultiPoly.zero(vs)
    def field(coeffs):
        return VectorField(tuple(coeffs.get(name, zero) for name in vs))
    fields = [field({f"{r}1": v(f"{r}1"), f"{r}2": v(f"{r}2")})
              for r in "uvw"]                                    # torus rows
    fields.append(field({f"{r}2": v(f"{r}1") for r in "uvw"}))   # e12
    fields.append(field({f"{r}1": v(f"{r}2") for r in "uvw"}))   # e21
    fields.append(field({f"{r}1": v(f"{r}1") for r in "uvw"}
                        | {f"{r}2": -v(f"{r}2") for r in "uvw"}))  # h
    return SaitoSystem(tuple(fields), minor_product_divisor(3))


def random_filtration(rng, dim, max_steps=3, index_range=(-2, 4), basis=None):
    """A random bounded decreasing filtration: prefix spans of a random
    full-rank basis, or of a shuffle of the given one, at strictly
    increasing indices.  Filtrations on one given basis split together."""
    if basis is not None:
        basis = rng.sample(basis, dim)
    while basis is None:
        candidate = [[Fraction(rng.randrange(-3, 4)) for _ in range(dim)]
                     for _ in range(dim)]
        if qm.rank(candidate) == dim:
            basis = candidate
    nsteps = rng.randrange(1, max_steps + 1)
    sizes = sorted(rng.sample(range(dim), min(nsteps, dim)), reverse=True)
    indices = sorted(rng.sample(range(*index_range), len(sizes)))
    raw = [(j, basis[:size]) for j, size in zip(indices, sizes)]
    return Filtration.make(dim, raw)


def reference_split(filtrations):
    """The certificate of filtrations.simultaneous_split, computed as before
    the cells were built one filtration at a time: every cell intersects all
    k steps at once, the exact counts come from inclusion-exclusion over all
    deeper cells, quadratic in the number of cells, and the forbidden spaces
    of a cell are its one-step-deeper cells."""
    dim = filtrations[0].dim
    grids = [f.critical_indices() for f in filtrations]
    spaces = {J: qm.intersect_row_spaces(*(f.subspace(j) for f, j in zip(filtrations, J)))
              for J in itertools.product(*grids)}
    cells = sorted(spaces, key=lambda J: (-sum(J), J))
    dims = {J: len(space) for J, space in spaces.items()}
    table = tuple(sorted(dims.items()))
    exact_counts = {}
    for J in cells:
        deeper = sum(exact_counts[K] for K in exact_counts
                     if all(a >= b for a, b in zip(K, J)) and K != J)
        exact_counts[J] = dims[J] - deeper
        if exact_counts[J] < 0:
            return NotSplittable(J, "dimension counts of the multi-graded intersections "
                                    "are incompatible with any adapted basis", table)
    chosen, profiles = [], []
    for J in filter(exact_counts.get, cells):
        forbidden = []
        for k in range(len(filtrations)):
            higher = [j for j in grids[k] if j > J[k]]
            if higher:
                forbidden.append(spaces[J[:k] + (min(higher),) + J[k + 1:]])
        for _ in range(exact_counts[J]):
            span = qm.row_space(chosen)
            v = next(_avoiding_vector(spaces[J], forbidden + [span], tries=dim + 4), None)
            if v is None:
                return NotSplittable(J, "no vector of this depth profile is independent "
                                        "of the vectors already chosen", table)
            chosen.append(v)
            profiles.append(J)
    order = sorted(range(len(chosen)), key=lambda i: tuple(-d for d in profiles[i]))
    return AdaptedBasis(vectors=tuple(tuple(chosen[i]) for i in order),
                        depths=tuple(profiles[i] for i in order))


def grid_candidates(dim, bound=1):
    """All nonzero integer vectors with entries in [-bound, bound], one per
    line (first nonzero entry positive)."""
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=dim):
        if all(c == 0 for c in v):
            continue
        lead = next(c for c in v if c != 0)
        if lead < 0:
            continue
        out.append([Fraction(c) for c in v])
    return out


def matrix_newton_jc(m):
    """(S, U) of the multiplicative Jordan-Chevalley decomposition by
    Newton's iteration on matrices, s <- s - p(s) p'(s)^-1 from s = m with p
    the squarefree part of charpoly(m), and U = S^-1 m: the independent
    oracle for jordan_chevalley, which iterates on one polynomial mod chi."""
    n = len(m)
    p = squarefree_part(qm.charpoly(m))[0]
    dp = p.derivative(p.vars[0])
    s = [row[:] for row in m]
    for _ in range(max(1, n.bit_length() + 1)):
        ps = qm.eval_poly_at_matrix(p, s)
        if qm.is_zero_matrix(ps):
            break
        s = qm.mat_sub(s, qm.mat_mul(ps, qm.mat_inv(qm.eval_poly_at_matrix(dp, s))))
    else:
        raise AssertionError("Newton iteration did not converge")
    return s, qm.mat_mul(qm.mat_inv(s), m)


def is_unipotent(u):
    n = len(u)
    nil = qm.mat_sub(u, qm.identity(n))
    power = qm.identity(n)
    for _ in range(n):
        power = qm.mat_mul(power, nil)
    return qm.is_zero_matrix(power)


def is_polynomial_in(s, m):
    """Whether s lies in the span of the powers of m (exact linear check)."""
    n = len(m)
    powers = [qm.identity(n)]
    for _ in range(n * n - 1):
        powers.append(qm.mat_mul(powers[-1], m))
    system = transpose([[p[i][j] for i in range(n) for j in range(n)]
                        for p in powers])
    target = [s[i][j] for i in range(n) for j in range(n)]
    return qm.solve(system, target) is not None


def minpoly(a, var="t"):
    """Monic minimal polynomial, found by the first linear dependence among
    the powers of a.  The library reads semisimplicity off the
    characteristic polynomial instead; this solve-based construction is
    the independent check."""
    n = len(a)
    powers = [qm.identity(n)]
    for _ in range(n):
        powers.append(qm.mat_mul(powers[-1], a))
    flat = [[p[i][j] for i in range(n) for j in range(n)] for p in powers]
    for k in range(1, n + 1):
        sol = qm.solve(transpose(flat[:k]), flat[k])
        if sol is not None:
            terms = {(k,): Fraction(1)}
            for i, c in enumerate(sol):
                if c != 0:
                    terms[(i,)] = -c
            return MultiPoly((var,), terms)
    raise AssertionError("Cayley-Hamilton violated")


# images of sl_basis(2) = (e12, e21, h1) in the defining and the adjoint
# representation (the adjoint on that basis, in that order)
SL2_FUNDAMENTAL = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]
SL2_ADJOINT = [[[0, 0, -2], [0, 0, 0], [0, 1, 0]],
               [[0, 0, 0], [0, 0, 2], [-1, 0, 0]],
               [[2, 0, 0], [0, -2, 0], [0, 0, 0]]]


def sl2_fundamental():
    return [qm.qmat(m) for m in SL2_FUNDAMENTAL]


def sl2_adjoint():
    return [qm.qmat(m) for m in SL2_ADJOINT]


def exhaustive_adapted_basis(filtrations, candidates):
    """Exhaustive search for an adapted basis among the candidate vectors.

    A candidate set {v_1..v_m} is adapted iff it is a basis and, for every
    filtration F and critical index j, exactly dim F(j) of the vectors lie
    in F(j) (containment + full count + independence force spanning).
    """
    dim = filtrations[0].dim
    depths = [[f.depth(v) for f in filtrations] for v in candidates]
    targets = []
    for k, f in enumerate(filtrations):
        for j in f.critical_indices():
            targets.append((k, j, len(f.subspace(j))))
    for combo in itertools.combinations(range(len(candidates)), dim):
        ok = True
        for k, j, want in targets:
            got = sum(1 for i in combo if depths[i][k] >= j)
            if got != want:
                ok = False
                break
        if not ok:
            continue
        vecs = [candidates[i] for i in combo]
        if qm.rank(vecs) == dim:
            return vecs
    return None
