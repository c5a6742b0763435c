"""Exact rational linear algebra and fraction-free polynomial determinants,
with the cofactor expansion as an independent oracle."""
import importlib
import importlib.util
import inspect
import random
from fractions import Fraction
from pathlib import Path

import pytest

from _oracles import (fraction_intersection, fraction_inverse, fraction_nullspace,
                      fraction_rref, fraction_solve, minpoly)
from logflat import bilaurent, filtrations, laurent
from logflat import matrices as qm
from logflat.cyclotomic import QuotientNum, cyclotomic_upoly
from logflat.multipoly import MultiPoly


def rand_qmat(rng, n, lo=-5, hi=5):
    return [[Fraction(rng.randrange(lo, hi + 1), rng.randrange(1, 4))
             for _ in range(n)] for _ in range(n)]


def rand_pmat(rng, n, vs=("x", "y")):
    def entry():
        terms = {}
        for _ in range(2):
            e = tuple(rng.randrange(3) for _ in vs)
            terms[e] = Fraction(rng.randrange(-3, 4))
        return MultiPoly(vs, terms)
    return [[entry() for _ in range(n)] for _ in range(n)]


def test_det_bareiss_matches_cofactor():
    rng = random.Random(10)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            m = rand_pmat(rng, n)
            d = qm.det_bareiss(m)
            assert d == qm.det_cofactor(m)
            # the adjugate, from Bareiss minors: m adj(m) = adj(m) m = det(m) I
            adj = qm.adjugate(m)
            det_i = [[d if i == j else d * 0 for j in range(n)] for i in range(n)]
            assert qm.mat_eq(qm.mat_mul(m, adj), det_i)
            assert qm.mat_eq(qm.mat_mul(adj, m), det_i)


def test_charpoly_constant_term_is_signed_determinant():
    # jc tests invertibility by chi(0) = (-1)^n det
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            a = rand_qmat(rng, n)
            assert (-1) ** n * qm.charpoly(a).coeff(0) == qm.det_cofactor(a)


def test_inverse_and_solve():
    rng = random.Random(12)
    for _ in range(10):
        a = rand_qmat(rng, 4)
        if qm.det_cofactor(a) == 0:
            continue
        inv = qm.mat_inv(a)
        assert qm.mat_eq(qm.mat_mul(a, inv), qm.identity(4))
        b = [Fraction(rng.randrange(-3, 4)) for _ in range(4)]
        x = qm.solve(a, b)
        assert x is not None
        assert [sum(a[i][j] * x[j] for j in range(4)) for i in range(4)] == b


def test_solve_detects_inconsistency():
    a = qm.qmat([[1, 0], [1, 0]])
    assert qm.solve(a, [Fraction(1), Fraction(2)]) is None


def test_rank_nullspace_dimension_formula():
    rng = random.Random(13)
    for _ in range(15):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        a = [[Fraction(rng.randrange(-2, 3)) for _ in range(cols)]
             for _ in range(rows)]
        r = qm.rank(a)
        null = qm.nullspace(a)
        assert r + len(null) == cols
        for v in null:
            assert all(sum(row[j] * v[j] for j in range(cols)) == 0 for row in a)


def test_rref_of_int_entries_is_exact():
    red, pivots = qm.rref([[3, 1]])
    assert (red, pivots) == ([[1, Fraction(1, 3)]], [0])
    assert all(type(x) is Fraction for row in red for x in row)


def random_rational_matrix(rng, rows, cols):
    """A random matrix with one of three entry scales (small Fractions,
    denominators up to 10^6, plain ints up to 2^70) and one structure:
    dense, rank-deficient, a zero row, a zero column or a repeated row.
    Returns (matrix, structure)."""
    scale = rng.choice(("small", "denominators", "integers"))

    def entry():
        if rng.random() < 0.25:
            return 0 if scale == "integers" else Fraction(0)
        if scale == "small":
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if scale == "denominators":
            return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        return rng.randint(-2**70, 2**70)

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    structure = rng.choice(("dense", "deficient", "zero row", "zero column", "repeated row"))
    if structure == "deficient":
        k = rng.randrange(rows)
        for i in range(k, rows):      # rows past k combine the first k
            coeffs = [rng.randint(-3, 3) for _ in range(k)]
            m[i] = [sum(c * m[t][j] for t, c in enumerate(coeffs)) for j in range(cols)]
    elif structure == "zero row":
        m[rng.randrange(rows)] = [0] * cols
    elif structure == "zero column":
        c = rng.randrange(cols)
        for row in m:
            row[c] = 0
    elif structure == "repeated row":
        m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
    return m, structure


def test_integer_kernel_matches_fraction_oracle():
    """rref, rank, nullspace, solve, mat_inv and intersect_row_spaces agree
    exactly with Fraction Gauss-Jordan on random matrices from 1x1 to 8x10."""
    rng = random.Random(20)
    shapes = [(1, 1), (8, 10)] + [(rng.randint(1, 8), rng.randint(1, 10)) for _ in range(298)]
    seen, deficient = set(), 0
    for rows, cols in shapes:
        a, structure = random_rational_matrix(rng, rows, cols)
        seen.add(structure)
        red, pivots = fraction_rref(a)
        result = qm.rref(a)
        assert result == (red, pivots)
        assert all(type(x) is Fraction for row in result[0] for x in row)
        assert qm.rank(a) == len(pivots)
        deficient += len(pivots) < min(rows, cols)
        assert qm.nullspace(a) == fraction_nullspace(a)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
        consistent = [sum((r * c for r, c in zip(row, x)), Fraction(0)) for row in a]
        anything = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
        for b in (consistent, anything):
            assert qm.solve(a, b) == fraction_solve(a, b)
        n = min(rows, cols)
        square = [row[:n] for row in a[:n]]
        inverse = fraction_inverse(square)
        if inverse is None:
            with pytest.raises(ValueError):
                qm.mat_inv(square)
        else:
            assert qm.mat_inv(square) == inverse
        spaces = [qm.row_space(a)] + [qm.row_space(random_rational_matrix(
            rng, rng.randint(1, cols), cols)[0]) for _ in range(2)]
        assert qm.intersect_row_spaces(*spaces[:2]) == fraction_intersection(*spaces[:2])
        assert qm.intersect_row_spaces(*spaces) == fraction_intersection(*spaces)
    assert seen == {"dense", "deficient", "zero row", "zero column", "repeated row"}
    assert deficient >= 50


def test_charpoly_cayley_hamilton():
    rng = random.Random(14)
    for n in (2, 3, 4):
        a = rand_qmat(rng, n)
        chi = qm.charpoly(a)
        assert qm.is_zero_matrix(qm.eval_poly_at_matrix(chi, a))


def test_minpoly_divides_charpoly_and_annihilates():
    rng = random.Random(15)
    for _ in range(8):
        a = rand_qmat(rng, 3, lo=-2, hi=2)
        mp = minpoly(a)
        assert qm.is_zero_matrix(qm.eval_poly_at_matrix(mp, a))
        assert mp.divides(qm.charpoly(a))


def test_minpoly_of_projection():
    p = qm.qmat([[1, 0], [0, 0]])
    t = MultiPoly.var(("t",), "t")
    assert minpoly(p) == t * t - t


def test_intersect_row_spaces():
    a = qm.qmat([[1, 0, 0], [0, 1, 0]])
    b = qm.qmat([[0, 1, 0], [0, 0, 1]])
    inter = qm.intersect_row_spaces(a, b)
    assert len(inter) == 1
    assert qm.in_row_space([Fraction(0), Fraction(1), Fraction(0)], inter)


@pytest.mark.parametrize("vs,laurent", [(("z",), False), (("z",), True),
                                         (("x", "y"), False), (("x", "y"), True)])
def test_coefficient_rows_match_multiplication(vs, laurent):
    """Applying the rows to a coefficient vector gives the coefficients of
    entries * s, and every coefficient entries * s can reach has a row."""
    rng = random.Random(11)
    lo = -2 if laurent else 0

    def exponent():
        return tuple(rng.randint(lo, 3) for _ in vs)

    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        entries = [[MultiPoly(vs, {exponent(): rng.randint(-3, 3)
                                   for _ in range(rng.randint(0, 3))}, laurent)
                    for _ in range(m)] for _ in range(n)]
        windows = [sorted({exponent() for _ in range(rng.randint(0, 4))})
                   for _ in range(m)]
        coeffs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in w]
                  for w in windows]
        s = [MultiPoly(vs, dict(zip(w, cs)), laurent) for w, cs in zip(windows, coeffs)]
        x = [c for cs in coeffs for c in cs]
        rows, ncols = qm.coefficient_rows(entries, windows)
        assert ncols == len(x)
        product = [sum((entries[i][c] * s[c] for c in range(m)), MultiPoly(vs, laurent=laurent))
                   for i in range(n)]
        for (i, e), row in rows.items():
            assert len(row) == ncols and any(row)
            assert sum(a * b for a, b in zip(row, x)) == product[i].coeff(*e)
        reachable = {(i, tuple(a + b for a, b in zip(t, d)))
                     for i in range(n) for c in range(m)
                     for t in entries[i][c].terms for d in windows[c]}
        assert set(rows) == reachable


def test_in_row_space():
    a = qm.qmat([[1, 1, 0], [0, 0, 1]])
    assert qm.in_row_space([Fraction(2), Fraction(2), Fraction(-1)], a)
    assert not qm.in_row_space([Fraction(1), Fraction(0), Fraction(0)], a)


def random_canonical_basis(rng, dim):
    """Canonical basis of the span of 0..dim+1 sparse random rows: the zero
    space, proper subspaces and the full space all occur."""
    rows = [[Fraction(rng.choice((0, 0, 1, -1, 2)), rng.randint(1, 3)) for _ in range(dim)]
            for _ in range(rng.randint(0, dim + 1))]
    return qm.row_space(rows)


def test_canonical_basis_core_matches_rank_definitions():
    """in_row_space on canonical bases agrees with rank(a + [v]) == rank(a);
    the k-way intersection is canonical, agrees with the pairwise fold, and
    has dim A + dim B - dim(A + B) for a pair."""
    rng = random.Random(12)
    seen = set()
    for _ in range(150):
        dim = rng.randint(1, 4)
        spaces = [random_canonical_basis(rng, dim) for _ in range(3)]
        spaces[rng.randrange(3)] = rng.choice([[], qm.identity(dim), spaces[0]])
        a, b, c = spaces
        seen.update(len(s) for s in spaces if len(s) in (0, dim))
        for space in spaces:
            inside = [sum((rng.randint(-2, 2) * r[i] for r in space), Fraction(0))
                      for i in range(dim)]
            anywhere = [Fraction(rng.randint(-1, 1)) for _ in range(dim)]
            for v in (inside, anywhere, [Fraction(0)] * dim):
                assert qm.in_row_space(v, space) == (qm.rank(space + [v]) == len(space))
        pair = qm.intersect_row_spaces(a, b)
        assert len(pair) == len(a) + len(b) - qm.rank(a + b)
        assert all(qm.in_row_space(v, a) and qm.in_row_space(v, b) for v in pair)
        triple = qm.intersect_row_spaces(a, b, c)
        assert triple == qm.intersect_row_spaces(pair, c) == qm.row_space(triple)
        assert qm.intersect_row_spaces(a) == a
    assert seen == {0, 1, 2, 3, 4}      # the zero space, and the full space in every dim


RING_ELEMENTS = {
    "Fraction": lambda rng: Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)),
    "MultiPoly": lambda rng: MultiPoly(("x", "y"), {
        (rng.randrange(3), rng.randrange(3)): rng.randrange(-2, 3) for _ in range(2)}),
    "LaurentPoly": lambda rng: MultiPoly(("z",), {
        (rng.randrange(-2, 3),): rng.randrange(-2, 3) for _ in range(2)}, laurent=True),
    "BiLaurent": lambda rng: MultiPoly(("x", "y"), {
        (rng.randrange(-1, 2), rng.randrange(-1, 2)): rng.randrange(-2, 3)
        for _ in range(2)}, laurent=True),
    "CycloNum": lambda rng: QuotientNum(cyclotomic_upoly(5), MultiPoly(("t",), {
        (k,): rng.randrange(-2, 3) for k in range(5)})),
}


@pytest.mark.parametrize("ring", sorted(RING_ELEMENTS))
def test_generic_matrix_helpers_over_every_ring(ring):
    rng = random.Random(16)
    make = RING_ELEMENTS[ring]

    def rand_mat():
        return [[make(rng) if rng.random() < 0.7 else make(rng) * 0
                 for _ in range(3)] for _ in range(3)]

    for _ in range(4):
        a, b, c = rand_mat(), rand_mat(), rand_mat()
        assert qm.mat_eq(qm.mat_mul(qm.mat_mul(a, b), c),
                         qm.mat_mul(a, qm.mat_mul(b, c)))
        assert qm.mat_eq(qm.mat_mul(a, qm.mat_add(b, c)),
                         qm.mat_add(qm.mat_mul(a, b), qm.mat_mul(a, c)))
        rows = tuple(tuple(r) for r in a)
        assert qm.mat_eq(rows, a) and qm.mat_eq(a, rows)
        assert qm.mat_eq(rows, a[:2]) is False
        assert qm.is_zero_matrix(qm.mat_sub(a, a))
        assert qm.is_zero_matrix(qm.mat_scale(b, 0))
        assert qm.is_zero_matrix(qm.commutator(a, a))
        assert qm.is_zero_matrix(a) == all(x == 0 for row in a for x in row)
        for x in [y for row in a for y in row] + [make(rng) * 0]:
            if ring == "Fraction":
                assert bool(x) == (x != 0)
            else:
                assert bool(x) == (not x.is_zero())


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_observation_points_resolve():
    """The benchmark's tracer wraps these functions by name and rebinds every
    attribute holding the same object, so each must exist, and the Laurent
    and bi-Laurent entry points must stay distinct from the generic core.
    It also counts the candidates of the filtration search by replacing the
    generator `filtrations._avoiding_vector`."""
    tracer = _load_tracer()
    for module, funcs in tracer.LAYERS.items():
        mod = importlib.import_module(f"logflat.{module}")
        for func in funcs:
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(mod, cls_name)
                assert meth in vars(cls) and callable(getattr(cls, meth)), func
            else:
                assert callable(getattr(mod, func)), func
    assert laurent.lmat_det is not qm.det_bareiss
    assert laurent.lmat_mul is not qm.mat_mul
    assert bilaurent.bmat_mul is not qm.mat_mul
    assert inspect.isgeneratorfunction(filtrations._avoiding_vector)
