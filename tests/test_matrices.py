"""Exact rational linear algebra and fraction-free polynomial determinants,
with the cofactor expansion as an independent oracle."""
import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from logflat import bilaurent, laurent
from logflat import matrices as qm
from logflat.cyclotomic import CycloNum
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
            assert qm.det_bareiss(m) == qm.det_cofactor(m)


def test_det_rational_multiplicative():
    rng = random.Random(11)
    for _ in range(10):
        a, b = rand_qmat(rng, 3), rand_qmat(rng, 3)
        assert qm.det_rational(qm.mat_mul(a, b)) == \
            qm.det_rational(a) * qm.det_rational(b)


def test_inverse_and_solve():
    rng = random.Random(12)
    for _ in range(10):
        a = rand_qmat(rng, 4)
        if qm.det_rational(a) == 0:
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
        mp = qm.minpoly(a)
        assert qm.is_zero_matrix(qm.eval_poly_at_matrix(mp, a))
        assert mp.divides(qm.charpoly(a))


def test_minpoly_of_projection():
    p = qm.qmat([[1, 0], [0, 0]])
    t = MultiPoly.var(("t",), "t")
    assert qm.minpoly(p) == t * t - t


def test_intersect_row_spaces():
    a = qm.qmat([[1, 0, 0], [0, 1, 0]])
    b = qm.qmat([[0, 1, 0], [0, 0, 1]])
    inter = qm.intersect_row_spaces(a, b)
    assert len(inter) == 1
    assert qm.in_row_space([Fraction(0), Fraction(1), Fraction(0)], inter)


def test_in_row_space():
    a = qm.qmat([[1, 1, 0], [0, 0, 1]])
    assert qm.in_row_space([Fraction(2), Fraction(2), Fraction(-1)], a)
    assert not qm.in_row_space([Fraction(1), Fraction(0), Fraction(0)], a)


RING_ELEMENTS = {
    "Fraction": lambda rng: Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)),
    "MultiPoly": lambda rng: MultiPoly(("x", "y"), {
        (rng.randrange(3), rng.randrange(3)): rng.randrange(-2, 3) for _ in range(2)}),
    "LaurentPoly": lambda rng: MultiPoly(("z",), {
        (rng.randrange(-2, 3),): rng.randrange(-2, 3) for _ in range(2)}, laurent=True),
    "BiLaurent": lambda rng: MultiPoly(("x", "y"), {
        (rng.randrange(-1, 2), rng.randrange(-1, 2)): rng.randrange(-2, 3)
        for _ in range(2)}, laurent=True),
    "CycloNum": lambda rng: CycloNum(5, [rng.randrange(-2, 3) for _ in range(5)]),
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
    and bi-Laurent entry points must stay distinct from the generic core."""
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
