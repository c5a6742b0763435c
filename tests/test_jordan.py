"""Jordan-Chevalley decomposition, quasi-unipotent weights, the spectral
central logarithm, and the well-behaved check."""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from _oracles import is_polynomial_in, is_unipotent, matrix_newton_jc, minpoly
from logflat import matrices as qm
from logflat import serialize as ser
from logflat.cyclotomic import QuotientNum, cmat_from_rational, cyclotomic_upoly
from logflat.jordan import (NotQuasiUnipotent, central_log, jordan_chevalley,
                            quasi_unipotent_weights, well_behaved_check)
from logflat.multipoly import MultiPoly, squarefree_part


def rand_invertible(rng, n):
    while True:
        m = [[Fraction(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
        if qm.det_cofactor(m) != 0:
            return m


def test_jordan_chevalley_identities_random():
    rng = random.Random(40)
    for _ in range(40):
        n = rng.randrange(2, 6)
        m = rand_invertible(rng, n)
        pair = jordan_chevalley(m)
        assert qm.mat_eq(qm.mat_mul(pair.S, pair.U), m)
        assert qm.mat_eq(qm.mat_mul(pair.U, pair.S), m)
        assert squarefree_part(minpoly(pair.S))[1]
        assert is_unipotent(pair.U)
        assert is_polynomial_in(pair.S, m)


def test_jordan_chevalley_jordan_block():
    m = qm.qmat([[2, 1], [0, 2]])
    pair = jordan_chevalley(m)
    assert pair.S == qm.qmat([[2, 0], [0, 2]])
    assert pair.U == qm.qmat([[1, Fraction(1, 2)], [0, 1]])


def rand_fraction_invertible(rng, n):
    while True:
        m = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)]
             for _ in range(n)]
        if qm.rank(m) == n:
            return m


def conjugated_jordan_form(rng, n):
    """P J P^-1 for a random rational P and a Jordan form J of size n with
    blocks of size 1 to 3 and nonzero rational eigenvalues, some repeated."""
    j = qm.zeros(n)
    start = 0
    while start < n:
        size = min(rng.randrange(1, 4), n - start)
        lam = rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2)])
        for i in range(start, start + size):
            j[i][i] = lam
            if i + 1 < start + size:
                j[i][i + 1] = Fraction(1)
        start += size
    p = rand_fraction_invertible(rng, n)
    return qm.mat_mul(qm.mat_mul(p, j), qm.mat_inv(p))


def test_jordan_chevalley_matches_matrix_newton():
    """S and U equal, exactly, those of Newton's iteration on matrices with a
    matrix inverse per step: on random rational matrices (almost always
    semisimple), on conjugated Jordan forms (never semisimple unless every
    block has size 1), and on the input of every jc golden file."""
    rng = random.Random(44)
    cases = [rand_fraction_invertible(rng, n) for n in range(2, 9) for _ in range(2)]
    cases += [conjugated_jordan_form(rng, n) for n in range(2, 8) for _ in range(2)]
    golden = sorted((Path(__file__).parent / "golden").glob("jc-*.json"))
    cases += [ser.qmat_from_json(json.loads(path.read_text())["input"]["matrix"])
              for path in golden]
    assert len(golden) == 11
    non_semisimple = 0
    for m in cases:
        pair = jordan_chevalley(m)
        s, u = matrix_newton_jc(m)
        assert (pair.S, pair.U) == (s, u)
        non_semisimple += not qm.mat_eq(u, qm.identity(len(m)))
    assert non_semisimple >= 10


def _rotation_order(k):
    """Companion matrix of the k-th cyclotomic polynomial: order exactly k."""
    phi = cyclotomic_upoly(k)
    d = phi.total_degree()
    coeffs = [phi.coeff(i) for i in range(d + 1)]
    m = qm.zeros(d)
    for i in range(1, d):
        m[i][i - 1] = Fraction(1)
    for i in range(d):
        m[i][d - 1] = -coeffs[i]
    return m


FINITE_ORDER_FIXTURES = [
    (1, qm.identity(2)),
    (2, qm.mat_scale(qm.identity(2), -1)),
    (3, _rotation_order(3)),
    (4, _rotation_order(4)),
    (6, _rotation_order(6)),
    (4, qm.qmat([[0, -1], [1, 0]])),
]


def test_finite_order_weights():
    for order, m in FINITE_ORDER_FIXTURES:
        data = quasi_unipotent_weights(m)
        assert not isinstance(data, NotQuasiUnipotent)
        assert data.dimension() == len(m)
        assert order % max(e.order for e in data.entries) == 0
        for e in data.entries:
            assert 0 <= e.weight < 1
            assert e.weight == Fraction(e.exponent, e.order) or e.order == 1


def test_jc_pair_carries_weights_of_s():
    rng = random.Random(43)
    cases = [rand_invertible(rng, rng.randrange(1, 6)) for _ in range(20)]
    cases += [m for _, m in FINITE_ORDER_FIXTURES]
    # quasi-unipotent and not semisimple: conjugates of an order-3 rotation
    # block beside a unipotent Jordan block
    j = qm.zeros(4)
    for r in range(2):
        j[r][:2] = _rotation_order(3)[r]
    j[2][2] = j[2][3] = j[3][3] = Fraction(1)
    for _ in range(3):
        p = rand_invertible(rng, 4)
        cases.append(qm.mat_mul(qm.mat_mul(p, j), qm.mat_inv(p)))
    cases.append(qm.qmat([[2, 1], [0, 3]]))
    for m in cases:
        pair = jordan_chevalley(m)
        assert pair.weights == quasi_unipotent_weights(pair.S)
    t = MultiPoly.var(("t",), "t")
    assert isinstance(pair.weights, NotQuasiUnipotent)
    assert pair.weights.factor == t * t - 5 * t + 6


def test_non_quasi_unipotent_detected():
    data = quasi_unipotent_weights(qm.qmat([[2, 0], [0, 3]]))
    assert isinstance(data, NotQuasiUnipotent)
    assert not data
    t = MultiPoly.var(("t",), "t")
    assert data.factor == t * t - 5 * t + 6


def test_weights_reject_non_semisimple():
    with pytest.raises(ValueError, match="not semisimple"):
        quasi_unipotent_weights(qm.qmat([[1, 1], [0, 1]]))


def test_central_log_projector_identities():
    for order, m in FINITE_ORDER_FIXTURES:
        log = central_log(m)
        mm = log.field_order
        n = len(m)
        phi = cyclotomic_upoly(mm)
        sc = cmat_from_rational(phi, m)
        ident = cmat_from_rational(phi, qm.identity(n))
        projectors = [[ [x for x in row] for row in p] for p in log.projectors]
        # sum of projectors is the identity
        total = [[QuotientNum(phi, 0)] * n for _ in range(n)]
        for p in projectors:
            total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, p)]
        assert all(total[i][j] == ident[i][j] for i in range(n) for j in range(n))
        # orthogonality and the eigen-equation S P = zeta^k P
        for j, pj in enumerate(projectors):
            for k, pk in enumerate(projectors):
                prod = [[sum((pj[i][t] * pk[t][c] for t in range(n)),
                             QuotientNum(phi, 0)) for c in range(n)]
                        for i in range(n)]
                if j != k:
                    assert all(x.is_zero() for row in prod for x in row)
                else:
                    assert all(prod[i][c] == pj[i][c]
                               for i in range(n) for c in range(n))
        for e, p in zip(log.weights, projectors):
            zeta = QuotientNum.zeta(mm, e.exponent * (mm // e.order))
            sp = [[sum((sc[i][t] * p[t][c] for t in range(n)),
                       QuotientNum(phi, 0)) for c in range(n)]
                  for i in range(n)]
            assert all(sp[i][c] == p[i][c] * zeta
                       for i in range(n) for c in range(n))


def test_minus_identity_not_well_behaved_in_sl2():
    minus = qm.mat_scale(qm.identity(2), -1)
    assert well_behaved_check(quasi_unipotent_weights(minus), "SL") is False
    assert well_behaved_check(quasi_unipotent_weights(minus), "GL") is True


def test_well_behaved_positive_case():
    # diag(-1, -1, 1, 1): weight sum 1, multiplicity gcd 1 in SL(4): shiftable
    m = qm.qmat([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # weights: 1/2 with multiplicity 2, 0 with multiplicity 2; gcd = 2, sum = 1
    assert well_behaved_check(quasi_unipotent_weights(m), "SL") is False
    m2 = qm.qmat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        well_behaved_check(quasi_unipotent_weights(qm.qmat([[2, 0], [0, 1]])), "SL")
    assert well_behaved_check(quasi_unipotent_weights(m2), "SL") is True


def test_sl_check_requires_det_one():
    # diag(-1, 1, 1) and a rotation by pi/2 times -1: det S = -1, weight sums 1/2
    for m in (qm.qmat([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]),
              qm.qmat([[0, 1, 0], [-1, 0, 0], [0, 0, -1]])):
        data = quasi_unipotent_weights(m)
        assert qm.det_cofactor(m) == -1
        assert well_behaved_check(data, "GL") is True
        with pytest.raises(ValueError, match="det S = 1"):
            well_behaved_check(data, "SL")
