"""Jordan-Chevalley decomposition, quasi-unipotent weights, the spectral
central logarithm, and residue data."""
import random
from fractions import Fraction

import pytest

from _oracles import is_polynomial_in, is_unipotent
from logflat import matrices as qm
from logflat.cyclotomic import CycloNum, cmat_from_rational, cmat_identity
from logflat.jordan import (NotQuasiUnipotent, central_log, deligne_residue,
                            jordan_chevalley, matrix_exp_nilpotent, nilpotent_log,
                            quasi_unipotent_weights, well_behaved_check)
from logflat.univariate import from_multipoly, is_squarefree


def rand_invertible(rng, n):
    while True:
        m = [[Fraction(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
        if qm.det_rational(m) != 0:
            return m


def test_jordan_chevalley_identities_random():
    rng = random.Random(40)
    for _ in range(40):
        n = rng.randrange(2, 6)
        m = rand_invertible(rng, n)
        pair = jordan_chevalley(m)
        assert qm.mat_eq(qm.mat_mul(pair.S, pair.U), m)
        assert qm.mat_eq(qm.mat_mul(pair.U, pair.S), m)
        assert is_squarefree(from_multipoly(qm.minpoly(pair.S)))
        assert is_unipotent(pair.U)
        assert is_polynomial_in(pair.S, m)


def test_jordan_chevalley_jordan_block():
    m = qm.qmat([[2, 1], [0, 2]])
    pair = jordan_chevalley(m)
    assert pair.S == qm.qmat([[2, 0], [0, 2]])
    assert pair.U == qm.qmat([[1, Fraction(1, 2)], [0, 1]])


def _rotation_order(k):
    """Companion matrix of the k-th cyclotomic polynomial: order exactly k."""
    from logflat.cyclotomic import cyclotomic_upoly
    coeffs = list(cyclotomic_upoly(k))
    d = len(coeffs) - 1
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


def test_non_quasi_unipotent_detected():
    data = quasi_unipotent_weights(qm.qmat([[2, 0], [0, 3]]))
    assert isinstance(data, NotQuasiUnipotent)
    assert not data


def test_central_log_projector_identities():
    for order, m in FINITE_ORDER_FIXTURES:
        log = central_log(m)
        mm = log.field_order
        n = len(m)
        sc = cmat_from_rational(mm, m)
        ident = cmat_identity(mm, n)
        projectors = [[ [x for x in row] for row in p] for p in log.projectors]
        # sum of projectors is the identity
        total = [[CycloNum.rational(mm, 0)] * n for _ in range(n)]
        for p in projectors:
            total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, p)]
        assert all(total[i][j] == ident[i][j] for i in range(n) for j in range(n))
        # orthogonality and the eigen-equation S P = zeta^k P
        for j, pj in enumerate(projectors):
            for k, pk in enumerate(projectors):
                prod = [[sum((pj[i][t] * pk[t][c] for t in range(n)),
                             CycloNum.rational(mm, 0)) for c in range(n)]
                        for i in range(n)]
                if j != k:
                    assert all(x.is_zero() for row in prod for x in row)
                else:
                    assert all(prod[i][c] == pj[i][c]
                               for i in range(n) for c in range(n))
        for e, p in zip(log.weights, projectors):
            zeta = CycloNum.zeta(mm, e.exponent * (mm // e.order))
            sp = [[sum((sc[i][t] * p[t][c] for t in range(n)),
                       CycloNum.rational(mm, 0)) for c in range(n)]
                  for i in range(n)]
            assert all(sp[i][c] == p[i][c] * zeta
                       for i in range(n) for c in range(n))


def test_minus_identity_not_well_behaved_in_sl2():
    minus = qm.mat_scale(qm.identity(2), -1)
    assert well_behaved_check(minus, "SL") is False
    assert well_behaved_check(minus, "GL") is True


def test_well_behaved_positive_case():
    # diag(-1, -1, 1, 1): weight sum 1, multiplicity gcd 1 in SL(4): shiftable
    m = qm.qmat([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # weights: 1/2 with multiplicity 2, 0 with multiplicity 2; gcd = 2, sum = 1
    assert well_behaved_check(m, "SL") is False
    m2 = qm.qmat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        well_behaved_check(qm.qmat([[2, 0], [0, 1]]), "SL")
    assert well_behaved_check(m2, "SL") is True


def test_nilpotent_log_exp_roundtrip():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randrange(2, 5)
        u = qm.identity(n)
        for i in range(n):
            for j in range(i + 1, n):
                u[i][j] = Fraction(rng.randrange(-3, 4))
        n_mat = nilpotent_log(u)
        assert qm.mat_eq(matrix_exp_nilpotent(n_mat), u)


def test_deligne_residue_structure():
    m = qm.qmat([[-1, 1], [0, -1]])
    res = deligne_residue(m)
    assert [e.weight for e in res.weights.entries] == [Fraction(1, 2)]
    assert qm.mat_eq(qm.commutator(res.nilpotent, res.nilpotent), qm.zeros(2))
    # nilpotent part recovers the unipotent factor
    pair = jordan_chevalley(m)
    assert qm.mat_eq(matrix_exp_nilpotent(res.nilpotent), pair.U)
