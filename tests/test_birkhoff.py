"""Laurent matrix algebra, Birkhoff factorization, splitting types with the
section-counting rank oracle, and orbifold splitting."""
import random
from fractions import Fraction

import pytest

from logflat import matrices as qm
from logflat.birkhoff import (EquivariantTransition, birkhoff_factorize,
                              football_split, splitting_type,
                              splitting_type_rank_oracle)
from logflat.laurent import Transition, lmat_det, lmat_identity, lmat_inverse, lmat_mul
from logflat.multipoly import MultiPoly


def lp(terms):
    return MultiPoly(("z",), {(e,): c for e, c in terms.items()}, laurent=True)


def zero():
    return lp({})


def mono(e, c=1):
    return lp({e: c})


def diag_transition(*exps):
    n = len(exps)
    m = [[mono(exps[i]) if i == j else zero() for j in range(n)]
         for i in range(n)]
    return Transition(m)


def rand_unimodular(rng, n, sign, max_deg=2, ops=4):
    """Random product of elementary matrices over z^sign-polynomials with a
    unit-monomial determinant."""
    m = lmat_identity(n)
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = sign * rng.randrange(max_deg + 1)
        c = Fraction(rng.randrange(-2, 3))
        if c == 0:
            continue
        elem = lmat_identity(n)
        elem[i][j] = mono(e, c)
        m = lmat_mul(m, elem)
    return m


def planted_instance(rng, n, max_deg):
    exps = sorted((rng.randrange(-max_deg, max_deg + 1) for _ in range(n)),
                  reverse=True)
    pm = rand_unimodular(rng, n, -1, max_deg=max_deg)
    pp = rand_unimodular(rng, n, +1, max_deg=max_deg)
    d = [[mono(exps[i]) if i == j else zero() for j in range(n)]
         for i in range(n)]
    return Transition(lmat_mul(lmat_mul(pm, d), pp)), exps


def test_laurent_inverse_roundtrip():
    rng = random.Random(60)
    for _ in range(10):
        t, _ = planted_instance(rng, 2, 2)
        inv = lmat_inverse(t.matrix)
        assert lmat_det(lmat_mul(t.matrix, inv)) == mono(0)
        prod = lmat_mul(t.matrix, inv)
        assert prod[0][1].is_zero() and prod[1][0].is_zero()
        assert prod[0][0] == mono(0)


def test_laurent_exact_div():
    rng = random.Random(61)
    for _ in range(20):
        q = lp({rng.randrange(-4, 3): rng.randrange(1, 4) for _ in range(3)})
        d = lp({rng.randrange(-3, 3): rng.randrange(-3, 4) or 1 for _ in range(3)})
        assert (q * d).exact_div(d) == q
    with pytest.raises(ValueError):
        lp({-1: 1, 0: 1}).exact_div(lp({-2: 1, 0: 1}))
    with pytest.raises(ZeroDivisionError):
        lp({-1: 1}).exact_div(zero())


def test_lmat_det_matches_cofactor():
    rng = random.Random(62)

    def entry():
        if rng.random() < 0.3:
            return zero()
        return lp({rng.randrange(-2, 3): rng.randrange(-2, 3) for _ in range(2)})

    cases = []
    for n in range(1, 6):
        for _ in range(3 if n < 5 else 1):
            cases.append([[entry() for _ in range(n)] for _ in range(n)])
    pivot_swap = [[entry() for _ in range(4)] for _ in range(4)]
    pivot_swap[0][0] = zero()
    pivot_swap[1][0] = mono(-1, 2)
    singular = [[entry() for _ in range(4)] for _ in range(3)]
    singular.append([x + y for x, y in zip(singular[0], singular[1])])
    cases += [pivot_swap, singular]
    for a in cases:
        assert lmat_det(a) == qm.det_cofactor(a)
    assert lmat_det(singular).is_zero()


def test_transition_rejects_singular():
    with pytest.raises(ValueError):
        Transition([[lp({0: 1}), lp({0: 1})], [lp({0: 1}), lp({0: 1})]])


def test_factorize_diagonal():
    t = diag_transition(3, 0, -2)
    fac = birkhoff_factorize(t)
    assert list(fac.diag) == [3, 0, -2]
    assert splitting_type(t) == (2, 0, -3)


def test_factorize_permutation():
    t = Transition([[zero(), mono(0)], [mono(0), zero()]])
    fac = birkhoff_factorize(t)
    assert list(fac.diag) == [0, 0]
    assert splitting_type(t) == (0, 0)


def test_splitting_type_of_extension_transition():
    # nontrivial extension of O(2) by two copies of O: type {1, 1}
    t = Transition([[mono(0), mono(-1)], [zero(), mono(-2)]])
    assert splitting_type(t) == (1, 1)
    assert splitting_type_rank_oracle(t) == (1, 1)
    # the split form of the same determinant: type {2, 0}
    ts = Transition([[mono(0), zero()], [zero(), mono(-2)]])
    assert splitting_type(ts) == (2, 0)
    assert splitting_type(t) != splitting_type(ts)


def test_planted_factorizations_with_rank_oracle():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randrange(1, 4)
        t, exps = planted_instance(rng, n, 3)
        fac = birkhoff_factorize(t)
        assert list(fac.diag) == exps
        st = splitting_type(t)
        assert st == splitting_type_rank_oracle(t)
        assert list(st) == sorted((-e for e in exps), reverse=True)


def test_splitting_type_gauge_invariance():
    rng = random.Random(62)
    for _ in range(10):
        t, _ = planted_instance(rng, 2, 2)
        a = rand_unimodular(rng, 2, -1)
        b = rand_unimodular(rng, 2, +1)
        gauged = Transition(lmat_mul(lmat_mul(a, t.matrix), b))
        assert splitting_type(gauged) == splitting_type(t)


def test_sum_of_diag_exponents_is_det_exponent():
    rng = random.Random(63)
    for _ in range(10):
        t, _ = planted_instance(rng, 3, 2)
        fac = birkhoff_factorize(t)
        assert sum(fac.diag) == t.det_exp


# -- orbifold splitting -------------------------------------------------------

def test_football_line_bundle():
    et = EquivariantTransition(2, 3, [1], [1], [[mono(0)]])
    assert football_split(et) == [1]


def test_football_trivial_rank2():
    et = EquivariantTransition(2, 3, [0, 0], [0, 0], lmat_identity(2))
    assert football_split(et) == [0, 0]


def test_football_rejects_inequivariant_entry():
    with pytest.raises(ValueError):
        EquivariantTransition(2, 2, [1], [0], [[mono(0)]])


def test_football_classes_match_isotropy():
    rng = random.Random(64)
    for _ in range(10):
        p, q = rng.choice([(2, 3), (1, 2), (3, 4)])
        n = rng.randrange(1, 3)
        a = [rng.randrange(-2, 3) for _ in range(n)]
        b = [rng.randrange(-2, 3) for _ in range(n)]
        tau = rand_unimodular(rng, n, +1, max_deg=1, ops=2)
        for i in range(n):
            tau[i][i] = tau[i][i] + mono(0) if tau[i][i].is_zero() else tau[i][i]
        try:
            et = EquivariantTransition(p, q, a, b, tau)
        except ValueError:
            continue
        classes = football_split(et)
        assert len(classes) == n
        assert sorted(k % p for k in classes) == sorted(ai % p for ai in a)
        assert sorted(k % q for k in classes) == sorted(bi % q for bi in b)


def test_football_specializes_to_plain_splitting():
    # with p = q = 1 the orbifold classes match the plain splitting type of
    # the row-twisted transition T[i][c] = tau_ic(1/z) * z^{-a_i}
    rng = random.Random(65)
    for _ in range(10):
        n = rng.randrange(1, 3)
        a = [rng.randrange(-2, 3) for _ in range(n)]
        b = [rng.randrange(-2, 3) for _ in range(n)]
        tau = rand_unimodular(rng, n, +1, max_deg=2, ops=3)
        et = EquivariantTransition(1, 1, a, b, tau)
        classes = football_split(et)
        plain = [[tau[i][c].invert_variable() * mono(-a[i])
                  for c in range(n)] for i in range(n)]
        st = splitting_type(Transition(plain))
        assert list(st) == classes
