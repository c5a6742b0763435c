"""Metamorphic relations: a change of the input whose effect on the answer
is known, so that no planted answer is needed (Chen et al., "Metamorphic
testing: a review of challenges and opportunities", ACM Computing Surveys
51(1), 2018).  The inputs come from hypothesis with derandomize=True, so
the suite stays deterministic, and a planted defect shows that each
relation can fail."""
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from logflat import jordan
from logflat import matrices as qm

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
NONZERO = RATIONALS.filter(bool)
EIGENVALUES = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2)])
# companion matrices of Phi_3 and Phi_4: eigenvalues of order 3 and 4
ROTATIONS = st.sampled_from([[[0, -1], [1, -1]], [[0, -1], [1, 0]]])


@st.composite
def invertible(draw, n):
    """L * R with L unit lower triangular and R upper triangular with a
    nonzero diagonal, so invertible by construction."""
    lower = [[draw(RATIONALS) if j < i else Fraction(int(i == j)) for j in range(n)]
             for i in range(n)]
    upper = [[draw(NONZERO) if j == i else draw(RATIONALS) if j > i else Fraction(0)
              for j in range(n)] for i in range(n)]
    return qm.mat_mul(lower, upper)


@st.composite
def jordan_form(draw):
    """A block diagonal matrix of size 1 to 6: Jordan blocks of size 1 to 3
    with nonzero rational eigenvalues, and rotations of order 3 or 4."""
    blocks = draw(st.lists(st.one_of(
        st.tuples(EIGENVALUES, st.integers(1, 3)).map(
            lambda b: [[b[0] if j == i else int(j == i + 1) for j in range(b[1])]
                       for i in range(b[1])]),
        ROTATIONS), min_size=1, max_size=3))
    n = sum(len(b) for b in blocks)
    out, start = qm.zeros(n), 0
    for b in blocks:
        for i, row in enumerate(b):
            out[start + i][start:start + len(b)] = [Fraction(x) for x in row]
        start += len(b)
    return out


@st.composite
def jc_conjugation_inputs(draw):
    """(M, P): M = Q J Q^-1 for a Jordan form J, and an invertible P."""
    j = draw(jordan_form())
    q = draw(invertible(len(j)))
    return conjugate(q, j), draw(invertible(len(j)))


def conjugate(p, a):
    return qm.mat_mul(qm.mat_mul(p, a), qm.mat_inv(p))


def check_jc_conjugation(m, p):
    """jc(P M P^-1) is (P S P^-1, P U P^-1) with the weights of jc(M).  The
    relation carries one decomposition to the other, so it also checks that
    jc(M) is one: S U = M."""
    pair = jordan.jordan_chevalley(m)
    moved = jordan.jordan_chevalley(conjugate(p, m))
    assert qm.mat_eq(qm.mat_mul(pair.S, pair.U), m)
    assert qm.mat_eq(moved.S, conjugate(p, pair.S))
    assert qm.mat_eq(moved.U, conjugate(p, pair.U))
    assert moved.weights == pair.weights


def jc_conjugation_test(phases=tuple(Phase)):
    """The hypothesis test of the jc relation; a defect run skips shrinking."""
    @settings(derandomize=True, database=None, max_examples=60, deadline=None,
              phases=phases)
    @given(jc_conjugation_inputs())
    def run(inputs):
        check_jc_conjugation(*inputs)
    return run


test_jc_conjugation = jc_conjugation_test()


def test_jc_conjugation_catches_unit_u(monkeypatch):
    """A jc that returns U = I fails the relation on the first matrix that
    is not semisimple."""
    correct = jordan.jordan_chevalley
    monkeypatch.setattr(jordan, "jordan_chevalley", lambda m: dataclasses.replace(
        correct(m), U=qm.identity(len(m))))
    with pytest.raises(AssertionError):
        jc_conjugation_test(phases=(Phase.generate,))()


def test_jc_conjugation_catches_a_basis_dependent_shortcut(monkeypatch):
    """A jc that takes every upper triangular M for semisimple still returns
    S U = M; only the conjugation shows that S is wrong."""
    correct = jordan.jordan_chevalley

    def shortcut(m):
        if any(m[i][j] for i in range(len(m)) for j in range(i)):
            return correct(m)
        return dataclasses.replace(correct(m), S=m, U=qm.identity(len(m)))

    block = qm.qmat([[2, 1], [0, 2]])
    p = qm.qmat([[1, 0], [1, 1]])
    check_jc_conjugation(block, p)
    monkeypatch.setattr(jordan, "jordan_chevalley", shortcut)
    with pytest.raises(AssertionError):
        check_jc_conjugation(block, p)
