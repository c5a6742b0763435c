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

from logflat import filtrations as filt
from logflat import jordan
from logflat import matrices as qm
from logflat.filtrations import Filtration

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


@st.composite
def filtrations_and_basis_change(draw):
    """(filtrations, g): one to three filtrations of Q^dim, dim 2 to 4, each
    with one or two steps spanned by prefixes of rows with entries in
    {-1, 0, 1}, and an invertible g."""
    dim = draw(st.integers(2, 4))
    filtrations = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim),
                             min_size=1, max_size=dim - 1))
        sizes = sorted(set(draw(st.lists(st.integers(1, len(rows)), min_size=1, max_size=2))),
                       reverse=True)
        filtrations.append(Filtration.make(dim, [(j, rows[:size]) for j, size in enumerate(sizes)]))
    return filtrations, draw(invertible(dim))


def check_split_basis_change(filtrations, g):
    """Moving every step by the same g keeps the verdict, the depth profiles
    of an adapted basis and the dimension table of a certificate."""
    result = filt.simultaneous_split(filtrations)
    moved = filt.simultaneous_split(
        [Filtration.make(f.dim, [(j, qm.mat_mul(basis, g)) for j, basis in f.steps])
         for f in filtrations])
    assert bool(moved) == bool(result)
    if result:
        assert moved.depths == result.depths
    else:
        assert moved.dimension_table == result.dimension_table


def split_basis_change_test(phases=tuple(Phase)):
    """The hypothesis test of the split-filtrations relation."""
    @settings(derandomize=True, database=None, max_examples=30, deadline=None,
              phases=phases)
    @given(filtrations_and_basis_change())
    def run(inputs):
        check_split_basis_change(*inputs)
    return run


test_split_basis_change = split_basis_change_test()


def shared_rows(a, b):
    """The rows two canonical bases share: their intersection when both
    spaces are spanned by coordinate vectors, and too small in general."""
    rows_of_b = set(map(tuple, b))
    return [row for row in a if tuple(row) in rows_of_b]


def test_split_basis_change_catches_a_basis_dependent_intersection(monkeypatch):
    """Intersecting by shared canonical rows is right on coordinate
    subspaces, so the three coordinate planes of Q^3 still split; only the
    basis change shows that the intersections are wrong."""
    planes = [Filtration.make(3, [(1, [row for row in qm.identity(3) if row[i] == 0])])
              for i in range(3)]
    g = qm.qmat([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    check_split_basis_change(planes, g)
    monkeypatch.setattr(filt, "intersect_row_spaces", shared_rows)
    assert filt.simultaneous_split(planes)
    with pytest.raises(AssertionError):
        check_split_basis_change(planes, g)
    with pytest.raises(AssertionError):
        split_basis_change_test(phases=(Phase.generate,))()
