"""Decreasing filtrations: simultaneous splitting (pairs always split) with
certificates, and the extendability criterion."""
import collections
import itertools
import random
from fractions import Fraction

import pytest

from _oracles import (exhaustive_adapted_basis, grid_candidates, random_filtration,
                      reference_split)
from logflat import filtrations as filt
from logflat import matrices as qm
from logflat.filtrations import (AdaptedBasis, Filtration, NotSplittable,
                                 simultaneous_split)


def line(*v):
    return [[Fraction(c) for c in v]]


def test_filtration_make_normalizes():
    f = Filtration.make(2, [(0, [[1, 0], [2, 0]]), (2, [[1, 0]])])
    # the repeated subspace at index 2 collapses into the step at 0
    assert f.steps == ((0, ((Fraction(1), Fraction(0)),)),)
    assert len(f.subspace(-1)) == 2
    assert len(f.subspace(0)) == 1
    assert len(f.subspace(1)) == 1
    g = Filtration.make(2, [(0, [[1, 0]]), (1, [])])
    assert len(g.subspace(1)) == 0


def test_filtration_rejects_non_nested():
    with pytest.raises(ValueError):
        Filtration(dim=2, steps=((0, ((Fraction(1), Fraction(0)),)),
                                 (1, ((Fraction(0), Fraction(1)),))))


def test_filtration_rejects_non_canonical_basis():
    # (2, 0) spans the same line as the canonical (1, 0)
    with pytest.raises(ValueError):
        Filtration(dim=2, steps=((0, ((2, 0),)),))


def test_depth_runs_no_elimination(monkeypatch):
    """Membership is one reduction against the stored canonical bases."""
    f = Filtration.make(3, [(1, [[1, 2, 0], [0, 1, 1]]), (3, [[1, 3, 1]])])
    calls = []
    real_eliminate = qm._eliminate
    monkeypatch.setattr(qm, "_eliminate",
                        lambda *args, **kw: calls.append(args) or real_eliminate(*args, **kw))
    assert [f.depth(v) for v in ([1, 3, 1], [0, 1, 1], [0, 0, 1], [0, 0, 0])] == [3, 1, 0, 3]
    assert qm.in_row_space([2, 6, 2], f.subspace(3))
    assert calls == []
    # the patch is live: rank and rref both run the one kernel
    assert qm.rank([[1, 0], [0, 1]]) == 2 and len(calls) == 1
    assert qm.rref([[1, 0], [0, 1]])[1] == [0, 1] and len(calls) == 2


def test_depth():
    f = Filtration.make(3, [(1, [[1, 0, 0], [0, 1, 0]]), (3, [[1, 0, 0]])])
    assert f.depth([1, 0, 0]) == 3
    assert f.depth([0, 1, 0]) == 1
    assert f.depth([0, 0, 1]) == 0
    assert f.depth([1, 1, 1]) == 0


def test_zero_vector_depth_and_subspace_above_the_last_step():
    """The zero vector's depth is the largest listed index, and above that
    index F^j is the last listed basis, zero only when listed as a step;
    certificates carry these values."""
    f = Filtration.make(3, [(1, [[1, 2, 0], [0, 1, 1]]), (3, [[1, 3, 1]])])
    assert f.depth([0, 0, 0]) == 3
    assert f.subspace(4) == f.subspace(100) == ((Fraction(1), Fraction(3), Fraction(1)),)
    assert f.subspace(0) == qm.identity(3)
    g = Filtration.make(2, [(0, [[1, 0]]), (2, [])])
    assert g.depth([0, 0]) == 2
    assert g.subspace(1) == ((Fraction(1), Fraction(0)),) and g.subspace(5) == ()


def test_split_pair_random_with_verification():
    rng = random.Random(50)
    for _ in range(30):
        dim = rng.randrange(2, 6)
        f1 = random_filtration(rng, dim)
        f2 = random_filtration(rng, dim)
        basis = simultaneous_split([f1, f2])
        assert isinstance(basis, AdaptedBasis)
        assert basis.verify([f1, f2])


def test_three_distinct_lines_not_splittable():
    fs = [Filtration.make(2, [(1, line(1, 0))]),
          Filtration.make(2, [(1, line(0, 1))]),
          Filtration.make(2, [(1, line(1, 1))])]
    result = simultaneous_split(fs)
    assert isinstance(result, NotSplittable)
    assert not result


def test_two_lines_splittable():
    fs = [Filtration.make(2, [(1, line(1, 0))]),
          Filtration.make(2, [(1, line(0, 1))]),
          Filtration.make(2, [(1, line(1, 0))])]
    result = simultaneous_split(fs)
    assert isinstance(result, AdaptedBasis)
    assert result.verify(fs)


def test_simultaneous_split_matches_exhaustive_oracle_dim2():
    lines = [line(1, 0), line(0, 1), line(1, 1), line(1, -1)]
    candidates = grid_candidates(2, bound=2)
    for combo in itertools.product(range(4), repeat=3):
        fs = [Filtration.make(2, [(1, lines[i])]) for i in combo]
        result = simultaneous_split(fs)
        oracle = exhaustive_adapted_basis(fs, candidates)
        if isinstance(result, NotSplittable):
            assert oracle is None
        else:
            assert result.verify(fs)
            assert oracle is not None


def test_simultaneous_split_matches_exhaustive_oracle_dim3():
    chains = [
        [(1, line(1, 0, 0))],
        [(1, line(0, 1, 0))],
        [(1, line(1, 1, 0))],
        [(1, line(0, 0, 1))],
        [(0, [[1, 0, 0], [0, 1, 0]])],
        [(0, [[1, 0, 0], [0, 0, 1]])],
        [(0, [[1, 0, 0], [0, 1, 0]]), (2, line(1, 1, 0))],
        [(0, [[0, 1, 0], [0, 0, 1]]), (2, line(0, 1, 1))],
    ]
    candidates = grid_candidates(3, bound=1)
    census = list(itertools.combinations_with_replacement(range(len(chains)), 3))
    disagreements = []
    for combo in census:
        fs = [Filtration.make(3, chains[i]) for i in combo]
        result = simultaneous_split(fs)
        oracle = exhaustive_adapted_basis(fs, candidates)
        if isinstance(result, NotSplittable):
            if oracle is not None:
                disagreements.append(combo)
        else:
            assert result.verify(fs)
            if oracle is None:
                disagreements.append(combo)
    assert disagreements == []


def test_not_splittable_certificate_contents():
    fs = [Filtration.make(2, [(1, line(1, 0))]),
          Filtration.make(2, [(1, line(0, 1))]),
          Filtration.make(2, [(1, line(1, 1))])]
    cert = simultaneous_split(fs)
    assert isinstance(cert, NotSplittable)
    assert len(cert.multi_index) == 3
    assert cert.detail
    assert cert.dimension_table


# the triple of test_not_distributive_triple_fails_at_first_unfillable_cell,
# which passes the counting bound but does not split
NOT_DISTRIBUTIVE = ([[1, 0, 0, 0], [0, 1, 1, -1]],
                    [[0, 1, 0, -1], [0, 0, 1, 0]],
                    [[1, 0, -1, 0]])


def random_invertible(rng, dim):
    while True:
        g = [[Fraction(rng.randrange(-2, 3)) for _ in range(dim)] for _ in range(dim)]
        if qm.rank(g) == dim:
            return g


def test_certificates_match_the_reference_construction():
    """Building the cells one filtration at a time and counting by finite
    differences gives the certificates of the all-steps-per-cell
    construction with quadratic inclusion-exclusion, on splittable tuples,
    count failures and fill failures alike."""
    rng = random.Random(33)
    corpus = []
    for _ in range(30):     # splittable: every filtration on one basis
        dim = rng.randrange(2, 6)
        basis = random_invertible(rng, dim)
        corpus.append([random_filtration(rng, dim, basis=basis)
                       for _ in range(rng.randrange(2, 5))])
    for _ in range(60):     # one step each, spanned by rows with entries in {-1, 0, 1}
        dim = rng.randrange(3, 5)
        corpus.append([Filtration.make(dim, [(1, [[rng.randrange(-1, 2) for _ in range(dim)]
                                                  for _ in range(rng.randrange(1, dim))])])
                       for _ in range(rng.randrange(3, 5))])
    for _ in range(6):      # fill failures: the non-distributive triple in other bases
        g = random_invertible(rng, 4)
        corpus.append([Filtration.make(4, [(1, qm.mat_mul(f, g))]) for f in NOT_DISTRIBUTIVE])
    kinds = collections.Counter()
    for fs in corpus:
        result = simultaneous_split(fs)
        assert result == reference_split(fs)
        kinds["split" if result else "count" if "counts" in result.detail else "fill"] += 1
    assert kinds["split"] >= 40 and kinds["count"] >= 20 and kinds["fill"] >= 6, kinds


def test_not_distributive_triple_fails_at_first_unfillable_cell(monkeypatch):
    # F3 is a line inside F1 + F2 that meets F1 and F2 only in 0, while
    # F1 + F2 is 3-dimensional: an adapted basis would put F3's vector in the
    # span of the basis vectors of F1 and F2, so the tuple cannot split.
    # The counting bound passes; the one pass stops at the cell (1, 0, 0).
    f1 = [[1, 0, 0, 0], [0, 1, 1, -1]]
    f2 = [[0, 1, 0, -1], [0, 0, 1, 0]]
    f3 = [[1, 0, -1, 0]]
    assert qm.rank(f1 + f2) == 3 and qm.rank(f1 + f2 + f3) == 3
    assert qm.rank(f1 + f3) == 3 and qm.rank(f2 + f3) == 3
    streams = []

    def counting(*args, **kwargs):
        streams.append(args)
        return avoiding(*args, **kwargs)

    avoiding = filt._avoiding_vector
    monkeypatch.setattr(filt, "_avoiding_vector", counting)
    fs = [Filtration.make(4, [(1, f)]) for f in (f1, f2, f3)]
    cert = simultaneous_split(fs)
    assert isinstance(cert, NotSplittable)
    assert cert.multi_index == (1, 0, 0)
    assert "dimension counts" not in cert.detail
    chosen = 3      # one vector each at (1, 1, 0), (0, 0, 1) and (0, 1, 0)
    assert len(streams) <= chosen + 1


def test_adapted_basis_verify_rejects_wrong_depths():
    fs = [Filtration.make(2, [(1, line(1, 0))])]
    bad = AdaptedBasis(vectors=((Fraction(1), Fraction(0)),
                                (Fraction(0), Fraction(1))),
                       depths=((0,), (1,)))
    assert not bad.verify(fs)
