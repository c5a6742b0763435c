"""Tuples of decreasing Z-filtrations of a rational vector space and the
simultaneous-splitting decision.

A filtration stores its strictly decreasing steps as canonical bases (see
the matrices module); the full space sits below the smallest listed index,
and above the largest the last listed step stands (the zero space only when
it is listed as a step).  The multi-graded intersections are built one
filtration at a time, a counting bound by finite differences of their
dimensions and one pass over them, deepest first, decide splittability and
produce either an adapted basis or a certificate naming the first
multi-index that cannot be filled; pairs always split.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import matrices as qm
from .matrices import (QMatrix, in_row_space, intersect_row_spaces, rank,
                       row_space)


@dataclass(frozen=True)
class Filtration:
    """Decreasing, exhaustive, bounded Z-filtration of Q^m."""
    dim: int
    steps: tuple   # tuple[(index, canonical basis rows)], ascending index

    def __post_init__(self):
        prev_j, prev = None, qm.identity(self.dim)
        for j, basis in self.steps:
            if prev_j is not None and j <= prev_j:
                raise ValueError("step indices must be strictly increasing")
            if list(map(list, basis)) != row_space(basis):
                raise ValueError("step bases must be canonical (rref, no zero rows)")
            if len(basis) >= len(prev):
                raise ValueError("subspaces must strictly decrease, from a proper first step")
            if not all(in_row_space(v, prev) for v in basis):
                raise ValueError("steps are not nested")
            prev_j, prev = j, basis

    @classmethod
    def make(cls, dim: int, raw_steps) -> Filtration:
        """Normalize raw (index, spanning rows) pairs: row-reduce, drop
        repeats of the previous subspace."""
        cleaned = []
        prev = qm.identity(dim)
        for j, rows in sorted(raw_steps, key=lambda s: s[0]):
            basis = row_space(qm.qmat(rows))
            if basis == prev:     # both are canonical bases
                continue
            cleaned.append((int(j), tuple(map(tuple, basis))))
            prev = basis
        return cls(dim=dim, steps=tuple(cleaned))

    def subspace(self, j: int) -> QMatrix:
        """Basis of F^j: the full space below the smallest index, else the
        step at the largest listed index <= j, so the last listed basis
        for every j above the largest index."""
        current = None
        for idx, basis in self.steps:
            if idx > j:
                break
            current = basis
        return qm.identity(self.dim) if current is None else current

    def depth(self, v) -> int:
        """Largest listed index j with v in F^j, or one below the smallest
        index if v lies in no step; the zero vector, which lies in every
        F^j, has the largest listed index as its depth."""
        d = self.min_index() - 1
        for idx, basis in self.steps:
            if in_row_space(v, basis):
                d = idx
            else:
                break
        return d

    def min_index(self) -> int:
        return self.steps[0][0] if self.steps else 0

    def critical_indices(self) -> list:
        """Indices at which the subspace can change, plus the sentinel one
        below (full space)."""
        return [self.min_index() - 1] + [j for j, _ in self.steps]


@dataclass(frozen=True)
class AdaptedBasis:
    """Basis vectors with, per vector and filtration, the depth (largest j
    with the vector in F^j)."""
    vectors: tuple   # tuple of row tuples
    depths: tuple    # tuple of tuples, depths[v][k] for filtration k

    def verify(self, filtrations) -> bool:
        """Re-verify the defining span conditions independently."""
        vecs = self.vectors
        if rank(vecs) != len(vecs) or len(vecs) != filtrations[0].dim:
            return False
        for k, f in enumerate(filtrations):
            for v, dpt in zip(vecs, self.depths):
                if f.depth(v) != dpt[k]:
                    return False
            # a vector of depth d lies in F^d, inside every F^j with j <= d
            # (the steps are nested), so dim F^j independent members span it
            for j in f.critical_indices():
                if sum(dpt[k] >= j for dpt in self.depths) != len(f.subspace(j)):
                    return False
        return True


@dataclass(frozen=True)
class NotSplittable:
    """Certificate: the multi-index at which the required dimension counts
    cannot be realized by any adapted basis."""
    multi_index: tuple
    detail: str
    dimension_table: tuple = ()

    def __bool__(self):
        return False


def _avoiding_vector(space: QMatrix, forbidden: list, tries: int):
    """Vectors in rowspace(space) outside every forbidden subspace, produced
    deterministically: combinations sum lambda^i b_i for lambda = 0, 1, 2, ...

    Yields up to `tries` distinct candidates.
    """
    found = 0
    lam = 0
    dim = len(space)
    while found < tries and lam <= tries * (dim + len(forbidden) + 2):
        weights = [Fraction(lam) ** i for i in range(dim)]
        v = [sum(w * space[i][c] for i, w in enumerate(weights))
             for c in range(len(space[0]))]
        lam += 1
        if all(c == 0 for c in v):
            continue
        if any(in_row_space(v, fb) for fb in forbidden):
            continue
        found += 1
        yield v


def simultaneous_split(filtrations):
    """AdaptedBasis adapted to every filtration, or a falsy NotSplittable
    certificate.  The equivariant bundle that the tuple describes extends
    over affine space iff the tuple splits (Klyachko, "Equivariant bundles
    on toral varieties", Math. USSR Izv. 35, 1990).

    The cells V_J are built one filtration at a time: V_{J+(j,)} is V_J at
    the sentinel index and V_J meet F^j otherwise, the same canonical basis
    as meeting all k steps at once.  dims[J] sums the exact counts over the
    cells K >= J, so one finite difference along each axis, zero past the
    last index, recovers them.  One pass then fills the cells once each,
    deepest first, with vectors of V_J from the deterministic candidate
    stream that avoid each filtration's next step: for a vector of V_J that
    is the same test as avoiding the one-step-deeper cell.  The first cell
    that cannot be filled is the certificate; no choice made earlier could
    have filled it (see the proof in the body), so there is no backtracking.
    """
    filtrations = list(filtrations)
    if not filtrations:
        raise ValueError("need at least one filtration")
    dim = filtrations[0].dim
    if any(f.dim != dim for f in filtrations):
        raise ValueError("ambient dimension mismatch")

    grids = [f.critical_indices() for f in filtrations]
    following = [dict(zip(grid, grid[1:])) for grid in grids]   # next index
    spaces = {(): qm.identity(dim)}
    for f, grid in zip(filtrations, grids):
        spaces = {J + (j,): space if j == grid[0]
                  else intersect_row_spaces(space, f.subspace(j))
                  for J, space in spaces.items() for j in grid}
    cells = sorted(spaces, key=lambda J: (-sum(J), J))
    dims = {J: len(space) for J, space in spaces.items()}
    exact_counts = dims
    for k, after in enumerate(following):
        exact_counts = {J: n - (exact_counts[J[:k] + (after[J[k]],) + J[k + 1:]]
                                if J[k] in after else 0)
                        for J, n in exact_counts.items()}
    # counting bound: the exact counts must be non-negative
    negative = next((J for J in cells if exact_counts[J] < 0), None)
    if negative is not None:
        return NotSplittable(
            multi_index=negative,
            detail="dimension counts of the multi-graded intersections "
                   "are incompatible with any adapted basis",
            dimension_table=tuple(sorted(dims.items())))

    # One pass, deepest cells first.  Candidates for cell J lie in
    # V_J = spaces[J] and outside each one-step-deeper intersection, so their
    # depth profile is exactly J (AdaptedBasis.verify re-checks every depth).
    # Backtracking could never change the verdict.  Let B be any adapted
    # basis: exact_counts[J] is the number of vectors of B whose depth
    # profile is exactly J.  The visited cells always form an up-set S, and
    # span(chosen) = span{b in B : profile(b) in S}, so at cell J
    # span(chosen) meets V_J in the sum of the deeper V_K.  Hence V_J has
    # exactly exact_counts[J] dimensions outside span(chosen), every vector
    # of V_J outside span(chosen) has profile exactly J, and the moment-curve
    # stream of _avoiding_vector finds one: each forbidden proper subspace
    # meets the curve at most dim V_J - 1 times.  Conversely, if every cell
    # is filled, the dim chosen vectors are independent and exactly
    # dim F_k^j of them lie in each step F_k^j: an adapted basis.  So a cell
    # this pass cannot fill proves that the tuple does not split.
    chosen: list = []          # vectors
    profiles: list = []        # depth profiles, aligned with chosen
    for J in filter(exact_counts.get, cells):      # cells that need vectors
        forbidden = [f.subspace(after[j])
                     for f, after, j in zip(filtrations, following, J) if j in after]
        for _ in range(exact_counts[J]):
            span = row_space(chosen)
            v = next(_avoiding_vector(spaces[J], forbidden + [span], tries=dim + 4), None)
            if v is None:
                return NotSplittable(
                    multi_index=J,
                    detail="no vector of this depth profile is independent "
                           "of the vectors already chosen",
                    dimension_table=tuple(sorted(dims.items())))
            chosen.append(v)
            profiles.append(J)

    order = sorted(range(len(chosen)), key=lambda i: tuple(-d for d in profiles[i]))
    basis = AdaptedBasis(vectors=tuple(tuple(chosen[i]) for i in order),
                         depths=tuple(profiles[i] for i in order))
    if not basis.verify(filtrations):
        raise AssertionError("constructed basis failed re-verification")
    return basis
