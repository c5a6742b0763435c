"""Tuples of decreasing Z-filtrations of a rational vector space: pair
splitting, the simultaneous-splitting decision, and toric extendability
verdicts.

A filtration stores its strictly decreasing steps as row-reduced bases; the
full space sits below the smallest listed index and zero above the largest.
Pairs always split (constructed through the bi-graded pieces); for longer
tuples a counting bound plus a backtracking search over deepest
multi-graded intersections decides splittability and produces either an
adapted basis or a certificate naming an offending multi-index.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import matrices as qm
from .matrices import (QMatrix, in_row_space, intersect_row_spaces, rank,
                       row_space)


@dataclass(frozen=True)
class Filtration:
    """Decreasing, exhaustive, bounded Z-filtration of Q^m."""
    dim: int
    steps: tuple   # tuple[(index, row-reduced basis rows)], ascending index

    def __post_init__(self):
        prev_rank = self.dim
        prev_basis = None
        last_j = None
        for j, basis in self.steps:
            if last_j is not None and j <= last_j:
                raise ValueError("step indices must be strictly increasing")
            last_j = j
            r = len(basis)
            if r > prev_rank or (prev_basis is not None and r == prev_rank):
                raise ValueError("subspaces must strictly decrease")
            if prev_basis is not None:
                for v in basis:
                    if not in_row_space(v, prev_basis):
                        raise ValueError("steps are not nested")
            elif r == self.dim:
                raise ValueError("first listed step must be a proper subspace")
            prev_rank, prev_basis = r, basis

    @classmethod
    def make(cls, dim: int, raw_steps) -> Filtration:
        """Normalize raw (index, spanning rows) pairs: row-reduce, drop
        repeats of the previous subspace."""
        full = qm.identity(dim)
        cleaned = []
        prev = full
        for j, rows in sorted(raw_steps, key=lambda s: s[0]):
            basis = row_space(qm.qmat(rows)) if rows else []
            if len(basis) == len(prev) and all(in_row_space(v, prev) for v in basis) \
                    and all(in_row_space(v, basis) for v in prev):
                continue
            cleaned.append((int(j), tuple(tuple(r) for r in basis)))
            prev = [list(r) for r in basis]
        return cls(dim=dim, steps=tuple(cleaned))

    def subspace(self, j: int) -> QMatrix:
        """Basis of F^j (full space below the smallest index, zero above the
        largest listed nonzero step)."""
        current = qm.identity(self.dim)
        for idx, basis in self.steps:
            if idx > j:
                return current
            current = [list(r) for r in basis]
        return current

    def depth(self, v) -> int:
        """Largest j with v in F^j; the zero vector has depth +infinity
        (reported as one past the largest index)."""
        d = self.min_index() - 1
        for idx, basis in self.steps:
            if in_row_space(list(v), [list(r) for r in basis]):
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
        vecs = [list(v) for v in self.vectors]
        if rank(vecs) != len(vecs) or len(vecs) != filtrations[0].dim:
            return False
        for k, f in enumerate(filtrations):
            for v, dpt in zip(vecs, self.depths):
                if f.depth(v) != dpt[k]:
                    return False
            for j in f.critical_indices():
                target = f.subspace(j)
                members = [v for v, dpt in zip(vecs, self.depths) if dpt[k] >= j]
                if len(members) != len(target):
                    return False
                if any(not in_row_space(v, target) for v in members):
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


def _depth_profile(filtrations, v) -> tuple:
    return tuple(f.depth(v) for f in filtrations)


def split_pair(f1: Filtration, f2: Filtration) -> AdaptedBasis:
    """Simultaneously split a pair of filtrations; always succeeds.

    For each bi-index (i, j) a complement of
    F1^{i+1} cap F2^j + F1^i cap F2^{j+1} inside F1^i cap F2^j is chosen;
    the union of these complements is a basis adapted to both.
    """
    if f1.dim != f2.dim:
        raise ValueError("ambient dimension mismatch")
    result = simultaneous_split([f1, f2])
    if isinstance(result, NotSplittable):
        raise AssertionError("a pair of filtrations failed to split")
    return result


def _intersection(filtrations, multi_index) -> QMatrix:
    basis = filtrations[0].subspace(multi_index[0])
    for f, j in zip(filtrations[1:], multi_index[1:]):
        basis = intersect_row_spaces(basis, f.subspace(j))
        if not basis:
            return []
    return basis


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
    """AdaptedBasis adapted to every filtration, or a NotSplittable
    certificate.

    Multi-indices are processed in decreasing total degree; at each one the
    deficit of basis vectors lying in the multi-intersection is filled with
    vectors of exactly that depth profile, backtracking over the
    deterministic candidate stream when a later cell becomes infeasible.
    """
    filtrations = list(filtrations)
    if not filtrations:
        raise ValueError("need at least one filtration")
    dim = filtrations[0].dim
    if any(f.dim != dim for f in filtrations):
        raise ValueError("ambient dimension mismatch")

    grids = [f.critical_indices() for f in filtrations]
    cells = sorted(product(*grids), key=lambda J: (-sum(J), J))
    dims = {J: len(_intersection(filtrations, J)) for J in cells}
    # counting bound: inclusion-exclusion counts must be non-negative
    exact_counts = {}
    for J in cells:
        deeper = sum(exact_counts[K] for K in exact_counts
                     if all(a >= b for a, b in zip(K, J)) and K != J)
        exact_counts[J] = dims[J] - deeper
        if exact_counts[J] < 0:
            return NotSplittable(
                multi_index=J,
                detail="dimension counts of the multi-graded intersections "
                       "are incompatible with any adapted basis",
                dimension_table=tuple(sorted((K, dims[K]) for K in cells)))

    chosen: list = []          # vectors
    profiles: list = []        # depth profiles, aligned with chosen

    def count_at(J):
        return sum(1 for p in profiles if all(a >= b for a, b in zip(p, J)))

    def search(cell_idx: int) -> bool:
        if cell_idx == len(cells):
            return len(chosen) == dim and rank(chosen) == dim
        J = cells[cell_idx]
        need = dims[J] - count_at(J)
        if need < 0:
            return False
        if need == 0:
            return search(cell_idx + 1)
        space = _intersection(filtrations, J)
        # candidates must have depth profile exactly J: forbid each
        # one-step-deeper intersection, and stay independent of the span.
        forbidden = []
        for k, f in enumerate(filtrations):
            higher = [j for j in grids[k] if j > J[k]]
            if higher:
                deeper = list(J)
                deeper[k] = min(higher)
                fb = _intersection(filtrations, tuple(deeper))
                forbidden.append(fb if fb else [[Fraction(0)] * dim])
        span = row_space(chosen) if chosen else []
        for v in _avoiding_vector(space, forbidden + ([span] if span else []),
                                  tries=dim + 4):
            if _depth_profile(filtrations, v) != J:
                continue
            chosen.append(v)
            profiles.append(J)
            if search(cell_idx):     # stay on this cell until filled
                return True
            chosen.pop()
            profiles.pop()
        return False

    if search(0):
        order = sorted(range(len(chosen)),
                       key=lambda i: (tuple(-d for d in profiles[i])))
        basis = AdaptedBasis(
            vectors=tuple(tuple(chosen[i]) for i in order),
            depths=tuple(tuple(profiles[i]) for i in order))
        if not basis.verify(filtrations):
            raise AssertionError("constructed basis failed re-verification")
        return basis
    # exhausted: report the shallowest infeasible cell
    worst = min(cells, key=lambda J: sum(J))
    return NotSplittable(
        multi_index=worst,
        detail="backtracking search exhausted without an adapted basis",
        dimension_table=tuple(sorted((K, dims[K]) for K in cells)))


@dataclass(frozen=True)
class ExtendabilityVerdict:
    extends: bool
    witness: object   # AdaptedBasis or NotSplittable

    def __bool__(self):
        return self.extends


def toric_extendability(filtrations) -> ExtendabilityVerdict:
    """The equivariant bundle described by the filtration tuple extends over
    affine space iff the tuple splits simultaneously."""
    result = simultaneous_split(filtrations)
    if isinstance(result, NotSplittable):
        return ExtendabilityVerdict(False, result)
    return ExtendabilityVerdict(True, result)
