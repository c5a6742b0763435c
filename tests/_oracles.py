"""Shared independent oracles and generators for the test suite."""
import itertools
from fractions import Fraction

from logflat import matrices as qm
from logflat.filtrations import Filtration


def random_filtration(rng, dim, max_steps=3, index_range=(-2, 4)):
    """A random bounded decreasing filtration: prefix spans of a random
    full-rank basis at strictly increasing indices."""
    while True:
        basis = [[Fraction(rng.randrange(-3, 4)) for _ in range(dim)]
                 for _ in range(dim)]
        if qm.rank(basis) == dim:
            break
    nsteps = rng.randrange(1, max_steps + 1)
    sizes = sorted(rng.sample(range(dim), min(nsteps, dim)), reverse=True)
    indices = sorted(rng.sample(range(*index_range), len(sizes)))
    raw = [(j, basis[:size]) for j, size in zip(indices, sizes)]
    return Filtration.make(dim, raw)


def grid_candidates(dim, bound=1):
    """All nonzero integer vectors with entries in [-bound, bound], one per
    line (first nonzero entry positive)."""
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=dim):
        if all(c == 0 for c in v):
            continue
        lead = next(c for c in v if c != 0)
        if lead < 0:
            continue
        out.append([Fraction(c) for c in v])
    return out


def is_unipotent(u):
    n = len(u)
    nil = qm.mat_sub(u, qm.identity(n))
    power = qm.identity(n)
    for _ in range(n):
        power = qm.mat_mul(power, nil)
    return qm.is_zero_matrix(power)


def is_polynomial_in(s, m):
    """Whether s lies in the span of the powers of m (exact linear check)."""
    n = len(m)
    powers = [qm.identity(n)]
    for _ in range(n * n - 1):
        powers.append(qm.mat_mul(powers[-1], m))
    system = qm.transpose([[p[i][j] for i in range(n) for j in range(n)]
                           for p in powers])
    target = [s[i][j] for i in range(n) for j in range(n)]
    return qm.solve(system, target) is not None


def exhaustive_adapted_basis(filtrations, candidates):
    """Exhaustive search for an adapted basis among the candidate vectors.

    A candidate set {v_1..v_m} is adapted iff it is a basis and, for every
    filtration F and critical index j, exactly dim F(j) of the vectors lie
    in F(j) (containment + full count + independence force spanning).
    """
    dim = filtrations[0].dim
    depths = [[f.depth(v) for f in filtrations] for v in candidates]
    targets = []
    for k, f in enumerate(filtrations):
        for j in f.critical_indices():
            targets.append((k, j, len(f.subspace(j))))
    for combo in itertools.combinations(range(len(candidates)), dim):
        ok = True
        for k, j, want in targets:
            got = sum(1 for i in combo if depths[i][k] >= j)
            if got != want:
                ok = False
                break
        if not ok:
            continue
        vecs = [candidates[i] for i in combo]
        if qm.rank(vecs) == dim:
            return vecs
    return None
