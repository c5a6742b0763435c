"""Acceptance suite: ten end-to-end criteria, each printing one pass/fail
line (visible even under output capture) and asserting exactly."""
import itertools
import random
import time
from fractions import Fraction

from _oracles import (exhaustive_adapted_basis, grid_candidates,
                      is_polynomial_in, is_unipotent, minpoly, random_filtration,
                      sextic_system, sl2_adjoint, sl2_fundamental)
from logflat import matrices as qm
from logflat.birkhoff import birkhoff_factorize, splitting_type_rank_oracle
from logflat.castling import (PrehomDescriptor, castling_chain,
                              castling_transform, gen_nonextendable,
                              morita_rescale, pullback_residue,
                              residual_sl_trivial)
from logflat.cyclotomic import QuotientNum, cmat_from_rational, cyclotomic_upoly
from logflat.extend import extend_connection, generate_connection_corpus
from logflat.filtrations import (AdaptedBasis, Filtration, NotSplittable,
                                 simultaneous_split)
from logflat.jordan import (central_log, jordan_chevalley, quasi_unipotent_weights,
                            well_behaved_check)
from logflat.laurent import Transition, lmat_identity, lmat_mul
from logflat.multipoly import MultiPoly, squarefree_part
from logflat.saito import (SaitoSystem, VectorField, flatness_check,
                           saito_check)


def report(capsys, num, name, ok, extra=""):
    with capsys.disabled():
        tail = f" ({extra})" if extra else ""
        print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed"


# 1. Freeness of the minor-product sextic under (C*)^3 x SL(2) ----------------

def test_criterion_01_sextic_freeness(capsys):
    t0 = time.time()
    system = sextic_system()
    verdict = saito_check(system)
    m = system.saito_matrix()
    oracle_ok = qm.det_cofactor(m) == qm.det_bareiss(m)
    elapsed = time.time() - t0
    ok = (verdict.free and verdict.unit not in (None, 0) and verdict.reduced
          and oracle_ok and elapsed < 10.0)
    report(capsys, 1, "minor-product sextic freeness", ok,
           f"unit {verdict.unit}, {elapsed:.2f}s")


# 2. Coordinate hyperplanes in dimensions 2..5 --------------------------------

def test_criterion_02_coordinate_hyperplanes(capsys):
    ok = True
    for n in range(2, 6):
        vs = tuple(f"x{i}" for i in range(n))
        f = MultiPoly.constant(vs, 1)
        fields = []
        for i, name in enumerate(vs):
            f = f * MultiPoly.var(vs, name)
            coeffs = [MultiPoly.zero(vs)] * n
            coeffs[i] = MultiPoly.var(vs, name)
            fields.append(VectorField(tuple(coeffs)))
        verdict = saito_check(SaitoSystem(tuple(fields), f))
        ok = ok and verdict.free and verdict.unit == 1
    report(capsys, 2, "coordinate hyperplanes n=2..5, unit 1", ok)


# 3. Jordan-Chevalley on 200 random invertible matrices -----------------------

def test_criterion_03_jordan_chevalley_suite(capsys):
    rng = random.Random(2026)
    failures = 0
    t0 = time.time()
    for _ in range(200):
        n = rng.randrange(1, 6)
        while True:
            m = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
                  for _ in range(n)] for _ in range(n)]
            if qm.det_cofactor(m) != 0:
                break
        pair = jordan_chevalley(m)
        good = (qm.mat_eq(qm.mat_mul(pair.S, pair.U), m)
                and qm.mat_eq(qm.mat_mul(pair.U, pair.S), m)
                and squarefree_part(minpoly(pair.S))[1]
                and is_unipotent(pair.U)
                and is_polynomial_in(pair.S, m))
        failures += 0 if good else 1
    elapsed = time.time() - t0
    report(capsys, 3, "Jordan-Chevalley suite, 200 matrices", failures == 0,
           f"{failures} failures, {elapsed:.1f}s")


# 4. Central logarithm projector identities -----------------------------------

def _companion_of_cyclotomic(k):
    from logflat.cyclotomic import cyclotomic_upoly
    phi = cyclotomic_upoly(k)
    d = phi.total_degree()
    coeffs = [phi.coeff(i) for i in range(d + 1)]
    m = qm.zeros(d)
    for i in range(1, d):
        m[i][i - 1] = Fraction(1)
    for i in range(d):
        m[i][d - 1] = -coeffs[i]
    return m


def test_criterion_04_central_log_suite(capsys):
    fixtures = [qm.identity(2), qm.mat_scale(qm.identity(2), -1),
                _companion_of_cyclotomic(3), _companion_of_cyclotomic(4),
                _companion_of_cyclotomic(6), qm.qmat([[0, -1], [1, 0]])]
    ok = True
    for s in fixtures:
        log = central_log(s)
        m, n = log.field_order, len(s)
        phi = cyclotomic_upoly(m)
        sc = cmat_from_rational(phi, s)
        ident = cmat_from_rational(phi, qm.identity(n))
        ps = [[list(row) for row in p] for p in log.projectors]
        total = [[QuotientNum(phi, 0)] * n for _ in range(n)]
        for p in ps:
            total = [[a + b for a, b in zip(ra, rb)]
                     for ra, rb in zip(total, p)]
        ok = ok and all(total[i][j] == ident[i][j]
                        for i in range(n) for j in range(n))
        for j, pj in enumerate(ps):
            for k, pk in enumerate(ps):
                prod = [[sum((pj[i][t] * pk[t][c] for t in range(n)),
                             QuotientNum(phi, 0)) for c in range(n)]
                        for i in range(n)]
                want = pj if j == k else None
                if want is None:
                    ok = ok and all(x.is_zero() for row in prod for x in row)
                else:
                    ok = ok and all(prod[i][c] == want[i][c]
                                    for i in range(n) for c in range(n))
        for e, p in zip(log.weights, ps):
            zeta = QuotientNum.zeta(m, e.exponent * (m // e.order))
            sp = [[sum((sc[i][t] * p[t][c] for t in range(n)),
                       QuotientNum(phi, 0)) for c in range(n)]
                  for i in range(n)]
            ok = ok and all(sp[i][c] == p[i][c] * zeta
                            for i in range(n) for c in range(n))
    minus = qm.mat_scale(qm.identity(2), -1)
    ok = ok and well_behaved_check(quasi_unipotent_weights(minus), "SL") is False
    report(capsys, 4, "central-log projector identities, orders 1..6", ok)


# 5. 100 planted Birkhoff factorizations --------------------------------------

def mono(e, c=1):
    """The Laurent monomial c z^e."""
    return MultiPoly(("z",), {(e,): c}, laurent=True)


def _rand_unimodular(rng, n, sign, max_deg, ops=5):
    m = lmat_identity(n)
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randrange(-3, 4))
        if c == 0:
            continue
        elem = lmat_identity(n)
        elem[i][j] = mono(sign * rng.randrange(max_deg + 1), c)
        m = lmat_mul(m, elem)
    return m


def test_criterion_05_birkhoff_suite(capsys):
    rng = random.Random(2027)
    t0 = time.time()
    bad = 0
    for _ in range(100):
        n = rng.randrange(1, 4)
        exps = sorted((rng.randrange(-4, 5) for _ in range(n)), reverse=True)
        pm = _rand_unimodular(rng, n, -1, 4)
        pp = _rand_unimodular(rng, n, +1, 4)
        d = [[mono(exps[i]) if i == j else mono(0, 0)
              for j in range(n)] for i in range(n)]
        t = Transition(lmat_mul(lmat_mul(pm, d), pp))
        fac = birkhoff_factorize(t)
        recon = lmat_mul(lmat_mul(fac.pminus, fac.d_matrix()), fac.pplus)
        good = (list(fac.diag) == exps
                and qm.mat_eq(recon, t.matrix)
                and fac.splitting_type() == splitting_type_rank_oracle(t))
        bad += 0 if good else 1
    elapsed = time.time() - t0
    report(capsys, 5, "100 planted Birkhoff factorizations",
           bad == 0 and elapsed < 60.0, f"{bad} failures, {elapsed:.1f}s")


# 6. The toric counterexample transition discriminates extensions -------------

def test_criterion_06_extension_discrimination(capsys):
    zero = mono(0, 0)
    nontrivial = Transition([[mono(0, 1), mono(-1, 1)], [zero, mono(-2, 1)]])
    split = Transition([[mono(0, 1), zero], [zero, mono(-2, 1)]])
    st_ext = birkhoff_factorize(nontrivial).splitting_type()
    st_split = birkhoff_factorize(split).splitting_type()
    ok = (st_ext == (1, 1) and sorted(st_split.classes) == [0, 2]
          and st_ext != st_split
          and splitting_type_rank_oracle(nontrivial) == (1, 1))
    report(capsys, 6, "extension class gives {1,1}, not {0,2}", ok,
           f"{tuple(st_ext)} vs {tuple(st_split)}")


# 7. Desk-scale extension equivalence over cross and cusp ---------------------

def test_criterion_07_extension_corpus(capsys):
    from math import gcd

    from logflat.bilaurent import bmat_from_laurent, bmat_mul
    t0 = time.time()
    total, extended = 0, 0
    gauges_ok = True
    for divisor in ("cross", "cusp"):
        for data in generate_connection_corpus(divisor, 26, seed=2028):
            total += 1
            ext = extend_connection(data)
            if not flatness_check(ext.connection).flat:
                continue
            g = gcd(data.p, data.q)
            t_bl = bmat_from_laurent(data.transition.matrix,
                                     -data.q // g, data.p // g)
            gauges_ok = gauges_ok and qm.mat_eq(ext.gauge_x,
                                                bmat_mul(t_bl, ext.gauge_y))
            extended += 1
    elapsed = time.time() - t0
    ok = total >= 50 and extended == total and gauges_ok
    report(capsys, 7, "equivariant connections all extend", ok,
           f"{extended}/{total}, {elapsed:.1f}s")


# 8. Filtration splitting with independent oracles -----------------------------

def test_criterion_08_filtration_suite(capsys):
    rng = random.Random(2029)
    pair_ok = True
    for _ in range(100):
        dim = rng.randrange(2, 6)
        f1, f2 = random_filtration(rng, dim), random_filtration(rng, dim)
        basis = simultaneous_split([f1, f2])
        pair_ok = pair_ok and isinstance(basis, AdaptedBasis) and basis.verify([f1, f2])

    def line(*v):
        return [[Fraction(c) for c in v]]

    census_ok = True
    lines2 = [line(1, 0), line(0, 1), line(1, 1), line(1, -1)]
    cands2 = grid_candidates(2, bound=2)
    for combo in itertools.product(range(4), repeat=3):
        fs = [Filtration.make(2, [(1, lines2[i])]) for i in combo]
        result = simultaneous_split(fs)
        oracle = exhaustive_adapted_basis(fs, cands2)
        if isinstance(result, NotSplittable):
            census_ok = census_ok and oracle is None
        else:
            census_ok = census_ok and result.verify(fs) and oracle is not None

    chains3 = [
        [(1, line(1, 0, 0))], [(1, line(0, 1, 0))], [(1, line(1, 1, 0))],
        [(1, line(0, 0, 1))],
        [(0, [[1, 0, 0], [0, 1, 0]])], [(0, [[1, 0, 0], [0, 0, 1]])],
        [(0, [[1, 0, 0], [0, 1, 0]]), (2, line(1, 1, 0))],
        [(0, [[0, 1, 0], [0, 0, 1]]), (2, line(0, 1, 1))],
    ]
    cands3 = grid_candidates(3, bound=1)
    for combo in itertools.combinations_with_replacement(range(len(chains3)), 3):
        fs = [Filtration.make(3, chains3[i]) for i in combo]
        result = simultaneous_split(fs)
        oracle = exhaustive_adapted_basis(fs, cands3)
        if isinstance(result, NotSplittable):
            census_ok = census_ok and oracle is None
        else:
            census_ok = census_ok and result.verify(fs) and oracle is not None

    three = [Filtration.make(2, [(1, line(1, 0))]),
             Filtration.make(2, [(1, line(0, 1))]),
             Filtration.make(2, [(1, line(1, 1))])]
    lines_ok = isinstance(simultaneous_split(three), NotSplittable)
    ok = pair_ok and census_ok and lines_ok
    report(capsys, 8, "filtration splitting suite", ok,
           f"pairs {pair_ok}, census {census_ok}, three-lines {lines_ok}")


# 9. Castling bookkeeping ------------------------------------------------------

def test_criterion_09_castling_bookkeeping(capsys):
    base = PrehomDescriptor(n=3, r=1, factors=(("Torus", 3),), side="primal")
    with_sl = PrehomDescriptor(n=5, r=2, factors=(("SL", 2),), side="dual")
    involution_ok = (castling_transform(castling_transform(base)) == base and
                     castling_transform(castling_transform(with_sl)) == with_sl)
    chain_ok = castling_chain(base, 2) == [3, 6, 30]
    w = Fraction(9, 4)
    morita_ok = (morita_rescale(1, 3, 1) == Fraction(-1, 2)
                 and morita_rescale(2, 3, morita_rescale(1, 3, w)) == w
                 and Fraction(1, 1 - 3) * Fraction(2, 2 - 3) == 1)
    ok = involution_ok and chain_ok and morita_ok
    report(capsys, 9, "castling involution, chain 3->6->30, rescale -1/2", ok)


# 10. Non-extendable generator --------------------------------------------------

def test_criterion_10_nonextendable_generator(capsys):
    rep_f, cert_f = gen_nonextendable(sl2_fundamental(), 3, 2)
    rep_a, cert_a = gen_nonextendable(sl2_adjoint(), 3, 3)
    negative_ok = (not residual_sl_trivial(rep_f)
                   and not residual_sl_trivial(rep_a)
                   and not cert_f and not cert_a
                   and cert_f.generator_name and cert_a.generator_name)
    pullback_ok = (residual_sl_trivial(pullback_residue(2, 2))
                   and residual_sl_trivial(pullback_residue(3, 2)))
    ok = negative_ok and pullback_ok
    report(capsys, 10, "non-extendable certificates vs pull-backs", ok,
           f"generators {cert_f.generator_name}, {cert_a.generator_name}")
