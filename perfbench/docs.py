"""Seeded input documents for the logflat benchmark.

Every generator takes a `random.Random` and returns a `Doc`: the
subcommand and flags, the JSON text the program reads, and the answer the
checker expects.  The expected answers come from constructions whose
answer is known (planted factorizations, common bases, Saito's theorem
for reflection arrangements), computed here with stdlib arithmetic only,
never by asking logflat.  The one exception is `extend`, whose inputs are
the library's own cross/cusp corpora (`logflat.extend`), built before any
timing starts.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Doc:
    kind: str
    cmd: str
    flags: list
    text: str                      # the document, exactly as passed to main()
    expect: dict = field(default_factory=dict)

    def argv(self):
        return [self.cmd, self.text, "--json", *self.flags]


# -- exact helpers (independent of logflat) ---------------------------------

def fs(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def rank(rows) -> int:
    m = [[Fraction(c) for c in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def det(rows) -> Fraction:
    m = [[Fraction(c) for c in r] for r in rows]
    n, d = len(m), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def matinv(a):
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def random_invertible(rng, n, lo=-3, hi=3, dens=(1,)):
    while True:
        m = [[Fraction(rng.randint(lo, hi), rng.choice(dens)) for _ in range(n)]
             for _ in range(n)]
        if det(m) != 0:
            return m


# Laurent polynomials in z: {exponent: Fraction}

def lmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def lmat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[{} for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for t in range(k):
            if not a[i][t]:
                continue
            for j in range(m):
                for e, c in lmul(a[i][t], b[t][j]).items():
                    out[i][j][e] = out[i][j].get(e, 0) + c
    return [[{e: c for e, c in x.items() if c != 0} for x in row] for row in out]


def laurent_json(p: dict) -> list:
    return [{"c": fs(c), "e": e} for e, c in sorted(p.items())]


def elementary_product(rng, n, sign, max_deg, ops):
    """Product of `ops` elementary matrices I + c z^(sign*d) E_ij: unimodular
    in z (sign=+1) or in 1/z (sign=-1)."""
    m = [[{0: Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        elem = [[{0: Fraction(1)} if a == b else {} for b in range(n)] for a in range(n)]
        elem[i][j] = {sign * rng.randint(0, max_deg): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))}
        m = lmat_mul(m, elem)
    return m


def banded_unitriangular(rng, n, sign, max_deg, band):
    """Unit lower (sign=-1, entries in 1/z) or upper (sign=+1, entries in z)
    triangular matrix whose entries within `band` of the diagonal are
    monomials c z^(sign*((i+j) mod (max_deg+1))).  Only the coefficients
    come from the seed, so the cost of a planted transition depends on its
    rank and band, not on the seed."""
    m = [[{0: Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            off = i - j if sign < 0 else j - i
            if 1 <= off <= band:
                m[i][j] = {sign * ((i + j) % (max_deg + 1)): Fraction(rng.choice([-2, -1, 1, 2]))}
    return m


# Multivariate polynomials: {exponent tuple: Fraction}

def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def pvar(nvars, i, k=1, c=1) -> dict:
    e = [0] * nvars
    e[i] = k
    return {tuple(e): Fraction(c)}


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def pscale(a: dict, c) -> dict:
    return {e: v * c for e, v in a.items()} if c else {}


def pprod(factors, nvars) -> dict:
    out = {tuple([0] * nvars): Fraction(1)}
    for f in factors:
        out = pmul(out, f)
    return out


def peval(p: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            term *= x ** k
        total += term
    return total


def poly_json(p: dict) -> list:
    return [{"c": fs(c), "e": list(e)} for e, c in sorted(p.items())]


# -- jc ----------------------------------------------------------------------

def charpoly(m) -> list:
    """Coefficients of det(xI - m), constant term first (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    work = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        work = matmul(m, work)
        for i in range(n):
            work[i][i] += coeffs[n - k + 1]
        coeffs[n - k] = -sum(matmul(m, work)[i][i] for i in range(n)) / k
    return coeffs


def _pdivmod(a: list, b: list):
    a, q = list(a), [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        f = a[-1] / b[-1]
        q[len(a) - len(b)] = f
        for i, c in enumerate(b):
            a[len(a) - len(b) + i] -= f * c
        a.pop()
    return q, a


def cyclotomic(k: int) -> list:
    """Phi_k: x^k - 1 divided by Phi_d for every proper divisor d of k."""
    p = [Fraction(-1)] + [Fraction(0)] * (k - 1) + [Fraction(1)]
    for d in range(1, k):
        if k % d == 0:
            p, _ = _pdivmod(p, cyclotomic(d))
    return p


def quasi_unipotent(m) -> bool:
    """Whether every eigenvalue of m is a root of unity: the characteristic
    polynomial is a product of cyclotomic polynomials (Phi_k has degree
    phi(k) >= sqrt(k / 2), so k <= 2 n^2 covers every factor of degree <= n)."""
    p = charpoly(m)
    for k in range(1, 2 * len(m) ** 2 + 1):
        phi = cyclotomic(k)
        while len(p) >= len(phi):
            q, r = _pdivmod(p, phi)
            if any(r):
                break
            p = q
    return len(p) == 1


def jc(rng, n, lo=-4, hi=4, dens=(1, 2)):
    """A random invertible matrix.  Quasi-unipotent ones with det = -1 are
    drawn again: they hit a known defect (see jc_det_minus_one), and a
    round carries that defect in a slot of its own, so the failure count
    of a round never depends on the seed."""
    while True:
        m = random_invertible(rng, n, lo, hi, dens)
        if not (det(m) == -1 and quasi_unipotent(m)):
            break
    text = dumps({"schema": 1, "matrix": [[fs(x) for x in row] for row in m]})
    return Doc("jc", "jc", [], text, {"exit": 0, "verdict": "decomposed", "matrix": m})


def jc_det_minus_one(rng):
    """Known defect: a signed permutation matrix with det -1 is quasi-unipotent
    with det S = -1, and jc raises `ValueError: SL check requires det S = 1`
    from well_behaved_check instead of printing its decomposition."""
    n = rng.randint(1, 3)
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[Fraction(rng.choice((-1, 1)) if perm[i] == j else 0) for j in range(n)]
         for i in range(n)]
    if det(m) == 1:
        m[0] = [-x for x in m[0]]
    text = dumps({"schema": 1, "matrix": [[fs(x) for x in row] for row in m]})
    return Doc("jc-det-minus-one", "jc", [], text,
               {"exit": 0, "verdict": "decomposed", "matrix": m, "known_defect": True})


# -- split-filtrations ----------------------------------------------------------

def _span_rows(rng, vectors):
    """The span of `vectors`, presented by random invertible combinations."""
    k = len(vectors)
    mix = random_invertible(rng, k, -2, 2)
    return matmul(mix, vectors)


def split_planted(rng, dim, nfilt, oracle=True, max_steps=3):
    """Filtrations built from prefixes of one common basis: splittable.
    Filtration k has steps of sizes dim-1, dim-2, ... (at most max_steps) taken
    from the basis in a rotated order; the basis, the presentation of each
    step and the step indices come from the seed."""
    basis = random_invertible(rng, dim, -3, 3)
    nsteps = min(max_steps, dim - 1)
    filts, steps_expected = [], []
    for k in range(nfilt):
        order = [(i + k) % dim for i in range(dim)]
        indices = sorted(rng.sample(range(-2, 4), nsteps))
        steps, spans = [], []
        for j, size in zip(indices, range(dim - 1, dim - 1 - nsteps, -1)):
            vecs = [basis[i] for i in order[:size]]
            rows = _span_rows(rng, vecs)
            steps.append({"j": j, "basis": [[fs(x) for x in r] for r in rows]})
            spans.append(vecs)
        filts.append(steps)
        steps_expected.append(spans)
    text = dumps({"schema": 1, "dim": dim, "filtrations": filts})
    return Doc("split", "split-filtrations", ["--oracle"] if oracle else [], text,
               {"exit": 0, "verdict": "splittable", "dim": dim,
                "spans": steps_expected})


def split_lines(rng, dim):
    """dim+1 pairwise distinct lines in Q^dim: no basis has a vector on
    every line, so the tuple does not split."""
    lines = []
    while len(lines) < dim + 1:
        v = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if any(v) and all(rank([v, w]) == 2 for w in lines):
            lines.append(v)
    filts = [[{"j": rng.randint(0, 2), "basis": [[fs(x) for x in v]]}] for v in lines]
    text = dumps({"schema": 1, "dim": dim, "filtrations": filts})
    return Doc("split-lines", "split-filtrations", ["--oracle"], text,
               {"exit": 1, "verdict": "not-splittable", "nfilt": dim + 1})


# -- birkhoff -------------------------------------------------------------------

def birkhoff(rng, n, oracle, max_deg, ops=5, band=None, exps=None, exp_range=4):
    """T = P- . diag(z^e) . P+ with planted exponents e.  P-/P+ are products
    of `ops` random elementary matrices and e is drawn from
    [-exp_range, exp_range] (criterion 5), or, with `band`, banded
    unitriangular matrices around the fixed exponents `exps`, which makes T
    dense."""
    if band is None:
        exps = sorted((rng.randint(-exp_range, exp_range) for _ in range(n)), reverse=True)
        pm = elementary_product(rng, n, -1, max_deg, ops)
        pp = elementary_product(rng, n, +1, max_deg, ops)
    else:
        pm = banded_unitriangular(rng, n, -1, max_deg, band)
        pp = banded_unitriangular(rng, n, +1, max_deg, band)
    d = [[{exps[i]: Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]
    t = lmat_mul(lmat_mul(pm, d), pp)
    text = dumps({"schema": 1, "transition": [[laurent_json(x) for x in row] for row in t]})
    return Doc("birkhoff", "birkhoff", ["--oracle"] if oracle else [], text,
               {"exit": 0, "verdict": "factorized", "diag": list(exps),
                "splitting": sorted((-e for e in exps), reverse=True)})


def football(rng):
    """Diagonal transition with matching characters: the orbifold classes
    are the characters themselves."""
    p, q = rng.choice([(2, 3), (1, 2), (3, 4), (1, 1), (2, 5)])
    n = rng.randint(1, 3)
    chars = [rng.randint(-3, 3) for _ in range(n)]
    tau = [[[{"c": "1", "e": 0}] if i == j else [] for j in range(n)] for i in range(n)]
    text = dumps({"schema": 1, "p": p, "q": q, "isotropy0": chars,
                  "isotropyInf": chars, "transition": tau})
    return Doc("football", "football-split", [], text,
               {"exit": 0, "verdict": "split",
                "classes": [fs(c) for c in sorted(chars, reverse=True)]})


# -- extend / flat-check -----------------------------------------------------------

def extend(rng, divisor):
    from logflat import serialize as ser
    from logflat.extend import generate_connection_corpus
    data = generate_connection_corpus(divisor, 1, seed=rng.randrange(2 ** 31))[0]
    text = dumps(ser.connection_data_to_json(data))
    return Doc("extend", "extend", [], text,
               {"exit": 0, "verdict": "extends", "rank": data.rank})


# divisor name: (p, q, terms of f in (x, y)); w = weighted degree - p - q
CURVES = {"cross": (1, 1, {(1, 1): 1}), "cusp": (3, 2, {(2, 0): 1, (0, 3): -1})}


def flat(rng, divisor, flat_ok=True):
    """The global connection the extend corpus is glued from: Omega_E =
    diag(a1, a2), Omega_D = c x^i y^j E_12.  It is flat iff
    a1 - a2 = w - (p i + q j); flat_ok=False breaks that by one."""
    p, q, fterms = CURVES[divisor]
    f = {e: Fraction(c) for e, c in fterms.items()}
    w = p * next(iter(f))[0] + q * next(iter(f))[1] - p - q
    fy = {(a, b - 1): c * b for (a, b), c in f.items() if b}
    fx_neg = {(a - 1, b): -c * a for (a, b), c in f.items() if a}
    fields = [[poly_json({(1, 0): Fraction(p)}), poly_json({(0, 1): Fraction(q)})],
              [poly_json(fy), poly_json(fx_neg)]]
    i, j = rng.randint(0, 2), rng.randint(0, 2)
    a2 = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
    a1 = a2 + w - (p * i + q * j) + (0 if flat_ok else 1)
    c = Fraction(rng.choice([1, -1, 2]))
    zero = []
    omega_e = [[poly_json({(0, 0): a1}), zero], [zero, poly_json({(0, 0): a2})]]
    omega_d = [[zero, poly_json({(i, j): c})], [zero, zero]]
    text = dumps({"schema": 1, "vars": ["x", "y"], "divisor": poly_json(f),
                  "fields": fields, "omegas": [omega_e, omega_d]})
    return Doc("flat" if flat_ok else "not-flat", "flat-check", [], text,
               {"exit": 0 if flat_ok else 1, "verdict": "flat" if flat_ok else "not-flat"})


# -- saito-check --------------------------------------------------------------------

def _saito_doc(rng, kind, names, fields, factors, expect_free, note=""):
    """Fields scaled and permuted at random, divisor scaled; when free, the
    expected unit is det(fields)/f at a random point (det = unit * f)."""
    nvars = len(names)
    scales = [Fraction(rng.choice([-2, -1, 1, 2, 3])) for _ in fields]
    fields = [[pscale(c, s) for c in fld] for fld, s in zip(fields, scales)]
    order = rng.sample(range(len(fields)), len(fields))
    fields = [fields[i] for i in order]
    fscale = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
    f = pscale(pprod(factors, nvars), fscale)
    expect = {"exit": 0 if expect_free else 1,
              "verdict": "free" if expect_free else "not-free"}
    if expect_free:
        while True:
            pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(nvars)]
            fv = peval(f, pt)
            if fv != 0:
                break
        expect["unit"] = fs(det([[peval(c, pt) for c in fld] for fld in fields]) / fv)
    else:
        expect["reduced"] = note != "squared"
    text = dumps({"schema": 1, "vars": names, "divisor": poly_json(f),
                  "fields": [[poly_json(c) for c in fld] for fld in fields]})
    return Doc(kind, "saito-check", ["--oracle"] if expect_free else [], text, expect)


def _mutate(rng, factors, how):
    factors = list(factors)
    k = rng.randrange(len(factors))
    if how == "dropped":
        del factors[k]
    else:
        factors.append(factors[k])
    return factors


def hyperplanes(rng, n):
    names = [f"x{i + 1}" for i in range(n)]
    fields = [[pvar(n, i) if k == i else {} for k in range(n)] for i in range(n)]
    return _saito_doc(rng, "hyperplanes", names, fields,
                      [pvar(n, i) for i in range(n)], True)


def braid(rng, n, negative=None):
    """A_{n-1}: f = prod_{i<j} (x_i - x_j), basis sum_i x_i^k d_i, k < n."""
    names = [f"x{i + 1}" for i in range(n)]
    fields = [[pvar(n, i, k) for i in range(n)] for k in range(n)]
    factors = [padd(pvar(n, i), pvar(n, j, c=-1)) for i in range(n) for j in range(i + 1, n)]
    if negative:
        factors = _mutate(rng, factors, negative)
    return _saito_doc(rng, f"braid{n}" + (f"-{negative}" if negative else ""),
                      names, fields, factors, negative is None, negative or "")


def coxeter_b(rng, n, negative=None):
    """B_n: f = prod x_i prod_{i<j} (x_i^2 - x_j^2), basis sum_i x_i^(2k-1) d_i."""
    names = [f"x{i + 1}" for i in range(n)]
    fields = [[pvar(n, i, 2 * k - 1) for i in range(n)] for k in range(1, n + 1)]
    factors = [pvar(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            factors.append(padd(pvar(n, i, 2), pvar(n, j, 2, -1)))
    if negative:
        factors = _mutate(rng, factors, negative)
    return _saito_doc(rng, f"B{n}" + (f"-{negative}" if negative else ""),
                      names, fields, factors, negative is None, negative or "")


SEXTIC_VARS = ["u1", "u2", "v1", "v2", "w1", "w2"]


def _sextic_factors():
    v = {name: pvar(6, i) for i, name in enumerate(SEXTIC_VARS)}
    def minor(a, b):
        return padd(pmul(v[a + "1"], v[b + "2"]), pscale(pmul(v[a + "2"], v[b + "1"]), -1))
    return [minor("u", "v"), minor("v", "w"), minor("w", "u")]


def sextic(rng, negative=None):
    """The minor-product sextic with the (C*)^3 x SL(2) fields (criterion 1)."""
    v = {name: pvar(6, i) for i, name in enumerate(SEXTIC_VARS)}
    def fld(coeffs):
        return [coeffs.get(name, {}) for name in SEXTIC_VARS]
    fields = [fld({f"{r}1": v[f"{r}1"], f"{r}2": v[f"{r}2"]}) for r in "uvw"]
    fields.append(fld({f"{r}2": v[f"{r}1"] for r in "uvw"}))
    fields.append(fld({f"{r}1": v[f"{r}2"] for r in "uvw"}))
    fields.append(fld({f"{r}1": v[f"{r}1"] for r in "uvw"}
                      | {f"{r}2": pscale(v[f"{r}2"], -1) for r in "uvw"}))
    factors = _sextic_factors()
    if negative:
        factors = _mutate(rng, factors, negative)
    return _saito_doc(rng, "sextic" + (f"-{negative}" if negative else ""),
                      SEXTIC_VARS, fields, factors, negative is None, negative or "")


# -- castling and generators -------------------------------------------------------

def castle(rng):
    n = rng.randint(2, 6)
    r = rng.randint(1, n - 1)
    factors = [["Torus", rng.randint(1, 3)]] + ([["SL", r]] if r > 1 and rng.random() < 0.5 else [])
    side = rng.choice(["primal", "dual"])
    doc = {"schema": 1, "n": n, "r": r, "factors": factors, "side": side}
    if rng.random() < 0.5:
        steps = rng.randint(1, 3)
        dims, cur_n, cur_r = [n * r], n, r
        for _ in range(steps):
            dims.append(cur_n * (cur_n - cur_r))
            cur_n, cur_r = dims[-1], 1
        return Doc("castle-chain", "castle", ["--chain", str(steps)], dumps(doc),
                   {"exit": 0, "verdict": "castled", "dims": dims})
    return Doc("castle", "castle", [], dumps(doc),
               {"exit": 0, "verdict": "castled", "r": n - r,
                "side": "dual" if side == "primal" else "primal",
                "rescale": fs(Fraction(r, r - n))})


def gen_divisor(rng, n):
    """The product of the n maximal minors of a generic (n-1) x n matrix;
    checked by evaluation at a random point against the minors."""
    point = [Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 3))
             for _ in range(n * (n - 1))]
    return Doc(f"gen-divisor{n}", "gen-divisor", [], dumps({"schema": 1, "n": n}),
               {"exit": 0, "verdict": "generated", "n": n, "point": point})


SL2_FUNDAMENTAL = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]
# adjoint action on the basis (e12, e21, h1), in sl_basis(2) order
SL2_ADJOINT = [[[0, 0, -2], [0, 0, 0], [0, 1, 0]],
               [[0, 0, 0], [0, 0, 2], [-1, 0, 0]],
               [[2, 0, 0], [0, -2, 0], [0, 0, 0]]]


def gen_nonextendable(rng):
    """A conjugate of the sl(2) fundamental or adjoint action: e12 acts
    nontrivially, so the residual action is nonzero."""
    psi = rng.choice([SL2_FUNDAMENTAL, SL2_ADJOINT])
    k = len(psi[0])
    p = random_invertible(rng, k, -2, 2)
    pinv = matinv(p)
    images = [matmul(matmul(p, [[Fraction(x) for x in r] for r in m]), pinv) for m in psi]
    text = dumps({"schema": 1, "n": 3, "rank": k,
                  "psi": [[[fs(x) for x in r] for r in m] for m in images]})
    return Doc("gen-nonextendable", "gen-nonextendable", [], text,
               {"exit": 1, "verdict": "non-extendable", "generatorName": "e12",
                "generator": [[fs(x) for x in r] for r in images[0]], "rank": k})


# -- malformed inputs -----------------------------------------------------------------
# The first four are the known defects: the documented exit code is 2, but
# each raises an uncaught ValueError today.

def malformed(rng, which):
    hyper = hyperplanes(rng, 2)
    if which == "jc-singular":
        a = [rng.randint(1, 3), rng.randint(1, 3)]
        text = dumps({"schema": 1, "matrix": [[fs(a[0]), fs(a[1])], [fs(2 * a[0]), fs(2 * a[1])]]})
        return Doc(which, "jc", [], text, {"exit": 2, "known_defect": True})
    if which == "saito-negative-exponent":
        doc = json.loads(hyper.text)
        doc["divisor"][0]["e"][0] = -1
        return Doc(which, "saito-check", [], dumps(doc), {"exit": 2, "known_defect": True})
    if which == "saito-no-fields":
        doc = json.loads(hyper.text)
        doc["fields"] = []
        return Doc(which, "saito-check", [], dumps(doc), {"exit": 2, "known_defect": True})
    if which == "split-no-filtrations":
        text = dumps({"schema": 1, "dim": rng.randint(2, 4), "filtrations": []})
        return Doc(which, "split-filtrations", [], text, {"exit": 2, "known_defect": True})
    if which == "truncated-json":
        return Doc(which, "birkhoff", [], '{"schema": 1, "transition": [[', {"exit": 2})
    if which == "jc-not-square":
        return Doc(which, "jc", [], dumps({"schema": 1, "matrix": [["1", "2"]]}), {"exit": 2})
    if which == "saito-missing-key":
        doc = json.loads(hyper.text)
        del doc["divisor"]
        return Doc(which, "saito-check", [], dumps(doc), {"exit": 2})
    if which == "psi-zero":
        zero = [["0", "0"], ["0", "0"]]
        return Doc(which, "gen-nonextendable", [],
                   dumps({"schema": 1, "n": 3, "rank": 2, "psi": [zero, zero, zero]}),
                   {"exit": 2})
    raise KeyError(which)


KNOWN_DEFECTS = ("jc-singular", "saito-negative-exponent", "saito-no-fields",
                 "split-no-filtrations")
