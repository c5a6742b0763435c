"""Command-line interface: exit codes, certificate schema, JSON round trips,
malformed-input handling."""
import contextlib
import json
import random
import signal
from fractions import Fraction

import pytest

from logflat import birkhoff, cli, extend, jordan, laurent
from logflat import matrices as qm
from logflat import serialize as ser
from logflat.cli import main
from logflat.extend import frame_fields, generate_connection_corpus
from logflat.filtrations import AdaptedBasis
from logflat.multipoly import MultiPoly
from logflat.saito import SaitoSystem, VectorField


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@contextlib.contextmanager
def within(seconds):
    """Raise TimeoutError in the body once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"ran over its {seconds}-second budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def saito_system_to_json(system):
    return {"schema": 1, "vars": list(system.vars),
            "divisor": ser.poly_to_json(system.divisor),
            "fields": [[ser.poly_to_json(c) for c in fld.coefficients]
                       for fld in system.fields]}


def xyz_system_doc():
    vs = ("x", "y", "z")
    f = MultiPoly.constant(vs, 1)
    fields = []
    for i, v in enumerate(vs):
        f = f * MultiPoly.var(vs, v)
        coeffs = [MultiPoly.zero(vs)] * 3
        coeffs[i] = MultiPoly.var(vs, v)
        fields.append(VectorField(tuple(coeffs)))
    return saito_system_to_json(SaitoSystem(tuple(fields), f))


def test_saito_check_free_exit_zero(capsys, tmp_path):
    path = tmp_path / "xyz.json"
    path.write_text(json.dumps(xyz_system_doc()))
    code, out, _ = run(capsys, "saito-check", str(path), "--json", "--oracle")
    assert code == 0
    cert = json.loads(out)
    assert cert["schema"] == 1
    assert cert["verdict"] == "free"
    assert cert["witness"]["unit"] == "1"
    assert len(cert["inputDigest"]) == 64
    assert cert["toolVersion"]


def test_saito_check_negative_exit_one(capsys):
    doc = xyz_system_doc()
    doc["divisor"] = ser.poly_to_json(
        MultiPoly.var(("x", "y", "z"), "x") ** 2)
    code, out, _ = run(capsys, "saito-check", json.dumps(doc), "--json")
    assert code == 1
    assert json.loads(out)["verdict"] == "not-free"


def test_non_logarithmic_fields_not_free(capsys):
    # x d/dy and y d/dx on f = xy: det = -f, but x d/dy (xy) = x^2 is not in (f)
    doc = {"schema": 1, "vars": ["x", "y"], "divisor": [{"c": "1", "e": [1, 1]}],
           "fields": [[[], [{"c": "1", "e": [1, 0]}]], [[{"c": "1", "e": [0, 1]}], []]]}
    code, out, _ = run(capsys, "saito-check", json.dumps(doc), "--json", "--oracle")
    assert code == 1
    cert = json.loads(out)
    assert cert["verdict"] == "not-free"
    assert cert["witness"]["reduced"] is True and cert["witness"]["unit"] is None
    assert "field 0 is not logarithmic" in cert["witness"]["detail"]


def test_malformed_input_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "saito-check", '{"schema": 1}', "--json")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "jc", '{"matrix": [["1", "0"]]}', "--json")
    assert code == 2
    code, _, _ = run(capsys, "birkhoff", "not json at all", "--json")
    assert code == 2
    # an integer past Python's 4,300-digit conversion limit, invalid UTF-8
    unreadable = {"huge-int.json": b'{"schema": 1, "n": ' + b"9" * 5000 + b"}",
                  "not-utf8.json": b'{"schema": 1, "n": "\xff\xfe"}'}
    for name, data in unreadable.items():
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, "gen-divisor", str(path), "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read input")


@pytest.mark.parametrize("exponent", [1.5, True])
def test_non_integer_laurent_exponent_exit_two(capsys, exponent):
    doc = {"schema": 1, "transition": [[[{"c": "1", "e": exponent}]]]}
    code, out, err = run(capsys, "birkhoff", json.dumps(doc), "--json")
    assert (code, out) == (2, "")
    assert "bad exponent" in err


@pytest.mark.parametrize("coefficient", [0.1, True])
def test_non_rational_coefficient_exit_two(capsys, coefficient):
    doc = {"schema": 1, "transition": [[[{"c": coefficient, "e": 1}]]]}
    code, out, err = run(capsys, "birkhoff", json.dumps(doc), "--json")
    assert (code, out) == (2, "")
    assert "bad rational" in err


def test_non_integer_polynomial_exponent_exit_two(capsys):
    doc = xyz_system_doc()
    doc["vars"], doc["fields"] = ["x", "y"], [[[], []], [[], []]]
    doc["divisor"] = [{"c": "1", "e": [1.5, 0]}]
    code, out, err = run(capsys, "saito-check", json.dumps(doc), "--json")
    assert (code, out) == (2, "")
    assert "bad exponent" in err


FOOTBALL = {"schema": 1, "p": 2, "q": 3, "isotropy0": [1], "isotropyInf": [1],
            "transition": [[[{"c": "1", "e": 0}]]]}
CASTLE = {"schema": 1, "n": 3, "r": 1, "factors": [["Torus", 3]], "side": "primal"}
SAITO = {"schema": 1, "vars": ["x", "y"], "divisor": [{"c": "1", "e": [1, 1]}],
         "fields": [[[{"c": "1", "e": [1, 0]}], []], [[], [{"c": "1", "e": [0, 1]}]]]}
FLAT = dict(SAITO, omegas=[[[[]]], [[[]]]])
SPLIT = {"schema": 1, "dim": 2, "filtrations": [[{"j": 1, "basis": [["1", "0"]]}]]}
NONEXTENDABLE = {"schema": 1, "n": 3, "rank": 2, "psi": [
    [["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]], [["1", "0"], ["0", "-1"]]]}
EXTEND = ser.connection_data_to_json(generate_connection_corpus("cross", 1, seed=2)[0])


class Document(dict):
    """A whole replacement document, for the empty path; its name stands in
    for it in test ids."""

    def __init__(self, name, doc):
        super().__init__(doc)
        self.name = name

    def __repr__(self):
        return self.name


def _with(doc, path, value):
    if not path:
        return json.loads(json.dumps(value))
    doc = json.loads(json.dumps(doc))
    *inner, last = path
    target = doc
    for key in inner:
        target = target[key]
    target[last] = value
    return doc


def _eighteen_lines():
    """18 one-step filtrations of Q^2 through distinct lines: 2^18 cells."""
    return Document("18-lines-of-Q2", {"schema": 1, "dim": 2, "filtrations": [
        [{"j": 1, "basis": [["1", str(i)]]}] for i in range(18)]})


def _dim_60():
    """2 filtrations x 2 steps on a common seeded basis of Q^60."""
    rng = random.Random(60)
    basis = [[str(rng.randint(-9, 9)) for _ in range(60)] for _ in range(60)]
    steps = [[(1, basis[:40]), (2, basis[:20])], [(1, basis[20:]), (2, basis[40:])]]
    return Document("dim-60", {"schema": 1, "dim": 60, "filtrations": [
        [{"j": j, "basis": rows} for j, rows in f] for f in steps]})


NON_INTEGER_FIELDS = [
    ("gen-divisor", {"schema": 1, "n": 2}, ["n"], 2.7),
    ("gen-divisor", {"schema": 1, "n": 2}, ["n"], "x"),
    ("gen-divisor", {"schema": 1, "n": 2}, ["n"], True),
    ("football-split", FOOTBALL, ["p"], 2.9),
    ("football-split", FOOTBALL, ["q"], "3"),
    ("football-split", FOOTBALL, ["isotropy0"], 3),
    ("football-split", FOOTBALL, ["isotropyInf", 0], 1.0),
    ("gen-nonextendable", NONEXTENDABLE, ["n"], 3.0),
    ("gen-nonextendable", NONEXTENDABLE, ["rank"], "2"),
    ("split-filtrations", SPLIT, ["dim"], 2.5),
    ("split-filtrations", SPLIT, ["filtrations", 0, 0, "j"], 1.5),
    ("castle", CASTLE, ["n"], 3.9),
    ("castle", CASTLE, ["r"], "1"),
    ("extend", EXTEND, ["p"], 1.5),
    ("extend", EXTEND, ["q"], "1"),
]
# array fields given as something else, and split-filtrations dimensions
MALFORMED_FIELDS = [
    ("saito-check", SAITO, ["vars"], "xy"),
    ("saito-check", SAITO, ["fields"], 3),
    ("saito-check", SAITO, ["fields", 0], 4),
    # repeated or missing variable names, and a zero divisor
    ("saito-check", SAITO, ["vars"], ["x", "x"]),
    ("saito-check", SAITO, ["vars"], []),
    ("saito-check", SAITO, ["divisor"], []),
    ("flat-check", FLAT, ["vars"], ["x", "x"]),
    ("flat-check", FLAT, ["omegas"], 3),
    ("split-filtrations", SPLIT, ["filtrations"], 5),
    ("split-filtrations", SPLIT, ["filtrations"], [5]),
    ("split-filtrations", dict(SPLIT, filtrations=[[]]), ["dim"], -1),
    ("split-filtrations", SPLIT, ["filtrations", 0, 0, "basis"], [["1", "0", "0"]]),
    ("split-filtrations", SPLIT, ["filtrations", 0, 0, "basis"], 0),
    ("castle", CASTLE, ["factors"], 5),
    ("castle", CASTLE, ["factors", 0], ["Torus", "x"]),
    ("castle", CASTLE, ["factors", 0], ["Torus", 0]),
    ("castle", CASTLE, ["factors", 0], ["Torus", 1, 2]),
    ("castle", CASTLE, ["factors", 0], ["SL", 2.5]),
    ("castle", CASTLE, ["factors", 0], ["SL", 1]),
    ("castle", CASTLE, ["factors", 0], ["Abstract", 3, 2]),
    ("castle", CASTLE, ["factors", 0], ["Abstract", "G", 0]),
    ("castle", CASTLE, ["factors", 0], ["Abstract", "G"]),
    ("gen-nonextendable", NONEXTENDABLE, ["psi"], 7),
    ("extend", EXTEND, ["omegaX"], 3),
    ("extend", EXTEND, ["omegaY"], 3),
    # chart data that present no flat connection on x y = 0
    ("extend", EXTEND, ["p"], 0),
    ("extend", EXTEND, ["divisor"], [{"c": "1", "e": [2, 0]}, {"c": "1", "e": [0, 1]}]),
    ("extend", EXTEND, ["omegaX", 0, 0, 0], [{"c": "1", "e": [1, 0]}]),
    # a constant divisor is no curve: its Hamiltonian field vanishes
    ("extend", EXTEND, ["divisor"], [{"c": "1", "e": [0, 0]}]),
    # one chart matrix per frame field (E, delta), each rank x rank (rank 1 here)
    ("extend", EXTEND, ["omegaX"], EXTEND["omegaX"][:1]),
    ("extend", EXTEND, ["omegaX"], EXTEND["omegaX"] + EXTEND["omegaX"][:1]),
    ("extend", EXTEND, ["omegaX"], [[[[]] * 3] * 3] * 2),
    ("extend", EXTEND, ["omegaY"], []),
    # one Omega per field, all of one size
    ("flat-check", FLAT, ["omegas"], [[[[]]]]),
    ("flat-check", FLAT, ["omegas"], [[[[]]], [[[], []], [[], []]]]),
    # past the degree and deconvolution budgets: refused before any work
    ("saito-check", SAITO, ["divisor"], [{"c": "1", "e": [10 ** 6, 1]}]),
    ("flat-check", FLAT, ["divisor"], [{"c": "1", "e": [10 ** 6, 1]}]),
    ("football-split", FOOTBALL, ["q"], 10 ** 6),
    # past the split-filtrations cell and dimension budgets
    ("split-filtrations", SPLIT, [], _eighteen_lines()),
    ("split-filtrations", SPLIT, [], _dim_60()),
    # terms that cancel to the zero divisor
    ("saito-check", SAITO, ["divisor"], [{"c": "1", "e": [1, 1]}, {"c": "-2/2", "e": [1, 1]}]),
]
BAD_FIELDS = NON_INTEGER_FIELDS + MALFORMED_FIELDS


@pytest.mark.parametrize("cmd, doc, path, value", BAD_FIELDS, ids=[
    f"{cmd}-{next((k for k in reversed(path) if isinstance(k, str)), 'document')}-{value!r}"
    for cmd, _, path, value in BAD_FIELDS])
def test_non_integer_fields_exit_two(capsys, cmd, doc, path, value):
    code, _, _ = run(capsys, cmd, json.dumps(doc), "--json")
    assert code in (0, 1)
    with within(1.0):
        code, out, err = run(capsys, cmd, json.dumps(_with(doc, path, value)), "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


X_ONLY = [{"c": "1", "e": [1, 0]}]     # f = x


@pytest.mark.parametrize("edits, message", [
    ([(["divisor"], [])], "divisor must be a nonzero polynomial"),
    ([(["divisor"], [{"c": "1", "e": [3, 0]}])], "divisor equation is not reduced"),
    ([(["fields", 0, 0], [{"c": "1", "e": [0, 0]}])],
     "field 0 is not logarithmic: f does not divide delta_0(f)"),
    # x d/dx and 2x d/dx: their bracket vanishes, but they are dependent
    ([(["divisor"], X_ONLY), (["fields", 1], [[{"c": "2", "e": [1, 0]}], []])],
     "the fields are dependent: the saito determinant vanishes"),
    # x d/dx and (y^3 + x) d/dy: the bracket x d/dy is not in their span
    ([(["divisor"], X_ONLY),
      (["fields", 1], [[], [{"c": "1", "e": [0, 3]}, {"c": "1", "e": [1, 0]}]])],
     "bracket [delta_0, delta_1] is not in the span of the fields"),
], ids=["zero", "cube", "not-logarithmic", "dependent-fields", "bracket-leaves-span"])
def test_flat_check_reads_the_divisor(capsys, edits, message):
    """flat-check certifies a connection against a free divisor, so a zero or
    non-reduced equation, a field that is not logarithmic for it, or fields
    that are dependent or do not close under the bracket, are malformed
    input: the flat Omega = 0 does not make the document valid."""
    code, out, _ = run(capsys, "flat-check", json.dumps(FLAT), "--json")
    assert (code, json.loads(out)["verdict"]) == (0, "flat")
    doc = FLAT
    for path, value in edits:
        doc = _with(doc, path, value)
    code, out, err = run(capsys, "flat-check", json.dumps(doc), "--json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("cmd", ["saito-check", "flat-check"])
def test_document_without_variables_exit_two(capsys, cmd):
    doc = {"schema": 1, "vars": [], "divisor": [{"c": "1", "e": []}], "fields": [],
           "omegas": []}
    code, out, err = run(capsys, cmd, json.dumps(doc), "--json")
    assert (code, out) == (2, "")
    assert err == "error: vars must be a nonempty list of distinct names\n"


def test_jc_emits_decomposition_with_weights(capsys):
    code, out, _ = run(capsys, "jc",
                       '{"schema":1,"matrix":[["0","-1"],["1","0"]]}', "--json")
    assert code == 0
    w = json.loads(out)["witness"]
    assert w["S"] == [["0", "-1"], ["1", "0"]]
    assert w["U"] == [["1", "0"], ["0", "1"]]
    assert {e["weight"] for e in w["weights"]} == {"1/4", "3/4"}
    assert w["wellBehaved"] is True


def test_split_filtrations_exit_codes(capsys):
    three_lines = {"schema": 1, "dim": 2, "filtrations": [
        [{"j": 1, "basis": [["1", "0"]]}],
        [{"j": 1, "basis": [["0", "1"]]}],
        [{"j": 1, "basis": [["1", "1"]]}]]}
    code, out, _ = run(capsys, "split-filtrations", json.dumps(three_lines),
                       "--json")
    assert code == 1
    cert = json.loads(out)
    assert cert["verdict"] == "not-splittable"
    assert len(cert["witness"]["multiIndex"]) == 3
    del three_lines["filtrations"][2]
    code, out, _ = run(capsys, "split-filtrations", json.dumps(three_lines),
                       "--json", "--oracle")
    assert code == 0
    assert json.loads(out)["verdict"] == "splittable"


def test_split_filtrations_of_4096_cells_within_a_second(capsys):
    """Twelve one-step filtrations of Q^2 through distinct lines have 2^12
    cells, in a 462-byte document; the counting bound refuses them."""
    doc = json.dumps({"schema": 1, "dim": 2, "filtrations": [
        [{"j": 1, "basis": [["1", str(i)]]}] for i in range(12)]})
    assert len(doc) == 462
    with within(1.0):
        code, out, _ = run(capsys, "split-filtrations", doc, "--json")
    witness = json.loads(out)["witness"]
    assert (code, json.loads(out)["verdict"]) == (1, "not-splittable")
    assert witness["multiIndex"] == [0] * 12
    assert len(witness["dimensionTable"]) == 4096


@pytest.mark.parametrize("doc, message", [
    (_eighteen_lines(), "the first 15 filtrations have more than 16384 multi-graded "
                        "cells, the cell budget"),
    (_dim_60(), "dim 60 exceeds the dimension budget 32"),
], ids=["18-lines-of-Q2", "dim-60"])
def test_split_filtrations_budgets(capsys, doc, message):
    with within(1.0):
        code, out, err = run(capsys, "split-filtrations", json.dumps(doc), "--json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


# -- the integer polynomial reader against frac_from_json ----------------------------

COEFFICIENTS = [
    3, "3", "-6/8", "+3", " 3/4 ", "3 / 4", "007/014", "1.5", "1e3", "1_0", "1__0",
    "\u0663", "\u0663/\u0664", "\u00b2", "3/\u00b2", "3/-4", "3/+4", "-3/ 4", "- 3",
    "1/2/3", "0x10", "nan", "inf", "3/0", "0/5", "-0/0", "", "/3", "3/", " ",
    10 ** 30, "1" * 40 + "/" + "7" * 30, 1.5, 0.0, True, False, None, [1], {"c": 1},
]


def fraction_reader(variables, data, laurent=False):
    """The reader as it was: a Fraction per coefficient through
    frac_from_json, summed into a Fraction dict for the MultiPoly
    constructor."""
    terms = {}
    for t in data:
        e = tuple(t["e"]) if isinstance(t["e"], list) else (t["e"],)
        terms[e] = terms.get(e, Fraction(0)) + ser.frac_from_json(t["c"])
    return MultiPoly(tuple(variables), terms, laurent)


def read(reader, *args):
    """The value a reader builds, or the exception type it raises."""
    try:
        return reader(*args)
    except ValueError as exc:           # FormatError included
        return type(exc)


def test_integer_reader_accepts_and_refuses_what_frac_from_json_does():
    """For each coefficient, alone, beside a term of the same exponent and
    beside one that cancels it, poly_from_json and laurent_from_json accept
    exactly the inputs the Fraction reader accepts, with equal values, and
    refuse the others with FormatError."""
    xy = ("x", "y")
    for c in COEFFICIENTS:
        for extra in ([], [{"c": "1/3", "e": [1, 0]}], [{"c": "-5/2", "e": [0, 2]}],
                      [{"c": "-3", "e": [1, 0]}]):
            data = [{"c": c, "e": [1, 0]}, {"c": "5/2", "e": [0, 2]}, *extra]
            want = read(fraction_reader, xy, data)
            got = read(ser.poly_from_json, xy, data)
            assert got == want and type(got) is type(want), (c, extra)
            scalar = [{"c": t["c"], "e": t["e"][0] - t["e"][1]} for t in data]
            want = read(fraction_reader, ("z",), scalar, True)
            got = read(ser.laurent_from_json, scalar)
            assert got == want and type(got) is type(want), (c, extra)


def test_integer_reader_sums_and_cancels_repeated_exponents():
    x, y = MultiPoly.var(("x", "y"), "x"), MultiPoly.var(("x", "y"), "y")
    data = [{"c": "1/2", "e": [1, 0]}, {"c": 3, "e": [0, 1]}, {"c": "1/3", "e": [1, 0]},
            {"c": "-6/2", "e": [0, 1]}, {"c": "1/6", "e": [1, 0]}]
    p = ser.poly_from_json(("x", "y"), data)
    assert p == x and p.terms == {(1, 0): 1}
    assert not ser.poly_from_json(("x", "y"), data[1:4:2])
    assert ser.poly_from_json(("x", "y"), data[:3]) == x * Fraction(5, 6) + 3 * y


def test_negative_exponent_still_escapes_as_value_error():
    """A negative exponent in a polynomial is still the uncaught ValueError of
    the saito-negative-exponent known defect, not a FormatError (exit 2)."""
    with pytest.raises(ValueError, match="negative exponent in MultiPoly") as exc:
        ser.poly_from_json(("x", "y"), [{"c": "1", "e": [-1, 0]}])
    assert type(exc.value) is ValueError
    with pytest.raises(ValueError, match="negative exponent in MultiPoly"):
        main(["saito-check", json.dumps(_with(SAITO, ["divisor", 0, "e"], [-1, 1])), "--json"])


def test_writer_prints_lowest_terms_from_the_integer_map():
    """poly_to_json and laurent_to_json write what frac_to_json writes for each
    Fraction coefficient, in ascending exponent order."""
    rng = random.Random(17)
    for _ in range(40):
        terms = {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-40, 40),
                                                                  rng.choice((1, 1, 2, 6, 35)))
                 for _ in range(rng.randint(0, 6))}
        p = MultiPoly(("x", "y"), terms)
        assert ser.poly_to_json(p) == [{"c": ser.frac_to_json(c), "e": list(e)}
                                       for e, c in sorted(p.terms.items())]
        q = MultiPoly(("z",), {(a - b,): c for (a, b), c in terms.items()}, laurent=True)
        assert ser.laurent_to_json(q) == [{"c": ser.frac_to_json(c), "e": e}
                                          for (e,), c in sorted(q.terms.items())]


def test_jc_computes_one_characteristic_polynomial(capsys, monkeypatch):
    charpoly, weights = qm.charpoly, jordan.quasi_unipotent_weights
    chi_calls, weight_calls = [], []

    def counting_charpoly(a, var="t"):
        chi_calls.append(len(a))
        return charpoly(a, var)

    def counting_weights(s):
        weight_calls.append(len(s))
        return weights(s)

    for module in (qm, jordan):
        monkeypatch.setattr(module, "charpoly", counting_charpoly)
    for module in (jordan, cli):
        monkeypatch.setattr(module, "quasi_unipotent_weights", counting_weights,
                            raising=False)
    doc = {"schema": 1, "matrix": [["-1", "1", "0"], ["0", "-1", "0"], ["0", "0", "1"]]}
    code, out, _ = run(capsys, "jc", json.dumps(doc), "--json")
    assert code == 0
    assert [e["weight"] for e in json.loads(out)["witness"]["weights"]] == ["0", "1/2"]
    assert (chi_calls, weight_calls) == ([3], [])


def test_split_filtrations_oracle_verifies_once(capsys, monkeypatch):
    verify, calls = AdaptedBasis.verify, []

    def counting(self, filtrations):
        calls.append(len(self.vectors))
        return verify(self, filtrations)

    monkeypatch.setattr(AdaptedBasis, "verify", counting)
    two_lines = {"schema": 1, "dim": 2, "filtrations": [
        [{"j": 1, "basis": [["1", "0"]]}], [{"j": 1, "basis": [["0", "1"]]}]]}
    code, out, _ = run(capsys, "split-filtrations", json.dumps(two_lines),
                       "--json", "--oracle")
    assert (code, json.loads(out)["verdict"]) == (0, "splittable")
    assert calls == [2]


def test_birkhoff_splitting_type(capsys):
    doc = {"schema": 1, "transition": [
        [[{"c": "1", "e": 0}], [{"c": "1", "e": -1}]],
        [[], [{"c": "1", "e": -2}]]]}
    code, out, _ = run(capsys, "birkhoff", json.dumps(doc), "--json", "--oracle")
    assert code == 0
    w = json.loads(out)["witness"]
    assert w["splittingType"] == [1, 1]
    assert sum(w["diagExponents"]) == -2


def test_football_split(capsys):
    doc = {"schema": 1, "p": 2, "q": 3, "isotropy0": [1], "isotropyInf": [1],
           "transition": [[[{"c": "1", "e": 0}]]]}
    code, out, _ = run(capsys, "football-split", json.dumps(doc), "--json")
    assert code == 0
    assert json.loads(out)["witness"]["classes"] == ["1"]


def test_extend_roundtrip(capsys):
    data = generate_connection_corpus("cross", 1, seed=2)[0]
    doc = ser.connection_data_to_json(data)
    code, out, _ = run(capsys, "extend", json.dumps(doc), "--json")
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "extends"
    assert "twistExponents" in cert["witness"]
    # incompatible charts present no connection: malformed input, not a verdict
    doc_bad = json.loads(json.dumps(doc))
    doc_bad["omegaY"][0][0][0] = [{"c": "99", "e": [0, 0]}]
    code, out, err = run(capsys, "extend", json.dumps(doc_bad), "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: charts are incompatible")


def test_extend_and_flat_check_solve_nothing(capsys, monkeypatch):
    """Gauges are checked by multiplication and structure constants come
    from Cramer's rule: a rank-2 extend document inverts at most two Laurent
    matrices, solves no linear system and tests flatness once, on the glued
    connection, and flat-check on that connection solves nothing either."""
    data = generate_connection_corpus("cusp", 1, seed=0)[0]
    assert data.rank == 2
    calls = {"solve": 0, "lmat_inverse": 0, "flatness_check": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(qm, "solve", counting("solve", qm.solve))
    inverse = counting("lmat_inverse", laurent.lmat_inverse)
    for module in (laurent, extend, birkhoff):
        monkeypatch.setattr(module, "lmat_inverse", inverse)
    monkeypatch.setattr(extend, "flatness_check",
                        counting("flatness_check", extend.flatness_check))
    code, out, _ = run(capsys, "extend", json.dumps(ser.connection_data_to_json(data)),
                       "--json")
    assert code == 0
    assert calls["solve"] == 0 and 1 <= calls["lmat_inverse"] <= 2
    assert calls["flatness_check"] == 1
    system = SaitoSystem(frame_fields(data.divisor, data.p, data.q), data.divisor)
    doc = dict(saito_system_to_json(system), omegas=json.loads(out)["witness"]["omegas"])
    calls["solve"] = 0
    code, out, _ = run(capsys, "flat-check", json.dumps(doc), "--json")
    assert (code, json.loads(out)["verdict"]) == (0, "flat")
    assert calls["solve"] == 0


def constant_extend_doc(omega_e):
    """f = x y with weights (1, 1), the constant Omega_E on both charts,
    Omega_delta = 0 and the identity transition: already a global flat
    connection, since w = 0 and delta kills constants."""
    m = len(omega_e)

    def const(c):
        return [{"c": str(c), "e": [0, 0]}] if c else []
    chart = [[[const(c) for c in row] for row in omega_e],
             [[[] for _ in range(m)] for _ in range(m)]]
    return {"schema": 1, "p": 1, "q": 1, "divisor": [{"c": "1", "e": [1, 1]}],
            "omegaX": chart, "omegaY": chart,
            "transition": [[[{"c": "1", "e": 0}] if i == j else [] for j in range(m)]
                           for i in range(m)]}


@pytest.mark.parametrize("omega_e", [[[0, 1], [2, 0]], [[10 ** 14 + 31]], [[10 ** 18 + 9]]],
                         ids=["eigenvalues-sqrt2", "entry-1e14", "entry-1e18"])
def test_global_connection_extends(capsys, omega_e):
    """Whatever the residue's eigenvalues or the size of its entries, data
    that already are a global connection extend, within a second."""
    with within(1.0):
        code, out, _ = run(capsys, "extend", json.dumps(constant_extend_doc(omega_e)),
                           "--json")
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "extends"
    assert cert["witness"]["twistExponents"] == [0] * len(omega_e)


def test_nonflat_chart_data_exit_two(capsys):
    """Compatible chart data that are not flat: on f = x y, the constant
    Omega_E = e12 and Omega_delta = e21 on both charts, identity transition.
    They glue, and the one flatness check, on the glued connection, refuses
    them as malformed input."""
    doc = constant_extend_doc([[0, 1], [0, 0]])
    e21 = [[[], []], [[{"c": "1", "e": [0, 0]}], []]]
    doc = _with(_with(doc, ["omegaX", 1], e21), ["omegaY", 1], e21)
    code, out, err = run(capsys, "extend", json.dumps(doc), "--json")
    assert (code, out, err) == (2, "", "error: the chart connections are not flat\n")


def test_castle_chain_and_transform(capsys):
    doc = {"schema": 1, "n": 3, "r": 1, "factors": [["Torus", 3]],
           "side": "primal"}
    code, out, _ = run(capsys, "castle", json.dumps(doc), "--chain", "2",
                       "--json")
    assert code == 0
    assert json.loads(out)["witness"]["dims"] == [3, 6, 30]
    code, out, _ = run(capsys, "castle", json.dumps(doc), "--json")
    assert code == 0
    w = json.loads(out)["witness"]
    assert "dims" not in w       # no parsed --chain leaks into the next call
    assert w["transformed"]["r"] == 2
    assert w["weightRescale"] == "-1/2"


@pytest.mark.parametrize("n, chain, code", [
    (3, "-2", 2), (3, "16", 2), (3, "13", 2), (3, str(10 ** 20), 2),
    (2, "13", 2), (3, "0", 0), (3, "12", 0), (2, "12", 0), (6, "3", 0)])
def test_castle_chain_budget(capsys, n, chain, code):
    """--chain N runs only when 2^N * bits(n) fits in the 8192-bit budget,
    and every dimension it prints then stays under Python's 4,300-digit
    int-to-str limit."""
    doc = dict(CASTLE, n=n)
    got, out, err = run(capsys, "castle", json.dumps(doc), "--chain", chain, "--json")
    assert got == code
    if code == 2:
        assert out == "" and err.startswith("error: --chain")
    else:
        dims = json.loads(out)["witness"]["dims"]
        assert len(dims) == int(chain) + 1
        assert dims[-1].bit_length() <= cli.CHAIN_BUDGET_BITS


def test_usage_error_exits_two_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(["no-such-command", "{}"])
        assert stop.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_gen_divisor(capsys):
    code, out, _ = run(capsys, "gen-divisor", '{"schema":1,"n":3}', "--json")
    assert code == 0
    w = json.loads(out)["witness"]
    assert len(w["vars"]) == 6
    assert len(w["divisor"]) == 6  # the sextic has six monomials
    # emitted polynomial re-parses
    p = ser.poly_from_json(tuple(w["vars"]), w["divisor"])
    assert ser.poly_to_json(p) == w["divisor"]


def test_gen_nonextendable_negative_verdict(capsys):
    psi = [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]],
           [["1", "0"], ["0", "-1"]]]
    doc = {"schema": 1, "n": 3, "rank": 2, "psi": psi}
    code, out, _ = run(capsys, "gen-nonextendable", json.dumps(doc), "--json")
    assert code == 1
    cert = json.loads(out)
    assert cert["verdict"] == "non-extendable"
    assert cert["witness"]["offendingGenerator"] == "e12"
    # vanishing psi violates the precondition
    zero = [[["0", "0"], ["0", "0"]]] * 3
    doc["psi"] = zero
    code, _, err = run(capsys, "gen-nonextendable", json.dumps(doc), "--json")
    assert code == 2


def test_exit_code_independent_of_json_flag(capsys):
    doc = xyz_system_doc()
    code_json, _, _ = run(capsys, "saito-check", json.dumps(doc), "--json")
    code_plain, _, _ = run(capsys, "saito-check", json.dumps(doc))
    assert code_json == code_plain == 0


def test_certificates_reparse_canonically(capsys):
    doc = {"schema": 1, "n": 3, "r": 1, "factors": [["Torus", 3]],
           "side": "primal"}
    code, out, _ = run(capsys, "castle", json.dumps(doc), "--json")
    cert = json.loads(out)
    assert ser.canonical_dumps(cert) == out.strip()
