"""Command-line interface: exit codes, certificate schema, JSON round trips,
malformed-input handling."""
import json
from fractions import Fraction

import pytest

from logflat import serialize as ser
from logflat.cli import main
from logflat.extend import generate_connection_corpus
from logflat.multipoly import MultiPoly
from logflat.saito import SaitoSystem, VectorField


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def xyz_system_doc():
    vs = ("x", "y", "z")
    f = MultiPoly.constant(vs, 1)
    fields = []
    for i, v in enumerate(vs):
        f = f * MultiPoly.var(vs, v)
        coeffs = [MultiPoly.zero(vs)] * 3
        coeffs[i] = MultiPoly.var(vs, v)
        fields.append(VectorField(tuple(coeffs)))
    return ser.saito_system_to_json(SaitoSystem(tuple(fields), f))


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


def test_malformed_input_exit_two(capsys):
    code, _, err = run(capsys, "saito-check", '{"schema": 1}', "--json")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "jc", '{"matrix": [["1", "0"]]}', "--json")
    assert code == 2
    code, _, _ = run(capsys, "birkhoff", "not json at all", "--json")
    assert code == 2


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
    # incompatible chart data is a negative verdict, not a crash
    doc_bad = json.loads(json.dumps(doc))
    doc_bad["omegaY"][0][0][0] = [{"c": "99", "e": [0, 0]}]
    code, out, _ = run(capsys, "extend", json.dumps(doc_bad), "--json")
    assert code == 1
    assert json.loads(out)["verdict"] == "not-extendable"


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
