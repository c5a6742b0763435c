"""Command-line front end.

Reads the shared JSON formats, dispatches to the library modules, and emits
a certificate: {"schema": 1, "verdict": ..., "witness": ..., "inputDigest":
sha256-of-canonical-input, "toolVersion": ...}.  Exit status 0 for
affirmative verdicts (free / flat / splittable / extends / factorized),
1 for negative verdicts (the certificate is still printed), 2 for malformed
input.  With --json the certificate is printed as strict JSON; otherwise a
short report precedes it.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import serialize as ser
from .birkhoff import (EquivariantTransition, birkhoff_factorize,
                       football_split, splitting_type,
                       splitting_type_rank_oracle)
from .castling import (castling_chain, castling_transform, gen_nonextendable,
                       minor_product_divisor, minor_product_variables,
                       morita_rescale)
from .extend import extend_connection
from .filtrations import NotSplittable, toric_extendability
from .jordan import (NotQuasiUnipotent, jordan_chevalley,
                     quasi_unipotent_weights, well_behaved_check)
from .matrices import det_bareiss, det_cofactor
from .saito import flatness_check, saito_check
from .serialize import FormatError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MALFORMED = 2


def _load(source: str):
    """Parse the input document from a path, inline JSON, or '-' (stdin)."""
    try:
        if source == "-":
            text = sys.stdin.read()
        elif source.lstrip().startswith("{"):
            text = source
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read input: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("top-level document must be a JSON object")
    return doc


def _emit(args, cert: dict, report: str) -> None:
    if args.json:
        print(ser.canonical_dumps(cert))
    else:
        print(report)
        print(ser.canonical_dumps(cert))


# -- subcommand handlers ------------------------------------------------------

def _cmd_saito_check(args):
    doc = _load(args.input)
    system = ser.saito_system_from_json(doc)
    verdict = saito_check(system)
    if args.oracle and verdict.free:
        m = system.saito_matrix()
        if det_cofactor(m) != det_bareiss(m):
            raise AssertionError("determinant oracle disagreement")
    witness = {"free": verdict.free, "reduced": verdict.reduced,
               "unit": ser.frac_to_json(verdict.unit) if verdict.unit is not None else None,
               "detail": verdict.witness}
    cert = ser.certificate("free" if verdict.free else "not-free", witness, doc)
    _emit(args, cert, f"free divisor: {verdict.free} (unit {witness['unit']})")
    return EXIT_OK if verdict.free else EXIT_NEGATIVE


def _cmd_flat_check(args):
    doc = _load(args.input)
    conn = ser.log_connection_from_json(doc)
    result = flatness_check(conn)
    witness = {"flat": result.flat,
               "offendingPair": list(result.witness) if result.witness else None}
    cert = ser.certificate("flat" if result.flat else "not-flat", witness, doc)
    _emit(args, cert, f"flat: {result.flat}")
    return EXIT_OK if result.flat else EXIT_NEGATIVE


def _cmd_jc(args):
    doc = _load(args.input)
    ser._require(doc, "matrix")
    m = ser.qmat_from_json(doc["matrix"])
    if any(len(r) != len(m) for r in m):
        raise FormatError("matrix must be square")
    pair = jordan_chevalley(m)
    witness = {"S": ser.qmat_to_json(pair.S), "U": ser.qmat_to_json(pair.U)}
    data = quasi_unipotent_weights(pair.S)
    if not isinstance(data, NotQuasiUnipotent):
        witness["weights"] = [
            {"order": e.order, "exponent": e.exponent,
             "multiplicity": e.multiplicity, "weight": ser.frac_to_json(e.weight)}
            for e in data.entries]
        witness["wellBehaved"] = well_behaved_check(pair.S, "SL")
    cert = ser.certificate("decomposed", witness, doc)
    _emit(args, cert, f"semisimple/unipotent decomposition of a {len(m)}x{len(m)} matrix")
    return EXIT_OK


def _cmd_split_filtrations(args):
    doc = _load(args.input)
    filtrations = ser.filtrations_from_json(doc)
    verdict = toric_extendability(filtrations)
    if verdict.extends:
        basis = verdict.witness
        if args.oracle and not basis.verify(filtrations):
            raise AssertionError("adapted basis failed independent re-verification")
        witness = {"adaptedBasis": ser.qmat_to_json(basis.vectors),
                   "depths": [list(d) for d in basis.depths]}
        cert = ser.certificate("splittable", witness, doc)
        _emit(args, cert, "simultaneously splittable; adapted basis found")
        return EXIT_OK
    ns = verdict.witness
    witness = {"multiIndex": list(ns.multi_index), "detail": ns.detail,
               "dimensionTable": [list(r) for r in ns.dimension_table]}
    cert = ser.certificate("not-splittable", witness, doc)
    _emit(args, cert, f"not splittable at multi-index {ns.multi_index}")
    return EXIT_NEGATIVE


def _cmd_birkhoff(args):
    doc = _load(args.input)
    t = ser.transition_from_json(doc)
    factors = birkhoff_factorize(t)
    st = splitting_type(t)
    if args.oracle and splitting_type_rank_oracle(t) != st:
        raise AssertionError("splitting type disagrees with the rank oracle")
    witness = {"diagExponents": list(factors.diag),
               "splittingType": list(st.classes),
               "pminus": ser.lmat_to_json(factors.pminus),
               "pplus": ser.lmat_to_json(factors.pplus)}
    cert = ser.certificate("factorized", witness, doc)
    _emit(args, cert, f"splitting type {list(st.classes)}")
    return EXIT_OK


def _cmd_football_split(args):
    doc = _load(args.input)
    ser._require(doc, "p", "q", "isotropy0", "isotropyInf", "transition")
    try:
        et = EquivariantTransition(int(doc["p"]), int(doc["q"]),
                                   [int(v) for v in doc["isotropy0"]],
                                   [int(v) for v in doc["isotropyInf"]],
                                   ser.lmat_from_json(doc["transition"]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    classes = football_split(et)
    witness = {"classes": [ser.frac_to_json(c) for c in classes]}
    cert = ser.certificate("split", witness, doc)
    _emit(args, cert, f"orbifold splitting classes {[str(c) for c in classes]}")
    return EXIT_OK


def _cmd_extend(args):
    doc = _load(args.input)
    data = ser.connection_data_from_json(doc)
    try:
        ext = extend_connection(data)
    except ValueError as exc:
        cert = ser.certificate("not-extendable", {"reason": str(exc)}, doc)
        _emit(args, cert, f"does not extend: {exc}")
        return EXIT_NEGATIVE
    conn = ext.connection
    witness = {"twistExponents": list(ext.twist_exponents),
               "gaugeX": [ser.poly_to_json(e) for row in ext.gauge_x for e in row],
               "gaugeY": [ser.poly_to_json(e) for row in ext.gauge_y for e in row],
               "omegas": [ser.pmat_to_json(om) for om in conn.omegas]}
    cert = ser.certificate("extends", witness, doc)
    _emit(args, cert, f"extends; twist exponents {list(ext.twist_exponents)}")
    return EXIT_OK


def _cmd_castle(args):
    doc = _load(args.input)
    d = ser.descriptor_from_json(doc)
    if args.chain is not None:
        dims = castling_chain(d, args.chain)
        witness = {"dims": dims}
        report = f"ambient dimension chain {dims}"
    else:
        out = castling_transform(d)
        rescale = ser.frac_to_json(morita_rescale(d.r, d.n, 1))
        witness = {"transformed": ser.descriptor_to_json(out),
                   "weightRescale": rescale}
        report = (f"castling partner: r = {out.r}, side = {out.side}, "
                  f"weight rescale {rescale}")
    cert = ser.certificate("castled", witness, doc)
    _emit(args, cert, report)
    return EXIT_OK


def _cmd_gen_divisor(args):
    doc = _load(args.input)
    ser._require(doc, "n")
    n = int(doc["n"])
    if n < 2:
        raise FormatError("need n >= 2")
    f = minor_product_divisor(n)
    witness = {"vars": list(minor_product_variables(n)),
               "divisor": ser.poly_to_json(f)}
    cert = ser.certificate("generated", witness, doc)
    _emit(args, cert, f"minor-product divisor in {len(witness['vars'])} variables, "
                      f"{len(f.terms)} terms")
    return EXIT_OK


def _cmd_gen_nonextendable(args):
    doc = _load(args.input)
    ser._require(doc, "n", "rank", "psi")
    psi = [ser.qmat_from_json(m) for m in doc["psi"]]
    try:
        rep, nx = gen_nonextendable(psi, int(doc["n"]), int(doc["rank"]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    witness = {"offendingGenerator": nx.generator_name,
               "generator": ser.qmat_to_json(nx.generator),
               "slSize": rep.sl_size, "rank": rep.rank}
    cert = ser.certificate("non-extendable", witness, doc)
    _emit(args, cert,
          f"residual sl({rep.sl_size}) action is nonzero "
          f"(generator {nx.generator_name}); the connection does not extend")
    return EXIT_NEGATIVE


# -- argument parsing ---------------------------------------------------------

_HANDLERS = {
    "saito-check": _cmd_saito_check,
    "flat-check": _cmd_flat_check,
    "jc": _cmd_jc,
    "split-filtrations": _cmd_split_filtrations,
    "birkhoff": _cmd_birkhoff,
    "football-split": _cmd_football_split,
    "extend": _cmd_extend,
    "castle": _cmd_castle,
    "gen-divisor": _cmd_gen_divisor,
    "gen-nonextendable": _cmd_gen_nonextendable,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logflat",
        description="Exact computations with logarithmic flat connections: "
                    "freeness, flatness, residues, filtration splitting, "
                    "Birkhoff factorization, chart gluing, castling.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("input", help="input file path, inline JSON, or '-' for stdin")
        p.add_argument("--json", action="store_true",
                       help="emit only the JSON certificate")
        p.add_argument("--oracle", action="store_true",
                       help="enable independent cross-check oracles")
        if name == "castle":
            p.add_argument("--chain", type=int, default=None, metavar="N",
                           help="iterate the transform N times, rebasing each step")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
