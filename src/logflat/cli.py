"""Command-line front end.

Reads the shared JSON formats, dispatches to the library modules, and emits
a certificate: {"schema": 1, "verdict": ..., "witness": ..., "inputDigest":
sha256-of-canonical-input, "toolVersion": ...}.  Each subcommand handler is
a pure function (args, doc) -> (verdict, witness, report); `main` alone
loads the document, prints the report line and the certificate, and picks
the exit status from the verdict.  Exit status 0 for affirmative verdicts
(free, flat, decomposed, splittable, factorized, split, extends, castled,
generated), 1 for the negative verdicts in NEGATIVE_VERDICTS (not-free,
not-flat, not-splittable, not-extendable, non-extendable; the certificate is
still printed), 2 for malformed input.  With --json only the certificate is
printed, as strict JSON; otherwise the short report line precedes it.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import serialize as ser
from .birkhoff import (EquivariantTransition, birkhoff_factorize,
                       football_split, splitting_type_rank_oracle)
from .castling import (castling_chain, castling_transform, gen_nonextendable,
                       minor_product_divisor, minor_product_variables,
                       morita_rescale)
from .extend import extend_connection
from .filtrations import toric_extendability
from .jordan import (NotQuasiUnipotent, jordan_chevalley,
                     quasi_unipotent_weights, well_behaved_check)
from .matrices import det_bareiss, det_cofactor
from .saito import flatness_check, saito_check
from .serialize import FormatError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MALFORMED = 2

NEGATIVE_VERDICTS = frozenset(
    {"not-free", "not-flat", "not-splittable", "not-extendable", "non-extendable"})


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


# -- subcommand handlers: (args, doc) -> (verdict, witness, report) -------------

def _cmd_saito_check(args, doc):
    system = ser.saito_system_from_json(doc)
    verdict = saito_check(system)
    if args.oracle and verdict.free:
        m = system.saito_matrix()
        if det_cofactor(m) != det_bareiss(m):
            raise AssertionError("determinant oracle disagreement")
    unit = ser.frac_to_json(verdict.unit) if verdict.unit is not None else None
    witness = {"free": verdict.free, "reduced": verdict.reduced, "unit": unit,
               "detail": verdict.witness}
    return ("free" if verdict.free else "not-free", witness,
            f"free divisor: {verdict.free} (unit {unit})")


def _cmd_flat_check(args, doc):
    result = flatness_check(ser.log_connection_from_json(doc))
    witness = {"flat": result.flat,
               "offendingPair": list(result.witness) if result.witness else None}
    return "flat" if result.flat else "not-flat", witness, f"flat: {result.flat}"


def _cmd_jc(args, doc):
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
        witness["wellBehaved"] = well_behaved_check(data, "SL")
    return ("decomposed", witness,
            f"semisimple/unipotent decomposition of a {len(m)}x{len(m)} matrix")


def _cmd_split_filtrations(args, doc):
    filtrations = ser.filtrations_from_json(doc)
    verdict = toric_extendability(filtrations)
    if verdict.extends:
        basis = verdict.witness
        if args.oracle and not basis.verify(filtrations):
            raise AssertionError("adapted basis failed independent re-verification")
        witness = {"adaptedBasis": ser.qmat_to_json(basis.vectors),
                   "depths": [list(d) for d in basis.depths]}
        return "splittable", witness, "simultaneously splittable; adapted basis found"
    ns = verdict.witness
    witness = {"multiIndex": list(ns.multi_index), "detail": ns.detail,
               "dimensionTable": [list(r) for r in ns.dimension_table]}
    return "not-splittable", witness, f"not splittable at multi-index {ns.multi_index}"


def _cmd_birkhoff(args, doc):
    t = ser.transition_from_json(doc)
    factors = birkhoff_factorize(t)
    st = factors.splitting_type()
    if args.oracle and splitting_type_rank_oracle(t) != st:
        raise AssertionError("splitting type disagrees with the rank oracle")
    witness = {"diagExponents": list(factors.diag),
               "splittingType": list(st.classes),
               "pminus": ser.lmat_to_json(factors.pminus),
               "pplus": ser.lmat_to_json(factors.pplus)}
    return "factorized", witness, f"splitting type {list(st.classes)}"


def _cmd_football_split(args, doc):
    ser._require(doc, "p", "q", "isotropy0", "isotropyInf", "transition")
    try:
        et = EquivariantTransition(int(doc["p"]), int(doc["q"]),
                                   [int(v) for v in doc["isotropy0"]],
                                   [int(v) for v in doc["isotropyInf"]],
                                   ser.lmat_from_json(doc["transition"]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    classes = football_split(et)
    return ("split", {"classes": [ser.frac_to_json(c) for c in classes]},
            f"orbifold splitting classes {[str(c) for c in classes]}")


def _cmd_extend(args, doc):
    data = ser.connection_data_from_json(doc)
    try:
        ext = extend_connection(data)
    except ValueError as exc:
        return "not-extendable", {"reason": str(exc)}, f"does not extend: {exc}"
    witness = {"twistExponents": list(ext.twist_exponents),
               "gaugeX": [ser.poly_to_json(e) for row in ext.gauge_x for e in row],
               "gaugeY": [ser.poly_to_json(e) for row in ext.gauge_y for e in row],
               "omegas": [ser.pmat_to_json(om) for om in ext.connection.omegas]}
    return "extends", witness, f"extends; twist exponents {list(ext.twist_exponents)}"


def _cmd_castle(args, doc):
    d = ser.descriptor_from_json(doc)
    if args.chain is not None:
        dims = castling_chain(d, args.chain)
        return "castled", {"dims": dims}, f"ambient dimension chain {dims}"
    out = castling_transform(d)
    rescale = ser.frac_to_json(morita_rescale(d.r, d.n, 1))
    witness = {"transformed": ser.descriptor_to_json(out), "weightRescale": rescale}
    return ("castled", witness, f"castling partner: r = {out.r}, side = {out.side}, "
                                f"weight rescale {rescale}")


def _cmd_gen_divisor(args, doc):
    ser._require(doc, "n")
    n = int(doc["n"])
    if n < 2:
        raise FormatError("need n >= 2")
    f = minor_product_divisor(n)
    names = list(minor_product_variables(n))
    return ("generated", {"vars": names, "divisor": ser.poly_to_json(f)},
            f"minor-product divisor in {len(names)} variables, {len(f.terms)} terms")


def _cmd_gen_nonextendable(args, doc):
    ser._require(doc, "n", "rank", "psi")
    psi = [ser.qmat_from_json(m) for m in doc["psi"]]
    try:
        rep, nx = gen_nonextendable(psi, int(doc["n"]), int(doc["rank"]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    witness = {"offendingGenerator": nx.generator_name,
               "generator": ser.qmat_to_json(nx.generator),
               "slSize": rep.sl_size, "rank": rep.rank}
    return ("non-extendable", witness,
            f"residual sl({rep.sl_size}) action is nonzero "
            f"(generator {nx.generator_name}); the connection does not extend")


# -- argument parsing and the certificate pipeline ---------------------------------

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
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
        doc = _load(args.input)
        verdict, witness, report = _HANDLERS[args.command](args, doc)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    if not args.json:
        print(report)
    print(ser.canonical_dumps(ser.certificate(verdict, witness, doc)))
    return EXIT_NEGATIVE if verdict in NEGATIVE_VERDICTS else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
