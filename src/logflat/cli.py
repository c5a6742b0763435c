"""Command-line front end.

Reads the shared JSON formats, dispatches to the library modules, and emits
a certificate: {"schema": 1, "verdict": ..., "witness": ..., "inputDigest":
sha256-of-canonical-input, "toolVersion": ...}.  Each subcommand handler is
a pure function (args, doc) -> (verdict, witness, report); `main` alone
loads the document, prints the report line and the certificate, and picks
the exit status from the verdict.  Exit status 0 for affirmative verdicts
(free, flat, decomposed, splittable, factorized, split, extends, castled,
generated), 1 for the negative verdicts in NEGATIVE_VERDICTS (not-free,
not-flat, not-splittable, non-extendable; the certificate is still
printed), 2 for malformed input.  extend has no negative verdict: chart
data that present a flat connection always extend, so data that do not
glue (bad geometry, a non-flat or incompatible chart) are malformed.  A
flat-check document is malformed too when its divisor equation is zero or
not reduced, when a field is not logarithmic for it, or when the fields are
dependent or a bracket of two of them leaves their span.  With --json only
the certificate is printed, as strict JSON; otherwise the short report
line precedes it.
--oracle adds independent cross-checks; split-filtrations needs none, since
it always re-verifies its adapted basis.  castle --chain N exits 2 unless
0 <= N and 2^N * bits(n) <= CHAIN_BUDGET_BITS = 8192, a bound on the bits of
the last dimension, since each step at most squares the dimension.
football-split exits 2 when birkhoff.deconvolution_bound exceeds
DECONVOLUTION_BUDGET; saito-check and flat-check exit 2 when a
polynomial's total degree exceeds serialize.DEGREE_BUDGET; split-filtrations
exits 2, before any cell is built, when dim exceeds serialize.DIM_BUDGET or
the cells, the product over the filtrations of (steps + 1), exceed
serialize.CELL_BUDGET.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import serialize as ser
from .birkhoff import (EquivariantTransition, birkhoff_factorize,
                       deconvolution_bound, football_split,
                       splitting_type_rank_oracle)
from .castling import (castling_chain, castling_transform, gen_nonextendable,
                       minor_product_divisor, minor_product_variables,
                       morita_rescale)
from .extend import extend_connection
from .filtrations import simultaneous_split
from .jordan import NotQuasiUnipotent, jordan_chevalley, well_behaved_check
from .matrices import det_cofactor
from .multipoly import is_reduced
from .saito import (NotASaitoSystemError, flatness_check, nonlogarithmic_field,
                    saito_check)
from .serialize import FormatError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MALFORMED = 2

NEGATIVE_VERDICTS = frozenset(
    {"not-free", "not-flat", "not-splittable", "non-extendable"})

CHAIN_BUDGET_BITS = 8192    # keeps every chain dimension under 2,500 digits
DECONVOLUTION_BUDGET = 1024    # football-split's first class bound


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
    except (OSError, ValueError) as exc:    # JSON and UTF-8 errors included
        raise FormatError(f"cannot read input: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("top-level document must be a JSON object")
    return doc


# -- subcommand handlers: (args, doc) -> (verdict, witness, report) -------------

def _cmd_saito_check(args, doc):
    system = ser.saito_system_from_json(doc)
    verdict = saito_check(system)
    if args.oracle and verdict.free:
        if det_cofactor(system.saito_matrix()) != verdict.det:
            raise AssertionError("determinant oracle disagreement")
    unit = ser.frac_to_json(verdict.unit) if verdict.unit is not None else None
    witness = {"free": verdict.free, "reduced": verdict.reduced, "unit": unit,
               "detail": verdict.witness}
    return ("free" if verdict.free else "not-free", witness,
            f"free divisor: {verdict.free} (unit {unit})")


def _cmd_flat_check(args, doc):
    conn = ser.log_connection_from_json(doc)
    f = conn.system.divisor
    if not is_reduced(f):
        raise FormatError("divisor equation is not reduced")
    i = nonlogarithmic_field(f, conn.system.fields)
    if i is not None:
        raise FormatError(f"field {i} is not logarithmic: f does not divide delta_{i}(f)")
    try:
        result = flatness_check(conn)
    except NotASaitoSystemError as exc:
        raise FormatError(str(exc)) from exc
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
    if not isinstance(pair.weights, NotQuasiUnipotent):
        witness["weights"] = [
            {"order": e.order, "exponent": e.exponent,
             "multiplicity": e.multiplicity, "weight": ser.frac_to_json(e.weight)}
            for e in pair.weights.entries]
        witness["wellBehaved"] = well_behaved_check(pair.weights, "SL")
    return ("decomposed", witness,
            f"semisimple/unipotent decomposition of a {len(m)}x{len(m)} matrix")


def _cmd_split_filtrations(args, doc):
    result = simultaneous_split(ser.filtrations_from_json(doc))
    if result:      # an AdaptedBasis, which simultaneous_split has verified
        witness = {"adaptedBasis": ser.qmat_to_json(result.vectors),
                   "depths": [list(d) for d in result.depths]}
        return "splittable", witness, "simultaneously splittable; adapted basis found"
    witness = {"multiIndex": list(result.multi_index), "detail": result.detail,
               "dimensionTable": [list(r) for r in result.dimension_table]}
    return "not-splittable", witness, f"not splittable at multi-index {result.multi_index}"


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
        et = EquivariantTransition(ser.int_from_json(doc["p"], "p"),
                                   ser.int_from_json(doc["q"], "q"),
                                   ser.ints_from_json(doc["isotropy0"], "isotropy0"),
                                   ser.ints_from_json(doc["isotropyInf"], "isotropyInf"),
                                   ser.lmat_from_json(doc["transition"]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    bound = deconvolution_bound(et)
    if bound > DECONVOLUTION_BUDGET:
        raise FormatError(f"the deconvolution bound {bound} exceeds the budget "
                          f"{DECONVOLUTION_BUDGET}")
    classes = football_split(et)
    return ("split", {"classes": [ser.frac_to_json(c) for c in classes]},
            f"orbifold splitting classes {[str(c) for c in classes]}")


def _cmd_extend(args, doc):
    data = ser.connection_data_from_json(doc)
    try:
        ext = extend_connection(data)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    witness = {"twistExponents": list(ext.twist_exponents),
               "gaugeX": [ser.poly_to_json(e) for row in ext.gauge_x for e in row],
               "gaugeY": [ser.poly_to_json(e) for row in ext.gauge_y for e in row],
               "omegas": [ser.pmat_to_json(om) for om in ext.connection.omegas]}
    return "extends", witness, f"extends; twist exponents {list(ext.twist_exponents)}"


def _cmd_castle(args, doc):
    d = ser.descriptor_from_json(doc)
    if args.chain is not None:
        if args.chain < 0 or d.n.bit_length() > CHAIN_BUDGET_BITS >> args.chain:
            raise FormatError(f"--chain {args.chain} from n = {d.n} needs N >= 0 and "
                              f"2^N * bits(n) <= {CHAIN_BUDGET_BITS}")
        dims = castling_chain(d, args.chain)
        return "castled", {"dims": dims}, f"ambient dimension chain {dims}"
    out = castling_transform(d)
    rescale = ser.frac_to_json(morita_rescale(d.r, d.n, 1))
    witness = {"transformed": ser.descriptor_to_json(out), "weightRescale": rescale}
    return ("castled", witness, f"castling partner: r = {out.r}, side = {out.side}, "
                                f"weight rescale {rescale}")


def _cmd_gen_divisor(args, doc):
    ser._require(doc, "n")
    n = ser.int_from_json(doc["n"], "n")
    if n < 2:
        raise FormatError("need n >= 2")
    divisor = ser.poly_to_json(minor_product_divisor(n))
    names = list(minor_product_variables(n))
    return ("generated", {"vars": names, "divisor": divisor},
            f"minor-product divisor in {len(names)} variables, {len(divisor)} terms")


def _cmd_gen_nonextendable(args, doc):
    ser._require(doc, "n", "rank", "psi")
    psi = [ser.qmat_from_json(m) for m in ser.array_from_json(doc["psi"], "psi")]
    try:
        rep, nx = gen_nonextendable(psi, ser.int_from_json(doc["n"], "n"),
                                    ser.int_from_json(doc["rank"], "rank"))
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
