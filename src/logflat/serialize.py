"""Shared JSON serialization.

Canonical text forms: a rational is the string "num/den" (or "num" when the
denominator is 1); a polynomial is an array of terms {"c": rational,
"e": [exponents]}; a univariate Laurent polynomial uses a single integer
exponent; a two-variable Laurent polynomial an exponent pair.  Matrices are
row-major nested arrays.  Every top-level document carries "schema": 1.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from . import __version__
from .castling import PrehomDescriptor
from .extend import ConnectionData
from .filtrations import Filtration
from .laurent import Transition
from .multipoly import MultiPoly
from .saito import LogConnection, SaitoSystem, VectorField

SCHEMA = 1
TOOL_VERSION = __version__


class FormatError(ValueError):
    """The document does not match the expected schema."""


# -- scalars ---------------------------------------------------------------

def frac_to_json(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_from_json(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}") from exc


# -- polynomials -----------------------------------------------------------

def poly_to_json(p: MultiPoly) -> list:
    return [{"c": frac_to_json(c), "e": list(e)}
            for e, c in sorted(p.terms.items())]


def poly_from_json(variables, data) -> MultiPoly:
    if not isinstance(data, list):
        raise FormatError("polynomial must be an array of terms")
    terms = {}
    for t in data:
        if not isinstance(t, dict) or "c" not in t or "e" not in t:
            raise FormatError(f"bad polynomial term {t!r}")
        e = tuple(int(v) for v in t["e"])
        if len(e) != len(variables):
            raise FormatError("exponent length does not match variable count")
        terms[e] = terms.get(e, Fraction(0)) + frac_from_json(t["c"])
    return MultiPoly(tuple(variables), terms)


def laurent_to_json(p: MultiPoly) -> list:
    return [{"c": frac_to_json(c), "e": e} for (e,), c in sorted(p.terms.items())]


def laurent_from_json(data, var: str = "z") -> MultiPoly:
    if not isinstance(data, list):
        raise FormatError("Laurent polynomial must be an array of terms")
    terms = {}
    for t in data:
        if not isinstance(t, dict) or "c" not in t or "e" not in t:
            raise FormatError(f"bad Laurent term {t!r}")
        e = (int(t["e"]),)
        terms[e] = terms.get(e, Fraction(0)) + frac_from_json(t["c"])
    return MultiPoly((var,), terms, laurent=True)


def bilaurent_from_json(data) -> MultiPoly:
    if not isinstance(data, list):
        raise FormatError("Laurent polynomial must be an array of terms")
    terms = {}
    for t in data:
        if not isinstance(t, dict) or "c" not in t or "e" not in t or len(t["e"]) != 2:
            raise FormatError(f"bad two-variable Laurent term {t!r}")
        e = (int(t["e"][0]), int(t["e"][1]))
        terms[e] = terms.get(e, Fraction(0)) + frac_from_json(t["c"])
    return MultiPoly(("x", "y"), terms, laurent=True)


# -- matrices ---------------------------------------------------------------

def _mat_to_json(m, entry):
    return [[entry(x) for x in row] for row in m]


def _mat_from_json(data, entry):
    if not isinstance(data, list) or not data or not all(
            isinstance(r, list) and len(r) == len(data[0]) for r in data):
        raise FormatError("matrix must be a non-empty rectangular nested array")
    return [[entry(x) for x in row] for row in data]


def qmat_to_json(m) -> list:
    return _mat_to_json(m, frac_to_json)


def qmat_from_json(data) -> list:
    return _mat_from_json(data, frac_from_json)


def pmat_to_json(m) -> list:
    return _mat_to_json(m, poly_to_json)


def pmat_from_json(variables, data) -> list:
    return _mat_from_json(data, lambda t: poly_from_json(variables, t))


def lmat_to_json(m) -> list:
    return _mat_to_json(m, laurent_to_json)


def lmat_from_json(data, var: str = "z") -> list:
    return _mat_from_json(data, lambda t: laurent_from_json(t, var))


def bmat_to_json(m) -> list:
    return _mat_to_json(m, poly_to_json)


def bmat_from_json(data) -> list:
    return _mat_from_json(data, bilaurent_from_json)


# -- structured documents ----------------------------------------------------

def _require(data, *keys):
    if not isinstance(data, dict):
        raise FormatError("document must be a JSON object")
    for k in keys:
        if k not in data:
            raise FormatError(f"missing field {k!r}")


def saito_system_to_json(sys: SaitoSystem) -> dict:
    return {
        "schema": SCHEMA,
        "vars": list(sys.vars),
        "divisor": poly_to_json(sys.divisor),
        "fields": [[poly_to_json(c) for c in fld.coefficients]
                   for fld in sys.fields],
    }


def saito_system_from_json(data) -> SaitoSystem:
    _require(data, "vars", "divisor", "fields")
    variables = tuple(str(v) for v in data["vars"])
    divisor = poly_from_json(variables, data["divisor"])
    fields = []
    for coeffs in data["fields"]:
        if len(coeffs) != len(variables):
            raise FormatError("field coefficient count must equal dimension")
        fields.append(VectorField(tuple(poly_from_json(variables, c)
                                        for c in coeffs)))
    return SaitoSystem(tuple(fields), divisor)


def log_connection_from_json(data) -> LogConnection:
    _require(data, "omegas")
    system = saito_system_from_json(data)
    omegas = tuple(pmat_from_json(system.vars, om) for om in data["omegas"])
    if not omegas:
        raise FormatError("need at least one connection matrix")
    return LogConnection(system, omegas, len(omegas[0]))


def filtrations_from_json(data) -> list:
    _require(data, "dim", "filtrations")
    dim = int(data["dim"])
    out = []
    for steps in data["filtrations"]:
        raw = []
        for step in steps:
            if not isinstance(step, dict) or "j" not in step or "basis" not in step:
                raise FormatError(f"bad filtration step {step!r}")
            basis = qmat_from_json(step["basis"]) if step["basis"] else []
            raw.append((int(step["j"]), basis))
        try:
            out.append(Filtration.make(dim, raw))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    return out


def transition_from_json(data) -> Transition:
    _require(data, "transition")
    try:
        return Transition(lmat_from_json(data["transition"]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def connection_data_to_json(data: ConnectionData) -> dict:
    return {
        "schema": SCHEMA,
        "p": data.p,
        "q": data.q,
        "divisor": poly_to_json(data.divisor),
        "omegaX": [bmat_to_json(m) for m in data.omega_x],
        "omegaY": [bmat_to_json(m) for m in data.omega_y],
        "transition": lmat_to_json(data.transition.matrix),
    }


def connection_data_from_json(data) -> ConnectionData:
    _require(data, "p", "q", "divisor", "omegaX", "omegaY", "transition")
    try:
        transition = Transition(lmat_from_json(data["transition"]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return ConnectionData(
        p=int(data["p"]),
        q=int(data["q"]),
        divisor=poly_from_json(("x", "y"), data["divisor"]),
        omega_x=tuple(bmat_from_json(m) for m in data["omegaX"]),
        omega_y=tuple(bmat_from_json(m) for m in data["omegaY"]),
        transition=transition,
    )


def descriptor_to_json(d: PrehomDescriptor) -> dict:
    return {"schema": SCHEMA, "n": d.n, "r": d.r,
            "factors": [list(f) for f in d.factors], "side": d.side}


def descriptor_from_json(data) -> PrehomDescriptor:
    _require(data, "n", "r", "factors", "side")
    factors = []
    for f in data["factors"]:
        if not isinstance(f, list) or not f or f[0] not in ("Torus", "SL", "Abstract"):
            raise FormatError(f"bad group factor {f!r}")
        factors.append(tuple(f))
    try:
        return PrehomDescriptor(n=int(data["n"]), r=int(data["r"]),
                                factors=tuple(factors), side=str(data["side"]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# -- canonical dumps and digests ----------------------------------------------

def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def input_digest(obj) -> str:
    """Content hash of a parsed JSON document (canonical form)."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def certificate(verdict: str, witness, input_doc) -> dict:
    return {
        "schema": SCHEMA,
        "verdict": verdict,
        "witness": witness,
        "inputDigest": input_digest(input_doc),
        "toolVersion": TOOL_VERSION,
    }
