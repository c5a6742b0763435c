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

# Largest total degree of a saito-check or flat-check polynomial.  The
# reducedness test's power table is quadratic in the largest exponent; the
# E8 reflection arrangement has degree 120.
DEGREE_BUDGET = 256


class FormatError(ValueError):
    """The document does not match the expected schema."""


# -- scalars ---------------------------------------------------------------

def frac_to_json(x) -> str:
    if type(x) is not Fraction:
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_from_json(s) -> Fraction:
    """A rational must be a JSON string or integer: not a float or a bool."""
    if type(s) not in (str, int):
        raise FormatError(f"bad rational {s!r}")
    try:
        return Fraction(s)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}") from exc


# -- polynomials -----------------------------------------------------------

def poly_to_json(p: MultiPoly) -> list:
    return [{"c": frac_to_json(c), "e": list(e)}
            for e, c in sorted(p.terms.items())]


def int_from_json(v, what: str) -> int:
    """An integer (the field `what`) must be a JSON integer: not a float, a
    string or a bool."""
    if type(v) is not int:
        raise FormatError(f"bad {what} {v!r}")
    return v


def array_from_json(v, what: str) -> list:
    """The field `what` must be a JSON array."""
    if not isinstance(v, list):
        raise FormatError(f"{what} must be an array")
    return v


def ints_from_json(v, what: str) -> list:
    return [int_from_json(x, what) for x in array_from_json(v, what)]


def poly_from_json(variables, data, laurent: bool = False) -> MultiPoly:
    if not isinstance(data, list):
        raise FormatError("polynomial must be an array of terms")
    terms = {}
    for t in data:
        if not isinstance(t, dict) or "c" not in t or not isinstance(t.get("e"), list):
            raise FormatError(f"bad polynomial term {t!r}")
        e = tuple(int_from_json(v, "exponent") for v in t["e"])
        if len(e) != len(variables):
            raise FormatError("exponent length does not match variable count")
        terms[e] = terms.get(e, Fraction(0)) + frac_from_json(t["c"])
    return MultiPoly(tuple(variables), terms, laurent)


def laurent_to_json(p: MultiPoly) -> list:
    return [{"c": frac_to_json(c), "e": e} for (e,), c in sorted(p.terms.items())]


def laurent_from_json(data, var: str = "z") -> MultiPoly:
    if not isinstance(data, list):
        raise FormatError("Laurent polynomial must be an array of terms")
    terms = {}
    for t in data:
        if not isinstance(t, dict) or "c" not in t or "e" not in t:
            raise FormatError(f"bad Laurent term {t!r}")
        e = (int_from_json(t["e"], "exponent"),)
        terms[e] = terms.get(e, Fraction(0)) + frac_from_json(t["c"])
    return MultiPoly((var,), terms, laurent=True)


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


def bmat_from_json(data) -> list:
    return _mat_from_json(data, lambda t: poly_from_json(("x", "y"), t, laurent=True))


# -- structured documents ----------------------------------------------------

def _require(data, *keys):
    if not isinstance(data, dict):
        raise FormatError("document must be a JSON object")
    for k in keys:
        if k not in data:
            raise FormatError(f"missing field {k!r}")


def saito_system_from_json(data) -> SaitoSystem:
    _require(data, "vars", "divisor", "fields")
    variables = tuple(str(v) for v in array_from_json(data["vars"], "vars"))
    if not variables or len(set(variables)) != len(variables):
        raise FormatError("vars must be a nonempty list of distinct names")
    divisor = poly_from_json(variables, data["divisor"])
    if divisor.is_zero():
        raise FormatError("divisor must be a nonzero polynomial")
    fields = []
    for coeffs in array_from_json(data["fields"], "fields"):
        if len(array_from_json(coeffs, "field")) != len(variables):
            raise FormatError("field coefficient count must equal dimension")
        fields.append(VectorField(tuple(poly_from_json(variables, c)
                                        for c in coeffs)))
    polys = [divisor, *(c for fld in fields for c in fld.coefficients)]
    degree = max(poly.total_degree() for poly in polys)
    if degree > DEGREE_BUDGET:
        raise FormatError(f"a polynomial of total degree {degree} exceeds the "
                          f"degree budget {DEGREE_BUDGET}")
    return SaitoSystem(tuple(fields), divisor)


def log_connection_from_json(data) -> LogConnection:
    _require(data, "omegas")
    system = saito_system_from_json(data)
    omegas = tuple(pmat_from_json(system.vars, om)
                   for om in array_from_json(data["omegas"], "omegas"))
    if not omegas:
        raise FormatError("need at least one connection matrix")
    try:
        return LogConnection(system, omegas, len(omegas[0]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def filtrations_from_json(data) -> list:
    _require(data, "dim", "filtrations")
    dim = int_from_json(data["dim"], "dim")
    if dim < 0:
        raise FormatError(f"bad dim {dim}")
    out = []
    for steps in array_from_json(data["filtrations"], "filtrations"):
        raw = []
        for step in array_from_json(steps, "filtration"):
            if not isinstance(step, dict) or "j" not in step or "basis" not in step:
                raise FormatError(f"bad filtration step {step!r}")
            basis = (qmat_from_json(step["basis"])
                     if array_from_json(step["basis"], "basis") else [])
            if basis and len(basis[0]) != dim:
                raise FormatError("basis rows must have length dim")
            raw.append((int_from_json(step["j"], "j"), basis))
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
        "omegaX": [pmat_to_json(m) for m in data.omega_x],
        "omegaY": [pmat_to_json(m) for m in data.omega_y],
        "transition": lmat_to_json(data.transition.matrix),
    }


def connection_data_from_json(data) -> ConnectionData:
    _require(data, "p", "q", "divisor", "omegaX", "omegaY", "transition")
    return ConnectionData(
        transition=transition_from_json(data),
        p=int_from_json(data["p"], "p"),
        q=int_from_json(data["q"], "q"),
        divisor=poly_from_json(("x", "y"), data["divisor"]),
        omega_x=tuple(bmat_from_json(m) for m in array_from_json(data["omegaX"], "omegaX")),
        omega_y=tuple(bmat_from_json(m) for m in array_from_json(data["omegaY"], "omegaY")),
    )


def descriptor_to_json(d: PrehomDescriptor) -> dict:
    return {"schema": SCHEMA, "n": d.n, "r": d.r,
            "factors": [list(f) for f in d.factors], "side": d.side}


def _group_factor(f) -> tuple:
    """["Torus", k >= 1], ["SL", k >= 2] or ["Abstract", name, dim >= 1]."""
    least = {("Torus", 2): 1, ("SL", 2): 2, ("Abstract", 3): 1}    # by (kind, length)
    shape = (f[0], len(f)) if isinstance(f, list) and f and isinstance(f[0], str) else None
    if (shape not in least or shape[0] == "Abstract" and not isinstance(f[1], str)
            or int_from_json(f[-1], "group factor size") < least[shape]):
        raise FormatError(f"bad group factor {f!r}")
    return tuple(f)


def descriptor_from_json(data) -> PrehomDescriptor:
    _require(data, "n", "r", "factors", "side")
    factors = tuple(map(_group_factor, array_from_json(data["factors"], "factors")))
    try:
        return PrehomDescriptor(n=int_from_json(data["n"], "n"),
                                r=int_from_json(data["r"], "r"),
                                factors=factors, side=str(data["side"]))
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
