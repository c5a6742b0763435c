"""Shared JSON serialization.

Canonical text forms: a rational is the string "num/den" (or "num" when the
denominator is 1); a polynomial is an array of terms {"c": rational,
"e": [exponents]}; a univariate Laurent polynomial uses a single integer
exponent; a two-variable Laurent polynomial an exponent pair.  Matrices are
row-major nested arrays.  Every top-level document carries "schema": 1.

Polynomials are read and written on ints, with no Fraction per term: each
coefficient becomes a (numerator, denominator) pair, by int() on a JSON
integer or on the parts of "a" and "a/b" and by frac_from_json for any
other string, so the same inputs are accepted and refused as by
frac_from_json; the pairs are summed over the lcm of their denominators
into MultiPoly's integer form.  The writer prints each int numerator over
the value's denominator in lowest terms.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd as int_gcd, lcm

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

# Largest ambient dimension and number of multi-graded cells, the product
# over the filtrations of (steps + 1), of a split-filtrations document.
# Both are checked before any cell is built: the cells grow exponentially
# in the number of filtrations, and the cost of filling them steeply in the
# dimension.  The benchmark's largest tuple has 81 cells at dim 6.
DIM_BUDGET = 32
CELL_BUDGET = 16384


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

def poly_to_json(p: MultiPoly, scalar: bool = False) -> list:
    """The terms of p in ascending exponent order, each coefficient written
    from its int numerator over p's denominator as frac_to_json would;
    `scalar` writes one-variable exponents as single integers."""
    den = p._den
    out = []
    for e, c in sorted(p._num.items()):
        g = int_gcd(c, den) if den != 1 else 1
        out.append({"c": str(c // g) if g == den else f"{c // g}/{den // g}",
                    "e": e[0] if scalar else list(e)})
    return out


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


def _coefficient_from_json(c) -> tuple[int, int]:
    """A rational coefficient as (numerator, positive denominator), not
    necessarily in lowest terms.  JSON integers and the strings "a" and
    "a/b" (b unsigned digits) are read with int(); anything else goes
    through frac_from_json, so exactly the same inputs are accepted."""
    if type(c) is int:
        return c, 1
    if type(c) is str:
        num, slash, den = c.partition("/")
        try:
            if not slash:
                return int(num), 1
            if den.isdigit():
                d = int(den)
                if d:
                    return int(num), d
        except ValueError:
            pass
    q = frac_from_json(c)
    return q.numerator, q.denominator


def poly_from_json(variables, data, laurent: bool = False,
                   scalar: bool = False) -> MultiPoly:
    """A polynomial, or a Laurent polynomial when `laurent`, from an array of
    terms; `scalar` reads one-variable Laurent terms with a single integer
    exponent.  Repeated exponents add up.  The int numerators are brought
    over the lcm of the denominators and handed to MultiPoly._reduce."""
    if not isinstance(data, list):
        raise FormatError(f"{'Laurent polynomial' if scalar else 'polynomial'} "
                          "must be an array of terms")
    read = []
    for t in data:
        if not isinstance(t, dict) or "c" not in t or (
                "e" not in t if scalar else not isinstance(t.get("e"), list)):
            raise FormatError(f"bad {'Laurent' if scalar else 'polynomial'} term {t!r}")
        if scalar:
            e = (int_from_json(t["e"], "exponent"),)
        else:
            e = tuple(int_from_json(v, "exponent") for v in t["e"])
            if len(e) != len(variables):
                raise FormatError("exponent length does not match variable count")
        read.append((e, *_coefficient_from_json(t["c"])))
    if not laurent and any(x < 0 for e, _, _ in read for x in e):
        raise ValueError("negative exponent in MultiPoly")
    den = lcm(*(d for _, _, d in read))
    num: dict = {}
    for e, n, d in read:
        num[e] = num.get(e, 0) + n * (den // d)
    return MultiPoly._reduce(tuple(variables), {e: c for e, c in num.items() if c},
                             den, laurent)


def laurent_to_json(p: MultiPoly) -> list:
    return poly_to_json(p, scalar=True)


def laurent_from_json(data, var: str = "z") -> MultiPoly:
    return poly_from_json((var,), data, laurent=True, scalar=True)


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
    if dim > DIM_BUDGET:
        raise FormatError(f"dim {dim} exceeds the dimension budget {DIM_BUDGET}")
    out, cells = [], 1
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
        cells *= len(out[-1].steps) + 1
        if cells > CELL_BUDGET:
            raise FormatError(f"the first {len(out)} filtrations have more than "
                              f"{CELL_BUDGET} multi-graded cells, the cell budget")
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
