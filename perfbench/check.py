"""Known-answer checker for benchmark outputs (runs outside the timed region).

`check(doc, code, stdout, exc)` returns None when the output is right, or a
`Failure`.  A failure is an *error* when the program raised instead of
answering, and *wrong* when it printed a certificate or exit code that
disagrees with the known answer; both count in `failed`, only wrong answers
make a run incorrect.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from docs import det, matmul, rank


@dataclass(frozen=True)
class Failure:
    kind: str       # "error" | "wrong"
    reason: str


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _q(rows):
    return [[Fraction(x) for x in r] for r in rows]


def _in_span(v, span) -> bool:
    return rank(span + [v]) == rank(span)


def _minor_product(n, point):
    if n == 2:
        return point[0] * point[1]
    a = [[point[col * (n - 1) + row] for col in range(n)] for row in range(n - 1)]
    total = Fraction(1)
    for omit in range(n):
        cols = [(omit + 1 + k) % n for k in range(n - 1)]
        total *= det([[a[row][c] for c in cols] for row in range(n - 1)])
    return total


def _witness_errors(doc, w) -> str | None:
    e = doc.expect
    if doc.cmd == "jc":
        m, s, u = e["matrix"], _q(w["S"]), _q(w["U"])
        n = len(m)
        if matmul(s, u) != m or matmul(u, s) != m:
            return "S*U or U*S differs from M"
        nil = [[u[i][j] - (i == j) for j in range(n)] for i in range(n)]
        power = nil
        for _ in range(n - 1):
            power = matmul(power, nil)
        if any(x != 0 for row in power for x in row):
            return "U is not unipotent"
    elif doc.cmd == "split-filtrations" and "spans" in e:
        basis = _q(w["adaptedBasis"])
        if len(basis) != e["dim"] or rank(basis) != e["dim"]:
            return "adapted basis is not a basis"
        for spans in e["spans"]:
            for span in spans:
                if sum(_in_span(v, span) for v in basis) != len(span):
                    return "basis is not adapted to a filtration step"
    elif doc.cmd == "split-filtrations":
        if len(w["multiIndex"]) != e["nfilt"]:
            return "multi-index has the wrong length"
    elif doc.cmd == "birkhoff":
        if w["diagExponents"] != e["diag"]:
            return f"diag exponents {w['diagExponents']} != planted {e['diag']}"
        if w["splittingType"] != e["splitting"]:
            return f"splitting type {w['splittingType']} != planted {e['splitting']}"
    elif doc.cmd == "football-split":
        if w["classes"] != e["classes"]:
            return f"classes {w['classes']} != {e['classes']}"
    elif doc.cmd == "extend":
        if len(w["twistExponents"]) != e["rank"]:
            return "twist exponent count differs from the rank"
    elif doc.cmd == "flat-check":
        if (w["offendingPair"] is None) != e["verdict"].startswith("flat"):
            return "offending pair disagrees with the verdict"
    elif doc.cmd == "saito-check":
        if "unit" in e:
            if not (w["free"] and w["reduced"] and w["unit"] == e["unit"]):
                return f"unit {w['unit']} != {e['unit']}"
        elif w["free"] or w["reduced"] != e["reduced"] or w["unit"] is not None:
            return "negative verdict with the wrong witness"
    elif doc.cmd == "castle":
        if "dims" in e:
            if w["dims"] != e["dims"]:
                return f"chain {w['dims']} != {e['dims']}"
        elif (w["transformed"]["r"], w["transformed"]["side"], w["weightRescale"]) != \
                (e["r"], e["side"], e["rescale"]):
            return "castling partner differs"
    elif doc.cmd == "gen-divisor":
        n = e["n"]
        names = w["vars"]
        if len(names) != (2 if n == 2 else n * (n - 1)):
            return "wrong variable count"
        value = sum((Fraction(t["c"]) * _prod(e["point"], t["e"]) for t in w["divisor"]),
                    Fraction(0))
        if value != _minor_product(n, e["point"]):
            return "divisor differs from the product of minors"
    elif doc.cmd == "gen-nonextendable":
        if (w["offendingGenerator"], w["generator"], w["rank"]) != \
                (e["generatorName"], e["generator"], e["rank"]):
            return "offending generator differs"
    return None


def _prod(point, exps):
    out = Fraction(1)
    for x, k in zip(point, exps):
        out *= x ** k
    return out


def check(doc, code, stdout: str, exc) -> Failure | None:
    e = doc.expect
    if exc is not None:
        return Failure("error", f"{doc.kind}: raised {type(exc).__name__}: {exc}")
    if code != e["exit"]:
        return Failure("wrong", f"{doc.kind}: exit {code}, expected {e['exit']}")
    if code == 2:
        return None
    try:
        cert = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return Failure("wrong", f"{doc.kind}: unparseable certificate")
    try:
        if cert.get("schema") != 1 or "toolVersion" not in cert:
            return Failure("wrong", f"{doc.kind}: certificate header")
        if cert.get("verdict") != e["verdict"]:
            return Failure("wrong", f"{doc.kind}: verdict {cert.get('verdict')!r}, "
                                    f"expected {e['verdict']!r}")
        digest = hashlib.sha256(canonical(json.loads(doc.text)).encode()).hexdigest()
        if cert.get("inputDigest") != digest:
            return Failure("wrong", f"{doc.kind}: inputDigest")
        bad = _witness_errors(doc, cert["witness"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        bad = f"malformed witness ({type(err).__name__}: {err})"
    return Failure("wrong", f"{doc.kind}: {bad}") if bad else None


def digest_line(code, stdout: str, exc) -> str:
    """One line of the run digest: exit code and the certificate without
    toolVersion."""
    if exc is not None:
        return f"raised {type(exc).__name__}\n"
    try:
        cert = json.loads(stdout.strip().splitlines()[-1])
        cert.pop("toolVersion", None)
        body = canonical(cert)
    except (ValueError, IndexError, AttributeError):
        body = stdout.strip()
    return f"{code}\t{body}\n"
