#!/usr/bin/env python3
"""Self-tests of the benchmark (not of logflat).  Run from the repo root:

    python3 perfbench/selftest.py

1. The generator is deterministic: the same seed gives identical documents,
   another seed or round gives different ones.
2. The checker counts corrupted certificates and wrong exit codes as failures.
3. Two traced runs of the same seed report identical per-layer call counts
   and waste ratios.
4. BENCHMARK.json names exactly the workloads and metrics the code reports.
5. Every round of a workload holds the same number of known-defect
   documents, so the failure share does not depend on the seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import tracer
from check import check
from workloads import WORKLOADS

MAIN, _ = run.import_cli()


def test_generator_is_deterministic():
    for w in WORKLOADS.values():
        first = [doc.text for doc in w.round(7, 0)]
        assert first == [doc.text for doc in w.round(7, 0)], w.name
        assert first != [doc.text for doc in w.round(8, 0)], w.name
        assert first != [doc.text for doc in w.round(7, 1)], w.name
        assert len(first) == w.size()


def test_known_defects_fixed_per_round():
    expected = {"batch-small": 5, "linalg-large": 0, "divisor-heavy": 0}
    for w in WORKLOADS.values():
        for seed, index in ((1, 0), (2, 5), (9, 3)):
            defects = sum(1 for doc in w.round(seed, index) if doc.expect.get("known_defect"))
            assert defects == expected[w.name], (w.name, seed, index, defects)


def _corruptions(doc, cert):
    """Yield (what, certificate) pairs that must all fail the check."""
    def changed(edit):
        c = json.loads(json.dumps(cert))
        edit(c, c["witness"])
        return c
    yield "verdict", changed(lambda c, w: c.update(verdict="bogus"))
    yield "inputDigest", changed(lambda c, w: c.update(inputDigest="0" * 64))
    edits = {
        "jc": lambda c, w: w["S"][0].__setitem__(0, "12345"),
        "birkhoff": lambda c, w: w["diagExponents"].__setitem__(0, w["diagExponents"][0] + 1),
        "split-filtrations": lambda c, w: (w["adaptedBasis"].__setitem__(0, w["adaptedBasis"][-1])
                                           if "adaptedBasis" in w else w["multiIndex"].pop()),
        "saito-check": lambda c, w: w.update(unit="12345", free=not w["free"]),
        "football-split": lambda c, w: w["classes"].append("0"),
        "extend": lambda c, w: w["twistExponents"].append(0),
        "castle": lambda c, w: w.update(dims=[0], weightRescale="0"),
        "gen-divisor": lambda c, w: w["divisor"][0].update(c="12345"),
        "gen-nonextendable": lambda c, w: w.update(offendingGenerator="h1"),
    }
    if doc.cmd in edits:
        yield "witness", changed(edits[doc.cmd])


def test_corrupted_certificates_fail():
    seen = set()
    for doc in WORKLOADS["batch-small"].round(3, 0):
        if doc.kind in seen:
            continue
        seen.add(doc.kind)
        code, out, exc, _ = run.call(MAIN, doc.argv())
        if doc.expect.get("known_defect"):
            assert check(doc, code, out, exc) is not None, doc.kind
            continue
        assert check(doc, code, out, exc) is None, (doc.kind, check(doc, code, out, exc))
        assert check(doc, 1 - code if code in (0, 1) else 0, out, None) is not None, doc.kind
        if code == 2:
            continue
        assert check(doc, code, out[: len(out) // 2], None) is not None, doc.kind
        cert = json.loads(out)
        for what, bad in _corruptions(doc, cert):
            failure = check(doc, code, json.dumps(bad), None)
            assert failure is not None and failure.kind == "wrong", (doc.kind, what)


def test_traced_counts_repeat():
    for w in WORKLOADS.values():
        runs = []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                _, _, metrics = run.traced(MAIN, w, seed=5, seconds=1)
            runs.append({k: v for k, (v, _) in metrics.items()
                         if k.endswith((".calls", "_ratio")) and k != "trace.speed_ratio"})
        assert runs[0] == runs[1], w.name
        assert any(v for v in runs[0].values()), w.name


def test_benchmark_json_matches_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
    sys.exit(0)
