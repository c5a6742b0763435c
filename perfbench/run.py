#!/usr/bin/env python3
"""logflat benchmark.

    python3 perfbench/run.py --workload batch-small --seed 1 --seconds 25 --trace 0

A single-process, single-client, closed-loop load generator, run from the root of a
checkout.  It imports `logflat.cli` from `src/`, generates the workload's
documents from the seed (perfbench/workloads.py), and calls
`logflat.cli.main([subcommand, <inline JSON>, "--json", ...])` in process
for one document at a time, capturing stdout.  Only the main() call is
timed; generating documents and checking every output against its known
answer (perfbench/check.py) happen between calls.  Runs stop on a round
boundary once --seconds of main() time, adjusted for machine speed
(perfbench/speed.py), have been measured.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
rounds twice, untraced and then with every listed library function wrapped
from outside (perfbench/tracer.py), and prints the per-layer metrics.  The
last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import speed                                # noqa: E402
from check import check, digest_line       # noqa: E402
from tracer import Tracer                   # noqa: E402
from workloads import WORKLOADS             # noqa: E402

END_TO_END = ("docs_per_s", "lat_p50_ms", "lat_tail_ms", "ok_ratio", "peak_rss_mb", "setup_s")
DIGEST_ROUNDS = 2        # the digest covers the first rounds, which every run completes
SETUP_SAMPLES = 14       # fresh interpreters timed for setup_s, besides this one
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import logflat.cli; "
                  "print(time.perf_counter() - t)")


@dataclass
class Pass:
    latencies: list = field(default_factory=list)    # adjusted for machine speed
    failures: list = field(default_factory=list)
    round_s: list = field(default_factory=list)      # main() time of each whole round
    raw_s: float = 0.0                               # main() time as measured
    kernels: list = field(default_factory=list)      # reference-kernel samples

    @property
    def measured_s(self) -> float:
        return sum(self.round_s)

    @property
    def docs(self) -> int:
        return len(self.latencies)

    @property
    def wrong(self) -> list:
        return [f for f in self.failures if f.kind == "wrong"]


def import_cli():
    """Cold import of logflat.cli in this process; returns (main, seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import logflat.cli
    return logflat.cli.main, time.perf_counter() - t0


def cold_import_s() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


def setup_time(inproc_s: float) -> float:
    """Median cold import of logflat.cli, adjusted for machine speed: this process's
    import and SETUP_SAMPLES fresh interpreters, each scaled by kernel
    samples taken around it."""
    kernels = [statistics.median(speed.kernel_s() for _ in range(3))]
    times = [inproc_s]
    for _ in range(SETUP_SAMPLES):
        times.append(cold_import_s())
        kernels.append(statistics.median(speed.kernel_s() for _ in range(3)))
    return statistics.median(speed.scaled(times, kernels))


def call(main, argv, tracer=None):
    """One closed-loop request: (exit code, stdout, exception, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv) if tracer is None else tracer.run("cli.main", main, argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as error:          # the checker reports it as a failure
            exc = error
        dt = time.perf_counter() - t0
    return code, out.getvalue(), exc, dt


def run_docs(main, docs, result: Pass, digest=None, tracer=None):
    raw, kernels = [], [speed.kernel_s()]
    for doc in docs:
        code, out, exc, dt = call(main, doc.argv(), tracer)
        kernels.append(speed.kernel_s())
        raw.append(dt)
        failure = check(doc, code, out, exc)
        if failure is not None:
            result.failures.append(failure)
        if digest is not None:
            digest.update(digest_line(code, out, exc).encode())
    scaled = speed.scaled(raw, kernels)
    result.latencies += scaled
    result.round_s.append(sum(scaled))
    result.raw_s += sum(raw)
    result.kernels += kernels


def timed_run(main, workload, seed, seconds):
    result, digest = Pass(), hashlib.sha256()
    while result.measured_s < seconds or len(result.round_s) < DIGEST_ROUNDS:
        index = len(result.round_s)
        run_docs(main, workload.round(seed, index), result,
                 digest if index < DIGEST_ROUNDS else None)
    return result, digest.hexdigest()


def percentile(values, pct):
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def summarize_failures(failures) -> str:
    counts: dict = {}
    for f in failures:
        key = f"{f.kind}: {f.reason}"
        counts[key] = counts.get(key, 0) + 1
    return "; ".join(f"{n} x {k}" for k, n in sorted(counts.items())) or "none"


def end_to_end(main, workload, seed, seconds, setup_s):
    result, digest = timed_run(main, workload, seed, seconds)
    lat_ms = [t * 1000.0 for t in result.latencies]
    tail = percentile(lat_ms, workload.tail_pct)
    beyond = sum(1 for v in lat_ms if v > tail)
    fail_ratio = len(result.failures) / result.docs
    metrics = {
        # the median round, so a slow phase of the machine moves it less than a mean
        "docs_per_s": (workload.size() / statistics.median(result.round_s), "1/s"),
        "lat_p50_ms": (statistics.median(lat_ms), "ms"),
        "lat_tail_ms": (tail, "ms"),
        "ok_ratio": (1.0 - fail_ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"workload {workload.name}  seed {seed}  rounds {len(result.round_s)}  "
          f"documents {result.docs}  measured {result.raw_s:.3f} s, "
          f"{result.measured_s:.3f} s adjusted for machine speed (kernel median "
          f"{statistics.median(result.kernels) * 1e3:.3f} ms, reference "
          f"{speed.REFERENCE_S * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.6g} {unit}")
    print(f"  lat_tail_ms is p{workload.tail_pct:g}: {beyond} samples beyond it")
    print(f"  fail_ratio   {fail_ratio:12.6g} ratio  ({len(result.failures)} of {result.docs}; "
          f"{summarize_failures(result.failures)})")
    print(f"  digest sha256:{digest} over the first {DIGEST_ROUNDS} rounds "
          f"({DIGEST_ROUNDS * workload.size()} documents, toolVersion dropped)")
    return result, metrics


def traced(main, workload, seed, seconds):
    rounds = max(1, round(seconds / workload.round_s / 2))
    docs = [doc for r in range(rounds) for doc in workload.round(seed, r)]
    plain, result = Pass(), Pass()
    run_docs(main, docs, plain)
    tracer = Tracer().install()
    try:
        run_docs(main, docs, result, tracer=tracer)
    finally:
        tracer.uninstall()
    speed_ratio = plain.measured_s / result.measured_s
    metrics = tracer.metrics(result.raw_s, speed_ratio)
    print(f"workload {workload.name}  seed {seed}  traced rounds {rounds}  "
          f"documents {result.docs}  traced {result.raw_s:.3f} s  overhead "
          f"x{1 / speed_ratio:.3f} (adjusted traced / untraced time)")
    shares = tracer.layer_shares(result.raw_s)
    print("  self-time share by layer: " + ", ".join(
        f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    top = sorted(((st.self, name) for name, st in tracer.stats.items()), reverse=True)[:8]
    print("  top self time: " + ", ".join(f"{name} {s:.3f}s" for s, name in top))
    print(f"  failures: {summarize_failures(result.failures)}")
    return result, plain, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "logflat" / "cli.py").is_file():
        print(f"error: no logflat sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cli_main, inproc_s = import_cli()
    if args.trace:
        result, plain, metrics = traced(cli_main, workload, args.seed, args.seconds)
        wrong = plain.wrong + result.wrong
    else:
        result, metrics = end_to_end(cli_main, workload, args.seed, args.seconds,
                                     setup_time(inproc_s))
        wrong = result.wrong
    for f in wrong[:5]:
        print(f"  wrong answer: {f.reason}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": result.docs,
        "failed": len(result.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
