"""The benchmark's workloads.

A workload is a fixed *round*: a list of slots (label, generator, count).
Each round draws fresh documents from the seed, so every run sees the same
mix of document classes and only the random entries change with the seed.
Runs always end on a round boundary, which keeps the mix, the malformed
share and the latency percentiles comparable between runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import docs as d


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple          # (label, generator(rng) -> Doc, count)
    tail_pct: float       # lat_tail_ms percentile: >= 10 samples beyond it in a run
    round_s: float        # nominal adjusted seconds per round (sizes traced runs)

    def round(self, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        out = []
        for label, gen, count in self.slots:
            for _ in range(count):
                doc = gen(rng)
                doc.kind = label
                out.append(doc)
        rng.shuffle(out)
        return out

    def size(self) -> int:
        return sum(count for _, _, count in self.slots)


def _malformed(which):
    return (which, partial(d.malformed, which=which), 1)


BATCH_SMALL = Workload(
    name="batch-small",
    why="161-document rounds over all ten subcommands, 5% malformed, 5 known defects: "
        "per-document overhead and tiny eliminations; lat_tail_ms is p99",
    tail_pct=99.0,
    round_s=2.0,
    slots=tuple(
        [(f"jc{n}", partial(d.jc, n=n), 5) for n in range(1, 6)]
        + [("jc-det-minus-one", d.jc_det_minus_one, 1)]
        + [(f"split{dim}x{k}", partial(d.split_planted, dim=dim, nfilt=k, max_steps=2), 1)
           for dim in range(2, 6) for k in range(2, 5)]
        + [(f"split-lines{dim}", partial(d.split_lines, dim=dim), 3) for dim in (2, 3)]
        + [(f"birkhoff-oracle{n}", partial(d.birkhoff, n=n, oracle=True, max_deg=1,
                                           exp_range=2), 6)
           for n in (1, 2, 3)]
        + [(f"extend-{c}", partial(d.extend, divisor=c), 8) for c in ("cross", "cusp")]
        + [("flat-cross", partial(d.flat, divisor="cross"), 4),
           ("flat-cusp", partial(d.flat, divisor="cusp"), 4),
           ("not-flat-cusp", partial(d.flat, divisor="cusp", flat_ok=False), 4),
           ("football", d.football, 12)]
        + [(f"hyperplanes{n}", partial(d.hyperplanes, n=n), 3) for n in range(2, 6)]
        + [("sextic", d.sextic, 1),
           ("braid3", partial(d.braid, n=3), 3),
           ("braid4", partial(d.braid, n=4), 1),
           ("castle", d.castle, 18)]
        + [(f"gen-divisor{n}", partial(d.gen_divisor, n=n), 2) for n in (2, 3, 4)]
        + [("gen-nonextendable", d.gen_nonextendable, 10)]
        + [_malformed(w) for w in d.KNOWN_DEFECTS]
        + [_malformed(w) for w in ("truncated-json", "jc-not-square",
                                   "saito-missing-key", "psi-zero")]),
)

LINALG_LARGE = Workload(
    name="linalg-large",
    why="11 heavy documents per round: rank-oracle rref on 32-40 columns, dense rank "
        "6-8 cofactor lmat_det, jc n=6-8, filtrations dim 5-6; lat_tail_ms is p90",
    tail_pct=90.0,
    round_s=2.3,
    slots=(
        ("birkhoff-oracle4", partial(d.birkhoff, n=4, oracle=True, max_deg=1, band=3,
                                     exps=(2, 1, -1, -2)), 2),
        ("birkhoff-oracle5", partial(d.birkhoff, n=5, oracle=True, max_deg=2, band=2,
                                     exps=(1, 1, 0, -1, -1)), 1),
        ("birkhoff6", partial(d.birkhoff, n=6, oracle=False, max_deg=1, band=5,
                              exps=(2, 1, 1, 0, -1, -2)), 1),
        ("birkhoff7", partial(d.birkhoff, n=7, oracle=False, max_deg=1, band=3,
                              exps=(2, 1, 1, 0, -1, -1, -2)), 1),
        ("birkhoff8", partial(d.birkhoff, n=8, oracle=False, max_deg=0, band=3,
                              exps=(2, 2, 1, 0, 0, -1, -2, -2)), 1),
        ("jc6", partial(d.jc, n=6), 1),
        ("jc7", partial(d.jc, n=7), 1),
        ("jc8", partial(d.jc, n=8), 1),
        ("split5x4", partial(d.split_planted, dim=5, nfilt=4, max_steps=2), 1),
        ("split6x4", partial(d.split_planted, dim=6, nfilt=4, max_steps=2), 1),
    ),
)

DIVISOR_HEAVY = Workload(
    name="divisor-heavy",
    why="21 saito-check and gen-divisor documents per round on free arrangements and "
        "known negatives: MultiPoly mul, exact_div, gcd and Bareiss; lat_tail_ms is p90",
    tail_pct=90.0,
    round_s=3.0,
    slots=(
        ("braid5", partial(d.braid, n=5), 1),
        ("braid4", partial(d.braid, n=4), 2),
        ("B3", partial(d.coxeter_b, n=3), 3),
        # four B4 per round: p90 falls inside one class of steady cost
        ("B4", partial(d.coxeter_b, n=4), 4),
        ("sextic", d.sextic, 2),
        ("braid4-dropped", partial(d.braid, n=4, negative="dropped"), 1),
        ("braid3-squared", partial(d.braid, n=3, negative="squared"), 1),
        ("B3-dropped", partial(d.coxeter_b, n=3, negative="dropped"), 1),
        ("B3-squared", partial(d.coxeter_b, n=3, negative="squared"), 1),
        ("sextic-dropped", partial(d.sextic, negative="dropped"), 1),
        ("sextic-squared", partial(d.sextic, negative="squared"), 1),
        ("gen-divisor4", partial(d.gen_divisor, n=4), 3),
    ),
)

WORKLOADS = {w.name: w for w in (BATCH_SMALL, LINALG_LARGE, DIVISOR_HEAVY)}
