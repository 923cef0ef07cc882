"""Seeded request mixes: the argv lists the benchmark sends to the CLI.

A workload is a list of slots.  One block of requests takes one request from
every slot, drawing that slot's parameters from the seeded generator, and
shuffles the block.  Every block of a workload therefore has the same shape:
the same number of cheap, middle and expensive requests.  The seed changes the
parameters and the order, not the shape, so throughput and the percentiles
stay comparable between seeds.

Each mix has 20 slots, sorted by cost into four tiers:

* cheap (7 slots, 35 % of requests), parameters drawn from wide ranges;
* median (6 slots, 35-65 %), dominated by one request kind, so that the
  median request always lands inside it and never in a gap between kinds;
* heavy (4 slots, 65-85 %), parameters drawn from several kinds;
* tail (3 slots, 85-100 %), homogeneous, so that the 95th percentile lands
  two thirds of the way into it.

The measured loop runs whole blocks only.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Sequence

Argv = List[str]
Slot = Callable[[random.Random], Argv]

BLOCK_SIZE = 20


def _count(lo: int, hi: int) -> Slot:
    """count --sides A M with both sides drawn from [lo, hi]."""
    def make(rng: random.Random) -> Argv:
        return ["count", "--sides", str(rng.randint(lo, hi)), str(rng.randint(lo, hi))]
    return make


def _fixed(lo: int, hi: int) -> Slot:
    """fixed --sides A M --l L, sides from [lo, hi], L any axis position."""
    def make(rng: random.Random) -> Argv:
        side_a, side_m = rng.randint(lo, hi), rng.randint(lo, hi)
        n = side_a if side_m % 2 == 0 else side_a - 1
        return ["fixed", "--sides", str(side_a), str(side_m), "--l", str(rng.randint(1, n))]
    return make


def _sweep(ns: Sequence[Sequence[int]], bs: Sequence[str]) -> Slot:
    """sweep with a from {.25, .5, 1}, b from ``bs`` and one N list from ``ns``."""
    def make(rng: random.Random) -> Argv:
        n_list = rng.choice(ns)
        return (["sweep", "--a", rng.choice(("0.25", "0.5", "1")), "--b", rng.choice(bs), "--n"]
                + [str(n) for n in n_list])
    return make


def _verify(suite: str, **ranges) -> Slot:
    """verify --suite SUITE with each bound drawn from its (lo, hi) range."""
    def make(rng: random.Random) -> Argv:
        argv = ["verify", "--suite", suite]
        for bound, (lo, hi) in ranges.items():
            argv += ["--" + bound.replace("_", "-"), str(rng.randint(lo, hi))]
        return argv
    return make


def _either(*slots: Slot) -> Slot:
    """One of ``slots``, chosen by the seeded generator."""
    def make(rng: random.Random) -> Argv:
        return rng.choice(slots)(rng)
    return make


_SMALL_SWEEP = [(20, 40), (30, 60), (40, 80), (50, 100), (25, 50, 100)]

QUERIES: List[Slot] = [
    # cheap: < 25 ms
    *[_sweep(_SMALL_SWEEP, ("0.25", "0.5"))] * 2,
    *[_count(10, 16)] * 3,
    *[_fixed(10, 14)] * 2,
    # median: 35-75 ms, four counts in the middle
    _sweep([(400,), (200, 400), (300, 400)], ("0.25",)),
    *[_count(22, 24)] * 4,
    _fixed(19, 21),
    # heavy: 100-200 ms
    *[_count(30, 32)] * 2,
    _fixed(24, 25),
    _sweep([(300,), (150, 300), (250,)], ("0.5",)),
    # tail: 250-300 ms
    *[_count(38, 40)] * 3,
]

VERIFY_LGV: List[Slot] = [
    # cheap: < 30 ms
    *[_either(
        _verify("lemma5", max_n=(4, 8), max_m=(4, 8)),
        _verify("hyp-chain", max_n=(3, 5), max_m=(3, 4)),
        _verify("corollary", max_n=(5, 10)),
        _verify("lemma6", max_n=(4, 4), max_m=(2, 3)),
        _verify("column-relation", max_n=(5, 6)),
    )] * 7,
    # median: 45-60 ms
    _verify("corollary", max_n=(14, 16)),
    *[_verify("p-polynomial", max_n=(5, 5))] * 4,
    _verify("symmetries", max_n=(3, 3)),
    # heavy: 100-200 ms
    *[_either(
        _verify("symmetries", max_n=(4, 4)),
        _verify("column-relation", max_n=(8, 8)),
        _verify("p-polynomial", max_n=(6, 6)),
        _verify("lemma6", max_n=(7, 8), max_m=(5, 5)),
        _verify("hyp-chain", max_n=(8, 8), max_m=(6, 6)),
    )] * 4,
    # tail: 270-350 ms
    _verify("symmetries", max_n=(5, 5)),
    *[_verify("p-polynomial", max_n=(7, 7))] * 2,
]

VERIFY_ORACLE: List[Slot] = [
    # cheap: < 15 ms
    *[_either(
        _verify("oracle-vs-theorems", max_a=(2, 2), max_m=(2, 4)),
        _verify("factorization", max_a=(2, 2), max_m=(2, 4)),
    )] * 7,
    # median: about 20 ms
    _verify("factorization", max_a=(2, 2), max_m=(5, 5)),
    *[_verify("oracle-vs-theorems", max_a=(2, 2), max_m=(5, 5))] * 4,
    _verify("factorization", max_a=(3, 3), max_m=(2, 2)),
    # heavy: 60-70 ms
    *[_either(
        _verify("oracle-vs-theorems", max_a=(3, 3), max_m=(3, 3)),
        _verify("factorization", max_a=(3, 3), max_m=(3, 3)),
    )] * 4,
    # tail: 350-400 ms
    _verify("factorization", max_a=(3, 3), max_m=(4, 4)),
    *[_verify("oracle-vs-theorems", max_a=(3, 3), max_m=(4, 4))] * 2,
]

WORKLOADS: Dict[str, List[Slot]] = {
    "queries": QUERIES,
    "verify-lgv": VERIFY_LGV,
    "verify-oracle": VERIFY_ORACLE,
}

# One small request of each command a workload uses, run before timing so
# that lazy imports and first-call costs stay out of the measurement.
WARMUP: Dict[str, List[Argv]] = {
    "queries": [["count", "--sides", "3", "3"],
                ["fixed", "--sides", "3", "4", "--l", "2"],
                ["sweep", "--a", "0.5", "--b", "0.5", "--n", "10"]],
    "verify-lgv": [["verify", "--suite", "lemma5", "--max-n", "2", "--max-m", "2"]],
    "verify-oracle": [["verify", "--suite", "factorization", "--max-a", "2", "--max-m", "2"]],
}


def blocks(workload: str, seed: int) -> Iterator[List[Argv]]:
    """Endless sequence of blocks; the same (workload, seed) gives the same sequence."""
    slots = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        block = [slot(rng) for slot in slots]
        rng.shuffle(block)
        yield block
