"""Run one workload in a process of its own; print its measurements as JSON.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --src DIR [--spans FILE]

The worker imports the CLI from ``--src`` and calls ``hextiling.cli.main``
in a closed loop: one client, one thread, each request sent when the previous
one has returned, timed from call to return with stdout and stderr captured.
It runs whole blocks of the seeded mix until ``--seconds`` have passed and at
least MIN_REQUESTS requests are done.  Before each request, off the clock,
it times the calibration kernel (calibration.py); the reported timings are
scaled by each block's median kernel time.  Outputs are checked after the
loop.

With ``--trace 1`` it then replays the first TRACE_BLOCKS blocks with every
layer function wrapped, and reports the per-layer metrics of that replay.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import mixes  # noqa: E402
from calibration import CALIBRATION_REF_S, calibration_seconds  # noqa: E402
import refcheck  # noqa: E402
from spans import Tracer  # noqa: E402

# 10 requests lie beyond the 95th percentile of 200, so p95 is the highest
# percentile with at least ten samples beyond it on every run.
MIN_REQUESTS = 200
TAIL_PERCENTILE = 95
# Stop at the next block boundary after this long even if MIN_REQUESTS is
# not reached, so a run always ends within its time limit.
MAX_LOOP_SECONDS = 120.0
TRACE_BLOCKS = 2
def call(cli, argv):
    """One request: (exit code, stdout, stderr, seconds from call to return)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed request, not a crashed benchmark
            rc = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def timed_loop(cli, blocks, seconds):
    """Closed loop over whole blocks.

    Returns the records, each block's wall time without the calibration
    kernel, and each block's speed factor: CALIBRATION_REF_S over the median
    kernel time measured inside the block.
    """
    records, block_walls, factors = [], [], []
    start = time.perf_counter()
    for block in blocks:
        b0 = time.perf_counter()
        kernel = []
        for argv in block:
            kernel.append(calibration_seconds())
            records.append((argv, *call(cli, argv)))
        now = time.perf_counter()
        block_walls.append(now - b0 - sum(kernel))
        factors.append(CALIBRATION_REF_S / statistics.median(kernel))
        elapsed = now - start
        if (elapsed >= seconds and len(records) >= MIN_REQUESTS) or elapsed >= MAX_LOOP_SECONDS:
            return records, block_walls, factors


def quantile(values, p: float) -> float:
    """The p-th percentile (0 < p < 100), interpolated between order statistics."""
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def failures(records, proportion):
    """Reasons for each failed record, None for each correct one."""
    cache = {}
    out = []
    for argv, rc, stdout, stderr, _ in records:
        key = (tuple(argv), rc, stdout, stderr)
        if key not in cache:
            cache[key] = refcheck.check(argv, rc, stdout, stderr, proportion)
        out.append(cache[key])
    return out


def end_to_end(records, reasons, block_walls, factors):
    """Throughput and latencies, scaled by each block's speed factor, and the
    same figures in wall-clock time under ``wall.``.  A failed request counts
    as taking the whole loop's wall time."""
    wall = sum(block_walls)
    raw = [wall if why else dt for (*_, dt), why in zip(records, reasons)]
    scaled = [x * factors[i // mixes.BLOCK_SIZE] for i, x in enumerate(raw)]
    out = {}
    for prefix, lat, loop in (("", scaled, sum(w * f for w, f in zip(block_walls, factors))),
                              ("wall.", raw, wall)):
        out[prefix + "throughput_rps"] = len(records) / loop
        out[prefix + "latency_p50_ms"] = 1000 * statistics.median(lat)
        out[prefix + "latency_tail_ms"] = 1000 * quantile(lat, TAIL_PERCENTILE)
    out["wall.calibration_ms"] = 1000 * CALIBRATION_REF_S / statistics.median(factors)
    out["tail_percentile"] = TAIL_PERCENTILE
    out["beyond_tail"] = sum(1 for x in scaled if 1000 * x > out["latency_tail_ms"])
    return out


def traced_pass(cli, argvs):
    tracer = Tracer()
    layers.install(tracer)
    records = []
    try:
        start = time.perf_counter()
        for i, argv in enumerate(argvs):
            tracer.current_request = i
            records.append((argv, *call(cli, argv)))
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    return tracer, records, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(mixes.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="directory holding the hextiling package")
    ap.add_argument("--spans", help="write the traced spans here (gzip'd TSV)")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    from hextiling import cli, formulas

    for warm in mixes.WARMUP[args.workload]:
        call(cli, warm)
    blocks = mixes.blocks(args.workload, args.seed)
    records, block_walls, factors = timed_loop(cli, blocks, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    proportion = formulas.proportion_balanced_form
    reasons = failures(records, proportion)
    result = {
        "requests": len(records),
        "attempted": len(records),
        "failed": sum(1 for r in reasons if r),
        "failures": sorted({r for r in reasons if r})[:5],
        "loop_wall_s": sum(block_walls),
        "blocks": len(block_walls),
        "block_walls_s": block_walls,
        "speed_factors": factors,
        "latencies_s": [r[-1] for r in records],
        "end_to_end": {**end_to_end(records, reasons, block_walls, factors),
                       "peak_rss_mb": peak_rss_mb},
    }

    if args.trace:
        size = mixes.BLOCK_SIZE
        argvs = [r[0] for r in records[:TRACE_BLOCKS * size]]
        tracer, traced, traced_wall = traced_pass(cli, argvs)
        traced_reasons = failures(traced, proportion)
        changed = sum(1 for a, b in zip(records, traced) if a[1:4] != b[1:4])
        fixed_ids = [i for i, a in enumerate(argvs) if a[0] == "fixed"]
        metrics = layers.layer_metrics(tracer, traced_wall,
                                       sum(block_walls[:TRACE_BLOCKS]), fixed_ids)
        metrics.update(layers.loc_metrics(Path(args.src) / "hextiling"))
        metrics.update({k: v for k, v in result["end_to_end"].items() if k.startswith("wall.")})
        self_total = sum(metrics[f"{g}.self_s"] for g in layers.SELF_GROUPS)
        balance = self_total + metrics["trace.outside_s"] - traced_wall
        result["attempted"] += len(traced)
        result["failed"] += sum(1 for r in traced_reasons if r) + changed
        result["failures"] += sorted({r for r in traced_reasons if r})[:5]
        if changed:
            result["failures"].append(f"{changed} outputs changed under tracing")
        result["per_layer"] = metrics
        result["self_time_balance_s"] = balance
        if args.spans:
            tracer.write(args.spans)

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
