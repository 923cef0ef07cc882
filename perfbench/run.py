"""hextiling benchmark: seeded CLI request mixes, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in a worker process of its own (perfbench/worker.py), so
its peak resident set is its own.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced replay.  The
metric names and units are the ones listed in BENCHMARK.json.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  Lines
before it are for people.  A run record, and with tracing the spans, go to
.perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from calibration import CALIBRATION_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("queries", "verify-lgv", "verify-oracle")
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170


def setup_seconds() -> tuple:
    """Set-up time over fresh interpreters, measured inside each child: the
    median of import + build_parser scaled by the calibration kernel timed in
    the same child, and the unscaled median.  One discarded probe first
    writes the bytecode caches."""
    scaled, raw = [], []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-I", str(HERE / "probe.py"), str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        setup, kernel = map(float, out.stdout.split())
        if i:
            scaled.append(setup * CALIBRATION_REF_S / kernel)
            raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--src", str(SRC)]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.tsv.gz")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance() -> dict:
    """Interpreter, commit (when the checkout is a git work tree) and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "commit": commit, "src_sha256": digest.hexdigest()}


def measure(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """One workload: the metrics BENCHMARK.json lists for this trace mode."""
    res = run_worker(workload, seed, seconds, trace)
    if trace:
        values = res["per_layer"]
        wanted = spec["per_layer"]
        balanced = abs(res["self_time_balance_s"]) < 1e-6
    else:
        setup_s, wall_setup_s = setup_seconds()
        values = {**res["end_to_end"], "setup_s": setup_s, "wall.setup_s": wall_setup_s}
        wanted = spec["end_to_end"]
        balanced = True
    e2e = res["end_to_end"]
    print(f"# {workload}: {res['requests']} requests in {res['blocks']} blocks, "
          f"{res['loop_wall_s']:.2f} s timed loop, error_rate {res['failed'] / res['attempted']:.4g} "
          f"({res['failed']}/{res['attempted']}), tail = p{e2e['tail_percentile']} with "
          f"{e2e['beyond_tail']} samples beyond it")
    print(f"#   wall clock: {e2e['wall.throughput_rps']:.4g} req/s, p50 {e2e['wall.latency_p50_ms']:.4g} ms, "
          f"p{e2e['tail_percentile']} {e2e['wall.latency_tail_ms']:.4g} ms"
          + (f", set-up {values['wall.setup_s']:.4g} s" if not trace else "")
          + f"; calibration kernel {e2e['wall.calibration_ms']:.4g} ms; "
          "the timings below are scaled to a 1 ms kernel")
    for why in res["failures"]:
        print(f"#   FAIL {why}")
    if trace:
        print(f"#   tracing overhead {values['trace.overhead_s']:.3f} s "
              f"({values['trace.wall_s']:.3f} s traced vs {values['trace.untraced_wall_s']:.3f} s "
              f"untraced); self times + outside - wall = {res['self_time_balance_s']:.3g} s")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{workload:14s} {m['name']:45s} {values[m['name']]:.6g} {m['unit']}")
    return {"correct": res["failed"] == 0 and balanced, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics, "worker": res}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hextiling benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hextiling" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no hextiling source tree (src/hextiling) "
              "or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)
    info = provenance()
    print(f"# python {info['python']} ({info['implementation']}), commit {info['commit']}, "
          f"src sha256 {info['src_sha256'][:16]}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: measure(w, args.seed, args.seconds, args.trace, spec) for w in names}
    record = {"args": vars(args), "provenance": info, "results": results}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    if args.workload == "all":
        metrics = {f"{w}:{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
