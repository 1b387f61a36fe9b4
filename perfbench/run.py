"""Seeded end-to-end and per-layer benchmark of qtopos.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ks-search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs as a closed loop with one client in its own
single-threaded worker process (BLAS thread counts pinned to 1); the
program is imported from ``src/`` of the checkout.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics from a traced
run plus the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONHASHSEED"] = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import tracer  # noqa: E402
from probe import PROBE_REFERENCE_S  # noqa: E402

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "ops_per_s": "1/s", "ok_share": "ratio", "peak_rss_mb": "MB"}
# Setup is cheap except on prop-logic, which builds two presheaves.
SETUP_SAMPLES = {"poset-closure": 5, "ks-search": 5, "prop-logic": 3,
                 "kernel-count": 5}
# The tail percentile of each workload, fixed so that a run with a few more
# or fewer ops does not jump to another percentile: the highest of
# p50/p75/p90/p95/p99 with at least ten samples beyond it in every 20-second
# run at the seed commit.  kernel-count is the exception: its op times
# above p80 are sparse (neighbouring order statistics 15-30% apart), so p90
# jumped by 20% between runs and p75 (48 samples beyond) is used.  The CLI
# workloads run too few ops for any tail, so their tail is their median.
TAIL_PCT = {"poset-closure": 50, "ks-search": 50, "prop-logic": 90,
            "kernel-count": 75}
WORKER_TIMEOUT_S = 170


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; the median for ``pct == 50``."""
    ordered = sorted(values)
    if pct == 50:
        return statistics.median(ordered)
    rank = max(1, -(-int(round(pct * len(ordered))) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def _worker(workload: str, manifest: Path, mode: str, seconds: float,
            trace: int, trace_out: Path | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--manifest", str(manifest), "--mode", mode,
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    spawned = time.time()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # fresh interpreter to first op ready, minus reading the benchmark's
    # inputs, at the reference host speed
    raw = out["ready_wall"] - spawned - out["load_s"]
    out["setup_s"] = raw * PROBE_REFERENCE_S / out["setup_probe_s"]
    return out


def scaled_times(loop: dict) -> list[float]:
    """Op times at the reference host speed.

    Each op is scaled by the probe bursts just before and just after it,
    since the host's speed holds for a few seconds at a time.
    """
    at = [t for t, _ in loop["bursts"]]
    out = []
    for r in loop["records"]:
        i = bisect.bisect_left(at, r["begin"])
        near = [loop["bursts"][j][1] for j in (i - 1, i) if 0 <= j < len(at)]
        out.append(r["seconds"] * PROBE_REFERENCE_S / statistics.mean(near))
    return out


def _loop_metrics(loop: dict, tail_pct: float) -> dict:
    """Latency and throughput of a loop, at the reference host speed."""
    times = scaled_times(loop)
    raw = sum(r["seconds"] for r in loop["records"])
    ok = sum(r["outcome"] == "ok" for r in loop["records"])
    return {"op_p50_s": statistics.median(times),
            "op_tail_s": percentile(times, tail_pct),
            "tail_pct": tail_pct, "samples": len(times),
            "scale": sum(times) / raw,
            "ops_per_s": ok / (loop["wall_s"] * sum(times) / raw),
            "ok_share": ok / len(times), "fail_share": 1 - ok / len(times)}


def _outcomes(loop: dict) -> dict:
    """Failed ops grouped by (shape, outcome, detail), for the log."""
    groups: dict = {}
    for r in loop["records"]:
        if r["outcome"] != "ok":
            key = (r["shape"], r["outcome"], r["detail"][:120])
            groups[key] = groups.get(key, 0) + 1
    return groups


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 log) -> dict:
    """Generate inputs, measure set-up, run the loop; return the result."""
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        manifest = gen.make_inputs(workload, seed, work)
        path = work / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        setups = [_worker(workload, path, "setup", 0, 0, None)["setup_s"]
                  for _ in range(SETUP_SAMPLES[workload] - 1)]
        trace_out = (OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
                     if trace else None)
        out = _worker(workload, path, "run", seconds, trace, trace_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(out["setup_s"])
    plain = out["plain"]
    loop = out["traced"] if trace else plain
    records = loop["records"]
    attempted = len(records)
    failed = sum(r["outcome"] != "ok" for r in records)
    correct = all(r["outcome"] in ("ok", "refused") for r in records)
    e2e = _loop_metrics(plain, TAIL_PCT[workload])
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = out["peak_rss_mb"]
    log(f"== {workload} seed={seed} passes={loop['passes']} ops={attempted} "
        f"failed={failed} correct={correct}")
    for (shape, outcome, detail), count in sorted(_outcomes(loop).items()):
        log(f"   {count} x {shape}: {outcome}: {detail}")
    if trace:
        layers = dict(out["layers"])
        traced = _loop_metrics(loop, TAIL_PCT[workload])
        layers["trace.op_p50_s"] = traced["op_p50_s"]
        layers["trace.overhead_s"] = traced["op_p50_s"] - e2e["op_p50_s"]
        metrics = {name: {"value": layers[name], "unit": tracer.UNITS[name]}
                   for name in tracer.PER_LAYER}
        for name, m in metrics.items():
            log(f"   {name:28s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, m in metrics.items():
            extra = (f"  (p{e2e['tail_pct']:g} of {e2e['samples']} ops)"
                     if name == "op_tail_s" else "")
            log(f"   {name:12s} {m['value']:.6g} {m['unit']}{extra}")
        log(f"   fail_share   {e2e['fail_share']:.6g} ratio")
        log(f"   host speed   raw times x {e2e['scale']:.4g}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=list(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtopos" / "__init__.py").is_file():
        print(f"error: no qtopos sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)

    def log(line: str) -> None:
        print(line, flush=True)

    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      args.trace, log) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value
                             for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
