"""Run the benchmark over several seeds and print every metric by name.

    python3 bench/summary.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                             [--json OUT] [--baseline EARLIER.json]

Runs ``run.py`` once per (workload, seed) in a fresh process, with the
``command`` and ``run_seconds`` of ``BENCHMARK.json``, and prints for each
workload and metric the median, the quartiles and the spread (interquartile
distance over the median) next to the metric's bound, plus the failed share
of attempted ops.  ``--json`` saves the raw values; ``--baseline`` adds the
drift of each median from a saved set.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(x) for x in text.split(",")]


def _run(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    saved: dict = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            results.append(_run(spec["command"], workload, seed, spec["run_seconds"], args.trace))
            print(f"  {workload} seed {seed}: done", file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(results)} runs, fail_ratio {failed / attempted:.6g} "
              f"({failed}/{attempted} ops), all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'drift':>8}")
        saved[workload] = {}
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            saved[workload][metric] = values
            median, q1, q3, spread = _spread(values)
            bound = bounds.get(metric)
            drift = ""
            before = baseline.get(workload, {}).get(metric)
            if before and statistics.median(before):
                drift = f"{median / statistics.median(before) - 1:+.4f}"
            print(f"  {metric:34} {first['unit']:6} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6} {drift:>8}")
    if args.json:
        args.json.write_text(json.dumps(saved, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
