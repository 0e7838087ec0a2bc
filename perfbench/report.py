"""Run the benchmark over several seeds and print every metric and job row.

    python3 perfbench/report.py --seeds 1,2,3,4,5 --workloads closed,recursive,catalog

For each workload and seed this runs ``run.py --trace 0`` and, unless
``--no-trace`` is given, ``run.py --trace 1``.  It prints, per workload:

* every metric with its unit, sample count, median and quartiles, and for
  end-to-end metrics the spread (quartile distance over median) next to
  the metric's bound; ``raw.*`` rows are the timings before calibration;
* the per-job rows of the traced runs (route, order, chosen dps, seconds,
  worst residual and its key, status);
* median seconds per route and order, the layout of the baseline table in
  ROADMAP.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import manifest  # noqa: E402


def run_once(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, list, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    rows = [json.loads(line[4:]) for line in lines if line.startswith("row ")]
    calibration = [json.loads(line[12:]) for line in lines if line.startswith("calibration ")]
    return json.loads(lines[-1]), rows, (calibration[0] if calibration else {})


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(v: float) -> str:
    return f"{v:.6g}"


def print_metrics(samples: dict, specs: list, bounds: dict) -> None:
    print(f"  {'metric':38} {'unit':7} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    for name, unit, _ in specs:
        values = samples.get(name, [])
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        line = (f"  {name:38} {unit:7} {len(values):>3} {fmt(med):>12} {fmt(q1):>12}"
                f" {fmt(q3):>12}")
        if name in bounds:
            spread = (q3 - q1) / med if med else float("inf")
            line += f" {spread:>8.4f} {bounds[name]:>6}"
        print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark report")
    parser.add_argument("--workloads", default="closed,recursive,catalog")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=int, default=manifest.RUN_SECONDS)
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {n: b for n, _, _, b in manifest.END_TO_END}
    e2e_specs = [s[:3] for s in manifest.END_TO_END]

    for workload in args.workloads.split(","):
        e2e: dict = defaultdict(list)
        layer: dict = defaultdict(list)
        times: dict = defaultdict(list)
        traced_rows = []
        verdicts = []
        for seed in seeds:
            result, rows, calibration = run_once(workload, seed, 0, args.seconds)
            verdicts.append((seed, 0, result["correct"], result["attempted"], result["failed"]))
            for name, m in result["metrics"].items():
                e2e[name].append(m["value"])
            for name, value in calibration.get("raw", {}).items():
                e2e["raw." + name].append(value)
            e2e["raw.pass_burst_s"].append(calibration["pass_burst_s"])
            for r in rows:
                times[(r["route"], r["order"])].append(r["seconds"])
            if not args.no_trace:
                result, rows, _ = run_once(workload, seed, 1, args.seconds)
                verdicts.append((seed, 1, result["correct"], result["attempted"],
                                 result["failed"]))
                for name, m in result["metrics"].items():
                    layer[name].append(m["value"])
                traced_rows += [dict(r, seed=seed) for r in rows]
        print(f"== {workload}")
        for seed, trace, correct, attempted, failed in verdicts:
            print(f"  seed {seed} trace {trace}: correct={correct} attempted={attempted}"
                  f" failed={failed}")
        raw_specs = [("raw." + n, "s", "lower") for n in
                     ("wall_s", "hi_order_s", "lo_order_s", "setup_s", "pass_burst_s")]
        print_metrics(e2e, e2e_specs + raw_specs, bounds)
        if layer:
            print_metrics(layer, manifest.PER_LAYER, {})
            print(f"  {'seed':>4} {'route':10} {'order':>5} {'input':14} {'dps':>4}"
                  f" {'seconds':>9} {'worst':>10} {'worst_key':24} status")
            for r in traced_rows:
                print(f"  {r['seed']:>4} {r['route']:10} {r['order']:>5} {r['input']:14}"
                      f" {r['dps']:>4} {r['seconds']:>9.3f} {r['worst']:>10.2e}"
                      f" {r['worst_key']:24} {r['status']}")
        print("  median seconds by route and order (untraced):")
        for (route, order), values in sorted(times.items()):
            print(f"    {route:10} {order:>5} {statistics.median(values):>9.3f}"
                  f"  (n={len(values)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
