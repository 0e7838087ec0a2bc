"""Metric definitions of the benchmark; run this file to rewrite BENCHMARK.json.

    python3 perfbench/manifest.py

End-to-end metrics come from untraced runs (``--trace 0``), per-layer
metrics from a traced run (``--trace 1``).  Each per-layer metric lists,
in its comment, the end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import WHY  # noqa: E402

RUN_SECONDS = 5

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.2),        # one pass over the workload's jobs
    ("hi_order_s", "s", "lower", 0.2),    # jobs at the top order: composition's cubic term
    ("lo_order_s", "s", "lower", 0.2),    # jobs at the bottom order: fixed per-job cost
    # share of distinct jobs that passed; the complement of fail_frac, which
    # is 0 on a clean workload and so has no ratio to bound
    ("ok_frac", "ratio", "higher", 0.02),
    ("setup_s", "s", "lower", 0.25),     # interpreter, import, inputs, warm-up job
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    # kernel products by coefficient type: mp moves wall_s/hi_order_s on
    # closed and recursive, int moves catalog wall_s, f64 moves lo_order_s
    ("series.mul_mp.calls", "count", "lower"),
    ("series.mul_mp.self_s", "s", "lower"),
    ("series.mul_mp.madds", "count", "lower"),
    ("series.mul_mp.dps_mean", "digits", "lower"),
    ("series.mul_int.calls", "count", "lower"),
    ("series.mul_int.self_s", "s", "lower"),
    ("series.mul_int.madds", "count", "lower"),
    ("series.mul_f64.calls", "count", "lower"),
    ("series.mul_f64.self_s", "s", "lower"),
    ("series.mul_f64.madds", "count", "lower"),
    # hauptmodul substitution: wall_s/hi_order_s on closed and recursive;
    # repeat_ratio moves closed wall_s, dps also fail_frac and residuals
    ("series.compose.calls", "count", "lower"),
    ("series.compose.self_s", "s", "lower"),
    ("series.compose.total_s", "s", "lower"),
    ("series.compose.dps_max", "digits", "lower"),
    ("series.compose.repeat_ratio", "ratio", "lower"),
    ("series.compose.tensor.repeat_ratio", "ratio", "lower"),
    ("series.pow_binomial.self_s", "s", "lower"),
    ("series.divide.self_s", "s", "lower"),
    ("series.invert.self_s", "s", "lower"),
    ("series.self_s", "s", "lower"),
    ("series.errors", "count", "lower"),
    # catalog construction: catalog wall_s, recursive lo_order_s
    ("classical.catalogs", "count", "lower"),
    ("classical.calls", "count", "lower"),
    ("classical.self_s", "s", "lower"),
    ("classical.errors", "count", "lower"),
    # representation validation: near zero; a rise shows on lo_order_s
    ("reps.self_s", "s", "lower"),
    ("reps.errors", "count", "lower"),
    # solvers move recursive wall_s only; assembly and residuals lo_order_s
    ("mlde.frobenius.calls", "count", "lower"),
    ("mlde.frobenius.self_s", "s", "lower"),
    ("mlde.solves_per_exponent", "ratio", "lower"),
    ("mlde.noncyclic.solves_per_exponent", "ratio", "lower"),
    ("mlde.assemble.self_s", "s", "lower"),
    ("mlde.modular_derivative.self_s", "s", "lower"),
    ("mlde.residual.self_s", "s", "lower"),
    ("mlde.self_s", "s", "lower"),
    ("mlde.errors", "count", "lower"),
    # pipelines: closed wall_s
    ("constructions.self_s", "s", "lower"),
    ("constructions.rank2_minimal.calls", "count", "lower"),
    ("constructions.errors", "count", "lower"),
    # front end: lo_order_s everywhere, catalog wall_s through emit
    ("cli.parse_s", "s", "lower"),
    ("cli.run_self_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.out_bytes", "B", "lower"),
    ("cli.errors", "count", "lower"),
    # traced over untraced time of the bottom-order jobs, minus one
    ("trace.overhead_frac", "ratio", "lower"),
    # correctness diagnostics; round-off level, so reported without a bound
    ("check.fail_frac", "ratio", "lower"),
    ("check.resid_max", "ratio", "lower"),
    ("check.ref_dev_max", "ratio", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main() -> int:
    target = HERE.parent / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
