"""Alternating benchmark runs of two trees, and their comparison.

    python3 tools/pairs.py --parent DIR --change DIR --workload W --seeds A-B
                           [--out FILE]

For every seed s from A to B, runs ``DIR/perfbench/run.py --workload W
--seed s --trace 0`` in each tree, the parent first on the first, third,
... seed and the change first on the others, and reads the result from
each run's last output line.  Each run lasts its own tree's default
length (``run_seconds`` in ``BENCHMARK.json``).  It prints, per end-to-end
metric of the change tree's ``BENCHMARK.json``: the parent's median and
quartiles, the change's median, the pairs in which the change was better,
whether the change's median lies within the parent's interquartile range,
and whether it is within the metric's bound (worse than the parent's
median by at most ``bound`` times it).  The claim verdict follows: whether
the change was better in at least 9 of every 10 pairs (a tie counts for
neither side), and whether its median is better than the parent's by more
than the parent's interquartile range; a gain is claimed only where both
hold.  That verdict reads "unresolved"
where the parent's interquartile range is wider than the bound and not
every run of the change beats every run of the parent.  Quartiles are
``statistics.quantiles(n=4)``, exclusive method.  ``--out`` adds the
workload's runs and summary to the last set of FILE, in the layout of the
``BENCH_*.json`` records, and its seeds to the set's note; it starts FILE
when it does not exist.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --trace 0 (runs of {} s)"


def parse_result(stdout: str) -> dict:
    """The metrics, job counts and verdict of one run's last output line."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"]}


def run_once(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed:\n{proc.stderr}")
    return parse_result(proc.stdout)


def summarize(runs: list[dict], specs: list[dict]) -> dict:
    """Per metric of ``specs``: both sides' medians and quartiles, the
    pairs, matched by seed, in which the change was strictly better,
    whether every run of the change beat every run of the parent, and the
    claim verdict: better in at least 9/10 of the pairs, and the medians
    farther apart, in the better direction, than the parent's quartiles."""
    side = {s: {r["seed"]: r["metrics"] for r in runs if r["side"] == s}
            for s in ("parent", "change")}
    out = {}
    for spec in specs:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        values = {s: [m[name] for m in side[s].values()] for s in side}
        quart = {s: statistics.quantiles(v, n=4) for s, v in values.items()}
        medians = {s: statistics.median(v) for s, v in values.items()}
        better = sum(sign * m[name] < sign * side["parent"][seed][name]
                     for seed, m in side["change"].items())
        lo, _, hi = quart["parent"]
        out[name] = {
            "parent_median": medians["parent"],
            "parent_quartiles": quart["parent"],
            "change_median": medians["change"],
            "change_quartiles": quart["change"],
            "change_better_pairs": better,
            "change_beats_every_parent_run":
                max(sign * v for v in values["change"]) < min(sign * v for v in values["parent"]),
            "claim_nine_of_ten": 10 * better >= 9 * len(side["change"]),
            "claim_gap_past_parent_iqr": sign * (medians["parent"] - medians["change"]) > hi - lo,
        }
    return out


def verdict(entry: dict, spec: dict) -> tuple[bool, str]:
    """(the change's median within the parent's interquartile range; "no"
    where it is worse than the parent's median by more than the metric's
    bound, else "unresolved" where the parent's interquartile range is
    wider than the bound and not every change run beat every parent run,
    else "yes")."""
    lo, _, hi = entry["parent_quartiles"]
    parent, change = entry["parent_median"], entry["change_median"]
    worse = change - parent if spec["better"] == "lower" else parent - change
    bound = spec["bound"] * abs(parent)
    if worse > bound:
        return lo <= change <= hi, "no"
    wide = hi - lo > bound and not entry["change_beats_every_parent_run"]
    return lo <= change <= hi, "unresolved" if wide else "yes"


def report(summary: dict, specs: list[dict], pairs: int) -> list[str]:
    lines = []
    for spec in specs:
        e = summary[spec["name"]]
        lo, _, hi = e["parent_quartiles"]
        iqr, bound = verdict(e, spec)
        lines.append(f"{spec['name']}: parent {e['parent_median']:.4g} [{lo:.4g}, {hi:.4g}]"
                     f" -> change {e['change_median']:.4g}, better in"
                     f" {e['change_better_pairs']} of {pairs}; within the parent's IQR:"
                     f" {'yes' if iqr else 'no'}; within the bound: {bound}; claim: better in"
                     f" 9/10 of the pairs {'yes' if e['claim_nine_of_ten'] else 'no'}, median"
                     f" gap past the parent's IQR"
                     f" {'yes' if e['claim_gap_past_parent_iqr'] else 'no'}")
    return lines


def record(path: Path, workload: str, runs: list[dict], summary: dict,
           run_seconds: float) -> None:
    """Add the workload to the last set of the record at ``path``, and its
    seeds to the set's note; a new record's command names ``run_seconds``."""
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {"date": datetime.date.today().isoformat(), "command": COMMAND.format(run_seconds),
                "protocol": "the parent runs first in the pairs of the first, third, ... seed",
                "parent": {}, "change": {}, "machine": {"python": sys.version.split()[0]},
                "quartiles": "statistics.quantiles(n=4), exclusive method",
                "claimed": None, "sets": [{"note": "seeds", "workloads": {}}]}
    last = data["sets"][-1]
    seeds = f"{runs[0]['seed']}-{runs[-1]['seed']} ({workload})"
    last["note"] += f", {seeds}" if last["workloads"] else f" {seeds}"
    last["workloads"][workload] = {
        "pairs": len(runs) // 2, "correct": all(r["correct"] for r in runs), "summary": summary,
        "runs": [{k: v for k, v in r.items() if k != "correct"} for r in runs]}
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="A-B, both included")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    specs = bench["end_to_end"]
    runs = []
    for k, seed in enumerate(range(first, last + 1)):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, seed)
            runs.append({"seed": seed, "side": side, "first": order[0], **result})
    summary = summarize(runs, specs)
    print("\n".join(report(summary, specs, len(runs) // 2)))
    print(f"correct on every run: {all(r['correct'] for r in runs)}; failed jobs "
          f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
    if args.out:
        record(args.out, args.workload, runs, summary, bench["run_seconds"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
