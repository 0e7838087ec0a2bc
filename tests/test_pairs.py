"""``tools/pairs.py``: the aggregation of alternating benchmark runs, on
canned result lines; no benchmark is run."""

import importlib.util
import json
import statistics
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
SPECS = [{"name": "wall_s", "better": "lower", "bound": 0.2},
         {"name": "ok_frac", "better": "higher", "bound": 0.02}]


def load_tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(wall_s: float, ok_frac: float, correct: bool = True) -> str:
    """The last line ``perfbench/run.py`` prints, after its row lines."""
    return "row {}\n" + json.dumps({
        "correct": correct, "attempted": 10, "failed": 1,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "ok_frac": {"value": ok_frac, "unit": "ratio"}}}) + "\n"


def canned_runs(pairs, first_seed=100) -> list:
    tool = load_tool()
    runs = []
    for k, (parent, change) in enumerate(pairs):
        for side, values in (("parent", parent), ("change", change)):
            runs.append({"seed": first_seed + k, "side": side,
                         "first": "parent" if k % 2 == 0 else "change",
                         **tool.parse_result(result_line(*values))})
    return runs


def test_parse_result_reads_the_last_line():
    tool = load_tool()
    assert tool.parse_result(result_line(0.25, 0.875, False)) == {
        "metrics": {"wall_s": 0.25, "ok_frac": 0.875}, "attempted": 10, "failed": 1,
        "correct": False}


def test_summary_pairs_by_seed_in_each_metric_direction():
    tool = load_tool()
    parent = [1.0, 1.2, 0.9, 1.1, 1.0]
    change = [0.9, 1.3, 0.8, 0.95, 1.0]  # better in pairs 0, 2 and 3; a tie is no win
    ok = [0.9, 1.0, 0.9, 1.0, 0.9]
    runs = canned_runs([((p, 0.9), (c, f)) for p, c, f in zip(parent, change, ok)])
    summary = tool.summarize(runs, SPECS)
    wall = summary["wall_s"]
    assert wall["parent_median"] == 1.0 and wall["change_median"] == 0.95
    assert wall["parent_quartiles"] == statistics.quantiles(parent, n=4)
    assert wall["change_quartiles"] == statistics.quantiles(change, n=4)
    assert wall["change_better_pairs"] == 3
    # higher is better: the change's 1.0 wins pairs 1 and 3
    assert summary["ok_frac"]["change_better_pairs"] == 2
    assert wall["change_beats_every_parent_run"] is False
    assert list(wall) == ["parent_median", "parent_quartiles", "change_median",
                          "change_quartiles", "change_better_pairs",
                          "change_beats_every_parent_run", "claim_nine_of_ten",
                          "claim_gap_past_parent_iqr"]
    # each change run below every parent run; ties and overlaps are not
    runs = canned_runs([((p, 0.9), (p - 0.5, 0.9)) for p in parent])
    assert tool.summarize(runs, SPECS)["wall_s"]["change_beats_every_parent_run"] is True
    runs = canned_runs([((p, 0.9), (0.9, 0.9)) for p in parent])
    assert tool.summarize(runs, SPECS)["wall_s"]["change_beats_every_parent_run"] is False


def test_claim_verdict_counts_wins_and_the_median_gap():
    tool = load_tool()
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.02, 0.98]
    # better in 9 pairs, the last a tie: a tie counts for neither side, and
    # the gap 0.10 is past the parent's quartiles (0.98 to 1.02)
    change = [p - 0.1 for p in parent[:9]] + [parent[9]]
    wall = tool.summarize(canned_runs([((p, 0.9), (c, 0.9)) for p, c in zip(parent, change)]),
                          SPECS)["wall_s"]
    assert wall["change_better_pairs"] == 9
    assert wall["claim_nine_of_ten"] is True and wall["claim_gap_past_parent_iqr"] is True
    # two ties leave 8 wins of 10
    change[8] = parent[8]
    wall = tool.summarize(canned_runs([((p, 0.9), (c, 0.9)) for p, c in zip(parent, change)]),
                          SPECS)["wall_s"]
    assert wall["change_better_pairs"] == 8 and wall["claim_nine_of_ten"] is False
    # better in every pair, by a gap inside the parent's interquartile range
    change = [p - 0.01 for p in parent]
    wall = tool.summarize(canned_runs([((p, 0.9), (c, 0.9)) for p, c in zip(parent, change)]),
                          SPECS)["wall_s"]
    assert wall["change_better_pairs"] == 10
    assert wall["claim_nine_of_ten"] is True and wall["claim_gap_past_parent_iqr"] is False
    # higher is better: ok_frac up by 0.05 in 9 of 10 pairs is a claim,
    # the same gap downwards is none
    ok = [0.9, 0.91, 0.89, 0.9, 0.92, 0.88, 0.9, 0.91, 0.89, 0.9]
    for step, claimed in ((0.05, True), (-0.05, False)):
        runs = canned_runs([((1.0, p), (1.0, p + step if k else p)) for k, p in enumerate(ok)])
        entry = tool.summarize(runs, SPECS)["ok_frac"]
        assert entry["change_better_pairs"] == (9 if claimed else 0)
        assert entry["claim_nine_of_ten"] is claimed
        assert entry["claim_gap_past_parent_iqr"] is claimed
    lines = tool.report(tool.summarize(runs, SPECS), SPECS, 10)
    assert lines[1].endswith("claim: better in 9/10 of the pairs no, median gap past the"
                             " parent's IQR no")


def test_verdict_reads_the_quartiles_and_the_bound_in_the_worse_direction():
    tool = load_tool()
    entry = {"parent_median": 1.0, "parent_quartiles": [0.95, 1.0, 1.1], "change_median": 1.15,
             "change_beats_every_parent_run": False}
    assert tool.verdict(entry, SPECS[0]) == (False, "yes")
    assert tool.verdict({**entry, "change_median": 1.25}, SPECS[0]) == (False, "no")
    assert tool.verdict({**entry, "change_median": 0.5}, SPECS[0]) == (False, "yes")
    # higher is better: 1% lower is within the 2% bound, 5% lower is not;
    # the parent's spread 0.15 is wider than the 0.02 bound, so a median
    # within the bound is unresolved unless every change run won
    narrow = {**entry, "parent_quartiles": [0.995, 1.0, 1.005]}
    assert tool.verdict({**narrow, "change_median": 0.99}, SPECS[1]) == (False, "yes")
    assert tool.verdict({**entry, "change_median": 0.99}, SPECS[1]) == (True, "unresolved")
    assert tool.verdict({**entry, "change_median": 0.95}, SPECS[1]) == (True, "no")
    assert tool.verdict({**entry, "change_median": 1.5}, SPECS[1]) == (False, "unresolved")
    won = {**entry, "change_beats_every_parent_run": True}
    assert tool.verdict({**won, "change_median": 1.5}, SPECS[1]) == (False, "yes")
    # lower is better: a spread of 0.3 is wider than the 0.2 bound
    wide = {**entry, "parent_quartiles": [0.8, 1.0, 1.1]}
    assert tool.verdict({**wide, "change_median": 1.0}, SPECS[0]) == (True, "unresolved")


def test_record_adds_each_workload_to_the_last_set(tmp_path):
    tool = load_tool()
    path = tmp_path / "BENCH.json"
    runs = canned_runs([((1.0, 1.0), (0.9, 1.0)), ((1.1, 1.0), (1.0, 1.0))])
    summary = tool.summarize(runs, SPECS)
    tool.record(path, "recursive", runs, summary, 5)
    tool.record(path, "closed", runs, summary, 7)
    data = json.loads(path.read_text())
    assert data["claimed"] is None
    assert data["command"] == ("python3 perfbench/run.py --workload <w> --seed <s>"
                               " --trace 0 (runs of 5 s)")
    assert [s["note"] for s in data["sets"]] == ["seeds 100-101 (recursive), 100-101 (closed)"]
    workloads = data["sets"][0]["workloads"]
    assert list(workloads) == ["recursive", "closed"]
    recursive = workloads["recursive"]
    assert recursive["pairs"] == 2 and recursive["correct"] is True
    assert recursive["summary"] == summary
    assert recursive["runs"][0] == {"seed": 100, "side": "parent", "first": "parent",
                                    "metrics": {"wall_s": 1.0, "ok_frac": 1.0},
                                    "attempted": 10, "failed": 1}
    assert [(r["seed"], r["side"], r["first"]) for r in recursive["runs"]] == [
        (100, "parent", "parent"), (100, "change", "parent"),
        (101, "parent", "change"), (101, "change", "change")]
