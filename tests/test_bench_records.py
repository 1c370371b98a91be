"""The committed BENCH_*.json records of paired benchmark runs agree with
BENCHMARK.json and with their own runs: a record's claim names a declared
workload and end-to-end metric, every side holds one run per pair, and the
medians, quartiles and win counts it quotes follow from those runs."""
import json
import math
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _close(quoted, runs_value) -> bool:
    return math.isclose(quoted, runs_value, rel_tol=1e-3)


def test_records_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_the_claim_is_a_declared_workload_and_metric(path):
    claimed = json.loads(path.read_text())["claimed"]
    assert claimed["workload"] in WORKLOADS
    assert claimed["metric"] in BETTER


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_the_quoted_figures_follow_from_the_runs(path):
    record = json.loads(path.read_text())
    assert set(record["workloads"]) <= WORKLOADS
    for name, workload in record["workloads"].items():
        pairs = workload["pairs"]
        assert len(workload["seeds"]) == pairs, name
        for metric, m in workload["metrics"].items():
            where = f"{name} {metric}"
            assert m["better"] == BETTER[metric], where
            parent, change = m["parent_runs"], m["change_runs"]
            assert len(parent) == len(change) == pairs, where
            for side, runs in (("parent", parent), ("change", change)):
                q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
                assert _close(m[f"{side}_median"], statistics.median(runs)), where
                assert _close(m[f"{side}_quartiles"][0], q1) and _close(m[f"{side}_quartiles"][1], q3), where
            assert _close(m["change_over_parent"], m["change_median"] / m["parent_median"]), where
            wins = sum(c > p if m["better"] == "higher" else c < p for p, c in zip(parent, change))
            assert m["change_wins"] == wins, where
