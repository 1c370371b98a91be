"""Smoke run of the benchmark at tiny sizes: output schema and metric names.

    python3 perfbench/smoke.py

For every workload it runs ``run.py --smoke`` untraced (twice) and traced,
and checks that the result line has exactly the contract's keys, that every
metric declared in BENCHMARK.json is present with its unit, that the exit
code agrees with ``correct``, and that the rep-0 determinism digest is the
same across the three runs.  The statistical gates have little power at
these sizes, so ``correct`` itself is reported, not required.  Last, it runs
the benchmark in a directory holding only BENCHMARK.json and perfbench/,
which must fail without printing a result.  Exits 1 on any problem.
"""
from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: pathlib.Path, workload: str, trace: int):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, declared: list[dict]) -> tuple[list[str], dict]:
    problems = []
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return [f"expected two output lines, got {len(lines)}: {proc.stderr[-500:]}"], {}
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        problems.append("attempted/failed are not counts")
    if result["correct"] != (result["failed"] == 0) or proc.returncode != (0 if result["correct"] else 1):
        problems.append(f"correct={result['correct']} failed={result['failed']} exit={proc.returncode}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, units {[k for k in want if got.get(k, want[k]) != want[k]]}")
    for k, v in result["metrics"].items():
        if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
            problems.append(f"{k} is not a finite number")
    for field in ("provenance", "gates", "digest_rep0"):
        if field not in info:
            problems.append(f"info line lacks {field}")
    failed_gates = [g["gate"] for g in info.get("gates", []) if not g["ok"]]
    return problems, {"correct": result["correct"], "failed_gates": failed_gates, "digest": info.get("digest_rep0")}


def main() -> int:
    bad = 0
    for w in SPEC["workloads"]:
        name = w["name"]
        digests = set()
        for trace in (0, 0, 1):
            problems, summary = check_result(run(ROOT, name, trace),
                                             SPEC["per_layer"] if trace else SPEC["end_to_end"])
            digests.add(summary.get("digest"))
            print(f"{name} trace={trace}: {'ok' if not problems else 'FAIL'} {summary} {problems}")
            bad += bool(problems)
        if len(digests) != 1:
            print(f"{name}: digests differ across runs: {digests}")
            bad += 1
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"bare directory: {'ok' if bare_ok else 'FAIL'} (exit {proc.returncode})")
    shutil.rmtree(bare)
    return 1 if bad or not bare_ok else 0


if __name__ == "__main__":
    sys.exit(main())
