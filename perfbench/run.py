"""rotsynth benchmark: study throughput, compile latency and set-up time.

    python3 perfbench/run.py --workload h-only --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see BENCHMARK.json for why each one exists):

* ``h-only``      ``run_scaling_study("h-only")`` reps, then single
                  ``synthesize`` calls on the H family;
* ``min-online``  ``run_scaling_study("min-online")`` reps, then single
                  ``min_online_synthesize`` calls over all four families;
* ``noise-decay`` the acceptance criterion-8 grid of ``decay_study`` plus
                  ``fit_exponential_decay``, then single-instance decay runs.

Every run is closed-loop and single-process.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` makes the traced run that
gives the per-layer metrics (spans around the calls between modules, see
tracing.py) and the micro-timings (micro.py).  Both check the program's
outputs, count failed operations and exit 1 if any failed.  The untraced
timings are scaled by an interleaved calibration loop (speed.py); the
unscaled figures are kept in the info line.

The next-to-last line of standard output is a JSON object with the
provenance, gate results and determinism digest; the last line is the
result object.  A full report and, for traced runs, the spans go to
``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

STUDY_SHARE = 0.6  # of --seconds spent on study reps; the rest on compile calls
BLOCK_S = 0.25  # compile calls between two calibration loops, about
MIN_BLOCK_CALLS = 200  # and at least
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
POOL_SAMPLES = 4000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("h-only", "min-online", "noise-decay"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the schema smoke run")
    return p.parse_args(argv)


def child(*args: str) -> dict:
    """Run setup_child.py in a fresh interpreter and return its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed: int, workload: str, sizes: dict) -> dict:
    import numpy

    rev = dirty = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            git = ["git", "-C", str(ROOT)]
            rev = subprocess.run(git + ["rev-parse", "HEAD"], env=env, capture_output=True,
                                 text=True, check=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"], env=env,
                                        capture_output=True, text=True, check=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "workload": workload,
        "sizes": sizes,
    }


def reference_digest(workload: str, seed: int, digest: str, smoke: bool) -> str:
    if smoke:
        return "not compared at smoke sizes"
    ref = json.loads((HERE / "reference.json").read_text())["digests"].get(workload, {}).get(str(seed))
    if ref is None:
        return "no reference for this seed"
    return "match" if ref == digest else "differs"


def run_untraced(wl, args, gates, sizes) -> tuple:
    import speed
    from setup_child import warm_up
    from workloads import sub_seed

    # each measured block sits between two calibration loops (see speed.py)
    loops = [speed.calibrate()]

    def factor() -> float:
        loops.append(speed.calibrate())
        return (loops[-2] + loops[-1]) / 2 / speed.REFERENCE_S

    raw_setup, setup, setup_wall = [], [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        timing = child("setup", wl.name)
        raw_setup.append(timing["setup_s"])
        setup_wall.append(timing["setup_wall_s"])
        setup.append(raw_setup[-1] / factor())
    warm_up(wl.name)

    # a call's latency is the CPU time it took: on a shared host about 1% of
    # 150 us calls are descheduled for more than 50 us, enough to move a
    # wall-clock p99 from run to run.  Percentiles are taken per block of
    # calls and scaled by the block's calibration; the run reports their
    # median over blocks.
    blocks, calls, bad_calls = [], 0, 0
    inputs = wl.compile_inputs(args.seed)
    clock = time.process_time_ns

    def compile_blocks(seconds: float) -> None:
        nonlocal calls, bad_calls
        n = max(1, round(seconds / BLOCK_S))
        for _ in range(n):
            block = []
            block_end = time.perf_counter() + seconds / n
            while time.perf_counter() < block_end or len(block) < MIN_BLOCK_CALLS:
                inp = next(inputs)
                start = clock()
                result = wl.compile_call(inp)
                block.append((clock() - start) / 1e3)
                bad_calls += not wl.check_call(inp, result)
            cuts = statistics.quantiles(block, n=100, method="inclusive")
            blocks.append((cuts[49], cuts[98], factor()))
            calls += len(block)

    # study reps and compile blocks alternate, so both kinds of figure
    # sample the whole run; compile blocks get 1 - STUDY_SHARE of the time
    raw_rates, rates, reps, units, bad_units, digest = [], [], 0, 0, 0, None
    deadline = time.perf_counter() + args.seconds
    while reps < wl.min_reps or calls < wl.min_calls or time.perf_counter() < deadline:
        result, raw_s, scaled_s = [], 0.0, 0.0
        for block in wl.rep_blocks(sub_seed(args.seed, wl.name, "rep", reps)):
            start = time.perf_counter()
            result.append(block())
            elapsed = time.perf_counter() - start
            raw_s += elapsed
            scaled_s += elapsed / factor()
        raw_rates.append(wl.units(result) / raw_s)
        rates.append(wl.units(result) / scaled_s)
        if reps == 0:
            digest = wl.digest(result, OUT / f"rep0-{wl.name}.txt")
        units += wl.units(result)
        bad_units += wl.check_rep(result, pool=reps < wl.min_reps)
        reps += 1
        compile_blocks(raw_s * (1 - STUDY_SHARE) / STUDY_SHARE)

    gates.check("study_samples_valid", bad_units == 0, f"{bad_units} of {units} invalid")
    gates.check("compile_calls_valid", bad_calls == 0, f"{bad_calls} of {calls} invalid")
    wl.final_gates(gates, args.seed, traced=False)
    sizes.update(rep_size=wl.rep_size, reps=reps, units=units, compile_calls=calls,
                 compile_blocks=len(blocks), setup_repeats=len(setup), calibration_loops=len(loops))
    metrics = {
        "samples_per_s": (statistics.median(rates), "1/s"),
        "compile_p50_us": (statistics.median(p50 / f for p50, _, f in blocks), "us"),
        "compile_p99_us": (statistics.median(p99 / f for _, p99, f in blocks), "us"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "digest_rep0": digest,
        "digest_reference": reference_digest(wl.name, args.seed, digest, args.smoke),
        "unscaled": {
            "samples_per_s": statistics.median(raw_rates),
            "compile_p50_us": statistics.median(p50 for p50, _, _ in blocks),
            "compile_p99_us": statistics.median(p99 for _, p99, _ in blocks),
            "setup_s": statistics.median(raw_setup),
            "setup_wall_s": statistics.median(setup_wall),
            "calibration_loop_s": statistics.median(loops),
        },
    }
    return metrics, units + calls, bad_units + bad_calls, info


def run_traced(wl, args, gates, sizes) -> tuple:
    import micro
    import tracing
    from setup_child import warm_up
    from workloads import run_rep, samples_digest, sub_seed

    warm_up(wl.name)
    rep_seed = sub_seed(args.seed, wl.name, "rep", 0)
    summaries, overheads, digests, first, units, bad_units = [], [], set(), None, 0, 0
    deadline = time.perf_counter() + STUDY_SHARE * args.seconds
    while not summaries or time.perf_counter() < deadline:
        start = time.perf_counter()
        plain = run_rep(wl, rep_seed)
        untraced_s = time.perf_counter() - start
        tracer = tracing.Tracer()
        with tracer.patched():
            start = time.perf_counter()
            traced = tracer.root("bench.rep", run_rep, wl, rep_seed)
            traced_s = time.perf_counter() - start
        overheads.append(traced_s / untraced_s - 1)
        summaries.append(tracing.layer_summary(tracer))
        digests.update(wl.digest(r, OUT / f"traced-{wl.name}.txt") for r in (plain, traced))
        for r in (plain, traced):
            units += wl.units(r)
            bad_units += wl.check_rep(r, pool=False)
        first = first or tracer
    gates.check("study_samples_valid", bad_units == 0, f"{bad_units} of {units} invalid")
    gates.check("digest_traced_equals_untraced", len(digests) == 1, f"{len(digests)} distinct digests")
    wl.final_gates(gates, args.seed, traced=True)

    pool = micro.pool_speedup(rep_seed, 400 if args.smoke else POOL_SAMPLES,
                              lambda s: samples_digest(s, OUT / "pool.csv"))
    gates.check("digest_pool_equals_serial", pool["digests_equal"], f"jobs={pool['jobs']}")
    timings = micro.warm(args.seed)
    cold, code_ok = micro.cold()
    timings.update(cold)
    gates.check("factory_code_check", code_ok)
    imports = [child("import") for _ in range(IMPORT_REPEATS)]
    timings["cli.import_s"] = statistics.median(i["cli_import_s"] for i in imports)
    timings["cli.numpy_import_s"] = statistics.median(i["numpy_import_s"] for i in imports)

    first.write(OUT / f"spans-{wl.name}-seed{args.seed}.csv.gz")
    layers = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    metrics = {k: (v, tracing.UNITS[k]) for k, v in layers.items() if k in tracing.UNITS}
    metrics.update({k: (v, tracing.UNITS[k]) for k, v in timings.items()})
    metrics["study.pool_speedup"] = (pool["speedup"], "ratio")
    metrics["trace.spans"] = (len(first.spans), "count")
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
    sizes.update(rep_size=wl.rep_size, traced_reps=len(summaries), units=units, pool=pool)
    info = {
        "digest_rep0": digests.pop() if len(digests) == 1 else None,
        "layers_account_frac": layers["layers_account_frac"],
        "wall_s": layers["wall_s"],
    }
    info["digest_reference"] = reference_digest(wl.name, args.seed, info["digest_rep0"], args.smoke)
    return metrics, units, bad_units, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rotsynth" / "__init__.py").is_file():
        print(f"perfbench: no rotsynth sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    import rotsynth
    import workloads

    gates = workloads.Gates()
    gates.check("program_from_checkout", pathlib.Path(rotsynth.__file__).resolve().parent == SRC / "rotsynth",
                rotsynth.__file__)
    wl = workloads.make(args.workload, args.smoke)
    sizes: dict = {}
    run = run_traced if args.trace else run_untraced
    metrics, attempted, failed, info = run(wl, args, gates, sizes)
    attempted += len(gates.results)
    failed += gates.failed
    if args.trace:
        metrics["failed_frac"] = (failed / attempted, "ratio")
    else:
        info["failed_frac"] = failed / attempted
    info.update(provenance=provenance(args.seed, args.workload, sizes), gates=gates.results)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
