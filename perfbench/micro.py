"""Micro-timings of single layers for the traced run (report only, no gate).

Each figure sits beside a baseline quoted in ROADMAP.md; perfbench/reference.json
lists both.  Warm timings run first, the ones that clear a cache last.
"""
from __future__ import annotations

import math
import os
import random
import statistics
import time

from rotsynth import factories, noise, qcore, seeding, study, synthesis
from rotsynth.ladder import ALL_FAMILIES, MAX_LEVEL, Family, expected_climb_cost, simulate_climb


def _per_call_us(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean time per call, in microseconds."""
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        per_call.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(per_call)


def _median_s(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _clear(fn) -> None:
    clear = getattr(fn, "cache_clear", None)
    if clear is not None:
        clear()


def pool_speedup(seed: int, samples: int, digest_of) -> dict:
    """h-only study at jobs=1 against jobs=min(2, nproc); both must agree."""
    jobs = max(1, min(2, os.cpu_count() or 1))
    out = {"jobs": jobs, "samples": samples}
    digests = []
    for label, j in (("serial_s", 1), ("pool_s", jobs)):
        start = time.perf_counter()
        samples_out, _, _ = study.run_scaling_study("h-only", samples, seed=seed, jobs=j)
        out[label] = time.perf_counter() - start
        digests.append(digest_of(samples_out))
    out["speedup"] = out["serial_s"] / out["pool_s"]
    out["digests_equal"] = digests[0] == digests[1]
    return out


def warm(seed: int) -> dict:
    rng = random.Random(seed)
    config = synthesis.SynthesisConfig(epsilon=1e-10, families=ALL_FAMILIES)
    synthesis.pick_state(0.1, config)
    residuals = [rng.uniform(-math.pi / 4, math.pi / 4) for _ in range(1000)]
    model = noise.NoiseModel("a", 1e-4)
    return {
        "ladder.climb_h60_us": _per_call_us(lambda i: simulate_climb(Family.H, 60, rng), 500),
        "synthesis.pick_state_us": _per_call_us(lambda i: synthesis.pick_state(residuals[i], config), 1000),
        "seeding.derive_us": _per_call_us(lambda i: seeding.derive_rng(seed, "scaling", "h-only", i), 1000),
        "noise.propagate_l20_us": _per_call_us(lambda i: noise.propagate_to_level(model, 20, rng), 100),
        "noise.cell_a28_s": _median_s(lambda: noise.decay_study(model, 28, 1000, seed)),
    }


def cold() -> tuple[dict, bool]:
    """Timings that start from an emptied cache; run after everything else.

    Also returns whether every factory passed its stabilizer-code check."""
    cells = [(f, l) for f in ALL_FAMILIES for l in range(MAX_LEVEL + 1)]

    def expected_all():
        _clear(expected_climb_cost)
        for f, l in cells:
            expected_climb_cost(f, l)

    table_config = synthesis.SynthesisConfig(epsilon=1e-12, families=ALL_FAMILIES)

    def first_pick():
        _clear(getattr(synthesis, "_angle_table", None))
        synthesis.pick_state(0.1, table_config)

    kinds = (Family.PSI0, Family.PSI1, Family.PSI2)

    def circuits():
        _clear(factories.simulate_factory_circuit)
        for kind in kinds:
            factories.simulate_factory_circuit(kind)

    reports = []

    def code_check():
        reports[:] = [factories.verify_factory_against_code(kind) for kind in kinds]

    h_inputs = qcore.product_state(*[qcore.xz_state(math.pi / 8)] * 4)
    generators = list(factories.CODE_GENERATORS[Family.PSI0])

    timings = {
        "ladder.expected_cost_cold_s": _median_s(expected_all),
        "synthesis.table_build_ms": _median_s(first_pick) * 1e3,
        "factories.circuit_cold_ms": _median_s(circuits) * 1e3,
        "factories.code_check_ms": _median_s(code_check) * 1e3,
        "qcore.projector_overlap_ms": _median_s(
            lambda: qcore.pauli_projector_overlap(generators, h_inputs, factories.LOGICAL_Z)
        )
        * 1e3,
    }
    return timings, all(r.ok for r in reports)
