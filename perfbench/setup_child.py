"""Set-up cost as a CLI user pays it, timed in a fresh interpreter.

    python3 perfbench/setup_child.py setup <workload>   # import + warm-up
    python3 perfbench/setup_child.py import             # numpy, then rotsynth.cli

Prints one JSON object.  The parent puts ``src`` on PYTHONPATH.  This file
imports nothing from rotsynth at module level, so the clock starts before
rotsynth and numpy are loaded.  ``setup_s`` is the CPU time of the main
thread: importing numpy starts BLAS threads, and whether the shared host
runs them beside the main thread moved the wall-clock figure by 30% between
two sets of runs.  The wall-clock figure is reported as ``setup_wall_s``.
"""
from __future__ import annotations

import json
import sys
import time

EPS_RANGE = (1e-12, 1e-4)
NOISE_GRID = {1e-4: 28, 1e-6: 22, 1e-8: 16}  # strength -> top level


def warm_up(workload: str) -> None:
    """Fill the lazy caches the workload reads: the factory circuits, then
    the angle tables over the published accuracy range (and with them
    expected_climb_cost and the merge success probabilities), or for
    noise-decay the noisy resources of every grid cell."""
    from rotsynth import factories, noise, synthesis
    from rotsynth.ladder import ALL_FAMILIES, Family

    for kind in (Family.PSI0, Family.PSI1, Family.PSI2):
        factories.simulate_factory_circuit(kind)
    if workload == "noise-decay":
        for kind in "abc":
            for strength in NOISE_GRID:
                noise.make_noisy_resource(noise.NoiseModel(kind, strength))
        return
    families = (Family.H,) if workload == "h-only" else ALL_FAMILIES
    lo = synthesis.auto_max_level(EPS_RANGE[1])
    hi = synthesis.auto_max_level(EPS_RANGE[0])
    for level in range(lo, hi + 1):
        config = synthesis.SynthesisConfig(epsilon=EPS_RANGE[0], families=families, max_level=level)
        synthesis.pick_state(0.1, config)


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    cpu_start = time.thread_time()
    if argv[:1] == ["import"]:
        import numpy  # noqa: F401

        numpy_s = time.perf_counter() - start
        import rotsynth.cli  # noqa: F401

        print(json.dumps({"numpy_import_s": numpy_s, "cli_import_s": time.perf_counter() - start}))
        return 0
    if argv[:1] == ["setup"] and len(argv) == 2:
        import rotsynth.cli  # noqa: F401

        warm_up(argv[1])
        print(json.dumps({"setup_s": time.thread_time() - cpu_start, "setup_wall_s": time.perf_counter() - start}))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
