"""Spans around the calls between rotsynth's modules, recorded from outside.

The traced run replaces each call point below with a wrapper for the length
of one block and restores the original afterwards.  Call points are patched
as the *calling* module sees them (``study.synthesize``, not only
``synthesis.synthesize``), so every call that crosses a module boundary is
seen exactly once.  A call point the program no longer has is skipped, and
its counters stay 0: a refactor that stops calling a function must not crash
the traced run.

A span is ``(name, start, end, parent, sample)``; the span's layer is the
part of its name before the first dot.  Self time is the span's duration
minus the durations of its direct children, so the self times of all spans
under a root add up to the root's duration.
"""
from __future__ import annotations

import contextlib
import csv
import gzip
import time
from collections import defaultdict

from rotsynth import noise, study, synthesis
from rotsynth.ladder import Family


def _climb_counts(tracer: "Tracer", args: tuple, result) -> None:
    c = tracer.counts
    steps = getattr(result, "steps", 0)
    c["ladder.climbs"] += 1
    c["ladder.merges"] += steps
    c["ladder.levels_gained"] += args[1] if len(args) > 1 else 0
    if args and args[0] is Family.H:
        c["ladder.restarts"] += getattr(result, "h_consumed", 1) - 1 - steps
    else:
        c["ladder.restarts"] += getattr(result, "base_states_consumed", 1) - 1


def _synth_counts(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["synthesis.calls"] += 1
    tracer.counts["synthesis.planner_steps"] += len(getattr(result, "applied", ()))


def _min_online_counts(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["synthesis.ancilla_samples"] += 1
    tracer.counts["synthesis.ancilla_rounds"] += getattr(result, "online_cost", 0)


def _study_rng(tracer: "Tracer", args: tuple) -> None:
    tracer.counts["seeding.derive_calls"] += 1
    # run_scaling_study derives (seed, "sample-params", index) first for
    # every sample: its index tags the spans of that sample
    if len(args) >= 3 and args[1] == "sample-params":
        tracer.sample = args[-1]


def _noise_rng(tracer: "Tracer", args: tuple) -> None:
    tracer.counts["seeding.derive_calls"] += 1
    tracer.counts["noise.instances"] += 1
    tracer.sample = args[-1] if args else -1


# (module, attribute, span name, hook on arguments, hook on result)
CALL_POINTS = (
    ("study", "run_scaling_study", "study.run_scaling_study", None, None),
    ("study", "fit_loglog", "study.fit_loglog", None, None),
    ("study", "derive_rng", "seeding.derive_rng", _study_rng, None),
    ("study", "synthesize", "synthesis.synthesize", None, _synth_counts),
    ("study", "min_online_synthesize", "synthesis.min_online_synthesize", None, _min_online_counts),
    ("synthesis", "synthesize", "synthesis.synthesize", None, _synth_counts),
    ("synthesis", "simulate_climb", "ladder.simulate_climb", None, _climb_counts),
    ("synthesis", "climb_cost", "ladder.climb_cost", None, None),
    ("noise", "derive_rng", "seeding.derive_rng", _noise_rng, None),
    ("noise", "decay_study", "noise.decay_study", None, None),
    ("noise", "fit_exponential_decay", "noise.fit_exponential_decay", None, None),
)


class Tracer:
    """In-memory span recorder with counters at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.sample = -1
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn, on_args=None, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_args is not None:
                on_args(self, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.sample)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def root(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span opened by the benchmark itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def patched(self):
        """Install a wrapper at every call point that exists; always restore."""
        modules = {"study": study, "synthesis": synthesis, "noise": noise}
        originals = []
        try:
            for mod_name, attr, name, on_args, on_result in CALL_POINTS:
                module = modules[mod_name]
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, on_args, on_result))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "sample"])
            for i, (name, start, end, parent, sample) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent, sample])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_summary(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times of one traced rep rooted at "bench.rep"."""
    own = tracer.self_times()
    total = tracer.total_times()
    c = tracer.counts
    wall = total["bench.rep"]
    ladder = own["ladder.simulate_climb"] + own["ladder.climb_cost"]
    synth = own["synthesis.synthesize"] + own["synthesis.min_online_synthesize"]
    seeding = own["seeding.derive_rng"]
    study_self = own["study.run_scaling_study"]
    fit = own["study.fit_loglog"]
    noise_self = own["noise.decay_study"] + own["noise.fit_exponential_decay"]
    return {
        "wall_s": wall,
        "layers_account_frac": _ratio(ladder + synth + seeding + study_self + fit + noise_self, wall),
        "ladder.climbs": c["ladder.climbs"],
        "ladder.merges": c["ladder.merges"],
        "ladder.restarts": c["ladder.restarts"],
        "ladder.merge_yield": _ratio(c["ladder.levels_gained"], c["ladder.merges"]),
        "ladder.climb_self_s": ladder,
        "ladder.climb_share": _ratio(ladder, wall),
        "synthesis.calls": c["synthesis.calls"],
        "synthesis.planner_steps": c["synthesis.planner_steps"],
        "synthesis.self_s": synth,
        "synthesis.self_share": _ratio(synth, wall),
        "synthesis.ancilla_rounds": c["synthesis.ancilla_rounds"],
        "synthesis.ancilla_yield": _ratio(c["synthesis.ancilla_samples"], c["synthesis.ancilla_rounds"]),
        "seeding.derive_calls": c["seeding.derive_calls"],
        "seeding.derive_self_s": seeding,
        "study.self_s": study_self,
        "study.fit_s": fit,
        "noise.instances": c["noise.instances"],
        "noise.decay_s": total["noise.decay_study"],
        "noise.self_share": _ratio(noise_self, wall),
        "noise.fit_s": total["noise.fit_exponential_decay"],
    }


# unit of every per-layer metric the traced run reports
UNITS = {
    "ladder.climbs": "count",
    "ladder.merges": "count",
    "ladder.restarts": "count",
    "ladder.merge_yield": "ratio",
    "ladder.climb_self_s": "s",
    "ladder.climb_share": "ratio",
    "ladder.climb_h60_us": "us",
    "ladder.expected_cost_cold_s": "s",
    "synthesis.calls": "count",
    "synthesis.planner_steps": "count",
    "synthesis.self_s": "s",
    "synthesis.self_share": "ratio",
    "synthesis.pick_state_us": "us",
    "synthesis.ancilla_rounds": "count",
    "synthesis.ancilla_yield": "ratio",
    "synthesis.table_build_ms": "ms",
    "seeding.derive_calls": "count",
    "seeding.derive_self_s": "s",
    "seeding.derive_us": "us",
    "study.self_s": "s",
    "study.fit_s": "s",
    "study.pool_speedup": "ratio",
    "noise.instances": "count",
    "noise.decay_s": "s",
    "noise.self_share": "ratio",
    "noise.fit_s": "s",
    "noise.propagate_l20_us": "us",
    "noise.cell_a28_s": "s",
    "factories.circuit_cold_ms": "ms",
    "factories.code_check_ms": "ms",
    "qcore.projector_overlap_ms": "ms",
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}
