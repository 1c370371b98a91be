"""Greedy compilation of Z-rotations from ladder states.

A rotation consumed from a level-i ladder state applies +-2*theta_i with
probability 1/2 each.  Quarter turns (S, Z) are free Cliffords, and
reduce_by_clifford is the one place they are folded out of a residual.  The
planner repeatedly folds the residual, picks the enabled state whose rotation
is nearest to it, simulates a ladder instance for it (offline cost) and
applies the coin-flip rotation (online cost), until |residual| <= epsilon.

The min-online variant moves all coin flips onto offline-prepared ancillas:
the residual rotation is synthesized onto a free |+> ancilla which is then
consumed by a single online use, doubling the remaining angle on failure.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache

from .ladder import (
    ALL_FAMILIES,
    MAX_LEVEL,
    Family,
    base_average_cost,
    checked_family,
    checked_level,
    climb_walk,
    expected_climb_cost,
    rotation_angle,
    success_probs,
)

TAU = 2 * math.pi
HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4


def reduce_by_clifford(residual: float) -> tuple[float, int]:
    """Take a residual rotation mod 2*pi and fold free quarter turns out.

    Returns the equivalent residual in (-pi/4, pi/4] together with the number
    of quarter-turn gates absorbed (zero cost).
    """
    residual = math.remainder(residual, TAU)
    k = round(residual / HALF_PI)
    residual -= k * HALF_PI
    if residual <= -QUARTER_PI:
        residual += HALF_PI
        k -= 1
    return residual, abs(k)


@dataclass(frozen=True)
class SynthesisConfig:
    """Planner settings; families (any iterable of Family members) is kept as a tuple.

    max_level caps the levels the planner may consume; by default it is the
    whole ladder.  synthesize rejects a config whose finest enabled rotation
    at that level is larger than epsilon/2.
    """

    epsilon: float
    families: tuple[Family, ...] = (Family.H,)
    max_level: int = MAX_LEVEL

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        try:
            families = tuple(checked_family(f, "families") for f in self.families)
        except TypeError:
            raise ValueError(
                f"families must be an iterable of Family members, got {self.families!r}"
            ) from None
        if not families:
            raise ValueError("at least one family must be enabled")
        object.__setattr__(self, "families", families)
        checked_level(self.max_level, "max_level")


@dataclass(frozen=True)
class SynthesisResult:
    applied: tuple[tuple[Family, int, int], ...]
    residual: float
    online_cost: int
    offline_cost: float
    clifford_corrections: int


def auto_max_level(epsilon: float) -> int:
    """Smallest level whose H rotation is <= epsilon/2, capped at 150.  The planner
    needs no such cap (a state finer than epsilon/2 is never the nearest to a
    residual above epsilon); perfbench's set-up warms its tables up to it."""
    # the H table lists the H rotations finest first: level = MAX_LEVEL - index
    finer = bisect_right(_angle_table((Family.H,)).angles, epsilon / 2)
    return min(MAX_LEVEL, MAX_LEVEL + 1 - finer)


class _AngleTable:
    """All (family, level) states of a family set by ascending rotation angle,
    then expected climb cost, family rank and level.  One level shrinks an
    angle by more than the families differ, so the states up to a level cap
    form a suffix.  lower_wins[i] settles a tie between neighbours i-1, i."""

    def __init__(self, families: tuple[Family, ...]):
        entries = sorted(
            (rotation_angle(f, lvl), expected_climb_cost(f, lvl), ALL_FAMILIES.index(f), lvl, f)
            for f in families
            for lvl in range(MAX_LEVEL + 1)
        )
        self.levels = [e[3] for e in entries]
        assert self.levels == sorted(self.levels, reverse=True), "level caps must cut suffixes"
        # an infinite sentinel gives every lookup an upper neighbour
        self.angles = [e[0] for e in entries] + [math.inf]
        self.lower_wins = [False] + [lo[1:4] < hi[1:4] for lo, hi in zip(entries, entries[1:])]
        self.probs = [success_probs(e[4]) for e in entries]
        self.base_costs = [base_average_cost(e[4]) for e in entries]
        self.plus = [(e[4], e[3], 1) for e in entries]
        self.minus = [(e[4], e[3], -1) for e in entries]
        self.n_families = len(families)

    def start(self, max_level: int) -> int:
        """Index of the first state with level <= max_level."""
        return len(self.levels) - (max_level + 1) * self.n_families

    def lookup(self, magnitude: float, start: int) -> int:
        """Index of the state nearest to magnitude among those from start on."""
        angles = self.angles
        i = bisect_left(angles, magnitude, start)
        if i > start:
            below, above = magnitude - angles[i - 1], angles[i] - magnitude
            if below < above or (below == above and self.lower_wins[i]):
                return i - 1
        return i


@lru_cache(maxsize=None)
def _angle_table(families: tuple[Family, ...]) -> _AngleTable:
    return _AngleTable(families)


def pick_state(residual: float, config: SynthesisConfig) -> tuple[Family, int]:
    """The enabled (family, level) whose rotation is nearest to |residual|.

    Ties go to the lower expected climb cost, then the family order
    H < PSI0 < PSI1 < PSI2, then the lower level.
    """
    table = _angle_table(config.families)
    return table.plus[table.lookup(abs(residual), table.start(config.max_level))][:2]


def _table_and_start(config: SynthesisConfig) -> tuple[_AngleTable, int]:
    """The config's angle table and level-cap start; rejects too shallow a ladder."""
    table = _angle_table(config.families)
    start = table.start(config.max_level)
    if table.angles[start] > config.epsilon / 2:
        finest = f"finest enabled rotation {table.angles[start]:.3e} exceeds epsilon/2"
        if config.max_level < MAX_LEVEL:
            raise ValueError(f"{finest}; raise max_level")
        raise ValueError(f"epsilon {config.epsilon:.3e} is below what {MAX_LEVEL} levels reach: {finest}")
    return table, start


def synthesize(target: float, config: SynthesisConfig, rng: random.Random) -> SynthesisResult:
    """Compile a Z-rotation by `target` to accuracy config.epsilon.

    Offline cost totals the raw resources of one simulated ladder instance
    per consumed state; online cost counts the consumed states.
    """
    if not math.isfinite(target):
        raise ValueError("target must be finite")
    table, start = _table_and_start(config)
    eps, rnd = config.epsilon, rng.random
    lookup, angles, levels, probs = table.lookup, table.angles, table.levels, table.probs
    base_costs, plus, minus = table.base_costs, table.plus, table.minus
    applied: list[tuple[Family, int, int]] = []
    offline, corrections = 0.0, 0
    residual = target
    while True:
        residual, k = reduce_by_clifford(residual)
        corrections += k
        if abs(residual) <= eps:
            break
        i = lookup(abs(residual), start)
        offline += climb_walk(probs[i], levels[i], base_costs[i], rnd)
        # consume the state: rotate by +angle or -angle with probability 1/2
        if rnd() < 0.5:
            residual -= angles[i]
            applied.append(plus[i])
        else:
            residual += angles[i]
            applied.append(minus[i])
    return SynthesisResult(
        applied=tuple(applied),
        residual=residual,
        online_cost=len(applied),
        offline_cost=offline,
        clifford_corrections=corrections,
    )


def min_online_synthesize(
    target: float,
    eps: float,
    config: SynthesisConfig,
    rng: random.Random,
) -> SynthesisResult:
    """Ancilla-mediated variant that minimizes the online rotation count.

    The remaining rotation m is synthesized offline onto a free |+> ancilla
    at accuracy eps, then consumed by one online use: success with
    probability 1/2 finishes, failure leaves 2m minus the ancilla's residual
    for the next round.  Because every round re-targets the exact remainder,
    preparation errors of failed ancillas are corrected downstream and the
    final residual is just that of the last ancilla, so the per-ancilla
    budget needs no subdivision.  online_cost counts only the ancilla uses;
    applied is empty because no ladder state touches the data qubit directly.
    eps must equal config.epsilon; a mismatch raises ValueError.
    """
    if not math.isfinite(target):
        raise ValueError("target must be finite")
    # validates eps as the inner accuracy (so a NaN eps is reported as such,
    # not as a mismatch), and the ladder depth it needs under the config's
    # level cap
    _table_and_start(replace(config, epsilon=eps))
    if eps != config.epsilon:
        raise ValueError(f"eps {eps!r} differs from config.epsilon {config.epsilon!r}")
    corrections = online = 0
    offline = 0.0
    remaining = target
    while True:
        remaining, k = reduce_by_clifford(remaining)
        corrections += k
        if abs(remaining) <= eps:
            break
        inner = synthesize(remaining, config, rng)
        offline += inner.offline_cost
        corrections += inner.clifford_corrections
        online += 1
        if rng.random() < 0.5:
            remaining = inner.residual
            break
        # the ancilla carried (remaining - inner.residual); failure applied
        # its negative
        remaining = 2 * remaining - inner.residual
    return SynthesisResult(
        applied=(),
        residual=remaining,
        online_cost=online,
        offline_cost=offline,
        clifford_corrections=corrections,
    )
