"""Resource-state ladders.

A ladder starts from a base state cos(a0)|0> + sin(a0)|1> and climbs by a
two-qubit parity merge with a fresh cos(pi/8)|0> + sin(pi/8)|1> resource on
top.  Outcome 0 multiplies the cotangent of the state angle by cot(pi/8)
(one level up), outcome 1 divides it (one level down); a failure at level 0
yields a stabilizer state that is discarded.  The climb is therefore a
biased random walk whose resource consumption this module simulates, solves
exactly and tabulates as a law.

Levels are capped at 150: the level-150 angle is below 1e-57 radians, far
beyond any accuracy target in scope.
"""
from __future__ import annotations

import enum
import math
import operator
import random
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

THETA0 = math.pi / 8
TAN_THETA0 = math.sqrt(2) - 1  # tan(pi/8)
MAX_LEVEL = 150
# climb_cost_laws leaves out less than this mass of each law
CLIMB_LAW_CUT = 2.0**-60
# and solves the climbs to this many levels at a time
_LAW_BLOCK = 8


def checked_integer(value, name: str) -> int:
    """value as an int; anything but a Python or numpy integer (even 2.0) raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def checked_level(value, name: str, lowest: int = 0) -> int:
    """checked_integer(value, name), which must also lie in [lowest, MAX_LEVEL]."""
    if lowest <= (level := checked_integer(value, name)) <= MAX_LEVEL:
        return level
    raise ValueError(f"{name} must be in [{lowest}, {MAX_LEVEL}], got {level}")


def checked_family(value, name: str) -> Family:
    """value unchanged if it is a Family member; anything else (even "h") raises ValueError."""
    if isinstance(value, Family):
        return value
    raise ValueError(f"{name} must be a Family member, got {value!r}")


class Family(enum.Enum):
    """Ladder base-state families: raw resources or one of the three
    post-selected factory outputs."""

    H = "h"
    PSI0 = "psi0"
    PSI1 = "psi1"
    PSI2 = "psi2"


ALL_FAMILIES = tuple(Family)

# Base state angles.  For the factory families these are half the rotation
# angles produced by the closed forms; factories.py re-derives them from the
# circuits and the tests pin the agreement.
_BASE_ANGLE = {
    Family.H: THETA0,
    Family.PSI0: math.atan((2 + 3 * math.sqrt(2)) / (6 + 5 * math.sqrt(2))) / 2,
    Family.PSI1: math.atan(2 * math.sqrt(2) / (3 + math.sqrt(2))) / 2,
    Family.PSI2: math.atan(7 / (6 * math.sqrt(2))) / 2,
}

# (raw inputs per trial, post-selection success probability) of each
# factory's closed forms; one psi1 input is the free |+>, so a trial bills 3.
# factories.py re-derives the probabilities from the circuits and the tests
# pin the agreement.
FACTORY_TRIALS = {
    Family.PSI0: (4, 3 * (2 + math.sqrt(2)) / 32),
    Family.PSI1: (3, (6 + math.sqrt(2)) / 32),
    Family.PSI2: (4, 11 / 32),
}

# Average raw-resource cost of one base state (per-trial inputs divided by
# the post-selection success probability; family H is a raw resource).
_BASE_COST = {Family.H: 1.0, **{f: h / p for f, (h, p) in FACTORY_TRIALS.items()}}


# the two accessors below are the only readers of the tables and the one family check
def base_state_angle(family: Family) -> float:
    return _BASE_ANGLE[checked_family(family, "family")]


def base_average_cost(family: Family) -> float:
    """Expected raw-resource count to produce one base state of the family."""
    return _BASE_COST[checked_family(family, "family")]


def ladder_angle(family: Family, level: int) -> float:
    """State angle at the given level: tan(a_i) = tan(a_0) * tan(pi/8)^i.

    Twice the state angle is the implementable rotation.
    """
    if (level := checked_integer(level, "level")) < 0:
        raise ValueError("ladder levels start at 0")
    if family is Family.H:
        return math.atan(TAN_THETA0 ** (level + 1))
    return math.atan(math.tan(base_state_angle(family)) * TAN_THETA0**level)


def rotation_angle(family: Family, level: int) -> float:
    return 2 * ladder_angle(family, level)


def merge_success_prob(family: Family, level: int) -> float:
    """Probability of the up outcome when merging a fresh top resource onto
    the family's state at that level: cos^2(a) cos^2(pi/8) + sin^2(a) sin^2(pi/8)."""
    a = ladder_angle(family, level)
    c0, s0 = math.cos(THETA0), math.sin(THETA0)
    return math.cos(a) ** 2 * c0 * c0 + math.sin(a) ** 2 * s0 * s0


@lru_cache(maxsize=None)
def success_probs(family: Family) -> tuple[float, ...]:
    """Up-outcome probabilities of the merges from levels 0..MAX_LEVEL-1."""
    return tuple(merge_success_prob(family, l) for l in range(MAX_LEVEL))


def climb_walk(probs: tuple[float, ...], target_level: int, base_cost: float, rnd) -> float:
    """Walk from level 0 to target_level, one rnd() draw per merge, and
    return the climb's cost in raw-resource units: one top resource per
    merge, and base_cost for the bottom at the start and again after every
    level-0 restart."""
    level = downs = restarts = 0
    while level < target_level:
        if rnd() < probs[level]:
            level += 1
        elif level:
            level -= 1
            downs += 1
        else:
            restarts += 1
    return target_level + 2 * downs + restarts + (restarts + 1) * base_cost


def simulate_climb(family: Family, target_level: int, rng: random.Random) -> float:
    """Cost in raw-resource units of one climb of the family's ladder to
    target_level (climb_walk, billing the bottom at base_average_cost)."""
    target_level = checked_level(target_level, "target_level")
    return climb_walk(success_probs(family), target_level, base_average_cost(family), rng.random)


def expected_climb_cost(family: Family, target_level: int) -> float:
    """Exact expected climb cost in raw-resource units.

    A climb is a chain of first passages l -> l+1, each costing one top
    resource per merge; a failure drops to l-1, from where the walk must
    return to l first: T_l = (1 + (1-p_l) T_{l-1}) / p_l.  A level-0 failure
    re-bills the bottom, i.e. T_{-1} = c, the base cost; E = c + sum T_l.
    """
    target_level = checked_level(target_level, "target_level")
    total = passage = base_average_cost(family)
    for p in success_probs(family)[:target_level]:
        passage = (1 + (1 - p) * passage) / p
        total += passage
    return total


def _failure_layers(
    probs: np.ndarray, tops: np.ndarray, restarts: int, bound: float
) -> tuple[list[np.ndarray], np.ndarray]:
    """The joint law of downs and restarts of the climbs to the levels tops
    (each at most len(probs)) at once, one layer of downs at a time:
    layers[d][r, k] is P(d downs, r restarts) of the climb to tops[k], with
    at most `restarts` - 1 restarts; with restarts 0, each restart counts
    as a down instead (layers[s][0, k] is P(d + r = s)).  Returns the
    layers, up to the first after which less than bound of every climb's
    mass is still on its way, and per climb the mass that went past the
    restart cut.

    Each (level, d, r) is visited at most once, so the chance of a visit is
    a sum of positive terms over the visits that lead there: within a layer
    the walk only restarts (at level 0) or goes up, and a down moves it to
    the next layer.  The array of visits is (level, restarts, climb), and a
    climb's levels at and above its top are never read: the downs into the
    next layer are masked to the levels below each top.  Every step is an
    elementwise product or sum, and the remaining mass is summed down
    axis 0 row by row, so no byte depends on numpy's SIMD paths.
    """
    levels, climbs = len(probs), np.arange(len(tops))
    fails = 1 - probs
    below = (np.arange(levels)[:, None] < tops).astype(float)  # [level, climb]
    down = (fails[1:, None] * below[1:])[:, None, :]
    # two buffers, one layer's visits and the next one's, swapped each layer
    visits, came = np.zeros((2, levels, max(restarts, 1), len(tops)))
    came[0, 0] = 1.0
    layers, lost = [], np.zeros(len(tops))
    while True:
        visits, came = came, visits
        for r in range(1, restarts):
            visits[0, r] += fails[0] * visits[0, r - 1]
        if restarts:
            lost += fails[0] * visits[0, -1]
        for level in range(1, levels):
            visits[level] += probs[level - 1] * visits[level - 1]
        # the climb to T arrives from level T - 1
        layers.append(probs[tops - 1] * visits[tops - 1, :, climbs].T)
        np.multiply(visits[1:], down, out=came[:-1])
        came[-1] = 0.0
        if not restarts:
            came[0] += fails[0] * visits[0]
        if np.add.reduce(came.reshape(-1, len(tops)), axis=0).max() < bound:
            return layers, lost


def climb_cost_laws(family: Family, top: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The law of the cost of a climb to each level 0..top in turn, as
    (costs, masses) per outcome: costs holds climb_walk's bill of it in
    raw-resource units, wholes + (restarts + 1) * c in that order for the
    family's base cost c, and masses its probability.

    A climb to L with d downs and r level-0 restarts costs
    L + 2d + r + (r + 1) c, so one outcome per (d, r) with any mass, in the
    order of d, then r, with the whole part L + 2d + r.  For H (c = 1) the
    cost is L + 1 + 2(d + r): the law collapses to one outcome per d + r,
    each restart counted as a down.  The climbs to the levels of each block
    1..8, 9..16, ... (_LAW_BLOCK levels, the last cut at MAX_LEVEL) are
    solved together to the block's end (_failure_layers), which bounds what
    a solve holds and makes each level's law independent of top.  Each law
    leaves out less than CLIMB_LAW_CUT of its mass: the climbs still on
    their way, those past the restart cut (raised from 32 in steps of 8
    until so) and the least likely outcomes dropped from the law each hold
    less than a quarter of it.
    """
    top = checked_level(top, "top")
    base = base_average_cost(family)
    yield np.full(1, base), np.ones(1)
    probs = np.array(success_probs(family))
    bound = CLIMB_LAW_CUT / 4
    for first in range(1, top + 1, _LAW_BLOCK):
        tops = np.arange(first, min(first + _LAW_BLOCK, MAX_LEVEL + 1))
        restarts = 0 if base == 1.0 else 32
        while True:
            layers, lost = _failure_layers(probs[: tops[-1]], tops, restarts, bound)
            if lost.max() < bound:
                break
            restarts += 8
        d, r = np.indices((len(layers), max(restarts, 1)))
        for k, level in enumerate(tops[tops <= top].tolist()):
            cells = np.array([layer[:, k] for layer in layers])  # [d, r]
            # the least likely outcomes, together below bound, are dropped
            ranked = np.sort(cells, axis=None)
            keep = cells >= ranked[np.searchsorted(np.cumsum(ranked), bound)]
            # climb_walk's bill, in its order: the integers, then the base states
            yield (level + 2 * d + r)[keep] + (r[keep] + 1) * base, cells[keep]
