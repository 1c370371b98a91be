"""Resource-state ladders.

A ladder starts from a base state cos(a0)|0> + sin(a0)|1> and climbs by a
two-qubit parity merge with a fresh cos(pi/8)|0> + sin(pi/8)|1> resource on
top.  Outcome 0 multiplies the cotangent of the state angle by cot(pi/8)
(one level up), outcome 1 divides it (one level down); a failure at level 0
yields a stabilizer state that is discarded.  The climb is therefore a
biased random walk whose resource consumption this module simulates, solves
exactly and tabulates as a law.  Its passages up the ladder are independent:
passage_series solves them for the cost laws here and the noise of noise.py.

Levels are capped at 150: the level-150 angle is below 1e-57 radians, far
beyond any accuracy target in scope.
"""
from __future__ import annotations

import enum
import math
import operator
import random
from bisect import bisect_left
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

THETA0 = math.pi / 8
TAN_THETA0 = math.sqrt(2) - 1  # tan(pi/8)
MAX_LEVEL = 150
# climb_cost_laws leaves out less than this mass of each law
CLIMB_LAW_CUT = 2.0**-60
# and each series it takes leaves out less than this (its docstring says why)
_SERIES_TAIL = CLIMB_LAW_CUT / 4 / MAX_LEVEL**2


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


def passage_series(up, top: int, cap: float, tail: float) -> tuple[list[list[float]], ...]:
    """The series A, B, H of the passages of levels 0..top - 1 of the walk
    whose merge at level l goes up with probability up[l], and the terms
    each keeps.

    Passage l runs from the first arrival at level l to the first arrival at
    l + 1.  Its outcome is R, whether a level-0 restart happened in it, and
    D, the downs since the last restart if one did, else since it began.
    The up probability depends on the level alone, so the passages are
    independent, each with a law of its own.  With p = up[l] and
    q = 1 - p, the passage fails k times, each a down and a passage l - 1,
    before it goes up, and a failure that restarts forgets the downs before
    it; in powers of z^D,

        A_l(z) = p / (1 - q z A_{l-1}(z))        (no restart)
        B_l(z) = (q / p) B_{l-1}(z) A_l(z)       (a restart)
        H_l(z) = (q / p) (H_{l-1}(z) + A_{l-1}(z)) A_l(z),

    from A_0 = p_0, B_0 = q_0 and H_0 = 0, where H_l holds the tail
    P(D > k) of the passage.  Term k of a level needs terms up to k of the
    level beneath, so every level takes term k in one lockstep, until each
    level l >= 1 keeps its first min(K, cap) terms, K the least count whose
    tail P(D >= K) is below tail, and cap a count past which the caller
    need not tell the downs apart.  A level's kept terms depend on the
    levels beneath it alone, not on top.  Every coefficient is a sum of
    positive terms, taken in Python floats with math.fsum, so the bytes do
    not depend on numpy's SIMD paths, and the tail is known without the
    cancellation of 1 - sum.
    """
    # below holds H + A per level; level 0's series stop after their first
    # term, as the rest are zeros and the level above reads only what is there
    a, b, h, below = ([[x]] + [[] for _ in range(1, top)] for x in (up[0], 1.0 - up[0], 0.0, up[0]))
    kept = [1] + [0] * (top - 1)
    while not all(kept):
        for lv in range(1, top):
            p, q, al = up[lv], 1.0 - up[lv], a[lv]
            al.append(q * math.fsum(map(operator.mul, a[lv - 1], reversed(al))) if al else p)
            b[lv].append(q / p * math.fsum(map(operator.mul, b[lv - 1], reversed(al))))
            h[lv].append(rest := q / p * math.fsum(map(operator.mul, below[lv - 1], reversed(al))))
            below[lv].append(rest + al[-1])
            if not kept[lv] and (rest < tail or len(al) == cap):
                kept[lv] = len(al)
    return a, b, h, kept


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The series x y, less its last terms that together hold less than
    _SERIES_TAIL.  Row i of a grid holds x_i y shifted by i (so the grid is
    smaller with the shorter series as x), and the rows are added down
    axis 0, one by one, so no sum follows numpy's SIMD paths."""
    rows, width = len(x), len(x) + len(y) - 1
    grid = np.zeros(rows * (width + 1))
    # row i of the (rows, width + 1) view starts i cells later in the
    # (rows, width) one
    np.multiply.outer(x, y, out=grid.reshape(rows, width + 1)[:, : len(y)])
    terms = np.add.reduce(grid[: rows * width].reshape(rows, width), axis=0)
    return terms[: width - np.searchsorted(np.cumsum(terms[::-1]), _SERIES_TAIL)]


def climb_cost_laws(family: Family, top: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The law of the cost of a climb to each level 0..top in turn, as
    (costs, masses) per outcome: costs holds climb_walk's bill of it in
    raw-resource units, wholes + (restarts + 1) * c in that order for the
    family's base cost c, and masses its probability.

    A climb to L with d downs and r level-0 restarts costs
    L + 2d + r + (r + 1) c, so one outcome per (d, r) with any mass, in the
    order of d, then r, with the whole part L + 2d + r.  In powers of z^d,
    with passage_series' A and B, an attempt from level 0 reaches L with
    reach_L = A_0 ... A_{L-1} and restarts first with restart_L, the sum
    over l < L of reach_l z^l B_l (passage l ended at its first restart),
    so r restarts have the law reach_L restart_L^r.  H's cost,
    L + 1 + 2(d + r), counts a restart as a down, and a passage then ends
    with no restart or climbs back past its start: F_l = A_l / (1 - y) for
    y = z^(l+1) B_l P_l, where P_l = F_0 ... F_{l-1} is H's law (kept in
    reach), and 1 / (1 - y) = (1 + y)(1 + y^2)(1 + y^4)...  Each level's
    law follows from the last level's, whatever top is.

    Each law leaves out less than CLIMB_LAW_CUT, under a quarter of it to
    each of: the passage series, each cut where its tail holds less than
    _SERIES_TAIL = CLIMB_LAW_CUT / (4 MAX_LEVEL^2), as an attempt runs at
    most MAX_LEVEL passages and a climb makes fewer than 1.5 attempts on
    average (the tests check it); the products, each trimmed of last terms
    that hold less than _SERIES_TAIL, as an attempt passes at most
    MAX_LEVEL of them and the rows or factors fewer than MAX_LEVEL more;
    the restarts past the last row, rho^R for R rows and
    rho = restart_L(1), or for H past each passage's last factor, the mass
    of y^(2^k), under CLIMB_LAW_CUT / (4 MAX_LEVEL); and the least likely
    outcomes, which the law drops.  Before the drop, each law is scaled so
    that the fsum of its masses is 1: a deep passage's float A and B may
    sum past 1 by a fraction of an ulp, which would compound along the
    climb.  Where rounding still takes the running sum past 1 before the
    last mass (13 PSI laws up to MAX_LEVEL, the first at 44), the law ends
    at the first outcome past 1, so each is an inverse-CDF segment as it is.
    """
    top = checked_level(top, "top")
    base = base_average_cost(family)
    yield np.full(1, base), np.ones(1)
    a, b, _, kept = passage_series(success_probs(family), top, math.inf, _SERIES_TAIL)
    bound = CLIMB_LAW_CUT / 4
    reach, restart = np.ones(1), np.zeros(0)
    for level, a_l, b_l, terms in zip(range(1, top + 1), a, b, kept):
        # reach B_l for l = level - 1: the attempts that restart in passage l
        restarts = _product(np.array(b_l[:terms]), reach)
        reach = _product(np.array(a_l[:terms]), reach)
        if base == 1.0:  # H's law, times 1 / (1 - y) = (1 + y)(1 + y^2)...
            y = np.concatenate((np.zeros(level), restarts))
            while math.fsum(y.tolist()) >= bound / MAX_LEVEL:
                reach = _product(np.concatenate(([1.0], y[1:])), reach)
                y = _product(y, y)
            rows = [reach]  # [d + r]
        else:
            if len(restarts):  # restart gains z^l restarts; no view of it is alive
                restart.resize(max(len(restart), level - 1 + len(restarts)), refcheck=False)
                restart[level - 1 : level - 1 + len(restarts)] += restarts
            rho, rows, rest = math.fsum(restart.tolist()), [reach], 1.0
            while (rest := rest * rho) >= bound:
                rows.append(_product(restart, rows[-1]))
        cells = np.zeros((max(map(len, rows)), len(rows)))  # [d, r]
        for r, row in enumerate(rows):
            cells[: len(row), r] = row
        cells /= math.fsum(cells.ravel().tolist())
        d, r = np.indices(cells.shape)
        # the least likely outcomes, together below bound, are dropped
        ranked = np.sort(cells, axis=None)
        keep = cells >= ranked[np.searchsorted(np.cumsum(ranked), bound)]
        masses = cells[keep].tolist()
        end = len(masses)
        if math.fsum(masses[:-1]) > 1.0:  # end at the first outcome past 1
            end = bisect_left(range(end), True, key=lambda j: math.fsum(masses[: j + 1]) > 1.0) + 1
        # climb_walk's bill, in its order: the integers, then the base states
        yield ((level + 2 * d + r)[keep] + (r[keep] + 1) * base)[:end], cells[keep][:end]
