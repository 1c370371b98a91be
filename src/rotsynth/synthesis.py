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

synthesize and min_online_synthesize compile one rotation at a time, each
climb walked merge by merge on a random.Random.  lockstep_synthesize runs
the same planner over many samples at once in numpy, drawing each climb's
cost from its exact law by inverse CDF, with one 53-bit draw per climb and
one per coin from a caller's counter stream.
"""
from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .ladder import (
    ALL_FAMILIES,
    MAX_LEVEL,
    Family,
    base_average_cost,
    checked_family,
    checked_level,
    climb_cost_laws,
    climb_walk,
    expected_climb_cost,
    rotation_angle,
    success_probs,
)
from .seeding import GUIDE_BITS, inverse_cdf_picks, inverse_cdf_segment

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
    residual above epsilon); lockstep_synthesize tabulates the climbs of the
    levels up to it, and perfbench's set-up warms its angle tables up to it."""
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

    def thresholds(self, start: int) -> np.ndarray:
        """Per gap between neighbours lo < hi of the states from start on,
        the least float magnitude in (lo, hi] that lookup(., start) sends to
        hi.  Its test, below < above or (below == above and lower_wins),
        holds at lo and fails at hi, and once false it stays false as the
        magnitude grows: below = fl(m - lo) never decreases and
        above = fl(hi - m) never increases.  So a bisection over the bit
        patterns of the floats, which run in the order of their values,
        finds where it turns."""
        lo, hi = np.array(self.angles[start:-2]), np.array(self.angles[start + 1 : -1])
        lower_wins = np.array(self.lower_wins[start + 1 :])
        near, far = lo.view(np.int64), hi.view(np.int64)
        while (far - near > 1).any():
            mid = near + ((far - near) >> 1)
            below, above = mid.view(np.float64) - lo, hi - mid.view(np.float64)
            nearer = (below < above) | ((below == above) & lower_wins)
            near, far = np.where(nearer, mid, near), np.where(nearer, far, mid)
        return far.view(np.float64)


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


# a coin's 53-bit draw below this is heads, as random() < 0.5 is
_HALF = 2**52
# lockstep_synthesize asks for the draws of this many ticks at a time
_BLOCK_TICKS = 8


class _LockstepTables(NamedTuple):
    """The read-only arrays of lockstep_synthesize for the states of levels
    0..top of a family set: the suffix of its _AngleTable that
    table.start(top) cuts.  angles holds the suffix's angles; shift, first
    and thresholds are _state_bins of its _AngleTable.thresholds, which
    _nearest_states reads.  keys and guide are one inverse-CDF table of
    the climb cost laws (ladder.climb_cost_laws), a segment per state, and
    segments[i] (already times 2^53) keys the draws of state start + i.
    costs[j] is outcome j's cost, as climb_walk bills it."""

    start: int
    shift: int
    first: np.ndarray
    thresholds: np.ndarray
    angles: np.ndarray
    segments: np.ndarray
    keys: np.ndarray
    guide: np.ndarray
    costs: np.ndarray


def _state_bins(thresholds: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Bins that look magnitudes up among increasing thresholds without a
    binary search.  A non-negative float's bits, read as an int64, run in
    the order of its value, so bits >> shift cuts each binade into
    2^(52 - shift) bins; shift is the largest (the bins the widest) for
    which no bin holds two thresholds.  first[q] counts the thresholds
    below bin q's first float, over the bins of every magnitude below 4
    (1025 binades' worth, at most 8200 bins for all four families);
    the thresholds come back with a +inf sentinel appended."""
    bits = thresholds.view(np.int64)
    shift = next(s for s in range(52, -1, -1) if (np.diff(bits >> s) > 0).all())
    starts = (np.arange(1025 << (52 - shift)) << shift).view(np.float64)
    return shift, np.searchsorted(thresholds, starts), np.append(thresholds, math.inf)


def _nearest_states(shift: int, first: np.ndarray, thresholds: np.ndarray, m: np.ndarray) -> np.ndarray:
    """np.searchsorted(thresholds[:-1], m, side="right") over _state_bins
    for magnitudes m in [0, 4): the thresholds below m's bin, plus the one
    threshold its bin may hold if that is <= m (the sentinel never is)."""
    i = first.take(m.view(np.int64) >> shift)
    i += thresholds.take(i) <= m
    return i


def _law_end(masses: np.ndarray) -> int:
    """How many of a climb cost law's outcomes its inverse-CDF segment
    keeps: all of them, or, where rounding takes the running sum of the
    masses past 1 (by under 2^-50; some laws of the PSI families from
    level 16 up pass it by about 1.5e-16 in their last 30-70 outcomes),
    those up to the first that passes it, which then takes the rest.  No
    draw of the segment reaches the outcomes after it, whose keys would
    lie past its end; a law that passes 1 by more is left for
    inverse_cdf_segment to refuse."""
    mass = masses.tolist()
    if not 1.0 < math.fsum(mass[:-1]) <= 1.0 + 2**-50:
        return len(mass)
    return bisect_left(range(len(mass)), True, key=lambda j: math.fsum(mass[: j + 1]) > 1.0) + 1


@lru_cache(maxsize=8)
def _lockstep_tables(families: tuple[Family, ...], top: int) -> _LockstepTables:
    """The lockstep tables of the family set up to level top.  The segments
    run family by family, each over its levels, and each law is written as
    it is solved onto the ends of keys and costs, which grow in place: the
    four families' table holds about 133k outcomes at top 32, 16 bytes
    each."""
    table = _angle_table(families)
    start = table.start(top)
    rank = {f: r for r, f in enumerate(families)}
    keys, costs = np.empty(0, np.int64), np.empty(0)
    guide = np.empty(len(families) * (top + 1) << GUIDE_BITS, np.intp)
    for family in families:
        base = base_average_cost(family)
        for level, (wholes, restarts, masses) in enumerate(climb_cost_laws(family, top)):
            end = _law_end(masses)
            wholes, restarts, masses = wholes[:end], restarts[:end], masses[:end]
            segment = rank[family] * (top + 1) + level
            first = len(keys)
            # no view of either is alive, so they may move
            keys.resize(first + len(masses), refcheck=False)
            costs.resize(first + len(masses), refcheck=False)
            keys[first:], slots = inverse_cdf_segment(masses, segment, len(masses))
            guide[segment << GUIDE_BITS : (segment + 1) << GUIDE_BITS] = np.where(slots < 0, -1, slots + first)
            # climb_walk's bill, in its order: the integers, then the base states
            costs[first:] = wholes + (restarts + 1) * base
    tables = _LockstepTables(
        start,
        *_state_bins(table.thresholds(start)),
        np.array(table.angles[start:-1]),
        np.array([(rank[f] * (top + 1) + level) << 53 for f, level, _ in table.plus[start:]]),
        keys,
        guide,
        costs,
    )
    for array in tables[2:]:
        array.flags.writeable = False
    return tables


def _climb_costs(tables: _LockstepTables, states: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The costs of climbs to the states (indices into the tables' suffix),
    each drawn from its law by inverse CDF with one 53-bit draw of bits."""
    picks, _ = inverse_cdf_picks(tables.keys, tables.guide, tables.segments.take(states) + bits.view(np.int64))
    return tables.costs.take(picks)


def _bill_climbs(tables: _LockstepTables, bill: np.ndarray, log: list, stride: int) -> np.ndarray:
    """Draw the costs of the climbs that the logged ticks' planner steps
    consumed, in one _climb_costs call, and add them in tick order into
    bill, flat over (round, sample) with stride samples a round; returns
    bill, grown by zero rounds where the log reaches a new one, and
    empties the log.  np.add.at is unbuffered and adds in index order, so
    each cell is ((0 + c1) + c2) + ... of its climbs, tick by tick."""
    if not log:
        return bill
    dest, states, steps, bits, *rounds = map(np.concatenate, zip(*log))
    log.clear()
    cells = dest[steps]
    if rounds:
        cells += rounds[0][steps].astype(np.intp) * stride
        needed = (int(cells.max(initial=0)) // stride + 1) * stride
        if needed > len(bill):
            bill = np.concatenate((bill, np.zeros(needed - len(bill))))
    np.add.at(bill, cells, _climb_costs(tables, states[steps], bits[steps]))
    return bill


class LockstepResult(NamedTuple):
    """Per sample, as the scalar planners report them."""

    online: np.ndarray
    offline: np.ndarray
    residuals: np.ndarray
    corrections: np.ndarray


def lockstep_synthesize(
    targets: np.ndarray,
    epsilons: np.ndarray,
    families: tuple[Family, ...],
    draws: Callable[[np.ndarray, int, int], np.ndarray],
    ancilla: bool = False,
    trace: list | None = None,
) -> LockstepResult:
    """synthesize over the whole ladder, or with ancilla
    min_online_synthesize, for every (targets[i], epsilons[i]) at once:
    one numpy lockstep over the samples, one tick per planner step or
    ancilla round of every sample still running.

    draws(samples, start, count) gives draws start .. start + count - 1 of
    those samples' streams as 53-bit integers, a uint64 array of shape
    (len(samples), count).  Tick t reads draws 2t and 2t + 1: 2t is the
    climb of the state a planner step consumes, drawn from the state's
    climb cost law by inverse CDF, 2t + 1 the coin, heads below 2^52 (as
    random() < 0.5): a planner step then subtracts the state's rotation,
    and an ancilla round succeeds.  Every tick before a sample's last reads
    its coin, in the order the scalar planners flip theirs.  The draws are
    asked for _BLOCK_TICKS ticks at a time, so a sample may be read ahead
    of its last tick, up to the end of its block, and its coins are
    compared with 2^52 once a block.

    Each tick folds every running residual, as reduce_by_clifford does:
    np.fmod by TAU then one TAU back into [-pi, pi], which is
    math.remainder's value (the TAU step is exact by Sterbenz; at +-pi the
    two may differ in sign, which the quarter-turn fold then erases), then
    the round-half-even quarter-turn fold and the step up from <= -pi/4;
    the first part leaves any residual in [-pi, pi] as it is, so only the
    targets take it.
    A sample within its epsilon is done (or ends its ancilla round); the
    others look their magnitude up and apply their coin.  The lookup is
    _AngleTable.lookup's, as the count of the thresholds at or below the
    magnitude, the magnitudes where its choice between two neighbouring
    angles turns from the lower to the upper (_AngleTable.thresholds: the
    choice is monotone in the magnitude, so each gap has one).  It is read
    from bins of the magnitude's float bits that hold one threshold at
    most (_nearest_states), not searched.  Only states of levels up to
    auto_max_level(min(epsilons)) are looked up: a state of angle
    a <= epsilon/2 is never the nearest to a residual m > epsilon, as the H
    ladder has one in [m/2, 3m/2], whose ratio 3 exceeds any of its level
    steps.  Every operation is elementwise on a sample's own values and
    draws, so a sample's result does not depend on the others in the
    batch.  trace, if given, gets one (samples, states) pair of arrays per
    tick: the _AngleTable index of the state each planner step consumed.

    The residual's path never reads a climb's cost, so a tick only logs
    its steps (and with ancilla the round each belongs to), and the
    climbs are billed a block at a time: when the block's draws are
    replaced, and after the last tick, one _climb_costs call draws the
    logged climbs' costs and np.add.at adds them in tick order into one
    bill per (round, sample).  offline then sums each sample's rounds in
    round order, so it is ((0 + c1) + c2) + ... tick by tick for the
    greedy planner, and the sum of the in-round sums, round by round, as
    min_online_synthesize bills, with ancilla.

    The updates are unmasked: an entry that does not step (or fold up)
    adds or subtracts a signed zero, and that leaves a residual's bytes
    as they are unless it is -0.0.  None is: a difference x - y is -0.0
    only for x = -0.0 and y = +0.0, and after r -= k * HALF_PI a zero r
    gives k = rint(-0.0 / HALF_PI) = -0.0, so -0.0 - (-0.0) = +0.0; the
    step up from <= -pi/4 leaves a positive residual, and an ancilla
    round's 2 remaining - r starts from remaining, a folded residual.
    """
    targets = np.array(targets, dtype=float)
    eps = np.array(epsilons, dtype=float)
    if targets.ndim != 1:
        raise ValueError(f"targets must be one-dimensional, got shape {targets.shape}")
    if eps.shape != targets.shape:
        raise ValueError(f"epsilons must hold one accuracy per target: shape {eps.shape}, targets {targets.shape}")
    if not targets.size:
        raise ValueError("need at least one sample")
    if not np.isfinite(targets).all():
        raise ValueError("target must be finite")
    if not ((eps > 0) & (eps < math.inf)).all():
        raise ValueError("epsilons must be positive and finite")
    finest = float(eps.min())
    # validates the families and the ladder's depth
    config = SynthesisConfig(epsilon=finest, families=families)
    top = auto_max_level(finest)
    _table_and_start(replace(config, max_level=top))
    tables = _lockstep_tables(config.families, top)
    shift, first, thresholds, angles = tables.shift, tables.first, tables.thresholds, tables.angles
    n = len(targets)
    # per sample, with a last slot that the padding writes to
    online, corrections, residuals = np.zeros((3, n + 1))
    # the entries: every sample still running and some that are not, a
    # power of two of them (numpy keeps freed buffers below 1 KiB for
    # reuse, up to seven of each byte size, so lengths that walked down one
    # by one would leave megabytes behind); each holds its sample (n for
    # padding), its draw row, residual, accuracy, corrections and online
    # count so far, the draws of its block, and for the ancilla rounds
    # whether one is under way and the rotation it started from.  An entry
    # that is not running is folded and within its accuracy, so every tick
    # leaves it as it is.
    width = 1 << (n - 1).bit_length()
    pad = (0, width - n)
    dest, rows = np.pad(np.arange(n), pad, constant_values=n), np.pad(np.arange(n), pad)
    # every residual taken into [-pi, pi] once: a step then moves a folded
    # one by at most pi/4 (and an ancilla round's tails doubles one within
    # pi/4), so np.fmod and the TAU steps leave it as it is from then on
    r = np.fmod(targets, TAU)
    r = np.where(r > math.pi, r - TAU, r)
    r = np.pad(np.where(r < -math.pi, r + TAU, r), pad)
    eps = np.pad(eps, pad, constant_values=1.0)
    # a step's rotation, heads at i and tails at i + len(angles)
    signed = np.concatenate((angles, -angles))
    # counts in floats, exact to 2^53
    corr, on, remaining = np.zeros((3, width))
    rounds = np.zeros(width, bool)
    # the climbs of the block's ticks so far, billed when its draws are
    # replaced, into offline costs per (round, sample)
    log: list[tuple[np.ndarray, ...]] = []
    bill = np.zeros(n + 1)
    # 0-d arrays, not Python floats: numpy converts a Python scalar operand
    # to an array on every call, which costs a narrow tick's operation about
    # as much again, and the IEEE results are the same
    half_pi, low, half = np.array(HALF_PI), np.array(-QUARTER_PI), np.array(_HALF, np.uint64)
    for tick in itertools.count():
        column = tick % _BLOCK_TICKS
        if not column:
            bill = _bill_climbs(tables, bill, log, n + 1)
            block = draws(rows, 2 * tick, 2 * _BLOCK_TICKS)
            # the block's climbs and coins, and per coin the offset of its
            # rotation in signed
            climbs, flips = block[:, ::2], block[:, 1::2] >= half
            turns = flips * len(angles)
        k = np.rint(r / half_pi)
        r -= k * half_pi
        up = r <= low
        r += up * half_pi
        corr += np.abs(k - up)
        m = np.abs(r)
        steps = m > eps
        running = steps | rounds if ancilla else steps
        live = int(np.count_nonzero(running))
        if 2 * live <= len(dest):
            residuals[dest], corrections[dest], online[dest] = r, corr, on
            if not live:
                break
            # the running entries first, in order, then as many others
            keep = np.argsort(~running, kind="stable")[: 1 << (live - 1).bit_length()]
            entries = (dest, rows, r, m, eps, corr, on, rounds, remaining, steps, climbs, flips, turns)
            dest, rows, r, m, eps, corr, on, rounds, remaining, steps, climbs, flips, turns = (
                x.take(keep, axis=0) for x in entries
            )
        i = _nearest_states(shift, first, thresholds, m)
        if ancilla:
            # a round ends: its ancilla carried remaining - r, so heads
            # leaves r, which the next tick finishes, and tails 2 remaining - r
            ends = rounds & ~steps
            # a fresh array, logged as the round of this tick's steps
            on = on + ends
            starts = steps & ~rounds
            rounds = steps
            np.subtract(2 * remaining, r, out=r, where=ends & flips[:, column])
            np.copyto(remaining, r, where=starts)
            log.append((dest, i, steps, climbs[:, column], on))
        else:
            on += steps
            log.append((dest, i, steps, climbs[:, column]))
        # heads subtracts the state's rotation, tails adds it; an entry
        # that does not step subtracts a signed zero, which leaves its
        # residual's bytes as they are (see the docstring)
        r -= signed.take(i + turns[:, column]) * steps
        if trace is not None:
            trace.append((dest[steps], i[steps] + tables.start))
    offline = np.zeros(n + 1)
    # the rounds' bills in round order, as min_online_synthesize adds them
    for bills in _bill_climbs(tables, bill, log, n + 1).reshape(-1, n + 1):
        offline += bills
    return LockstepResult(online[:n].astype(np.int64), offline[:n], residuals[:n], corrections[:n].astype(np.int64))
