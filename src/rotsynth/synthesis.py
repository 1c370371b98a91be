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
climb walked merge by merge on a random.Random.  They share one greedy loop,
_greedy: synthesize runs it once, and min_online_synthesize validates its
config once per call and runs every ancilla round through it on the same
angle table.  lockstep_synthesize runs the same planner over many samples
at once in numpy, drawing each climb's cost from its exact law by inverse
CDF, with one 53-bit draw per climb and one per coin from a caller's counter
stream.  Once only a few samples are left, it runs their ticks on in plain
Python, with the same arithmetic on the same draws, so the bytes are the
same.
"""
from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
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
from .seeding import inverse_cdf_picks, inverse_cdf_table

TAU = 2 * math.pi
HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4


def reduce_by_clifford(residual: float) -> tuple[float, int]:
    """Take a residual rotation mod 2*pi and fold free quarter turns out.

    Returns the equivalent residual in (-pi/4, pi/4] together with the number
    of quarter-turn gates absorbed (zero cost).  A zero residual comes back
    +0.0, as lockstep_synthesize's fold gives it.
    """
    residual = math.remainder(residual, TAU) + 0.0
    k = round(residual / HALF_PI)
    residual -= k * HALF_PI
    if residual <= -QUARTER_PI:
        residual += HALF_PI
        k -= 1
    return residual, abs(k)


@dataclass(frozen=True)
class SynthesisConfig:
    """Planner settings; families (any iterable of distinct Family members) is kept as a tuple.

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
        for i, family in enumerate(families):
            if family in families[:i]:
                raise ValueError(f"family {family.value!r} is repeated in families")
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
    residual above epsilon); lockstep_synthesize reads the climb laws of the
    levels up to it, from _AngleTable.climb_laws."""
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    # the H table lists the H rotations finest first: level = MAX_LEVEL - index
    finer = bisect_right(_angle_table((Family.H,)).angles, epsilon / 2)
    return min(MAX_LEVEL, MAX_LEVEL + 1 - finer)


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


class _AngleTable:
    """All (family, level) states of a family set by ascending rotation angle,
    then expected climb cost, family rank and level.  One level shrinks an
    angle by more than the families differ, so the states up to a level cap
    form a suffix, from start(cap) on, and so do their thresholds.

    thresholds[i] is the least float magnitude in the gap (lo, hi] between
    states i and i + 1 that is nearer to hi, or as near with hi the lower
    in (cost, rank, level), the tie's order; the count of the thresholds
    at or below a magnitude is then its nearest state, and the count from
    start on its nearest among those from start on.  Whether a magnitude m
    is nearer to lo, below < above or (below == above and lo wins the tie),
    holds at lo and fails at hi, and once false it stays false as m grows:
    below = fl(m - lo) never decreases and above = fl(hi - m) never
    increases.  So a bisection over the bit patterns of the floats, which
    run in the order of their values, finds where it turns.

    The scalar planners and _finish read the lists, and lockstep_synthesize
    the read-only arrays: shift, first and bounds (the thresholds and a +inf
    sentinel) are the _state_bins that _nearest_states reads, and signed
    holds the angles, then their negatives; climb_laws holds the climb laws."""

    def __init__(self, families: tuple[Family, ...]):
        entries = sorted(
            (rotation_angle(f, lvl), expected_climb_cost(f, lvl), ALL_FAMILIES.index(f), lvl, f)
            for f in families
            for lvl in range(MAX_LEVEL + 1)
        )
        self.levels = [e[3] for e in entries]
        assert self.levels == sorted(self.levels, reverse=True), "level caps must cut suffixes"
        self.angles = [e[0] for e in entries]
        angles = np.array(self.angles)
        lo, hi = angles[:-1], angles[1:]
        lower_wins = np.array([a[1:4] < b[1:4] for a, b in zip(entries, entries[1:])])
        near, far = lo.view(np.int64), hi.view(np.int64)
        while (far - near > 1).any():
            mid = near + ((far - near) >> 1)
            below, above = mid.view(np.float64) - lo, hi - mid.view(np.float64)
            nearer = (below < above) | ((below == above) & lower_wins)
            near, far = np.where(nearer, mid, near), np.where(nearer, far, mid)
        self.thresholds = far.view(np.float64).tolist()
        self.shift, self.first, self.bounds = _state_bins(far.view(np.float64))
        self.signed = np.concatenate((angles, -angles))
        for array in (self.first, self.bounds, self.signed):
            array.flags.writeable = False
        self.probs = [success_probs(e[4]) for e in entries]
        self.base_costs = [base_average_cost(e[4]) for e in entries]
        self.plus = [(e[4], e[3], 1) for e in entries]
        self.minus = [(e[4], e[3], -1) for e in entries]
        self.families = families
        self._climb_laws: _ClimbLaws | None = None

    def start(self, max_level: int) -> int:
        """Index of the first state with level <= max_level."""
        return len(self.levels) - (max_level + 1) * len(self.families)

    def climb_laws(self, top: int) -> _ClimbLaws:
        """The climb laws of levels 0..top: a prefix of those of the deepest
        top asked for so far, which a deeper top solves anew."""
        laws = self._climb_laws
        if laws is None or laws.top < top:
            solving = {f: climb_cost_laws(f, top) for f in self.families}
            # coarsest first, so each family's laws come level by level
            solved = (next(solving[f]) for f, _, _ in reversed(self.plus[self.start(top) :]))
            cost_table = inverse_cdf_table((masses, len(masses), costs) for costs, masses in solved)
            laws = self._climb_laws = _ClimbLaws(top, len(self.levels) - 1, *cost_table)
        return laws


@lru_cache(maxsize=None)
def _angle_table(families: tuple[Family, ...]) -> _AngleTable:
    return _AngleTable(families)


def pick_state(residual: float, config: SynthesisConfig) -> tuple[Family, int]:
    """The enabled (family, level) whose rotation is nearest to |residual|.

    Ties go to the lower expected climb cost, then the family order
    H < PSI0 < PSI1 < PSI2, then the lower level.
    """
    if not math.isfinite(residual):
        raise ValueError("residual must be finite")
    table = _angle_table(config.families)
    return table.plus[bisect_right(table.thresholds, abs(residual), table.start(config.max_level))][:2]


def _checked_table(config: SynthesisConfig) -> _AngleTable:
    """The config's angle table, once its ladder is checked deep enough for
    its epsilon: every state above the level cap is then finer than
    epsilon/2, so the planners may look up over the whole table."""
    table = _angle_table(config.families)
    finest = table.angles[table.start(config.max_level)]
    if finest > config.epsilon / 2:
        reason = f"finest enabled rotation {finest:.3e} exceeds epsilon/2"
        if config.max_level < MAX_LEVEL:
            raise ValueError(f"{reason}; raise max_level")
        raise ValueError(f"epsilon {config.epsilon:.3e} is below what {MAX_LEVEL} levels reach: {reason}")
    return table


def _greedy(
    residual: float, table: _AngleTable, eps: float, rnd: Callable[[], float]
) -> tuple[float, float, int, list[tuple[Family, int, int]]]:
    """The greedy loop of both scalar planners: fold the residual, and while
    it is above eps consume the nearest state, walking its climb and
    flipping its coin on rnd.  Returns the final residual, the offline
    cost, the Clifford corrections and the applied states."""
    thresholds, angles, levels, probs = table.thresholds, table.angles, table.levels, table.probs
    base_costs, plus, minus = table.base_costs, table.plus, table.minus
    applied: list[tuple[Family, int, int]] = []
    offline, corrections = 0.0, 0
    while True:
        residual, k = reduce_by_clifford(residual)
        corrections += k
        magnitude = abs(residual)
        if magnitude <= eps:
            return residual, offline, corrections, applied
        i = bisect_right(thresholds, magnitude)
        offline += climb_walk(probs[i], levels[i], base_costs[i], rnd)
        # consume the state: rotate by +angle or -angle with probability 1/2
        if rnd() < 0.5:
            residual -= angles[i]
            applied.append(plus[i])
        else:
            residual += angles[i]
            applied.append(minus[i])


def synthesize(target: float, config: SynthesisConfig, rng: random.Random) -> SynthesisResult:
    """Compile a Z-rotation by `target` to accuracy config.epsilon.

    Offline cost totals the raw resources of one simulated ladder instance
    per consumed state; online cost counts the consumed states.
    """
    if not math.isfinite(target):
        raise ValueError("target must be finite")
    table = _checked_table(config)
    residual, offline, corrections, applied = _greedy(target, table, config.epsilon, rng.random)
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
    if eps == config.epsilon:
        table = _checked_table(config)
    else:
        # validates eps as the inner accuracy first, so a NaN or too small
        # eps is reported as such, not as a mismatch
        _checked_table(replace(config, epsilon=eps))
        raise ValueError(f"eps {eps!r} differs from config.epsilon {config.epsilon!r}")
    rnd = rng.random
    corrections = online = 0
    offline = 0.0
    remaining = target
    while True:
        remaining, k = reduce_by_clifford(remaining)
        corrections += k
        if abs(remaining) <= eps:
            break
        residual, cost, k, _ = _greedy(remaining, table, eps, rnd)
        offline += cost
        corrections += k
        online += 1
        if rnd() < 0.5:
            remaining = residual
            break
        # the ancilla carried (remaining - residual); failure applied its
        # negative
        remaining = 2 * remaining - residual
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
# and hands its samples to _finish once this many or fewer still run
_TAIL = 16


class _ClimbLaws(NamedTuple):
    """A family set's read-only climb laws of levels 0..top, laid out level
    by level from the coarsest state (seeding.inverse_cdf_table): segment
    last - i holds the ladder.climb_cost_laws law of _AngleTable state i."""

    top: int
    last: int
    keys: np.ndarray
    guide: np.ndarray
    costs: np.ndarray


def _climb_costs(laws: _ClimbLaws, states: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The costs of climbs to the states (_AngleTable indices), each drawn
    from its law by inverse CDF with one 53-bit draw of bits, which is
    spent.  A state above the laws' top raises ValueError."""
    picks, _ = inverse_cdf_picks(laws.keys, laws.guide, laws.last - states, bits)
    return laws.costs.take(picks)


def _bill_climbs(laws: _ClimbLaws, bill: np.ndarray, log: list, stride: int) -> np.ndarray:
    """Draw the costs of the logged climbs, in one _climb_costs call, and
    add them in log order into bill, flat over (round, sample) with stride
    samples a round; returns bill, grown by zero rounds where the log
    reaches a new one, and empties the log.  Each log entry holds the
    samples, states and climb draws of one tick's planner steps (or of
    _finish's), and with ancilla their rounds.  np.add.at is unbuffered and
    adds in index order, so each cell is ((0 + c1) + c2) + ... of its
    climbs, tick by tick."""
    if not log:
        return bill
    cells, states, bits, *rounds = map(np.concatenate, zip(*log))
    log.clear()
    if rounds:
        cells += rounds[0].astype(np.intp) * stride
        needed = (int(cells.max(initial=0)) // stride + 1) * stride
        if needed > len(bill):
            bill = np.concatenate((bill, np.zeros(needed - len(bill))))
    np.add.at(bill, cells, _climb_costs(laws, states, bits))
    return bill


def _finish(
    table: _AngleTable,
    tick: int,
    stragglers: list[tuple],
    draws: Callable[[np.ndarray, int, int], np.ndarray],
    ancilla: bool,
    trace: list | None,
    outputs: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, ...]:
    """lockstep_synthesize's ticks from the nearest-state lookup of tick
    on, in plain Python, for its last few samples: each straggler is its
    entry's (sample, folded residual, accuracy, corrections, online count,
    round under way, rotation the round started from, the block's climb
    draws, its coins' tails), in sample order.  Each sample's
    residual, corrections and online count go into outputs as it finishes;
    returns the log entry of the climbs, which the caller bills."""
    thresholds, angles = table.thresholds, table.angles
    residuals, corrections, online = outputs
    dests, states, bits, rounds = [], [], [], []
    while stragglers:
        column = tick % _BLOCK_TICKS
        running, since = [], len(dests)
        for dest, r, eps, corr, on, rnd, remaining, climbs, tails in stragglers:
            m = abs(r)
            step = m > eps
            j = bisect_right(thresholds, m)
            tail = tails[column]
            if not ancilla:
                on += 1
            elif rnd and not step:
                # the round ends, and on tails goes on from 2 remaining - r
                on += 1
                if tail:
                    r = 2 * remaining - r
                rnd = False
            elif step and not rnd:
                remaining = r
                rnd = True
            if step:
                dests.append(dest)
                states.append(j)
                bits.append(climbs[column])
                rounds.append(on)
            r -= (-angles[j] if tail else angles[j]) * step
            r, k = reduce_by_clifford(r)
            corr += k
            if abs(r) > eps or rnd:
                running.append((dest, r, eps, corr, on, rnd, remaining, climbs, tails))
            else:
                residuals[dest], corrections[dest], online[dest] = r, corr, on
        if trace is not None:
            trace.append((np.array(dests[since:], np.intp), np.array(states[since:], np.intp)))
        stragglers = running
        tick += 1
        if stragglers and not tick % _BLOCK_TICKS:
            block = draws(np.array([s[0] for s in stragglers]), 2 * tick, 2 * _BLOCK_TICKS).tolist()
            stragglers = [(*s[:7], b[::2], [c >= _HALF for c in b[1::2]]) for s, b in zip(stragglers, block)]
    logged = (np.array(dests, np.intp), np.array(states, np.intp), np.array(bits, np.uint64))
    return (*logged, np.array(rounds)) if ancilla else logged


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
    asked for _BLOCK_TICKS ticks at a time, each sample's row once a block
    while it runs, the rows in ascending order.  At a block's first tick,
    before the draws, the numpy loop's entries that the tick before found
    done leave, and it asks for the rest, the samples whose last tick is
    at or after the block's first; _finish asks for its own stragglers.
    So a sample may be read ahead of its last tick, up to the end of its
    block but never past it, and its coins are compared with 2^52 once a
    block.  draws must not write the samples array it is given: it is the
    lockstep's own array of entries.

    Each tick folds every running residual, as reduce_by_clifford does:
    np.fmod by TAU then one TAU back into [-pi, pi], which is
    math.remainder's value (the TAU step is exact by Sterbenz; at +-pi the
    two may differ in sign, which the quarter-turn fold then erases), then
    the round-half-even quarter-turn fold and the step up from <= -pi/4;
    the first part leaves any residual in [-pi, pi] as it is, so only the
    targets take it.  A sample within its epsilon is done (or ends its
    ancilla round); the others look their magnitude up and apply their coin.
    The lookup is synthesize's, the count of the _AngleTable.thresholds at
    or below the magnitude, the magnitudes where the nearest of two
    neighbouring angles turns from the lower to the upper, over the whole
    ladder.  It is read from the table's bins of the magnitude's float bits,
    which hold one threshold at most (_nearest_states), not searched.  Only
    states of levels up to auto_max_level(min(epsilons)) are ever the
    nearest, so the call asks climb_laws for theirs alone, and holds what it
    gets: a state of angle a <= epsilon/2 is never the nearest to a residual
    m > epsilon, as the H ladder has one in [m/2, 3m/2], whose ratio 3
    exceeds any of its level steps.  Every operation is elementwise on a
    sample's own values and draws, so a sample's result does not depend on
    the others in the batch.  trace, if given, gets one (samples, states)
    pair of arrays per tick: the _AngleTable index of the state each planner
    step consumed.  targets and epsilons are read, never written: float64
    arrays are not copied.

    Once at most _TAIL samples still run at a tick, the numpy loop stops
    after its fold and _finish runs the rest of that tick and the next ones
    for those samples in plain Python, in sample order: a numpy tick costs
    tens of microseconds at any width, a sample's tick in Python about one.
    _finish takes each sample's entry as Python floats and does the same
    IEEE operations on them in the same order, each correctly rounded as
    numpy's: reduce_by_clifford for the fold (round() is np.rint's half to
    even), bisect_right over the same thresholds for _nearest_states,
    the coin's 53-bit draw against 2^52, the same ancilla rounds and the
    same unmasked r -= signed angle * step.  It asks draws for its own rows
    a block at a time, appends one trace pair per tick and logs its climbs
    for the same billing, so no byte depends on _TAIL.

    The residual's path never reads a climb's cost, so a tick only logs
    its steps' samples, states and climb draws (and with ancilla the round
    each belongs to), and the climbs are billed a block at a time: when
    the block's draws are replaced, and after the last tick, one
    _climb_costs call draws the logged climbs' costs and np.add.at adds
    them in tick order into one bill per (round, sample).  offline then
    sums each sample's rounds in round order, so it is
    ((0 + c1) + c2) + ... tick by tick for the greedy planner, and the sum
    of the in-round sums, round by round, as min_online_synthesize bills,
    with ancilla.

    The updates are unmasked: an entry that does not step subtracts a
    signed zero, which leaves a residual's bytes as they are unless it is
    -0.0.  None is: the fold ends by adding +0.0 or pi/2, so it never
    returns -0.0.
    """
    targets = np.asarray(targets, dtype=float)
    eps = np.asarray(epsilons, dtype=float)
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
    table = _checked_table(config)
    laws = table.climb_laws(auto_max_level(finest))
    shift, first, bounds, signed = table.shift, table.first, table.bounds, table.signed
    n = len(targets)
    online, corrections, residuals = np.zeros((3, n))
    # the entries: the samples that ran at the tick before the block's
    # first, in sample order; each holds its sample (the output index and
    # the draw row), its residual, accuracy, corrections and online count
    # so far, the draws of its block, and for the ancilla rounds whether
    # one is under way and the rotation it started from.  An entry that is
    # not running is folded and within its accuracy, so every tick leaves
    # it as it is until the next block's first tick takes it out.
    dest = np.arange(n)
    # every residual taken into [-pi, pi] once: a step then moves a folded
    # one by at most pi/4 (and an ancilla round's tails doubles one within
    # pi/4), so np.fmod and the TAU steps leave it as it is from then on
    r = np.fmod(targets, TAU)
    np.subtract(r, TAU, out=r, where=r > math.pi)
    np.add(r, TAU, out=r, where=r < -math.pi)
    # a step's rotation, heads at signed[i] and tails at i + len(angles):
    # turns holds the offsets in the narrowest integers that index signed
    tails_at = np.array(len(table.angles), np.min_scalar_type(len(signed)))
    # counts in floats, exact to 2^53
    corr, on, remaining = np.zeros((3, n))
    rounds = np.zeros(n, bool)
    # the climbs of the block's ticks so far, billed when its draws are
    # replaced, into offline costs per (round, sample)
    log: list[tuple[np.ndarray, ...]] = []
    bill = np.zeros(n)
    # 0-d arrays, not Python floats: numpy converts a Python scalar operand
    # to an array on every call, which costs a narrow tick's operation about
    # as much again, and the IEEE results are the same
    half_pi, low, half = np.array(HALF_PI), np.array(-QUARTER_PI), np.array(_HALF, np.uint64)
    # the entries that ran at the last tick: before tick 0, all
    running = np.ones(n, bool)
    for tick in itertools.count():
        column = tick % _BLOCK_TICKS
        if not column:
            # the last block's arrays go before its climbs are billed and
            # the next block is drawn
            block = climbs = flips = turns = None
            bill = _bill_climbs(laws, bill, log, n)
            # the entries that the last tick found done write their outputs
            # (the others' are written again when they finish) and leave
            residuals[dest], corrections[dest], online[dest] = r, corr, on
            dest, r, eps, corr, on, rounds, remaining = (
                x[running] for x in (dest, r, eps, corr, on, rounds, remaining)
            )
            block = draws(dest, 2 * tick, 2 * _BLOCK_TICKS)
            # the block's climbs and coins, and per coin the offset of its
            # rotation in signed
            climbs, flips = block[:, ::2], block[:, 1::2] >= half
            turns = flips * tails_at
        k = np.rint(r / half_pi)
        r -= k * half_pi
        up = r <= low
        r += up * half_pi
        corr += np.abs(k - up)
        m = np.abs(r)
        steps = m > eps
        running = steps | rounds if ancilla else steps
        if np.count_nonzero(running) <= _TAIL:
            residuals[dest], corrections[dest], online[dest] = r, corr, on
            # the stragglers, each as _finish takes it
            at = np.flatnonzero(running)
            entries = (dest, r, eps, corr, on, rounds, remaining, climbs, flips)
            stragglers = list(zip(*(x.take(at, axis=0).tolist() for x in entries)))
            outputs = residuals, corrections, online
            log.append(_finish(table, tick, stragglers, draws, ancilla, trace, outputs))
            break
        i = _nearest_states(shift, first, bounds, m)
        if ancilla:
            # a round ends: its ancilla carried remaining - r, so heads
            # leaves r, which the next tick finishes, and tails 2 remaining - r
            ends = rounds & ~steps
            on += ends
            starts = steps & ~rounds
            rounds = steps
            np.subtract(2 * remaining, r, out=r, where=ends & flips[:, column])
            np.copyto(remaining, r, where=starts)
        else:
            on += steps
        # the steps alone, and with ancilla their round
        stepped = np.flatnonzero(steps)
        step_dest, step_states = dest.take(stepped), i.take(stepped)
        logged = (step_dest, step_states, climbs[:, column].take(stepped))
        log.append((*logged, on.take(stepped)) if ancilla else logged)
        # heads subtracts the state's rotation, tails adds it; an entry
        # that does not step subtracts a signed zero, which leaves its
        # residual's bytes as they are (see the docstring)
        r -= signed.take(i + turns[:, column]) * steps
        if trace is not None:
            trace.append((step_dest, step_states))
    offline = np.zeros(n)
    # the rounds' bills in round order, as min_online_synthesize adds them
    for bills in _bill_climbs(laws, bill, log, n).reshape(-1, n):
        offline += bills
    return LockstepResult(online.astype(np.int64), offline, residuals, corrections.astype(np.int64))
