"""Independent cross-check simulators used only by the tests.

Generic measurement of pure and mixed states (with removal of the measured
qubit) judges the factories' sliced outcome and, with a gate's full unitary
on density matrices, the noisy walker's 2x2 closed form;
the step-by-step noisy walker climbs one merge at a time, on a
pure-integer copy of the counter stream, and judges the noise module's
distances at its own downs; the exact
climb (fractions and 50-digit decimals) judges the noise module's climb
tables, and with them the exact decay-study means of the tilted models;
the failure law of a climb (its generating function, term by term) judges
the climb sampler and the tabulated climb laws; the nearest state by brute
force over every enabled state judges the planners' threshold lookups; the
arrival law of a noisy climb's downs (the visits of its walk on level and
downs) judges the noise module's passage-law sampler and gives the exact
decay-study means of every model; the one-state rotation step replays
the planner from its public pieces, and the coin replay feeds the scalar
planners' coins to the numpy lockstep.
The small helpers that only the tests read live here too: basis states,
|+>, pure states as density matrices, Bloch vectors of density matrices, and
reading a samples CSV back.
"""
from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from rotsynth import noise, synthesis
from rotsynth.ladder import (
    ALL_FAMILIES,
    Family,
    base_average_cost,
    expected_climb_cost,
    ladder_angle,
    rotation_angle,
    success_probs,
)
from rotsynth.noise import NoiseModel, make_noisy_resource
from rotsynth.qcore import GATES_1Q, DensityMatrix, PureRegister, apply_gate, xz_state
from rotsynth.seeding import derive_seed
from rotsynth.study import CSV_HEADER, ScalingSample


def basis_state(n_qubits: int, index: int = 0) -> PureRegister:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return PureRegister(amps)


def plus_state() -> PureRegister:
    return xz_state(math.pi / 4)


def dm_from_pure(reg: PureRegister) -> DensityMatrix:
    return DensityMatrix(np.outer(reg.amps, reg.amps.conj()))


def dm_bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """(tr(rho X), tr(rho Y), tr(rho Z)) of a single-qubit density matrix."""
    return np.array([np.trace(rho.mat @ GATES_1Q[p]).real for p in "XYZ"])


def load_samples_csv(path: str) -> list[ScalingSample]:
    """The samples of a study.export_samples_csv file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        return [
            ScalingSample(row[0], float(row[1]), float(row[2]), int(row[3]), float(row[4]))
            for row in reader
        ]


def states_equal_up_to_phase(a: PureRegister, b: PureRegister, tol: float = 1e-10) -> bool:
    if a.n_qubits != b.n_qubits:
        return False
    return abs(abs(np.vdot(a.amps, b.amps)) - 1.0) < tol


def gate_unitary(n: int, gate: str, qubits: tuple[int, ...]) -> np.ndarray:
    """Full 2^n x 2^n unitary of a named gate, column by column."""
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        u[:, k] = apply_gate(basis_state(n, k), gate, *qubits).amps
    return u


def dm_apply_gate(rho: DensityMatrix, gate: str, *qubits: int) -> DensityMatrix:
    u = gate_unitary(rho.n_qubits, gate, qubits)
    return DensityMatrix(u @ rho.mat @ u.conj().T)


@dataclass(frozen=True)
class MeasureResult:
    prob0: float
    post0: PureRegister | None
    prob1: float
    post1: PureRegister | None


def measure_qubit(reg: PureRegister, q: int) -> MeasureResult:
    """Computational-basis measurement of qubit q.

    The measured qubit is removed from the register, so each post state has
    one qubit fewer.  A branch of (numerically) zero probability carries
    ``None`` in place of its post state.
    """
    n = reg.n_qubits
    if not 0 <= q < n:
        raise IndexError(f"qubit {q} out of range for {n}-qubit register")
    if n == 1:
        p0 = abs(reg.amps[0]) ** 2
        return MeasureResult(p0, None, 1.0 - p0, None)
    tensor = reg.amps.reshape([2] * n)
    branches = []
    for m in (0, 1):
        sub = np.take(tensor, m, axis=q).reshape(-1)
        p = float(np.vdot(sub, sub).real)
        post = PureRegister(sub / math.sqrt(p)) if p > 1e-15 else None
        branches.append((p, post))
    (p0, post0), (p1, post1) = branches
    return MeasureResult(p0, post0, p1, post1)


@dataclass(frozen=True)
class DmMeasureResult:
    prob0: float
    post0: DensityMatrix | None
    prob1: float
    post1: DensityMatrix | None


def dm_measure_qubit(rho: DensityMatrix, q: int) -> DmMeasureResult:
    """Measure qubit q of a density matrix; the measured qubit is removed."""
    n = rho.n_qubits
    if not 0 <= q < n:
        raise IndexError(f"qubit {q} out of range for {n}-qubit density matrix")
    tensor = rho.mat.reshape([2] * (2 * n))
    branches = []
    for m in (0, 1):
        sub = np.take(np.take(tensor, m, axis=q), m, axis=n - 1 + q)
        dim = 2 ** (n - 1)
        sub = sub.reshape(dim, dim) if n > 1 else np.array([[sub]], dtype=complex)
        p = float(np.trace(sub).real)
        if n == 1:
            branches.append((p, None))
        else:
            branches.append((p, DensityMatrix(sub / p) if p > 1e-15 else None))
    (p0, post0), (p1, post1) = branches
    return DmMeasureResult(p0, post0, p1, post1)


def failure_law(family: Family, level: int) -> tuple[np.ndarray, float]:
    """The joint law of a climb's downs and level-0 restarts on its way from
    level 0 to level: law[d, r] = P(d downs, r restarts), cut where the mass
    beyond it is below 1e-12, and that missing mass (to rounding).  Such a
    climb bills level + 2 d + r raw resources for its merges (level + d ups,
    d downs, r failed merges at level 0) and the base state 1 + r times.

    The walk visits each (level, d, r) at most once, as an up raises the
    level and keeps d and r, a down raises d and a restart r.  So the chance
    of a visit is a sum over the visits that lead there: for each d in turn,
    the visits that came down from d - 1 or started, then at level 0 the
    restarts, r by r, then the ups, level by level.  Every term is positive,
    so the law is exact to rounding inside its cut; the cuts (64 downs and
    16 restarts) double until the mass beyond them is below 1e-12, or at
    most to 1024 and 256, where the mass still beyond them is returned.
    """
    probs = success_probs(family)[:level]
    if not probs:
        return np.ones((1, 1)), 0.0
    fails = 1 - np.array(probs)
    downs, restarts = 64, 16
    while True:
        law = np.zeros((downs, restarts))
        came_down = np.zeros((level, restarts))
        came_down[0, 0] = 1.0  # the start
        for d in range(downs):
            visits = came_down
            for r in range(1, restarts):
                visits[0, r] += fails[0] * visits[0, r - 1]
            for lv in range(1, level):
                visits[lv] += probs[lv - 1] * visits[lv - 1]
            law[d] = probs[-1] * visits[-1]
            came_down = np.zeros((level, restarts))
            came_down[:-1] = fails[1:, None] * visits[1:]
        missing = 1.0 - law.sum()
        if missing < 1e-12 or downs == 1024:
            return law, missing
        downs, restarts = 2 * downs, 2 * restarts


def climb_cost_law(family: Family, level: int) -> dict[float, float]:
    """failure_law as a law of climb costs, {cost: probability}: each cell's
    cost is the float that ladder.climb_walk bills for it, and cells that
    bill the same float (for H, every cell of one d + r) share it."""
    law, _ = failure_law(family, level)
    base = base_average_cost(family)
    costs: dict[float, float] = {}
    for (d, r), p in np.ndenumerate(law):
        cost = level + 2 * d + r + (r + 1) * base
        costs[cost] = costs.get(cost, 0.0) + float(p)
    return costs


@lru_cache(maxsize=64)
def _states_by_tie(families: tuple[Family, ...], max_level: int) -> tuple[list[tuple[Family, int]], np.ndarray]:
    """The (family, level) states of the families up to max_level sorted by
    (expected climb cost, family rank, level), and their rotation angles."""
    ranked = sorted(
        (expected_climb_cost(f, lvl), ALL_FAMILIES.index(f), lvl, f) for f in families for lvl in range(max_level + 1)
    )
    return [(f, lvl) for _, _, lvl, f in ranked], np.array([rotation_angle(f, lvl) for _, _, lvl, f in ranked])


def nearest_state(families: tuple[Family, ...], max_level: int, magnitude: float) -> tuple[Family, int]:
    """The (family, level) of the families up to max_level nearest to the
    magnitude, by brute force over every such state: the least
    (float distance |magnitude - angle|, expected climb cost, family rank,
    level).  The states are sorted by the last three, so the first at the
    least distance is the least of all four."""
    states, angles = _states_by_tie(tuple(families), max_level)
    return states[int(np.argmin(np.abs(magnitude - angles)))]


def apply_random_rotation(
    residual: float, rot_angle: float, rng: random.Random
) -> tuple[float, int]:
    """Consume one resource state: the applied rotation is +rot_angle or
    -rot_angle with probability 1/2 each.  Returns the new residual, not
    yet wrapped or folded (reduce_by_clifford does both), and the applied
    sign."""
    if rot_angle <= 0:
        raise ValueError("rotation angle must be positive")
    sign = 1 if rng.random() < 0.5 else -1
    return residual - sign * rot_angle, sign


def coin_draws(coins: list[list[int]]):
    """A draws function for synthesis.lockstep_synthesize that replays
    each sample's coins: coins[i][t] (+1 heads, -1 tails) is the coin of
    sample i at tick t, draw 2t + 1 of its stream, and every climb reads
    the draw 0, its law's first outcome.  The lockstep reads a block of
    ticks ahead, so past its coins a sample reads tails: a planner step
    moves the residual either way, and an ancilla round that ends on tails
    goes on, so a tick too many shows in the residual bytes.  A draw past
    the longest coins plus a block raises IndexError."""
    width = max(map(len, coins), default=0) + synthesis._BLOCK_TICKS
    bits = np.zeros((len(coins), 2 * width), np.uint64)
    bits[:, 1::2] = 2**52
    for row, sample in zip(bits, coins):
        row[1 : 2 * len(sample) : 2] = [0 if c > 0 else 2**52 for c in sample]

    def draws(samples: np.ndarray, start: int, count: int) -> np.ndarray:
        if start + count > bits.shape[1]:
            raise IndexError(f"draws {start} .. {start + count - 1} past the replayed coins")
        return bits[samples, start : start + count]

    return draws


class CoinRecorder:
    """An rng for the scalar planners that records each random() it gives
    as a coin (+1 below 0.5, else -1); with synthesis.climb_walk fed from
    another generator, these are exactly the planner's coins."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.coins: list[int] = []

    def random(self) -> float:
        u = self.rng.random()
        self.coins.append(1 if u < 0.5 else -1)
        return u


class NoisyWalker:
    """Bottom density matrix of a noisy climb, tracked as (r00, r01, r11),
    one merge per step() call, with its level and its downs since the last
    restart."""

    __slots__ = ("s00", "s01", "s11", "r00", "r01", "r11", "level", "downs")

    def __init__(self, resource: DensityMatrix):
        sigma = resource.mat
        self.s00 = float(sigma[0, 0].real)
        self.s01 = complex(sigma[0, 1])
        self.s11 = float(sigma[1, 1].real)
        self.reset()

    def reset(self) -> None:
        self.r00, self.r01, self.r11 = self.s00, self.s01, self.s11
        self.level = self.downs = 0

    def step(self, rng: random.Random) -> None:
        """One merge with a fresh noisy top; outcome sampled from the noisy
        probabilities, post-selected state renormalized."""
        s00, s01, s11 = self.s00, self.s01, self.s11
        r00, r01, r11 = self.r00, self.r01, self.r11
        p0 = s00 * r00 + s11 * r11
        p1 = s11 * r00 + s00 * r11
        if rng.random() * (p0 + p1) < p0:
            self.r00 = s00 * r00 / p0
            self.r01 = s01 * r01 / p0
            self.r11 = s11 * r11 / p0
            self.level += 1
        elif self.level == 0:
            self.reset()
        else:
            self.r00 = s11 * r00 / p1
            self.r01 = s01.conjugate() * r01 / p1
            self.r11 = s00 * r11 / p1
            self.level -= 1
            self.downs += 1

    def density_matrix(self) -> DensityMatrix:
        return DensityMatrix(
            np.array(
                [[self.r00, self.r01], [self.r01.conjugate(), self.r11]],
                dtype=complex,
            )
        )

    def distance_to_ideal(self) -> float:
        """Trace distance to the ideal H-ladder state at the current level,
        by the determinant formula with the angle recomputed here."""
        a = ladder_angle(Family.H, self.level)
        c, s = math.cos(a), math.sin(a)
        d00 = self.r00 - c * c
        d01 = self.r01 - c * s
        return math.sqrt(d00 * d00 + d01.real * d01.real + d01.imag * d01.imag)


_MASK64 = 2**64 - 1


def counter_word(key: int, instance: int, draw: int) -> int:
    """The 64-bit SplitMix64 output behind draw `draw` of `instance` in the
    counter stream under key in [0, 2**64), in Python integers masked to
    64 bits."""
    z = (key + ((instance << 32) | draw) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def counter_uniform(key: int, instance: int, draw: int) -> float:
    """seeding.counter_uniforms, one draw at a time."""
    return (counter_word(key, instance, draw) >> 11) * 2.0**-53


class CounterRow:
    """One instance's counter stream as an rng: random() returns draws
    0, 1, 2, ... in turn."""

    def __init__(self, key: int, instance: int):
        self.key = key & _MASK64
        self.instance = instance
        self.draws = 0

    def random(self) -> float:
        u = counter_uniform(self.key, self.instance, self.draws)
        # a draw of 1 or more would never pass the up test: the walker
        # would restart at level 0 forever instead of failing
        assert 0.0 <= u < 1.0, u
        self.draws += 1
        return u


def walker_propagate(model: NoiseModel, target_level: int, rng: random.Random) -> NoisyWalker:
    """propagate_to_level, one walker step at a time: the walker at its
    first arrival at target_level."""
    walker = NoisyWalker(make_noisy_resource(model))
    while walker.level < target_level:
        walker.step(rng)
    return walker


@dataclass(frozen=True)
class WalkerReplay:
    """decay_study's climbs walked one walker step at a time: the per-level
    means, and per instance the downs since the last restart at each first
    arrival (levels 1..max_level)."""

    points: list[tuple[int, float]]
    downs: list[list[int]]


def walker_decay_study(model: NoiseModel, max_level: int, n_instances: int, seed: int) -> WalkerReplay:
    """decay_study's climbs, one walker step at a time on the counter rows
    of its key, the distance added at the first arrival at every level."""
    resource = make_noisy_resource(model)
    key = derive_seed(seed, "noise", model.kind, repr(model.strength))
    sums = [0.0] * (max_level + 1)
    downs = []
    for instance in range(n_instances):
        rng = CounterRow(key, instance)
        walker = NoisyWalker(resource)
        arrivals = []
        while len(arrivals) < max_level:
            walker.step(rng)
            if walker.level > len(arrivals):
                arrivals.append(walker.downs)
                sums[walker.level] += walker.distance_to_ideal()
        downs.append(arrivals)
    points = [(lvl, sums[lvl] / n_instances) for lvl in range(1, max_level + 1)]
    return WalkerReplay(points, downs)


def exact_climb(model: NoiseModel, top: int, downs: list[int]) -> tuple[list[Fraction], list[list[Decimal]]]:
    """The noisy climb's closed form, exact on the float entries of the noisy
    resource: the up probability at every level 0..top, and the distance of
    the bottom state to the ideal ladder state at every level 0..top after
    each count of downs since the last restart ([j][l] for downs[j]).

    With n = l + 1, the up probability
    (s00^(n+1) + s11^(n+1)) / ((s00 + s11) (s00^n + s11^n)) is rational in
    the entries, and floats are dyadic, so it is computed on integers and
    returned as a Fraction.  The bottom state is
    (s00^n, s01^n lam^m, s11^n) / (s00^n + s11^n), lam = |s01|^2 / (s00 s11)
    (0 if a diagonal entry is 0: no down is then possible), and the ideal
    one (1, t, t^2) / (1 + t^2) with t = (sqrt(2) - 1)^n; the distance is
    sqrt(d00^2 + |d01|^2) of their difference, computed in 50-digit Decimal.
    """
    sigma = make_noisy_resource(model).mat
    s00, s01, s11 = float(sigma[0, 0].real), complex(sigma[0, 1]), float(sigma[1, 1].real)
    f00, f11 = Fraction(s00), Fraction(s11)
    scale = max(f00.denominator, f11.denominator)
    a, b = int(f00 * scale), int(f11 * scale)
    up = [Fraction(a ** (n + 1) + b ** (n + 1), (a + b) * (a**n + b**n)) for n in range(1, top + 2)]
    with localcontext() as ctx:
        ctx.prec = 50
        e00, e11, zr, zi = Decimal(s00), Decimal(s11), Decimal(s01.real), Decimal(s01.imag)
        lam = (zr * zr + zi * zi) / (e00 * e11) if s00 and s11 else Decimal(0)
        t = Decimal(2).sqrt() - 1
        xn, yn, rr, ri, tn = Decimal(1), Decimal(1), Decimal(1), Decimal(0), Decimal(1)
        levels = []
        for _ in range(top + 1):
            xn, yn, tn = xn * e00, yn * e11, tn * t
            rr, ri = rr * zr - ri * zi, rr * zi + ri * zr
            norm, ideal_norm = xn + yn, 1 + tn * tn
            levels.append((tn * tn / ideal_norm - yn / norm, rr / norm, ri / norm, tn / ideal_norm))
        dist = []
        for m in downs:
            p = lam**m if m else Decimal(1)  # decimal has no 0**0
            dist.append(
                [(d00 * d00 + (re * p - cs) ** 2 + (im * p) ** 2).sqrt() for d00, re, im, cs in levels]
            )
    return up, dist


def arrival_law(up: list, top: int) -> tuple[list[list], float]:
    """The law of m, the downs since the last restart, at the first arrival
    at each level 1..top of a noisy climb whose merge at level j goes up
    with up[j]: law[L - 1][m], and the largest mass a level's law misses.

    The climb walks on (level, m): an up goes to (j + 1, m), a down to
    (j - 1, m + 1), a failure at level 0 to (0, 0).  For each top L, visits
    of the walk stopped at L are filled one m at a time, since within one m
    the walk only moves up: visits(j, m) = inflow(j, m) +
    visits(j - 1, m) up[j - 1], the inflow being the downs from
    (j + 1, m - 1), and the start at (0, 0).  The restarts feed (0, 0) too,
    in proportion to the start: with a unit start they carry a, so the
    start holds 1 / (1 - a) in all.  Rows stop once their visits fall below
    2^-70; the arrival mass of level L at m is visits(L - 1, m) up[L - 1].
    Given Fractions for up, the same DP runs in exact arithmetic.
    """
    zero = up[0] * 0
    one = zero + 1
    total = math.fsum if isinstance(zero, float) else sum
    laws, worst = [], 0.0
    for top_level in range(1, top + 1):
        arrivals, restarts = [], []
        row = [zero] * top_level
        for m in itertools.count():
            below, row = row, [zero] * top_level
            for j in range(top_level):
                inflow = below[j + 1] * (1 - up[j + 1]) if j + 1 < top_level else zero
                if m == 0 and j == 0:
                    inflow = one
                row[j] = inflow + (row[j - 1] * up[j - 1] if j else zero)
            arrivals.append(row[-1] * up[top_level - 1])
            restarts.append(row[0] * (1 - up[0]))
            if math.fsum(row) < 2.0**-70:
                break
        start = 1 / (1 - total(restarts))
        law = [x * start for x in arrivals]
        worst = max(worst, abs(1 - total(law)))
        laws.append(law)
    return laws, worst


def element_distances(tables, downs: np.ndarray) -> np.ndarray:
    """The first-arrival distances one element at a time, the judge of
    _ClimbTables.distances' grid: downs[..., j] counts the downs since the
    last restart at the first arrival at level j + 1.  The same expression
    in the same order, on lam^m by Python's float pow, so each element is
    the bytes of its grid cell."""
    levels = slice(1, downs.shape[-1] + 1)
    scale = np.array([tables.lam**m for m in range(int(downs.max()) + 1)]).take(downs)
    dr = scale * tables._rr[levels]
    dr -= tables._cs[levels]
    dr *= dr
    di = scale * tables._ri[levels]
    di *= di
    dr += tables._d00sq[levels]
    dr += di
    return np.sqrt(dr, out=dr)


def running_means(tables, downs: np.ndarray) -> list[float]:
    """decay_study's means from its instances' downs (instances, levels),
    the judge of its gathered sum: each element's distance, summed per
    level by a running sum down the instances, over their count."""
    return [s / len(downs) for s in np.cumsum(element_distances(tables, downs), axis=0)[-1].tolist()]


@lru_cache(maxsize=32)
def exact_decay(model: NoiseModel, top: int) -> tuple[list[float], list[float]]:
    """The exact mean and standard deviation of the trace distance at the
    first arrival at each level 1..top: arrival_law on the model's up
    probabilities, through element_distances (which exact_climb judges).
    Asserts that no level's law misses more than 1e-13 of its mass."""
    tables = noise._climb_tables(model)
    laws, missing = arrival_law(tables.up, top)
    assert missing < 1e-13, missing
    depth = max(map(len, laws))
    dist = element_distances(tables, np.arange(depth)[:, None].repeat(top, axis=1))
    means, sds = [], []
    for level, law in enumerate(laws):
        d = dist[: len(law), level].tolist()
        mean = math.fsum(p * x for p, x in zip(law, d))
        means.append(mean)
        sds.append(math.sqrt(math.fsum(p * (x - mean) ** 2 for p, x in zip(law, d))))
    return means, sds


def decay_z_scores(model: NoiseModel, points: list[tuple[int, float]], n_instances: int) -> list[float]:
    """z-score of each level's decay_study mean against exact_decay: its
    difference over the standard error sd / sqrt(n), or over the rounding
    bound n 2^-53 of the mean's sequential sum where that is larger (the
    pure models b and c land on one distance per level whatever the downs,
    so their sd is 0 or nearly)."""
    means, sds = exact_decay(model, len(points))
    return [
        (got - want) / max(sd / math.sqrt(n_instances), n_instances * 2.0**-53 * want)
        for (_, got), want, sd in zip(points, means, sds, strict=True)
    ]
