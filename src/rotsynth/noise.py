"""Noisy-resource propagation through the ladder.

Three resource error models: an axis-aligned mixture (kind "a", strength p),
a pure state tilted inside the XZ plane (kind "b", strength delta), and a
pure state tilted toward Y (kind "c", strength delta).  Clifford gates and
measurements stay perfect; a climb is re-run with every consumed resource
replaced by its noisy density matrix, outcomes sampled from the noisy
probabilities, and the result compared to the ideal ladder state by trace
distance.

The two-qubit merge evolution collapses to a closed form on 2x2 blocks: with
the noisy resource sigma on top, an up-merge scales the bottom's entries
(r00, r01, r11) by (s00, s01, s11), a down-merge by (s11, conj s01, s00),
each with probability the trace of the scaled state.  The products commute,
so after k ups and m downs since the last restart, at level l = k - m and
with n = l + 1, the bottom state is

    r00 = s00^n / N,  r11 = s11^n / N,  r01 = s01^n lam^m / N,
    N = s00^n + s11^n,  lam = |s01|^2 / (s00 s11).

The up probability therefore depends on the level alone, and the distance
at a first arrival on (level, m) alone.  The up probability and the
per-level parts of the state are tabulated once per model, and a climb is
an integer walk on (level, m): a numpy lockstep walks the first block of
many instances' counter-stream rows, and a loop per instance the rest, both
on the same tables; one distance expression turns the downs into the same
bytes whichever walked them.  The tests check the tables against an exact
oracle and the walk against a step-by-step walker and the generic
density-matrix simulation.
"""
from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .ladder import MAX_LEVEL, TAN_THETA0, Family, checked_integer, checked_level, ladder_angle
from .qcore import DensityMatrix, dm_from_bloch
from .seeding import counter_uniforms, derive_seed
from .study import fit_loglog

# From this many instances on, decay_study climbs them all in numpy
# lockstep; below it, one Python loop per instance is faster.  Measured over
# the criterion-8 grid (CPU time per instance, alternating runs, 2-core
# x86-64, Python 3.11, numpy 2.4; ranges over two or three runs), lockstep
# / loop: 6.24 at 10 instances, 2.30 at 50, 1.47-1.51 at 100, 1.15-1.16 at
# 150, 1.04 at 175, 0.95-0.98 at 200, 0.81-0.89 at 250, 0.71-0.80 at 300,
# 0.39-0.43 at 1000.
_LOCKSTEP_MIN_INSTANCES = 200

_C0 = math.cos(math.pi / 8)
_S0 = math.sin(math.pi / 8)


@dataclass(frozen=True)
class NoiseModel:
    """kind "a": mixture strength p in [0, 1]; kinds "b"/"c": tilt angle in
    radians."""

    kind: str
    strength: float

    def __post_init__(self) -> None:
        if self.kind not in ("a", "b", "c"):
            raise ValueError("kind must be 'a', 'b' or 'c'")
        if not isinstance(self.strength, numbers.Real):
            raise ValueError(f"strength must be a real number, got {self.strength!r}")
        # repr(strength) keys the stream: np.float64(x) must read the stream of x
        object.__setattr__(self, "strength", float(self.strength))
        if not 0 <= self.strength < math.inf:
            raise ValueError("strength must be finite and >= 0")
        if self.kind == "a" and self.strength > 1:
            raise ValueError("mixture weight cannot exceed 1")


def make_noisy_resource(model: NoiseModel) -> DensityMatrix:
    """Density matrix of one noisy raw resource (the matrix is read-only)."""
    if model.kind == "a":
        p = model.strength
        # (1-p) |H><H| + p |-H><-H| with |-H> = sin(pi/8)|0> - cos(pi/8)|1>
        return DensityMatrix(
            np.array(
                [
                    [(1 - p) * _C0 * _C0 + p * _S0 * _S0, (1 - 2 * p) * _C0 * _S0],
                    [(1 - 2 * p) * _C0 * _S0, (1 - p) * _S0 * _S0 + p * _C0 * _C0],
                ],
                dtype=complex,
            )
        )
    if model.kind == "b":
        tilt = math.pi / 4 + model.strength
        return dm_from_bloch(math.sin(tilt), 0.0, math.cos(tilt))
    s = math.sin(math.pi / 4)
    return dm_from_bloch(
        s * math.cos(model.strength),
        s * math.sin(model.strength),
        math.cos(math.pi / 4),
    )


def ideal_resource(level: int) -> DensityMatrix:
    a = ladder_angle(Family.H, level)
    return dm_from_bloch(math.sin(2 * a), 0.0, math.cos(2 * a))


class _ClimbTables:
    """The closed-form noisy climb of one model, levels 0..MAX_LEVEL.

    up[l] is the probability that a merge at level l goes up.  state(l, m)
    is the bottom state at level l after m downs since the last restart,
    and distances(downs) the trace distances of the first-arrival states to
    the ideal ladder states.  Only per-level values are kept, so the size of
    the tables does not depend on the climbs.  The entries of sigma are scaled by the
    larger diagonal one, so no power overflows and no model divides by zero.
    The ideal state at level l is (1, t, t^2) / (1 + t^2) with
    t = tan(pi/8)^(l + 1), and the diagonal difference is taken between the
    small entries, ss - r11, which keeps its relative precision where r00
    and the ideal cos^2 both round to 1.  The difference of two states is
    traceless Hermitian 2x2, so its trace distance is the root of its
    determinant magnitude, sqrt(d00^2 + |d01|^2).
    """

    def __init__(self, model: NoiseModel):
        sigma = make_noisy_resource(model).mat
        s00, s01, s11 = float(sigma[0, 0].real), complex(sigma[0, 1]), float(sigma[1, 1].real)
        big = max(s00, s11)
        x, y, z = s00 / big, s11 / big, s01 / big
        # |s01|^2 <= s00 s11 in a state, so lam <= 1 up to rounding; a down
        # needs both diagonal entries nonzero, else m stays 0
        self.lam = min(1.0, (z.real * z.real + z.imag * z.imag) / (x * y)) if x * y > 0 else 0.0
        up, diag, r01, cs, d00 = [], [], [], [], []
        for n in range(1, MAX_LEVEL + 2):
            xn, yn = x**n, y**n
            norm = xn + yn
            p0, p1 = s00 * xn + s11 * yn, s11 * xn + s00 * yn
            up.append(p0 / (p0 + p1))
            diag.append((xn / norm, yn / norm))
            r01.append(z**n / norm)
            t = TAN_THETA0**n
            cs.append(t / (1 + t * t))
            d00.append(t * t / (1 + t * t) - yn / norm)
        self.up = up
        self.up_array = np.array(up)
        self._diag = diag
        self._rr = np.array([r.real for r in r01])
        self._ri = np.array([r.imag for r in r01])
        self._cs = np.array(cs)
        self._d00sq = np.square(d00)

    def state(self, level: int, downs: int) -> tuple[float, complex, float]:
        """(r00, r01, r11) at level after downs since the last restart."""
        scale = self.lam**downs
        r00, r11 = self._diag[level]
        return r00, complex(float(self._rr[level]) * scale, float(self._ri[level]) * scale), r11

    def distances(self, downs: np.ndarray) -> np.ndarray:
        """Trace distances to the ideal ladder states of the first-arrival
        states, where downs[..., j] counts the downs since the last restart
        at the first arrival at level j + 1."""
        levels = slice(1, downs.shape[-1] + 1)
        # lam^m by Python's float pow, as in state(): numpy's pow may take a
        # SIMD path whose last bit depends on the CPU
        scale = np.array([self.lam**m for m in range(int(downs.max()) + 1)]).take(downs)
        # sqrt(d00^2 + dr^2 + di^2) in place: a fresh array per step costs
        # about as much as the arithmetic at a study's size
        dr = scale * self._rr[levels]
        dr -= self._cs[levels]
        dr *= dr
        di = scale  # scale is spent: di takes over its array
        di *= self._ri[levels]
        di *= di
        dr += self._d00sq[levels]
        dr += di
        return np.sqrt(dr, out=dr)


@lru_cache(maxsize=64)
def _climb_tables(model: NoiseModel) -> _ClimbTables:
    return _ClimbTables(model)


def _noisy_climb(up: list[float], top: int, draws) -> list[int]:
    """One noisy climb from a fresh resource to its first arrival at top.

    A walk on (level, downs) fed by the endless iterator draws: a draw below
    up[level] merges up, any other merges down, or at level 0 restarts from
    a fresh resource with no downs.  Returns the downs since the last
    restart at the first arrival at each level 1..top.
    """
    arrivals = []
    level = downs = seen = 0
    for u in draws:
        if u < up[level]:
            level += 1
            if level > seen:
                seen = level
                arrivals.append(downs)
                if seen == top:
                    return arrivals
        elif level:
            level -= 1
            downs += 1
        else:
            downs = 0


def propagate_to_level(
    model: NoiseModel, target_level: int, rng: random.Random
) -> tuple[DensityMatrix, float]:
    """One noisy climb instance to target_level in [1, MAX_LEVEL].

    Returns the arrived bottom state and its trace distance to the ideal
    ladder state of that level.
    """
    target_level = checked_level(target_level, "target_level", 1)
    tables = _climb_tables(model)
    arrivals = _noisy_climb(tables.up, target_level, iter(rng.random, None))
    r00, r01, r11 = tables.state(target_level, arrivals[-1])
    rho = DensityMatrix(np.array([[r00, r01], [r01.conjugate(), r11]], dtype=complex))
    return rho, float(tables.distances(np.array(arrivals))[-1])


def _lockstep_climbs(up: np.ndarray, top: int, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_noisy_climb for every instance at once on its row of block, one draw per tick.

    Returns the (instances, top) matrix of downs at the first arrival at
    levels 1..top, and the instances still below top at the block's end,
    whose rows are left unfilled.  Downs are not counted per tick: an
    instance that arrives at level l at tick T, its last restart at tick R
    (R = -1 before any), has spent the T - R draws since on ups and downs,
    so on (T - R - l) / 2 downs.
    """
    n = len(block)
    arrivals = np.empty((n, top), dtype=np.intp)
    inst = np.arange(n)  # instance of each active row
    level = np.zeros(n, dtype=np.intp)
    seen = np.zeros(n, dtype=np.intp)
    restart = np.full(n, -1, dtype=np.intp)
    for tick, column in enumerate(block.T.copy()):  # one contiguous row per draw index
        level += np.where(column[inst] < up[level], 1, -1)
        fell = level < 0
        if fell.any():
            level[fell] = 0
            restart[fell] = tick
        hit = (level > seen).nonzero()[0]
        if hit.size:
            lv = level[hit]
            seen[hit] = lv
            arrivals[inst[hit], lv - 1] = tick - restart[hit]
            # no instance reaches top before its top-th draw
            if tick + 1 >= top and (lv == top).any():
                keep = seen < top
                inst, level, seen, restart = inst[keep], level[keep], seen[keep], restart[keep]
                if not inst.size:
                    break
    return (arrivals - np.arange(1, top + 1)) >> 1, inst


def _row_draws(key: int, instance: int, start: int):
    """Draws start, start + 1, ... of one instance's counter stream, a
    block at a time (each block as long as all before it)."""
    while True:
        yield from counter_uniforms(key, [instance], start, start)[0].tolist()
        start *= 2


def decay_study(
    model: NoiseModel,
    max_level: int,
    n_instances: int,
    seed: int,
) -> list[tuple[int, float]]:
    """Mean trace distance to the ideal state per level, over independent
    noisy-climb instances.

    Each instance climbs once to max_level, recording the state at its first
    arrival at every level; first-arrival snapshots have the same law as
    stopping there, so the per-level means match per-level runs.  Instance i
    reads row i of the counter stream keyed by (seed, kind, strength).  From
    _LOCKSTEP_MIN_INSTANCES on, all instances walk the first block together
    in numpy and the loop walks on only those still climbing at its end;
    below it, the loop walks every instance.  Same downs, same bytes.
    """
    max_level = checked_level(max_level, "max_level", 1)
    if (n_instances := checked_integer(n_instances, "n_instances")) < 1:
        raise ValueError("need at least one instance")
    tables = _climb_tables(model)
    key = derive_seed(seed, "noise", model.kind, repr(model.strength))
    # a climb needs at least max_level draws; 0.15-0.36% of the instances of
    # a criterion-8 cell need more than this, and the loop walks them on
    width = 2 * max_level + 8
    block = counter_uniforms(key, np.arange(n_instances), 0, width)
    if n_instances >= _LOCKSTEP_MIN_INSTANCES:
        downs, rest = _lockstep_climbs(tables.up_array, max_level, block)
    else:
        downs, rest = np.empty((n_instances, max_level), np.intp), range(n_instances)
    for i in rest:
        draws = chain(block[i].tolist(), _row_draws(key, i, width))
        downs[i] = _noisy_climb(tables.up, max_level, draws)
    # per level, in instance order: a sequential sum whatever numpy's reduction order
    sums = np.cumsum(tables.distances(downs), axis=0)[-1].tolist()
    return [(lvl, s / n_instances) for lvl, s in enumerate(sums, 1)]


@dataclass(frozen=True)
class DecayFit:
    """distance ~ prefactor * base^(-level), fitted by least squares on the
    log scale."""

    prefactor: float
    base: float
    fit_range: tuple[int, int]
    residual_rms: float


def fit_exponential_decay(points: list[tuple[int, float]]) -> DecayFit:
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    for _, d in points:
        if d <= 0:
            raise ValueError("distances must be positive")
    fit = fit_loglog([(float(lvl), math.log(d)) for lvl, d in points])
    levels = [lvl for lvl, _ in points]
    return DecayFit(
        prefactor=math.exp(fit.intercept),
        base=math.exp(-fit.slope),
        fit_range=(min(levels), max(levels)),
        residual_rms=fit.rms_residual,
    )
