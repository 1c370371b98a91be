"""Noisy-resource propagation through the ladder.

Three resource error models: an axis-aligned mixture (kind "a", strength p),
a pure state tilted inside the XZ plane (kind "b", strength delta), and a
pure state tilted toward Y (kind "c", strength delta).  Clifford gates and
measurements stay perfect; a climb is re-run with every consumed resource
replaced by its noisy density matrix, outcomes sampled from the noisy
probabilities, and the result compared to the ideal ladder state by trace
distance.

The two-qubit merge evolution collapses to a closed form on 2x2 blocks
(top sigma, bottom rho; outcome probabilities p0 = s00 r00 + s11 r11 and
p1 = s11 r00 + s00 r11); one first-arrival climb loop steps by it, a numpy
lockstep runs the same climb for many instances at once with the same bytes
out, both reading the same counter-stream rows, and the tests check both
against a step-by-step walker and the generic density-matrix simulation.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .ladder import MAX_LEVEL, Family, ladder_angle
from .qcore import DensityMatrix, dm_from_bloch
from .seeding import counter_uniforms, derive_seed
from .study import _integer, fit_loglog

# From this many instances on, decay_study climbs them all in numpy
# lockstep; below it, one Python loop per instance is faster.  Measured over
# the criterion-8 grid (CPU time per instance, alternating runs, 2-core
# x86-64, Python 3.11, numpy 2.4; two runs where a range is given), lockstep
# / loop: 6.21 at 10 instances, 1.74 at 50, 1.00-1.09 at 100, 0.96-0.98 at
# 105, 0.94-0.95 at 110, 0.76 at 150, 0.62 at 200, 0.48 at 300, 0.22 at 1000.
_LOCKSTEP_MIN_INSTANCES = 110

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
        if not 0 <= self.strength < math.inf:
            raise ValueError("strength must be finite and >= 0")
        if self.kind == "a" and self.strength > 1:
            raise ValueError("mixture weight cannot exceed 1")


@lru_cache(maxsize=64)
def make_noisy_resource(model: NoiseModel) -> DensityMatrix:
    """Density matrix of one noisy raw resource (cached per model; the
    matrix is read-only)."""
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


@lru_cache(maxsize=16)
def _ideal_entries(top: int) -> tuple[tuple[float, float], ...]:
    """(c*c, c*s) of the ideal H-ladder state cos(a)|0> + sin(a)|1> at every
    level 0..top: its density matrix is (c*c, c*s; c*s, s*s)."""
    entries = []
    for level in range(top + 1):
        a = ladder_angle(Family.H, level)
        c, s = math.cos(a), math.sin(a)
        entries.append((c * c, c * s))
    return tuple(entries)


def _noisy_climb(
    sigma: tuple[float, complex, float],
    top: int,
    rnd,
    sums: list[float],
) -> tuple[float, complex, float]:
    """One noisy climb from a fresh resource to its first arrival at top.

    sigma = (s00, s01, s11) are the entries of the noisy resource; every
    merge puts a fresh copy on top of the bottom state (r00, r01, r11),
    draws the outcome from the noisy probabilities with one rnd() and
    renormalizes the post-selected state.  At the first arrival at each
    level, the trace distance to the ideal ladder state is added to
    sums[level]: the difference is traceless Hermitian 2x2, so the distance
    is the root of the determinant magnitude - exact and cancellation-safe
    at 1e-15 scales.  Returns the bottom state at top.
    """
    s00, s01, s11 = sigma
    s01c = s01.conjugate()
    ideal = _ideal_entries(top)
    r00, r01, r11 = sigma
    level = seen = 0
    while seen < top:
        p0 = s00 * r00 + s11 * r11
        p1 = s11 * r00 + s00 * r11
        if rnd() * (p0 + p1) < p0:
            r00 = s00 * r00 / p0
            r01 = s01 * r01 / p0
            r11 = s11 * r11 / p0
            level += 1
            if level > seen:
                seen = level
                cc, cs = ideal[level]
                d00 = r00 - cc
                d01 = r01 - cs
                sums[level] += math.sqrt(d00 * d00 + d01.real * d01.real + d01.imag * d01.imag)
        elif level:
            r00 = s11 * r00 / p1
            r01 = s01c * r01 / p1
            r11 = s00 * r11 / p1
            level -= 1
        else:
            r00, r01, r11 = sigma
    return r00, r01, r11


def _resource_entries(resource: DensityMatrix) -> tuple[float, complex, float]:
    sigma = resource.mat
    return float(sigma[0, 0].real), complex(sigma[0, 1]), float(sigma[1, 1].real)


def propagate_to_level(
    model: NoiseModel, target_level: int, rng: random.Random
) -> tuple[DensityMatrix, float]:
    """One noisy climb instance to target_level in [1, MAX_LEVEL].

    Returns the arrived bottom state and its trace distance to the ideal
    ladder state of that level.
    """
    target_level = _integer(target_level, "target_level")
    if not 1 <= target_level <= MAX_LEVEL:
        raise ValueError(f"target level must be in [1, {MAX_LEVEL}]")
    sums = [0.0] * (target_level + 1)
    r00, r01, r11 = _noisy_climb(
        _resource_entries(make_noisy_resource(model)), target_level, rng.random, sums
    )
    rho = DensityMatrix(np.array([[r00, r01], [r01.conjugate(), r11]], dtype=complex))
    return rho, sums[target_level]


def _lockstep_climbs(
    sigma: tuple[float, complex, float], top: int, key: int, block: np.ndarray
) -> np.ndarray:
    """_noisy_climb for every instance at once, one merge per tick.

    Instance i reads row i of the counter stream under key, starting with
    row i of block (its first draws).  Returns the (instances, top + 1)
    matrix of first-arrival distances (column 0 unused).  Every float
    operation is the loop's, in the loop's order: the complex product
    s01 * r01 spelled out as CPython computes it, the conjugate for the down
    branch, the same draw test and distance formula.
    """
    s00, s01, s11 = sigma
    sr, si = s01.real, s01.imag
    ideal = np.array(_ideal_entries(top))
    cc, cs = ideal[:, 0], ideal[:, 1]
    n = len(block)
    dist = np.zeros((n, top + 1))
    inst = np.arange(n)  # instance of each active row
    r00, rr, ri, r11 = (np.full(n, x) for x in (s00, sr, si, s11))
    level = np.zeros(n, dtype=np.intp)
    seen = np.zeros(n, dtype=np.intp)
    rows = inst  # row of each active instance in block
    first = 0  # draw index of block's column 0
    tick = 0
    while inst.size:
        if tick == first + block.shape[1]:
            block = counter_uniforms(key, inst, tick, tick)
            rows, first = np.arange(inst.size), tick
        u = block[rows, tick - first]
        a, b = s00 * r00, s11 * r11
        c, d = s11 * r00, s00 * r11
        p0, p1 = a + b, c + d
        up = u * (p0 + p1) < p0
        den = np.where(up, p0, p1)
        r00 = np.where(up, a, c) / den
        r11 = np.where(up, b, d) / den
        sie = np.where(up, si, -si)
        rr, ri = (sr * rr - sie * ri) / den, (sr * ri + sie * rr) / den
        level += np.where(up, 1, -1)
        restart = level < 0
        if restart.any():
            level[restart] = 0
            r00[restart], rr[restart], ri[restart], r11[restart] = s00, sr, si, s11
        hit = np.flatnonzero(level > seen)
        if hit.size:
            lv = level[hit]
            seen[hit] = lv
            d00 = r00[hit] - cc[lv]
            dr = rr[hit] - cs[lv]
            di = ri[hit]
            dist[inst[hit], lv] = np.sqrt(d00 * d00 + dr * dr + di * di)
            if (lv == top).any():
                keep = seen < top
                inst, rows = inst[keep], rows[keep]
                r00, rr, ri, r11 = r00[keep], rr[keep], ri[keep], r11[keep]
                level, seen = level[keep], seen[keep]
        tick += 1
    return dist


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
    _LOCKSTEP_MIN_INSTANCES on, all instances climb together in numpy, with
    the same bytes out.
    """
    max_level, n_instances = _integer(max_level, "max_level"), _integer(n_instances, "n_instances")
    if not 1 <= max_level <= MAX_LEVEL:
        raise ValueError(f"target level must be in [1, {MAX_LEVEL}]")
    if n_instances < 1:
        raise ValueError("need at least one instance")
    sigma = _resource_entries(make_noisy_resource(model))
    key = derive_seed(seed, "noise", model.kind, repr(model.strength))
    # a climb needs at least max_level draws; about 0.5% of criterion-8
    # instances need more than this, and continue their rows past the block
    width = 2 * max_level + 8
    block = counter_uniforms(key, np.arange(n_instances), 0, width)
    if n_instances >= _LOCKSTEP_MIN_INSTANCES:
        # per level, in instance order: a sequential sum like the loop's
        # (np.sum would sum pairwise)
        sums = np.cumsum(_lockstep_climbs(sigma, max_level, key, block), axis=0)[-1].tolist()
    else:
        sums = [0.0] * (max_level + 1)
        for instance, row in enumerate(block.tolist()):
            draws = chain(row, _row_draws(key, instance, width))
            _noisy_climb(sigma, max_level, draws.__next__, sums)
    return [(lvl, sums[lvl] / n_instances) for lvl in range(1, max_level + 1)]


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
