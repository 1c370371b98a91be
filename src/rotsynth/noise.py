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
at a first arrival on (level, m) alone.  Past the model's saturation row M,
lam^m moves no distance by a bit.  A pure resource (models b and c, and the
mixture at weight 0 or 1) has |s01|^2 = s00 s11, so lam = 1 and M = 0, as
where lam is 0 or rounds to 1: every first arrival at a level lands on one
state.  One table per model, _ClimbTables, holds the up probabilities and
the per-level parts of the state; where M is 0, the exact distances to
MAX_LEVEL, which decay_study serves as a prefix, reading no draw; else the
passage laws.  The passage from the first arrival at one level to the first
arrival at the next has a fixed law of (restart or not, downs), whose series
ladder.passage_series fills, every level in one lockstep, to at most M
terms, and one read-only inverse-CDF table, of the deepest top asked for,
samples: decay_study draws each passage of every instance with one
counter-stream draw, in numpy, a chunk of instances at a time in one
workspace per thread; propagate_to_level walks on (level, m).  One distance
expression turns the downs into bytes: decay_study takes it once per cell of
a grid of levels by downs counts up to M, gathers each instance's cells, and
sums every level in instance order, carrying the sums from chunk to chunk.
The tests check the tables against exact oracles, the walk against a
step-by-step walker and the generic density-matrix simulation, and the
sampled climbs against the walk and the exact arrival law.
"""
from __future__ import annotations

import math
import numbers
import random
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ladder import MAX_LEVEL, TAN_THETA0, Family, checked_integer, checked_level, ladder_angle, passage_series
from .qcore import DensityMatrix, dm_from_bloch
from .seeding import COUNTER_LIMIT, counter_draws, counter_rows, derive_seed, inverse_cdf_picks, inverse_cdf_table
from .study import fit_columns

# a passage keeps the terms of its law until the mass beyond them is below this
_LAW_TAIL = 2.0**-60
# a mixture's saturation row is looked for below this row: one that
# saturates later lies within 0.04 of weight 0 or 1, where a passage keeps
# at most 64 terms (52 on the criterion-8 grid), so a cap there never binds
_SATURATION_SEARCH = 128
# decay_study's sampled path takes its instances in chunks of at most this
# many (instance, level) cells: 2 MB per 8-byte buffer, and one chunk for
# a criterion-8 cell of 1000 instances
_CHUNK_CELLS = 2**18

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


def _check_model(model) -> None:
    if not isinstance(model, NoiseModel):  # refused before a cache hashes it
        raise ValueError(f"model must be a NoiseModel, got {model!r}")


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


class _Passages(NamedTuple):
    """_ClimbTables.passages(top): passage l of 1..top - 1 in segment l - 1."""

    top: int
    keys: np.ndarray
    guide: np.ndarray
    restarts: np.ndarray
    downs: np.ndarray


class _ClimbTables:
    """The closed-form noisy climb of one model, levels 0..MAX_LEVEL.

    up[l] is the probability that a merge at level l goes up.  state(l, m)
    is the bottom state at level l after m downs since the last restart,
    and distances(downs, top) the trace distances of the first-arrival
    states to the ideal ladder states, every row from the saturation row
    M on equal to the limit row, distances([math.inf], top).  Where M is 0,
    means holds the (level, distance) of the one state at each level
    1..MAX_LEVEL (else it is empty); passages(top) the passage laws.  Only
    per-level values and the deepest passage table asked for are kept, so
    the size of the tables does not depend on the climbs.  The entries of
    sigma are scaled by the larger diagonal one, so no power overflows and
    no model divides by zero.  The ideal state at level l is
    (1, t, t^2) / (1 + t^2) with t = tan(pi/8)^(l + 1), and the diagonal
    difference is taken between the small entries, ss - r11, which keeps
    its relative precision where r00 and the ideal cos^2 both round to 1.
    The difference of two states is traceless Hermitian 2x2, so its trace
    distance is the root of its determinant magnitude, sqrt(d00^2 + |d01|^2).
    """

    def __init__(self, model: NoiseModel):
        sigma = make_noisy_resource(model).mat
        s00, s01, s11 = float(sigma[0, 0].real), complex(sigma[0, 1]), float(sigma[1, 1].real)
        big = max(s00, s11)
        x, y, z = s00 / big, s11 / big, s01 / big
        if model.kind != "a" or model.strength in (0.0, 1.0):
            # pure: |s01|^2 = s00 s11, which the computed ratio can miss by an ulp
            self.lam = 1.0
        else:
            # |s01|^2 <= s00 s11 in a state, so lam <= 1 up to rounding; a
            # down needs both diagonal entries nonzero, else m stays 0
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
        self._diag = diag
        self._rr = np.array([r.real for r in r01])
        self._ri = np.array([r.imag for r in r01])
        self._cs = np.array(cs)
        self._d00sq = np.square(d00)
        self.saturation = self._saturation_row()
        # distances works one element at a time, so the first entries of
        # this row are the bytes of the row for any lower top
        self.means = () if self.saturation else tuple(enumerate(self.distances([0], MAX_LEVEL)[0].tolist(), 1))
        self._passages: _Passages | None = None

    def state(self, level: int, downs: int) -> tuple[float, complex, float]:
        """(r00, r01, r11) at level after downs since the last restart."""
        scale = self.lam**downs
        r00, r11 = self._diag[level]
        return r00, complex(float(self._rr[level]) * scale, float(self._ri[level]) * scale), r11

    def distances(self, downs, top: int) -> np.ndarray:
        """Trace distances to the ideal ladder states of the first-arrival
        states: [r, l - 1] at level l after downs[r] downs since the last
        restart, for levels 1..top and each count in downs."""
        levels = slice(1, top + 1)
        # lam^m by Python's float pow, as in state(): numpy's pow may take a
        # SIMD path whose last bit depends on the CPU
        scale = np.array([self.lam**m for m in downs])[:, None]
        # sqrt(d00^2 + dr^2 + di^2), in place after each first product
        dr = scale * self._rr[levels]
        dr -= self._cs[levels]
        dr *= dr
        di = scale * self._ri[levels]
        di *= di
        dr += self._d00sq[levels]
        dr += di
        return np.sqrt(dr, out=dr)

    def passages(self, top: int) -> _Passages:
        """The read-only seeding.inverse_cdf_table of the passages
        1..top - 1 (ladder.passage_series: outcome (R, D) takes the downs
        at the first arrivals from m_l to m_{l+1} = D if R else m_l + D),
        passage l in segment l - 1: its kept terms of A, then those of B,
        the outcomes that do not restart guided.  Where the cap M cut the
        terms short, A and B each get one more term, M: A's holds the rest
        of A_l(1), the mass that does not restart (no more than the kept
        terms leave of 1, so no key passes the segment's end), and B's the
        rest of all by the segment's clamp to 1.  After either m' >= M, as
        after the outcomes they stand for, and each key is the uncapped one
        to the rounding of A_l(1).  restarts is -1 (every bit set) for a
        restart, else 0, and downs its D.  A law depends on the levels
        beneath it alone, so a lower top reads a prefix of the deepest
        top's table, which a deeper top builds anew (threads that race may
        each build one, and read the one they built)."""
        table = self._passages
        if table is None or table.top < top:
            top = max(top, 2)  # inverse_cdf_table takes one law at least
            a, b, h, kept = passage_series(self.up, top, self.saturation, _LAW_TAIL)

            def laws():
                stays = self.up[0]
                for level in range(1, top):
                    p, terms = self.up[level], kept[level]
                    stays = p / (1.0 - (1.0 - p) * stays)  # A_l(1) = p / (1 - q A_{l-1}(1))
                    a_terms, b_terms = a[level][:terms], b[level][:terms]
                    if h[level][terms - 1] >= _LAW_TAIL:  # capped: B's last mass is the clamp's
                        rest = min(stays - math.fsum(a_terms), 1.0 - math.fsum(a_terms + b_terms))
                        a_terms, b_terms = a_terms + [max(0.0, rest)], b_terms + [0.0]
                    restarts = np.repeat(np.array([0, -1], np.int64), len(a_terms))
                    downs = np.tile(np.arange(len(a_terms), dtype=np.int64), 2)
                    yield a_terms + b_terms, len(a_terms), restarts, downs

            keys, guide, restarts, downs = inverse_cdf_table(laws())
            # an intp guide picks straight into the intp buffers of _law_climbs
            guide = guide.astype(np.intp)
            guide.flags.writeable = False
            table = self._passages = _Passages(top, keys, guide, restarts, downs)
        return table

    def _saturation_row(self) -> int:
        """M: 0 if lam is 1 (every row is the first), else the least row from
        which every row equals the limit row, lam^inf = 0, if that is below
        _SATURATION_SEARCH, or else a row past the underflow of lam^m."""
        if self.lam == 1.0:
            return 0
        limit = self.distances([math.inf], MAX_LEVEL)[0]
        saturation = start = 0
        while self.lam**start:  # a block of rows at a time, to the underflow
            rows = self.distances(range(start, start + _SATURATION_SEARCH), MAX_LEVEL)
            saturation = max([saturation, *(np.flatnonzero((rows != limit).any(axis=1)) + start + 1).tolist()])
            if saturation >= _SATURATION_SEARCH:
                return math.ceil(1100 / -math.log2(self.lam))  # lam^m < 2^-1100 underflows
            start += _SATURATION_SEARCH
        return saturation


@lru_cache(maxsize=64)
def _climb_tables(model: NoiseModel) -> _ClimbTables:
    return _ClimbTables(model)


def _law_climbs(passages: _Passages, bits: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The (instances, top) matrix of downs at the first arrival at levels
    1..top, with column l - 1 of bits (counter_draws' 53-bit integers)
    driving passage l (top - 1 columns, at most passages.top - 1).  The
    guide picks the outcome of all but about 2% of the draws on the
    criterion-8 grid, a binary search the others, among them every draw
    that picks a restart.  bits is spent.  out (intp, instances by top)
    takes the result and scratch (like bits) the guide slots, then the
    downs of each passage, both C-contiguous."""
    n, width = bits.shape
    _, keys, guide, restarts, downs = passages
    # the picks take the front of the result's buffer, which the running
    # sums overwrite once the picks are spent
    front = out.reshape(-1)[: n * width].reshape(n, width)
    picks, split = inverse_cdf_picks(keys, guide, np.arange(width), bits, front, scratch)
    d = downs.take(picks, out=scratch.view(np.int64), mode="clip")
    # the rows that restart drop the downs before their last restart: the
    # sum before each restart, kept by its mask, and their running maximum,
    # as the sums grow (a row that restarts twice is worked, and written,
    # twice, alike)
    rows = split[restarts.take(picks.reshape(-1).take(split)) < 0] // width
    masks = restarts.take(picks[rows])
    out[:, 0] = 0  # level 1 is reached with no downs
    sums = np.cumsum(d, axis=1, out=out[:, 1:])
    tail = sums[rows]
    before = tail - d[rows]
    before &= masks
    tail -= np.maximum.accumulate(before, axis=1, out=before)
    sums[rows] = tail
    return out


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
    _check_model(model)
    target_level = checked_level(target_level, "target_level", 1)
    tables = _climb_tables(model)
    arrivals = _noisy_climb(tables.up, target_level, iter(rng.random, None))
    r00, r01, r11 = tables.state(target_level, arrivals[-1])
    rho = DensityMatrix(np.array([[r00, r01], [r01.conjugate(), r11]], dtype=complex))
    return rho, float(tables.distances(arrivals[-1:], target_level)[0, -1])


class _Workspace(threading.local):
    """One thread's buffers for decay_study's sampled path.  They are flat,
    so a chunk of any shape takes views of their fronts, and grow to the
    largest chunk asked for, which later calls in the thread reuse."""

    cells = 0

    def chunk(self, rows: int, top: int) -> tuple[np.ndarray, ...]:
        """Views for rows instances by levels 1..top: the draws and the
        scratch of counter_draws and _law_climbs (uint64, top - 1 columns),
        the downs at the first arrivals (intp) and the gathered distances
        (float64, after a row for the sums carried in)."""
        if self.cells < rows * top:
            self.cells = max(rows * top, _CHUNK_CELLS)
            self.buffers = [np.empty(self.cells, dtype) for dtype in (np.uint64, np.uint64, np.intp)]
            self.buffers.append(np.empty(self.cells + MAX_LEVEL))
        bits, scratch, downs, values = self.buffers
        draws = rows * (top - 1)
        return (
            bits[:draws].reshape(rows, top - 1),
            scratch[:draws].reshape(rows, top - 1),
            downs[: rows * top].reshape(rows, top),
            values[: (rows + 1) * top].reshape(rows + 1, top),
        )


_workspace = _Workspace()


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
    stopping there, so the per-level means match per-level runs.  Where the
    model's saturation row is 0 (a pure resource, or a mixture whose lam is
    0 or rounds to 1), every climb lands on one state per level, so the
    means are their exact distances, read from no draw and the same for
    every seed and n_instances: a new list of the first max_level of the
    tables' means.  Otherwise instance i reads row i of the counter stream
    keyed by (seed, kind, strength), its draw l - 1 sampling its passage
    l -> l + 1 from the passage table, asked for once per call (level 1 is
    reached with no downs), so its downs depend on neither n_instances nor
    higher levels.  The instances run in chunks of at most _CHUNK_CELLS
    (instance, level) cells through the calling thread's workspace, so the
    memory a call takes does not grow with n_instances, nor do the bytes
    depend on the chunks.
    """
    _check_model(model)
    max_level = checked_level(max_level, "max_level", 1)
    if (n_instances := checked_integer(n_instances, "n_instances")) < 1:
        raise ValueError("need at least one instance")
    if n_instances > COUNTER_LIMIT:  # refused before any array is sized by it
        raise ValueError(f"n_instances must be at most {COUNTER_LIMIT}, got {n_instances}")
    checked_integer(seed, "seed")
    tables = _climb_tables(model)
    if not tables.saturation:
        return list(tables.means[:max_level])
    passages = tables.passages(max_level)
    key = derive_seed(seed, "noise", model.kind, repr(model.strength))
    chunk = max(1, _CHUNK_CELLS // max_level)
    sums = np.zeros(max_level)
    for start in range(0, n_instances, chunk):
        stop = min(start + chunk, n_instances)
        bits, scratch, downs, values = _workspace.chunk(stop - start, max_level)
        counter_draws(counter_rows(key, np.arange(start, stop)), 0, max_level - 1, bits, scratch)
        # a distance depends on (level, downs) alone: each cell of one grid
        # of levels by downs is taken once, then gathered per instance, and
        # downs past the saturation row land on it, as every later row
        # equals it
        cells = np.minimum(_law_climbs(passages, bits, downs, scratch), tables.saturation, out=downs)
        grid = tables.distances(range(int(cells.max()) + 1), max_level)
        cells *= max_level
        cells += np.arange(max_level)
        values[0] = sums
        grid.take(cells, out=values[1:], mode="clip")
        # np.add.reduce adds down axis 0 row by row, so each level's sum runs
        # on from the sums carried in, in instance order; one column would
        # collapse to a 1-D reduction, which numpy sums pairwise
        sums = np.add.reduce(values, axis=0) if max_level > 1 else np.cumsum(values)[-1:]
    return [(lvl, s / n_instances) for lvl, s in enumerate(sums.tolist(), 1)]


@dataclass(frozen=True)
class DecayFit:
    """distance ~ prefactor * base^(-level), fitted by least squares on the
    log scale; slope_se is the standard error of the fitted slope of ln
    distance against level, -ln base (study.ScalingFit.slope_se)."""

    prefactor: float
    base: float
    fit_range: tuple[int, int]
    residual_rms: float
    slope_se: float


def fit_exponential_decay(points: list[tuple[int, float]]) -> DecayFit:
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    for _, d in points:
        if d <= 0:
            raise ValueError("distances must be positive")
    levels = [lvl for lvl, _ in points]
    (fit,) = fit_columns(levels, [math.log(d) for _, d in points])
    return DecayFit(
        prefactor=math.exp(fit.intercept),
        base=math.exp(-fit.slope),
        fit_range=(min(levels), max(levels)),
        residual_rms=fit.rms_residual,
        slope_se=fit.slope_se,
    )
