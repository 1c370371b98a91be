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
at a first arrival on (level, m) alone.  A pure resource (models b and c,
and the mixture at weight 0 or 1) has |s01|^2 = s00 s11, so lam = 1 and
every first arrival at a level lands on one state: decay_study returns
those exact distances and reads no draws.  For the other mixtures, the up
probability and the per-level parts of the state are tabulated once per
model, and a climb is an integer walk on (level, m).  Its passage from the
first arrival at one level to the first arrival at the next then has a
fixed law of (restart or not, downs), tabulated per model as it is asked
for: decay_study samples each passage of every instance with one
counter-stream draw, all at once in numpy, and walks merge by merge only
the near-symmetric resources, whose passages have heavy tails;
propagate_to_level always walks.  One distance expression turns the downs
into bytes.  The tests check the tables against exact oracles, the walk
against a step-by-step walker and the generic density-matrix simulation,
and the sampled climbs against the walk and the exact arrival law.
"""
from __future__ import annotations

import math
import numbers
import random
import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul

import numpy as np

from .ladder import MAX_LEVEL, TAN_THETA0, Family, checked_integer, checked_level, ladder_angle
from .qcore import DensityMatrix, dm_from_bloch
from .seeding import counter_uniforms, derive_seed
from .study import fit_loglog

# decay_study samples a model's climbs from their passage law when every up
# probability is at least this, and walks them merge by merge below it.  As
# the up probability nears 1/2, a passage's downs get a heavy tail and the
# table grows without bound.  Terms a level keeps to a tail below 2^-60
# (at level 28), and CPU seconds to tabulate to level 28 / 150 (2-core
# x86-64, Python 3.11), by the least up probability of the model; the walk
# takes about 30-50 ms per 1000 instances to level 28 on these models:
#   0.75 (the criterion-8 grid)  52 terms,  0.03 / 0.16 s
#   0.59 (mixture p = 0.2)      174 terms,  0.14 / 0.98 s
#   0.56 (mixture p = 0.25)     254 terms,  0.25 / 2.0 s
#   0.54 (mixture p = 0.3)      393 terms,  0.77 / 4.8 s
#   0.52 (mixture p = 0.35)     657 terms,  2.0 / 11 s
_LAW_MIN_UP = 0.58
# a passage keeps the terms of its law until the mass beyond them is below this
_LAW_TAIL = 2.0**-60
# the passage tables' guide has a slot per 2^-_GUIDE_BITS of a passage's draws
_GUIDE_BITS = 8

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


def _is_pure(model: NoiseModel) -> bool:
    """Models b and c tilt a pure state; a mixture is pure at weight 0 or 1."""
    return model.kind != "a" or model.strength in (0.0, 1.0)


def ideal_resource(level: int) -> DensityMatrix:
    a = ladder_angle(Family.H, level)
    return dm_from_bloch(math.sin(2 * a), 0.0, math.cos(2 * a))


class _ClimbTables:
    """The closed-form noisy climb of one model, levels 0..MAX_LEVEL.

    up[l] is the probability that a merge at level l goes up.  state(l, m)
    is the bottom state at level l after m downs since the last restart,
    and distances(downs) the trace distances of the first-arrival states to
    the ideal ladder states.  lam is 1 by construction for a pure resource.
    Only per-level values are kept, so the size of the tables does not
    depend on the climbs.  The entries of sigma are scaled by the larger
    diagonal one, so no power overflows and no model divides by zero.
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
        if _is_pure(model):
            # |s01|^2 = s00 s11, which the computed ratio can miss by an ulp
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


class _PassageLaw:
    """The law of a noisy climb's passages, tabulated level by level as it
    is asked for.

    Passage l runs from the first arrival at level l to the first arrival at
    l + 1.  Its outcome is R, whether a level-0 restart happened in it, and
    D, the downs since the last restart if one did, else since it began; so
    the downs at the first arrivals follow m_1 = 0 and
    m_{l+1} = D if R else m_l + D.  The up probability depends on the level
    alone, so the passages are independent, each with a law of its own.
    With p = up[l] and q = 1 - p, the passage fails k times, each a down
    and a passage l - 1, before it goes up, and a failure that restarts
    forgets the downs before it; in powers of z^D,

        A_l(z) = p / (1 - q z A_{l-1}(z))        (no restart)
        B_l(z) = (q / p) B_{l-1}(z) A_l(z)       (a restart)
        H_l(z) = (q / p) (H_{l-1}(z) + A_{l-1}(z)) A_l(z),

    from A_0 = p_0, B_0 = q_0 and H_0 = 0, where H_l holds the tail
    P(D > k) of the passage.  Every coefficient is a sum of positive terms,
    taken in Python floats with math.fsum, so the table's bytes do not
    depend on numpy's SIMD paths, and the tail is known without the
    cancellation of 1 - sum.  A level keeps its first K terms of A and B,
    the least K whose tail P(D >= K) is below _LAW_TAIL, and samples them
    by inverse CDF: its outcomes in the order A's then B's, each with the
    fsum of the masses up to it, the last clamped to 1.
    """

    def __init__(self, up: list[float]):
        self._up = up
        self._a, self._b, self._h = [array("d", [up[0]])], [array("d", [1.0 - up[0]])], [array("d", [0.0])]
        self._kept = [1]  # the terms each level samples
        # the passages tabulated, then the draw keys, guide, restarts and
        # downs of their outcomes (passage 0 has none: its guide slots are
        # never read)
        self._table = (
            1,
            np.empty(0, np.int64),
            np.full(2**_GUIDE_BITS, -1, np.int32),
            np.empty(0, bool),
            np.empty(0, np.intp),
        )
        self._lock = threading.Lock()

    def _extend(self, level: int, terms: int) -> None:
        """The first `terms` coefficients of every series at level and below
        (a level never holds more terms than the one beneath it)."""
        low = level
        while low and len(self._a[low - 1]) < terms:
            low -= 1
        for lv in range(low, level + 1):
            a, b, h = self._a[lv], self._b[lv], self._h[lv]
            if not lv:  # the passage 0 -> 1 ends with no downs
                for series in (a, b, h):
                    series.extend([0.0] * (terms - len(series)))
                continue
            pa, pb = self._a[lv - 1], self._b[lv - 1]
            ph = [x + y for x, y in zip(self._h[lv - 1][:terms], pa)]
            p = self._up[lv]
            q = 1.0 - p
            ratio = q / p
            for k in range(len(a), terms):
                a.append(q * math.fsum(map(mul, pa[:k], reversed(a))) if k else p)
                b.append(ratio * math.fsum(map(mul, pb[: k + 1], reversed(a))))
                h.append(ratio * math.fsum(map(mul, ph[: k + 1], reversed(a))))

    def outcomes(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        """(restarts, downs) of every outcome of passages 1 .. top - 1 (and
        maybe of more), in the order of pick's indices."""
        return self._tables(top)[2:]

    def pick(self, block: np.ndarray) -> np.ndarray:
        """The index of the outcome each draw of block picks, column l - 1
        for passage l.  A draw u of passage l, keyed l * 2^53 + u * 2^53 on
        its exact 53-bit integer, picks the first outcome whose key exceeds
        its own: the outcome j with cdf[j - 1] <= u < cdf[j].  The guide
        holds that outcome for each slot of 2^-_GUIDE_BITS of a passage's
        draws that holds no key (all but about 2% of the draws on the
        criterion-8 grid), and a binary search finds it for the others."""
        keys, guide = self._tables(block.shape[1] + 1)[:2]
        draws = (block * 2.0**53).astype(np.int64)
        draws += np.arange(1, block.shape[1] + 1, dtype=np.int64) << 53
        picks = guide[draws >> (53 - _GUIDE_BITS)]
        split = np.flatnonzero(picks < 0)
        picks.flat[split] = np.searchsorted(keys, draws.flat[split], side="right")
        return picks

    def _tables(self, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        table = self._table
        if table[0] < top:
            with self._lock:
                self._tabulate(top)
            table = self._table
        return table[1:]

    def _tabulate(self, top: int) -> None:
        parts = [self._table[1:]]
        outcomes = len(parts[0][3])
        while len(self._a) < top:
            level = len(self._a)
            for series in (self._a, self._b, self._h):
                series.append(array("d"))
            # as many terms as the level beneath keeps to start with, then
            # one more at a time until the tail falls below _LAW_TAIL
            span = self._kept[-1]
            while True:
                self._extend(level, span)
                terms = next((k + 1 for k, tail in enumerate(self._h[level]) if tail < _LAW_TAIL), 0)
                if terms:
                    break
                span += 1
            self._kept.append(terms)
            masses = self._a[level][:terms] + self._b[level][:terms]
            # the fsum of the masses up to each outcome: an exact running sum
            # in units of 2^-1074, rounded once (int / int rounds correctly)
            total, cdf = 0, []
            for mass in masses[:-1]:
                num, den = mass.as_integer_ratio()
                total += num * (2**1074 // den)
                cdf.append(total / 2**1074)
            cdf.append(1.0)
            keys = np.array([(level << 53) + math.ceil(c * 2.0**53) for c in cdf], np.int64)
            slot = np.arange(2**_GUIDE_BITS + 1, dtype=np.int64) + (level << _GUIDE_BITS)
            slots = slot << (53 - _GUIDE_BITS)
            first = np.searchsorted(keys, slots[:-1], side="right")
            clear = first == np.searchsorted(keys, slots[1:], side="left")
            guide = np.where(clear, first + outcomes, -1).astype(np.int32)
            parts.append((keys, guide, np.repeat([False, True], terms), np.tile(np.arange(terms), 2)))
            outcomes += 2 * terms
        if len(parts) > 1:
            self._table = (len(self._a), *map(np.concatenate, zip(*parts)))


@lru_cache(maxsize=64)
def _passage_law(model: NoiseModel) -> _PassageLaw:
    return _PassageLaw(_climb_tables(model).up)


def _law_climbs(law: _PassageLaw, block: np.ndarray) -> np.ndarray:
    """The (instances, top) matrix of downs at the first arrival at levels
    1..top, with column l - 1 of block driving passage l (top - 1 columns)."""
    picks = law.pick(block)
    restarts, downs = law.outcomes(block.shape[1] + 1)
    d = downs[picks]
    total = np.cumsum(d, axis=1)
    # the downs before the last restart: a running maximum, as total grows
    before = np.maximum.accumulate(np.where(restarts[picks], total - d, 0), axis=1)
    arrivals = np.zeros((len(block), block.shape[1] + 1), np.intp)
    np.subtract(total, before, out=arrivals[:, 1:])
    return arrivals


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
    stopping there, so the per-level means match per-level runs.  A pure
    resource lands on one state per level whatever the climb, so its means
    are the exact distances of those states: no draw is read, and they
    depend neither on seed nor on n_instances.  Otherwise instance i reads
    row i of the counter stream keyed by (seed, kind, strength).  If every
    up probability of the model is at least _LAW_MIN_UP, draw l - 1 of row
    i samples its passage l -> l + 1 from the passage law (level 1 is
    always reached with no downs); otherwise the loop walks row i one merge
    per draw.  The model alone picks the path, so row i's downs depend
    neither on n_instances nor on max_level beyond its own levels.
    """
    max_level = checked_level(max_level, "max_level", 1)
    if (n_instances := checked_integer(n_instances, "n_instances")) < 1:
        raise ValueError("need at least one instance")
    checked_integer(seed, "seed")
    tables = _climb_tables(model)
    if _is_pure(model):
        # lam = 1: every first arrival at a level lands on one state
        return list(enumerate(tables.distances(np.zeros(max_level, np.intp)).tolist(), 1))
    key = derive_seed(seed, "noise", model.kind, repr(model.strength))
    rows = np.arange(n_instances)
    if min(tables.up) >= _LAW_MIN_UP:
        downs = _law_climbs(_passage_law(model), counter_uniforms(key, rows, 0, max_level - 1))
    else:
        # a climb needs at least max_level draws; the loop reads on past
        # this block in its own row
        width = 2 * max_level + 8
        block = counter_uniforms(key, rows, 0, width)
        downs = np.empty((n_instances, max_level), np.intp)
        for i in rows.tolist():
            downs[i] = _noisy_climb(tables.up, max_level, chain(block[i].tolist(), _row_draws(key, i, width)))
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
