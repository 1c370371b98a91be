"""Deterministic RNG derivation for reproducible, parallel-safe experiments.

Every stochastic entry point takes either an explicit ``random.Random`` or a
master seed from which per-task generators are derived.  Substreams are keyed
by (master seed, *path), hashed through SHA-256, so results are independent
of scheduling order and stable across platforms and Python versions.

Batched studies read a counter-based stream instead: draw j of instance i is
a keyed hash of (i, j), so any block of draws is computed at once, in any
order, and instance i reads the same draws whatever the batch.  It has one
reader: counter_rows mixes each instance's part of the hash once, and
counter_draws gives a block of draws of those rows, each as its 53 random
bits, an integer.  counter_uniforms reads the same draws and scales them by
2**-53, to exact uniforms on [0, 1).  Fixed laws are drawn from the bits by
inverse CDF: inverse_cdf_table lays one read-only table out, a segment per
law, and inverse_cdf_picks draws from it.  The noisy climbs' passages and
the ladder climbs' costs are sampled so, and only this module knows the
layout.
"""
from __future__ import annotations

import hashlib
import math
import random
import re

import numpy as np

from .ladder import checked_integer

DEFAULT_SEED = 137137

# counter layout: instance in the high 32 bits, draw in the low 32
COUNTER_LIMIT = 2**32

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ULP = np.float64(2.0**-53)
# an inverse-CDF table's guide has a slot per 2^-GUIDE_BITS of a segment's
# draws, each an int32 outcome index
GUIDE_BITS = 10
# its running sums count units of 2^-1074, the least float
_UNITS = 2**1074


# the texts str() writes for an integer, and no others
_INTEGER_TEXT = re.compile(r"0|-?[1-9][0-9]*")


def _path_text(p: int | str) -> str:
    if not isinstance(p, str):
        return str(checked_integer(p, "path element"))
    if "," in p or _INTEGER_TEXT.fullmatch(p):
        raise ValueError(f"a text path element must hold no comma and not be str() of an integer, got {p!r}")
    return p


def derive_seed(master_seed: int, *path: int | str) -> int:
    """The integer seed of the substream (master_seed, *path): an integer, then integers
    or texts that hold no comma and are not str() of an integer, so no two paths join
    to one text."""
    master_seed = checked_integer(master_seed, "seed")
    # UTF-8 takes any text and encodes an ASCII path as ASCII, so no such stream moves
    material = ",".join([str(master_seed), *map(_path_text, path)]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest(), "big")


def derive_rng(master_seed: int, *path: int | str) -> random.Random:
    """Return an independent generator for the substream (master_seed, *path)."""
    return random.Random(derive_seed(master_seed, *path))


def counter_rows(key: int, instances: np.ndarray) -> np.ndarray:
    """The part of the counter stream's mix that depends on the instance
    alone, key + (i << 32) * 0x9E3779B97F4A7C15 (mod 2**64) per instance i,
    for counter_draws: a study that reads its rows block by block takes it
    once.  The key must be an integer (taken mod 2**64), the instances an
    array of integers in [0, 2**32)."""
    key = checked_integer(key, "key")
    rows = np.asarray(instances)
    if rows.dtype.kind not in "iu":
        raise ValueError(f"instances must be integers, got an array of {rows.dtype}")
    # a negative instance wraps to 2**63 or more, so one bound checks both ends
    rows = rows.astype(np.uint64)
    if rows.size and int(rows.max()) >= COUNTER_LIMIT:
        raise ValueError(f"instances must lie in [0, {COUNTER_LIMIT})")
    # every operand is uint64: one int64 in the mix would promote to float64
    # (i << 32 | j) * gamma + key splits, mod 2**64, into a term per
    # instance plus a term per draw: one pass over the block instead of three
    row = np.left_shift(rows, np.uint64(32))
    row *= _GAMMA
    row += np.uint64(key % 2**64)
    return row


def counter_draws(
    rows: np.ndarray, start: int, count: int, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Draws start .. start + count - 1 of the counter stream of every
    instance whose counter_rows terms are rows, as 53-bit integers, uint64
    of shape (len(rows), count): [r, c] is draw start + c of row r.  out
    takes the draws and scratch the mix's shifts, each a uint64 array of
    that shape; either is made for the call if not given.

    Draw j of instance i under key is the SplitMix64 finalizer of
    key + ((i << 32) | j) * 0x9E3779B97F4A7C15 (mod 2**64), shifted right by
    11.  start and count must be integers, and the draws lie in [0, 2**32).
    """
    start, count = checked_integer(start, "start"), checked_integer(count, "count")
    if not 0 <= start <= start + count <= COUNTER_LIMIT:
        raise ValueError(f"draws must lie in [0, {COUNTER_LIMIT})")
    draw = np.arange(start, start + count, dtype=np.uint64)
    draw *= _GAMMA
    z = np.add(rows[:, None], draw, out=out)
    tmp = np.empty_like(z) if scratch is None else scratch
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    z >>= np.uint64(11)
    return z


def counter_uniforms(key: int, instances: np.ndarray, start: int, count: int) -> np.ndarray:
    """counter_draws(counter_rows(key, instances), start, count) scaled by
    2**-53: uniforms on [0, 1) with 53 random bits, exact in float64."""
    bits = counter_draws(counter_rows(key, instances), start, count)
    # in place, so the peak stays two blocks
    return np.multiply(bits, _ULP, out=bits.view(np.float64))


def inverse_cdf_table(laws) -> tuple[np.ndarray, ...]:
    """The read-only inverse-CDF table (keys, guide, *columns) of the laws,
    segments 0, 1, ... in turn: each law is (masses, guided, *values), its
    outcomes' masses in table order (a sequence of floats, at least one),
    of which the first `guided` may be read off the guide, and per column
    an array of one value per outcome.  The outcomes are numbered across
    the segments in order, and column c holds each one's values[c].

    Outcome j of segment s has the fsum of the segment's masses up to it
    as its cdf, the last clamped to 1 (so the last mass is never read; a
    cdf above 1 before it raises ValueError naming the segment), and the
    key s * 2^53 + ceil(cdf * 2^53).  A draw u (53 bits) of segment s,
    keyed s * 2^53 + u, picks the first outcome whose key exceeds its own:
    the one with cdf[j - 1] <= u * 2^-53 < cdf[j].  Slot
    (s << GUIDE_BITS) + k of the guide holds the outcome that every draw
    of slot k of segment s (u >> (53 - GUIDE_BITS) == k) picks, or -1
    where a key splits the slot or its outcome is not guided (int32, as
    no table holds 2^31 outcomes).  Every cdf
    is an exact running sum in units of 2^-1074, rounded once, so the
    bytes depend on nothing but the masses.  Each law is written as it
    comes onto the ends of the arrays, which grow in place, so the laws
    may be solved one at a time without holding them all.  No laws raise
    ValueError: the number and dtypes of the columns would be unknown.
    """
    keys, guide, columns = np.empty(0, np.int64), np.empty(0, np.int32), []
    for segment, (masses, guided, *values) in enumerate(laws):
        own = _segment_keys(masses, segment)
        slots = (np.arange(2**GUIDE_BITS + 1, dtype=np.int64) + (segment << GUIDE_BITS)) << (53 - GUIDE_BITS)
        picked = np.searchsorted(own, slots[:-1], side="right")
        clear = picked == np.searchsorted(own, slots[1:], side="left")
        first = len(keys)
        columns = columns or [np.empty(0, np.asarray(value).dtype) for value in values]
        # no view of any is alive, so they may move
        for array in (keys, *columns):
            array.resize(first + len(own), refcheck=False)
        guide.resize(len(guide) + 2**GUIDE_BITS, refcheck=False)
        keys[first:] = own
        guide[-(2**GUIDE_BITS) :] = np.where(clear & (picked < guided), picked + first, -1)
        for column, value in zip(columns, values, strict=True):
            column[first:] = value
    if not len(guide):
        raise ValueError("need at least one law")
    for array in (keys, guide, *columns):
        array.flags.writeable = False
    return (keys, guide, *columns)


def _segment_keys(masses, segment: int) -> np.ndarray:
    """inverse_cdf_table's keys of one segment (its own call: the sums go before the next law is solved)."""
    total, cdf = 0, []
    for mass in np.asarray(masses, float)[:-1].tolist():
        num, den = mass.as_integer_ratio()  # den is 2^(den.bit_length() - 1)
        total += num << (1075 - den.bit_length())
        cdf.append(total / _UNITS)
    if cdf and max(cdf) > 1.0:
        # its keys would pass the segment's end, into the next segment's draws
        raise ValueError(f"segment {segment}: the cdf passes 1 before the last outcome, at {max(cdf)!r}")
    cdf.append(1.0)
    return np.array([(segment << 53) + math.ceil(c * 2.0**53) for c in cdf], np.int64)


def inverse_cdf_picks(
    keys: np.ndarray,
    guide: np.ndarray,
    segments: np.ndarray,
    bits: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes of an inverse_cdf_table (keys, guide) that draws pick:
    bits (counter_draws' 53-bit integers, any shape) of the segments (their
    indices, broadcast against bits), each keyed s * 2^53 + u; and the flat
    indices of the draws that the guide left to a binary search over the
    keys.  bits is spent: its buffer takes the keyed draws.  out takes the
    picks (an array of the guide's dtype) and scratch the guide slots (a
    uint64 array), both C-contiguous of bits' shape; either is made for the
    call if not given.  A segment outside the table raises ValueError."""
    if segments.size and not 0 <= segments.min() <= segments.max() < len(guide) >> GUIDE_BITS:
        raise ValueError(f"segments must lie in [0, {len(guide) >> GUIDE_BITS})")
    keyed = bits.view(np.int64)  # every draw is below 2^53
    keyed += np.left_shift(segments, 53)
    slots = np.right_shift(keyed, 53 - GUIDE_BITS, out=None if scratch is None else scratch.view(np.int64))
    # every slot is in the guide, so clipping moves none; unlike the default
    # mode, it writes to out without a copy
    picks = guide.take(slots, out=out, mode="clip")
    split = np.flatnonzero(picks < 0)
    picks.reshape(-1)[split] = np.searchsorted(keys, keyed.reshape(-1)[split], side="right")
    return picks, split
