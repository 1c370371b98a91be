"""Deterministic RNG derivation for reproducible, parallel-safe experiments.

Every stochastic entry point takes either an explicit ``random.Random`` or a
master seed from which per-task generators are derived.  Substreams are keyed
by (master seed, *path), hashed through SHA-256, so results are independent
of scheduling order and stable across platforms and Python versions.

Batched studies read a counter-based stream instead: draw j of instance i is
a keyed hash of (i, j), so any block of draws is computed at once, in any
order, and instance i reads the same draws whatever the batch.
counter_bits gives each draw as its 53 random bits, an integer;
counter_uniforms gives the same draws as those bits times 2**-53, exact
uniforms on [0, 1).
"""
from __future__ import annotations

import hashlib
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


def counter_bits(key: int, instances: np.ndarray, start: int, count: int) -> np.ndarray:
    """Draws start .. start + count - 1 of every instance's counter stream
    under key (taken mod 2**64) as 53-bit integers, uint64 of shape
    (len(instances), count): [r, c] is draw start + c of instance
    instances[r].

    Draw j of instance i is the SplitMix64 finalizer of
    key + ((i << 32) | j) * 0x9E3779B97F4A7C15 (mod 2**64), shifted right by
    11.  The key, start and count must be integers, and the instances an
    array of integers; instances and draws must lie in [0, 2**32).
    """
    key = checked_integer(key, "key")
    start, count = checked_integer(start, "start"), checked_integer(count, "count")
    if not 0 <= start <= start + count <= COUNTER_LIMIT:
        raise ValueError(f"draws must lie in [0, {COUNTER_LIMIT})")
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
    draw = np.arange(start, start + count, dtype=np.uint64)
    draw *= _GAMMA
    z = np.add(row[:, None], draw)
    tmp = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    z >>= np.uint64(11)
    return z


def counter_uniforms(key: int, instances: np.ndarray, start: int, count: int) -> np.ndarray:
    """counter_bits scaled by 2**-53: uniforms on [0, 1) with 53 random
    bits, exact in float64, of the same shape and arguments."""
    bits = counter_bits(key, instances, start, count)
    # in place, so the peak stays two blocks
    return np.multiply(bits, _ULP, out=bits.view(np.float64))
