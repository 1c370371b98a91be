"""Deterministic RNG derivation for reproducible, parallel-safe experiments.

Every stochastic entry point takes either an explicit ``random.Random`` or a
master seed from which per-task generators are derived.  Substreams are keyed
by (master seed, *path), hashed through SHA-256, so results are independent
of scheduling order and stable across platforms and Python versions.

Batched studies read a counter-based stream instead: draw j of instance i is
a keyed hash of (i, j), so any block of draws is computed at once, in any
order, and instance i reads the same draws whatever the batch.
"""
from __future__ import annotations

import hashlib
import random

import numpy as np

from .ladder import checked_integer

DEFAULT_SEED = 137137

# counter layout: instance in the high 32 bits, draw in the low 32
COUNTER_LIMIT = 2**32

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ULP = np.float64(2.0**-53)


def _path_text(p: int | str) -> str:
    if not isinstance(p, str):
        return str(checked_integer(p, "path element"))
    if "," in p or p.lstrip("-").isdigit():
        raise ValueError(f"a text path element must hold no comma and spell no integer, got {p!r}")
    return p


def derive_seed(master_seed: int, *path: int | str) -> int:
    """The integer seed of the substream (master_seed, *path): an integer, then integers
    or texts that hold no comma and spell no integer, so no two paths join to one text."""
    master_seed = checked_integer(master_seed, "seed")
    material = ",".join([str(master_seed), *map(_path_text, path)]).encode("ascii")
    return int.from_bytes(hashlib.sha256(material).digest(), "big")


def derive_rng(master_seed: int, *path: int | str) -> random.Random:
    """Return an independent generator for the substream (master_seed, *path)."""
    return random.Random(derive_seed(master_seed, *path))


def counter_uniforms(key: int, instances: np.ndarray, start: int, count: int) -> np.ndarray:
    """Draws start .. start + count - 1 of every instance's counter stream
    under key (taken mod 2**64), shape (len(instances), count): [r, c] is
    draw start + c of instance instances[r].

    Draw j of instance i is the SplitMix64 finalizer of
    key + ((i << 32) | j) * 0x9E3779B97F4A7C15 (mod 2**64), shifted right by
    11 and scaled by 2**-53: a uniform on [0, 1) with 53 random bits, exact
    in float64.  Instances and draws must be below 2**32.
    """
    if not 0 <= start <= start + count <= COUNTER_LIMIT:
        raise ValueError(f"draws must lie in [0, {COUNTER_LIMIT})")
    rows = np.asarray(instances, dtype=np.uint64)
    if rows.size and int(rows.max()) >= COUNTER_LIMIT:
        raise ValueError(f"instances must lie in [0, {COUNTER_LIMIT})")
    # every operand is uint64: one int64 in the mix would promote to float64
    z = np.left_shift(rows, np.uint64(32))[:, None] | np.arange(start, start + count, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(key % 2**64)
    tmp = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    z >>= np.uint64(11)
    # the float result reuses tmp's buffer, so the peak is two blocks
    return np.multiply(z, _ULP, out=tmp.view(np.float64))
