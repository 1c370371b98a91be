"""Deterministic RNG derivation for reproducible, parallel-safe experiments.

Every stochastic entry point takes either an explicit ``random.Random`` or a
master seed from which per-task generators are derived.  Substreams are keyed
by (master seed, *path), hashed through SHA-256, so results are independent
of scheduling order and stable across platforms and Python versions.
"""
from __future__ import annotations

import hashlib
import random

DEFAULT_SEED = 137137


def derive_seed(master_seed: int, *path: int | str) -> int:
    """The integer seed of the substream (master_seed, *path)."""
    material = ",".join(str(p) for p in (master_seed, *path)).encode("ascii")
    return int.from_bytes(hashlib.sha256(material).digest(), "big")


def derive_rng(master_seed: int, *path: int | str) -> random.Random:
    """Return an independent generator for the substream (master_seed, *path)."""
    return random.Random(derive_seed(master_seed, *path))
