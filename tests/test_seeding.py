"""The counter stream against its pure-integer reference, and its statistics;
the master-seed check that every stream goes through."""
import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import counter_uniform, counter_word
from rotsynth.noise import NoiseModel, decay_study
from rotsynth.seeding import COUNTER_LIMIT, counter_uniforms, derive_rng, derive_seed
from rotsynth.study import fixed_angle_study, run_scaling_study

_ROWS = [0, 1, 2, 149, COUNTER_LIMIT - 1]


def test_reference_is_splitmix64():
    """Under key 0, instance 0's draws 1, 2, ... are the published SplitMix64
    outputs from seed 0."""
    assert [counter_word(0, 0, j) for j in range(1, 5)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


@pytest.mark.parametrize("key", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("k", [1, 36, 64])
def test_block_equals_reference(key, k):
    """A first block of k draws and its continuation at draw k are the
    integer reference, draw for draw."""
    block = counter_uniforms(key, np.array(_ROWS), 0, k)
    more = counter_uniforms(key, np.array(_ROWS), k, 2 * k)
    assert block.dtype == np.float64 and block.shape == (len(_ROWS), k)
    got = np.concatenate([block, more], axis=1).tolist()
    assert got == [[counter_uniform(key, i, j) for j in range(3 * k)] for i in _ROWS]


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.lists(st.integers(min_value=0, max_value=COUNTER_LIMIT - 1), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=COUNTER_LIMIT - 8),
)
def test_any_window_equals_reference(key, instances, start):
    block = counter_uniforms(key, np.array(instances), start, 8)
    assert block.tolist() == [[counter_uniform(key, i, start + c) for c in range(8)] for i in instances]


def test_key_is_taken_mod_2_64():
    key = derive_seed(5, "noise", "a", "0.0001")
    assert key >= 2**64
    rows = np.arange(3)
    assert np.array_equal(counter_uniforms(key, rows, 0, 9), counter_uniforms(key % 2**64, rows, 0, 9))
    assert counter_uniforms(key, rows, 0, 9)[2].tolist() == [counter_uniform(key % 2**64, 2, j) for j in range(9)]


@pytest.mark.parametrize("n", [1, 7, 150])
def test_row_is_independent_of_batch_and_start(n):
    key = derive_seed(9, "rows")
    block = counter_uniforms(key, np.arange(n), 0, 40)
    for i in range(n):
        assert np.array_equal(block[i], counter_uniforms(key, [i], 0, 40)[0])
    for start in (1, 17, 39):
        assert np.array_equal(counter_uniforms(key, np.arange(n), start, 40 - start), block[:, start:])
    assert np.array_equal(counter_uniforms(key, np.arange(n)[::-1], 0, 40), block[::-1])


def test_draws_fill_the_unit_interval_on_the_2_53_grid():
    u = counter_uniforms(3, np.arange(100), 0, 100)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))


def test_counter_bounds():
    assert counter_uniforms(1, [0], COUNTER_LIMIT - 2, 2).shape == (1, 2)
    assert counter_uniforms(1, np.arange(4), 5, 0).shape == (4, 0)
    with pytest.raises(ValueError, match="draws"):
        counter_uniforms(1, [0], COUNTER_LIMIT - 2, 3)
    with pytest.raises(ValueError, match="draws"):
        counter_uniforms(1, [0], -1, 3)
    with pytest.raises(ValueError, match="instances"):
        counter_uniforms(1, np.array([0, COUNTER_LIMIT]), 0, 3)


# 1e5 draws of a correct stream fail either check with probability < 1e-6


def _kolmogorov_sf(x: float) -> float:
    """P(sqrt(n) D > x) for large n."""
    return 2 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * x * x) for k in range(1, 101))


def test_uniformity_ks():
    u = np.sort(counter_uniforms(derive_seed(11, "ks"), np.arange(1000), 0, 100).ravel())
    n = u.size
    ranks = np.arange(1, n + 1) / n
    stat = math.sqrt(n) * max(float((ranks - u).max()), float((u - (ranks - 1 / n)).max()))
    # mean and standard deviation of the Kolmogorov distribution
    mean = math.sqrt(math.pi / 2) * math.log(2)
    z = (stat - mean) / math.sqrt(math.pi**2 / 12 - mean**2)
    p = _kolmogorov_sf(stat)
    print(f"STREAM KS over {n} draws: sqrt(n) D = {stat:.3f}, z = {z:.2f}, p = {p:.3g}")
    assert p > 1e-6


@pytest.mark.parametrize("axis", ["instance", "draw"])
def test_adjacent_draws_uncorrelated(axis):
    """Pearson correlation of neighbouring instances at the same draw, and of
    neighbouring draws of one instance: z = r sqrt(N) is standard normal."""
    u = counter_uniforms(derive_seed(12, "corr"), np.arange(1000), 0, 100)
    a, b = (u[:-1], u[1:]) if axis == "instance" else (u[:, :-1], u[:, 1:])
    r = float(np.corrcoef(a.ravel(), b.ravel())[0, 1])
    z = r * math.sqrt(a.size)
    print(f"STREAM adjacent-{axis} correlation over {a.size} pairs: r = {r:.2e}, z = {z:.2f}")
    assert abs(z) < 5


# every entry point that takes a master seed, called on the seed alone
SEED_ENTRY_POINTS = {
    "derive_seed": lambda seed: derive_seed(seed, "noise", 3),
    "derive_rng": lambda seed: derive_rng(seed, "scaling", 3).random(),
    "decay_study": lambda seed: decay_study(NoiseModel("a", 1e-4), 3, 2, seed=seed),
    "run_scaling_study": lambda seed: run_scaling_study("h-only", 5, seed=seed)[0],
    "fixed_angle_study": lambda seed: fixed_angle_study(0.3, [1e-3], "h-only", 2, seed=seed),
}


@pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
def test_master_seeds_are_checked_by_name(entry):
    """Every stream goes through derive_seed, which takes an integer master
    seed only: "1" does not read seed 1's stream, and a numpy integer reads
    the equal int's."""
    call = SEED_ENTRY_POINTS[entry]
    for value in (None, 1.5, 1.0, "1", Fraction(1)):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(value))}$"):
            call(value)
    for dtype in (np.int8, np.int64, np.uint16):
        assert call(dtype(1)) == call(1)


def test_path_elements_join_without_ambiguity():
    """A path element is an integer (written as str(int)) or a text that holds
    no comma and spells no integer, so "a,b" cannot read the stream of
    ("a", "b"), nor "1" that of 1; the accepted paths hash the text they
    always hashed, so no stream moves."""
    for value in ("a,b", "1", "-3", ",", "007"):
        with pytest.raises(ValueError, match=f"^a text path element must .* got {re.escape(repr(value))}$"):
            derive_seed(1, value)
    for value in (1.5, None, [1], 1.0):
        with pytest.raises(ValueError, match=f"^path element must be an integer, got {re.escape(repr(value))}$"):
            derive_seed(1, "ok", value)
    assert derive_seed(1, np.int64(3)) == derive_seed(1, 3)
    assert derive_rng(1, "x", np.uint16(3)).random() == derive_rng(1, "x", 3).random()
    for path in [("a", "b"), ("noise", "a", "0.0001"), ("scaling", "h-only", 7), (-2, "-", "")]:
        material = ",".join(["5", *map(str, path)]).encode("ascii")
        assert derive_seed(5, *path) == int.from_bytes(hashlib.sha256(material).digest(), "big")
