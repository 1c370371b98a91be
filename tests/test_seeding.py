"""The counter stream against its pure-integer reference, and its statistics;
the master-seed check that every stream goes through."""
import bisect
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
from rotsynth.seeding import (
    COUNTER_LIMIT,
    GUIDE_BITS,
    counter_draws,
    counter_rows,
    counter_uniforms,
    derive_rng,
    derive_seed,
    inverse_cdf_picks,
    inverse_cdf_table,
)
from rotsynth.study import fixed_angle_study, run_scaling_study

_ROWS = [0, 1, 2, 149, COUNTER_LIMIT - 1]


def _rows_and_draws(key, instances, start, count):
    """The stream's one reader, counter_draws over counter_rows, with
    counter_uniforms' arguments."""
    return counter_draws(counter_rows(key, instances), start, count)


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


_EDGE_ROWS = np.array([0, 1, COUNTER_LIMIT - 2, COUNTER_LIMIT - 1])


@pytest.mark.parametrize("start", [0, 7, COUNTER_LIMIT - 5])
def test_uniforms_are_the_bits_scaled(start):
    """counter_uniforms is the rows' draws times 2^-53, bit for bit, and
    each draw is the reference's 64-bit output shifted right by 11, on
    the first and last rows and draws of the counter space."""
    key = derive_seed(13, "bits")
    bits = _rows_and_draws(key, _EDGE_ROWS, start, 5)
    assert bits.dtype == np.uint64 and int(bits.max()) < 2**53
    assert bits.tolist() == [[counter_word(key % 2**64, i, start + c) >> 11 for c in range(5)] for i in _EDGE_ROWS.tolist()]
    uniforms = counter_uniforms(key, _EDGE_ROWS, start, 5)
    assert np.array_equal(uniforms.view(np.uint64), (bits * 2.0**-53).view(np.uint64))


@pytest.mark.parametrize("counter", [counter_uniforms, _rows_and_draws], ids=lambda f: f.__name__)
def test_counter_bounds(counter):
    assert counter(1, [0], COUNTER_LIMIT - 2, 2).shape == (1, 2)
    assert counter(1, np.arange(4), 5, 0).shape == (4, 0)
    with pytest.raises(ValueError, match="draws"):
        counter(1, [0], COUNTER_LIMIT - 2, 3)
    with pytest.raises(ValueError, match="draws"):
        counter(1, [0], -1, 3)
    with pytest.raises(ValueError, match="instances"):
        counter(1, np.array([0, COUNTER_LIMIT]), 0, 3)


_BAD_ARGUMENTS = [
    # a non-integral key would read another key's stream, and a
    # non-integral start or instance the row or draw it rounds to
    ((1.5, [0], 0, 3), "^key must be an integer, got 1.5$"),
    ((np.float64(1.0), [0], 0, 3), "^key must be an integer"),
    ((1, [0], 0.5, 3), "^start must be an integer, got 0.5$"),
    ((1, [0], 1.5, 2), "^start must be an integer, got 1.5$"),
    ((1, [0], 0, 3.0), "^count must be an integer, got 3.0$"),
    ((1, [0], 0, 2.7), "^count must be an integer, got 2.7$"),
    ((1, [0.7], 0, 3), "^instances must be integers, got an array of float64$"),
    ((1, np.array([True]), 0, 3), "^instances must be integers, got an array of bool$"),
    # a negative instance raised OverflowError, or wrapped round to 2^64 - 1
    ((1, [-1], 0, 3), "^instances must lie in"),
    ((1, np.array([3, -1], np.int8), 0, 3), "^instances must lie in"),
    ((1, [COUNTER_LIMIT], 0, 3), "^instances must lie in"),
    ((1, [0], COUNTER_LIMIT - 2, 3), "^draws must lie in"),
    ((1, [0], -1, 3), "^draws must lie in"),
]


@pytest.mark.parametrize("counter", [counter_uniforms, _rows_and_draws], ids=lambda f: f.__name__)
@pytest.mark.parametrize(("args", "message"), _BAD_ARGUMENTS, ids=[repr(args) for args, _ in _BAD_ARGUMENTS])
def test_counter_refuses_a_bad_argument_by_name(counter, args, message):
    with pytest.raises(ValueError, match=message):
        counter(*args)


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
    no comma and is not str() of an integer, so "a,b" cannot read the stream
    of ("a", "b"), nor "1" that of 1; the accepted paths hash the text they
    always hashed, so no stream moves."""
    for value in ("a,b", "1", "-3", ",", "0", "12345678901234567890"):
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


def test_non_ascii_text_path_elements_are_accepted():
    """A text that holds no comma and is not str() of an integer may be any
    text: it hashes its UTF-8 bytes, reads the same stream on every call,
    and not the stream of a neighbouring text or path."""
    for text, neighbours in [
        ("é", ["e", "è", "e\u0301", "ée"]),
        ("ψ0", ["psi0", "ψ", "ψ1"]),
        ("日本", ["日", "本", "日本 "]),
    ]:
        material = f"1,{text}".encode("utf-8")
        assert derive_seed(1, text) == int.from_bytes(hashlib.sha256(material).digest(), "big")
        assert derive_rng(1, text).random() == derive_rng(1, text).random()
        others = [derive_seed(1, n) for n in neighbours] + [derive_seed(2, text), derive_seed(1, text, 0)]
        assert derive_seed(1, text) not in others


@pytest.mark.parametrize("text", ["\u00b2", "--3", "007", "-0", "+1", " 1", "1 ", "\u0661"], ids=ascii)
def test_texts_that_no_integer_writes_are_accepted(text):
    """Only str() of an integer is refused: a superscript or Arabic-Indic
    digit, a stacked or plus sign, a leading zero, a negative zero or a
    space is another text, and reads its own stream, not that of the
    integer int() would read it as."""
    material = f"1,{text}".encode("utf-8")
    assert derive_seed(1, text) == int.from_bytes(hashlib.sha256(material).digest(), "big")
    try:
        number = int(text)
    except ValueError:
        return
    assert derive_seed(1, text) != derive_seed(1, number)


def _refused_before(text):
    """The text rule before it was narrowed to str() of an integer."""
    return "," in text or text.lstrip("-").isdigit()


@given(st.text(max_size=12) | st.from_regex(r"-*[0-9\u00b2\u0661]{1,4}", fullmatch=True))
def test_narrowing_the_text_rule_moved_no_stream(text):
    """Every text accepted before is still accepted and hashes the same
    bytes, so its stream did not move; a refused text is exactly one that
    holds a comma or that str() writes for an integer."""
    material = f"3,{text}".encode("utf-8")
    try:
        seed = derive_seed(3, text)
    except ValueError:
        assert _refused_before(text)
        assert "," in text or str(int(text)) == text
    else:
        assert seed == int.from_bytes(hashlib.sha256(material).digest(), "big")


# a guide slot spans 2^_SLOT draws of its segment
_SLOT = 53 - GUIDE_BITS
# five one-outcome segments, so the law under test is segment 5
_FIVE = [([1.0], 1)] * 5


@pytest.mark.parametrize(
    "masses",
    [[0.5, 0.5 + 2**-52, 0.25], [math.nextafter(1.0, 2.0), 0.0], [0.25, 0.75, 2**-52, 0.1]],
    ids=["second", "first", "third"],
)
def test_a_cdf_past_one_before_the_last_outcome_is_refused(masses):
    """Masses that pass 1 by an ulp before the last (clamped) outcome would
    key draws of the next segment; the segment is named, not clamped."""
    with pytest.raises(ValueError, match=r"^segment 5: the cdf passes 1 before the last outcome, at 1\.0000000000000002$"):
        inverse_cdf_table([*_FIVE, (masses, len(masses))])


def test_a_cdf_of_one_before_the_last_outcome_keeps_its_keys_in_the_segment():
    keys, guide = inverse_cdf_table([*_FIVE, ([0.25, 0.75, 0.5], 3)])
    assert keys[5:].tolist() == [(5 << 53) + 2**51, 6 << 53, 6 << 53]
    slots = guide[5 << GUIDE_BITS :]
    quarter = 2 ** (GUIDE_BITS - 2)
    assert len(slots) == 2**GUIDE_BITS and (slots[:quarter] == 5).all() and (slots[quarter:] == 6).all()


# (masses, guided, costs, labels) per segment: dyadic masses, masses whose
# sums round, a guide that stops before the last outcome, a one-outcome law
# and an outcome of no mass
_LAWS = [
    ([0.5, 0.25, 0.25], 3, [1.5, 2.5, 3.5], [7, 8, 9]),
    ([0.1, 0.2, 0.3, 0.4], 2, [4.0, 5.0, 6.0, 7.0], [10, 11, 12, 13]),
    ([1.0], 1, [8.0], [14]),
    ([2**-9, 0.0, 0.3, 0.7 - 2**-9], 4, [9.0, 9.5, 10.0, 10.5], [15, 16, 17, 18]),
]


def _law_table():
    return inverse_cdf_table((masses, guided, np.array(costs), np.array(labels)) for masses, guided, costs, labels in _LAWS)


def _exact_keys(masses, segment):
    """Each outcome's key from its cdf, the exact running sum rounded once
    to a float (the last 1), in Fractions."""
    sums = [Fraction(0)]
    for mass in masses[:-1]:
        sums.append(sums[-1] + Fraction(mass))
    cdf = [Fraction(float(x)) for x in sums[1:]] + [Fraction(1)]
    return [(segment << 53) + math.ceil(c * 2**53) for c in cdf]


def test_the_table_keys_segment_s_at_s_times_2_53_and_lines_its_columns_up():
    """Segment s's keys lie in (s * 2^53, (s + 1) * 2^53] and are its exact
    ones; the outcomes run across the segments in order, and each column
    holds each outcome's value, with the dtype it was given."""
    keys, guide, costs, labels = _law_table()
    assert keys.tolist() == [key for s, law in enumerate(_LAWS) for key in _exact_keys(law[0], s)]
    assert keys.dtype == np.int64 and guide.dtype == np.int32
    assert costs.tolist() == [c for law in _LAWS for c in law[2]] and costs.dtype == np.float64
    assert labels.tolist() == [x for law in _LAWS for x in law[3]] and labels.dtype == np.int64
    assert len(guide) == len(_LAWS) << GUIDE_BITS


def test_the_guide_numbers_its_slots_across_the_outcomes():
    """Slot k of segment s, at (s << GUIDE_BITS) + k, holds the outcome (numbered
    across the table) that both the first and the last draw of the slot
    pick by a search over the keys, if that is one of the segment's guided
    outcomes, and -1 otherwise."""
    keys, guide, *_ = _law_table()
    keys, first = keys.tolist(), 0
    for s, (masses, guided, *_) in enumerate(_LAWS):
        for k in range(2**GUIDE_BITS):
            low, high = (s << 53) + (k << _SLOT), (s << 53) + ((k + 1) << _SLOT) - 1
            pick = bisect.bisect_right(keys, low)
            split = pick != bisect.bisect_right(keys, high)
            assert guide[(s << GUIDE_BITS) + k] == (-1 if split or pick >= first + guided else pick)
        first += len(masses)
    assert (guide >= 0).sum() > 2**GUIDE_BITS


def test_every_table_array_is_read_only():
    assert not any(array.flags.writeable for array in _law_table())


def test_picks_are_the_search_over_the_keys():
    """Draws of every segment, at each key, an ulp either side and at
    random, pick what a binary search over the keyed draws picks; the
    guide leaves exactly the split and unguided slots to the search, and
    the draws' buffer takes the keyed draws."""
    keys, guide, *_ = _law_table()
    local = np.unique(np.concatenate([keys % 2**53 + d for d in (-1, 0, 1)]).clip(0, 2**53 - 1))
    draws = np.concatenate([local, _rows_and_draws(3, np.arange(1), 0, 1000)[0]]).astype(np.uint64)
    bits = np.repeat(draws[:, None], len(_LAWS), axis=1)
    keyed = bits.astype(np.int64) + (np.arange(len(_LAWS)) << 53)
    picks, split = inverse_cdf_picks(keys, guide, np.arange(len(_LAWS)), bits)
    assert np.array_equal(picks, np.searchsorted(keys, keyed, side="right"))
    assert np.array_equal(split, np.flatnonzero(guide.take(keyed >> _SLOT) < 0))
    assert np.array_equal(bits.view(np.int64), keyed)


@pytest.mark.parametrize("segment", [-1, len(_LAWS), 2**40], ids=["below", "next", "far"])
def test_a_segment_outside_the_table_is_refused(segment):
    """Before its draws are spent: the guide read clips, so it would draw
    from another segment's law."""
    keys, guide, *_ = _law_table()
    bits = np.zeros(3, np.uint64)
    with pytest.raises(ValueError, match=rf"^segments must lie in \[0, {len(_LAWS)}\)$"):
        inverse_cdf_picks(keys, guide, np.array([0, segment, 1]), bits)
    assert not bits.any()
