import math
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import chain, zip_longest
from operator import mul
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    NoisyWalker,
    arrival_law,
    decay_z_scores,
    dm_apply_gate,
    dm_bloch_vector,
    exact_climb,
    dm_measure_qubit,
    element_distances,
    passage_prefix,
    running_means,
    walker_decay_study,
    walker_propagate,
)
from rotsynth import noise
from rotsynth.ladder import MAX_LEVEL, passage_series
from rotsynth.noise import (
    DecayFit,
    NoiseModel,
    decay_study,
    fit_exponential_decay,
    ideal_resource,
    make_noisy_resource,
    propagate_to_level,
)
from rotsynth.qcore import DensityMatrix, trace_distance
from rotsynth.seeding import DEFAULT_SEED, counter_draws, counter_rows, derive_rng, derive_seed


def test_strength_is_kept_as_a_float():
    """Equal models read the same stream: the strength is stored as a float,
    and its repr keys the stream (numpy 2 prints np.float64(0.0001))."""
    for kind, strength in (("a", 1e-4), ("b", 0.3), ("c", 1e-8)):
        model = NoiseModel(kind, np.float64(strength))
        assert type(model.strength) is float and model == NoiseModel(kind, strength)
        assert repr(decay_study(model, 5, 20, 3)) == repr(decay_study(NoiseModel(kind, strength), 5, 20, 3))
    assert type(NoiseModel("b", 0).strength) is float


@pytest.mark.parametrize("strength", ["0.1", None, 0.1j, [0.1]], ids=repr)
def test_model_rejects_a_non_real_strength(strength):
    with pytest.raises(ValueError, match=f"^strength must be a real number, got {re.escape(repr(strength))}$"):
        NoiseModel("a", strength)


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("d", 0.1)
    with pytest.raises(ValueError):
        NoiseModel("a", -0.1)
    with pytest.raises(ValueError):
        NoiseModel("a", 1.5)
    NoiseModel("b", 2.0)  # tilt angles above 1 are fine


@given(st.sampled_from("abc"), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_model_rejects_non_finite_strength(kind, strength):
    with pytest.raises(ValueError):
        NoiseModel(kind, strength)


@pytest.mark.parametrize("kind", ["a", "b", "c"])
def test_decay_study_rejects_unvalidated_nan_model(kind):
    """A NaN strength that slips past NoiseModel (here set after
    construction) makes every merge probability NaN; the walker would
    restart at level 0 forever.  The noisy resource itself is rejected."""
    model = NoiseModel(kind, 0.0)
    object.__setattr__(model, "strength", math.nan)
    raised = []

    def run():
        try:
            decay_study(model, 4, 3, seed=26)
        except ValueError as exc:
            raised.append(exc)

    # a daemon thread, so a regression fails here instead of hanging the run
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "decay_study did not return"
    assert raised


@pytest.mark.parametrize("kind", ["a", "b", "c"])
def test_zero_strength_is_ideal(kind):
    rho = make_noisy_resource(NoiseModel(kind, 0.0))
    assert trace_distance(rho, ideal_resource(0)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("p", [1e-8, 1e-4, 0.2])
def test_model_a_level0_distance_is_p(p):
    rho = make_noisy_resource(NoiseModel("a", p))
    assert trace_distance(rho, ideal_resource(0)) == pytest.approx(p, rel=1e-10)


@pytest.mark.parametrize("delta", [1e-6, 1e-3, 0.1])
def test_model_b_level0_distance(delta):
    # pure states on the same great circle: distance sin(delta/2)
    rho = make_noisy_resource(NoiseModel("b", delta))
    expected = abs(math.sin(delta / 2))
    assert trace_distance(rho, ideal_resource(0)) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("delta", [1e-6, 1e-3, 0.1])
def test_model_c_level0_distance(delta):
    # tilt toward Y shrinks the chord by sin(pi/4)
    rho = make_noisy_resource(NoiseModel("c", delta))
    expected = math.sin(math.pi / 4) * abs(math.sin(delta / 2))
    assert trace_distance(rho, ideal_resource(0)) == pytest.approx(expected, rel=1e-9)


def test_noisy_resource_is_read_only():
    rho = make_noisy_resource(NoiseModel("b", 0.1))
    with pytest.raises(ValueError, match="read-only"):
        rho.mat[0, 0] = 1.0


def test_noisy_resources_are_valid_states():
    for kind, strength in (("a", 0.3), ("b", 0.2), ("c", 0.2)):
        rho = make_noisy_resource(NoiseModel(kind, strength))
        eigs = np.linalg.eigvalsh(rho.mat)
        assert eigs.min() >= -1e-12
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)


def test_model_bloch_vectors():
    delta = 0.3
    vb = dm_bloch_vector(make_noisy_resource(NoiseModel("b", delta)))
    assert np.abs(
        vb - [math.sin(math.pi / 4 + delta), 0.0, math.cos(math.pi / 4 + delta)]
    ).max() < 1e-12
    vc = dm_bloch_vector(make_noisy_resource(NoiseModel("c", delta)))
    s = math.sin(math.pi / 4)
    assert np.abs(
        vc - [s * math.cos(delta), s * math.sin(delta), math.cos(math.pi / 4)]
    ).max() < 1e-12


# --- closed-form merge vs generic simulation --------------------------------


def _random_density(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


class _Draw:
    """rng stub whose every draw is the given uniform."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _walker(top, bottom, level):
    """A walker on the given top resource whose bottom state is arbitrary."""
    walker = NoisyWalker(top)
    walker.r00, walker.r01, walker.r11 = bottom.mat[0, 0].real, complex(bottom.mat[0, 1]), bottom.mat[1, 1].real
    walker.level = level
    return walker


@pytest.mark.parametrize("seed", range(8))
def test_merge_outcomes_match_generic_dm_evolution(seed):
    """An oracle walker step is the 2x2 closed form of kron + CNOT +
    measurement on the 4x4 density matrix: the up outcome is drawn with the
    generic probability and lands on the generic post state; the down outcome
    lands on the other post state, or restarts from a fresh top at level 0."""
    top = _random_density(2 * seed)
    bottom = _random_density(2 * seed + 1)
    joint = dm_apply_gate(DensityMatrix(np.kron(top.mat, bottom.mat)), "CNOT", 1, 0)
    generic = dm_measure_qubit(joint, 0)
    assert generic.prob0 + generic.prob1 == pytest.approx(1.0, abs=1e-12)
    for level in (0, 1, 5):
        up = _walker(top, bottom, level)
        up.step(_Draw(generic.prob0 - 1e-9))
        assert up.level == level + 1
        assert trace_distance(up.density_matrix(), generic.post0) == pytest.approx(0.0, abs=1e-10)

        down = _walker(top, bottom, level)
        down.step(_Draw(generic.prob0 + 1e-9))
        if level:
            assert down.level == level - 1
            assert trace_distance(down.density_matrix(), generic.post1) == pytest.approx(0.0, abs=1e-10)
        else:
            assert down.level == 0
            assert trace_distance(down.density_matrix(), top) == pytest.approx(0.0, abs=1e-12)


def test_merge_outcomes_pure_ladder_consistency():
    """Noiseless up steps of the oracle walker reproduce the pure-state
    ladder."""
    walker = NoisyWalker(make_noisy_resource(NoiseModel("a", 0.0)))
    for level in range(12):
        walker.step(_Draw(0.0))
        assert walker.level == level + 1
        assert trace_distance(walker.density_matrix(), ideal_resource(level + 1)) == pytest.approx(0.0, abs=1e-12)


# --- the climb tables against the exact closed form --------------------------

_REPLAY_MODELS = [
    NoiseModel("a", 0.0),
    NoiseModel("b", 0.0),
    NoiseModel("c", 0.0),
    NoiseModel("a", 1e-3),
    NoiseModel("b", 1e-4),
    NoiseModel("c", 1e-2),
    NoiseModel("a", 0.2),
    NoiseModel("b", 0.3),
    NoiseModel("c", 0.3),
]

_GRID_MODELS = [NoiseModel(kind, strength) for kind in "abc" for strength in (1e-4, 1e-6, 1e-8)]
# downs at which the exact distances are checked
_ORACLE_DOWNS = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200]
_EPS = 2.0**-53


def _grid_rows(tables, downs, top):
    """The rows of the climb tables' distance grid at the given downs
    counts, as decay_study gathers them."""
    return tables.distances(range(max(downs) + 1), top)[downs]


def test_climb_tables_equal_the_exact_closed_form():
    """At the replay models and the criterion-8 grid, levels 0..150: every
    up probability within 4 units of rounding of the exact fraction, and
    every first-arrival distance after m downs within 8 (n + m) units of
    rounding of the small entries (the distance plus the ideal cs and ss):
    each of the n + m factors of the closed form, and the float tan(pi/8)
    in the ideal state, may cost a few units each."""
    worst_up = worst_dist = 0.0
    for model in dict.fromkeys(_REPLAY_MODELS + _GRID_MODELS):
        tables = noise._climb_tables(model)
        up, dist = exact_climb(model, MAX_LEVEL, _ORACLE_DOWNS)
        for got, want in zip(tables.up, up, strict=True):
            worst_up = max(worst_up, float(abs(Fraction(got) - want) / want) / (4 * _EPS))
        table = _grid_rows(tables, _ORACLE_DOWNS, MAX_LEVEL)
        for got, m, row in zip(table, _ORACLE_DOWNS, dist, strict=True):
            for level in range(1, MAX_LEVEL + 1):
                n = level + 1
                t = (math.sqrt(2) - 1) ** n
                want = float(row[level])
                scale = want + (t + t * t) / (1 + t * t)
                worst_dist = max(worst_dist, abs(got[level - 1] - want) / (8 * (n + m) * _EPS * scale))
    print(f"worst up probability {worst_up:.3f}, worst distance {worst_dist:.3f} of their bounds")
    assert worst_up <= 1 and worst_dist <= 1


# models whose resource has a zero diagonal entry (b at tilts pi and 2 pi),
# no coherence (a at 1/2), or is pure (a at 0 and 1)
_EDGE_MODELS = [
    NoiseModel("a", 0.0),
    NoiseModel("a", 0.5),
    NoiseModel("a", 1.0),
    NoiseModel("b", 3 * math.pi / 4),
    NoiseModel("b", 7 * math.pi / 4),
]
_MODELS = st.one_of(
    st.sampled_from(_EDGE_MODELS + _REPLAY_MODELS),
    st.builds(NoiseModel, st.just("a"), st.floats(0, 1)),
    st.builds(NoiseModel, st.sampled_from("bc"), st.floats(0, 10)),
)


def test_edge_models_have_their_zero_entries():
    assert make_noisy_resource(_EDGE_MODELS[1]).mat[0, 1] == 0
    assert make_noisy_resource(_EDGE_MODELS[3]).mat[0, 0] == 0
    assert make_noisy_resource(_EDGE_MODELS[4]).mat[1, 1] == 0


@given(_MODELS)
def test_climb_tables_are_finite_for_every_model(model):
    tables = noise._ClimbTables(model)
    assert all(0 <= u <= 1 for u in tables.up)
    assert np.isfinite(tables.distances(range(70), MAX_LEVEL)).all()
    for level in (0, 1, 28, MAX_LEVEL):
        for downs in (0, 1, 69):
            assert all(math.isfinite(abs(x)) for x in tables.state(level, downs))


def _sizes(tables):
    """The lengths of the tables' sequences: the per-level values, the
    means and, once built, the passage table's fields."""
    return {name: len(value) for name, value in vars(tables).items() if isinstance(value, (list, tuple, np.ndarray))}


def test_climb_tables_do_not_grow_with_the_downs():
    """A mixture near 1/2 climbs to the top level through thousands of
    downs (lam is 0 there, so the state after one down is the same after
    any more).  The tables keep only their per-level values and means (its
    saturation row is 0, so no passage table is built), and the climbs
    need memory of the order of their draws and downs, not of a grid of
    levels by downs (over 20 MB here)."""
    model = NoiseModel("a", 0.5)
    tables = noise._climb_tables(model)
    sizes = _sizes(tables)
    downs = noise._noisy_climb(tables.up, MAX_LEVEL, iter(derive_rng(3, "deep").random, None))
    assert max(downs) > 2000
    tracemalloc.start()
    try:
        rho, dist = propagate_to_level(model, MAX_LEVEL, derive_rng(3, "deep"))
        points = decay_study(model, MAX_LEVEL, 2, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert sizes == _sizes(tables) == dict.fromkeys(sizes, MAX_LEVEL + 1) | {"means": MAX_LEVEL}
    assert dist == element_distances(tables, np.array(downs))[-1]
    assert all(math.isfinite(d) for _, d in points)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_EDGE_MODELS) | st.builds(NoiseModel, st.just("a"), st.floats(0, 1)))
# the rest of B at level 26 is below an ulp, and A's rest must leave it room
@example(NoiseModel("a", 0.9))
def test_distances_saturate_at_the_saturation_row(model):
    """Every row of the distance grid from the saturation row M, up to and
    past the underflow of lam^m, equals the limit row at every level, byte
    for byte, and the row before M does not, unless M lies past the
    search, where it is past the underflow.  M is the model's alone, the
    same whichever top first builds the tables.  A capped model's first decay_study at top 150
    builds its series to at most M terms, each passage's keys stay in its
    own segment, 2 min(K, M) of them and 2 more where M cuts K short, and a
    lower top's passages are the first ones of top 150."""
    saturations = []
    for top in (5, 150):
        noise._climb_tables.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            series = _spy(mp, "passage_series")
            decay_study(model, top, 2, 1)
        saturations.append(noise._climb_tables(model).saturation)
    cap = saturations[0]
    assert saturations == [cap, cap]
    tables = noise._climb_tables(model)
    rows = tables.distances(range(cap, cap + 4096), MAX_LEVEL)
    limit = tables.distances([math.inf], MAX_LEVEL)[0]
    assert {row.tobytes() for row in rows} == {limit.tobytes()}
    # lam^m is 1 at every m, or the rows reach past its underflow
    assert tables.lam == 1.0 or tables.lam ** (cap + 4095) == 0.0
    if cap >= noise._SATURATION_SEARCH:
        assert tables.lam**cap == 0.0
    elif cap:
        assert tables.distances([cap - 1], MAX_LEVEL)[0].tobytes() != limit.tobytes()
        ((_, (series_a, _, series_h, kept)),) = series
        assert len(series_a[1]) <= cap
        keys, _, restarts, downs = _passages(model, 150)
        levels = _levels_of(keys)
        outcomes = [2 * (kept[lv] + (series_h[lv][kept[lv] - 1] >= 2.0**-60)) for lv in range(1, 150)]
        assert np.array_equal(levels, np.repeat(np.arange(1, 150), outcomes))
        _, low, _, low_restarts, low_downs = noise._ClimbTables(model).passages(8)
        first = levels < 8
        assert all(map(np.array_equal, (keys[first], restarts[first], downs[first]), (low, low_restarts, low_downs)))


@given(_MODELS, st.lists(st.floats(0, 1, exclude_max=True), max_size=120))
def test_walker_state_is_the_table_state_at_its_level_and_downs(model, draws):
    """The reduction itself: whatever the draws, the walker's bottom state
    after each merge is the closed form at its (level, downs since the last
    restart), up to the rounding of its merges."""
    tables = noise._ClimbTables(model)
    walker = NoisyWalker(make_noisy_resource(model))
    for u in draws:
        walker.step(_Draw(u))
        for got, want in zip((walker.r00, walker.r01, walker.r11), tables.state(walker.level, walker.downs)):
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-300


@pytest.mark.parametrize("model", _EDGE_MODELS, ids=repr)
def test_decay_study_runs_on_edge_models(model):
    points = decay_study(model, 14, 3, seed=1)
    assert all(math.isfinite(d) and d >= 0 for _, d in points)


# --- the walk against the step-by-step oracle walker -------------------------

# The walker rounds every merge, and its diagonal difference r00 - cc rounds
# at 1 rather than at the small entries: its means differ from the tables'
# by up to 4.3e-7 relative on the criterion-8 grid, and by about an ulp of 1
# at strength 0, where both are rounding noise.  The tables are exact to a
# few ulps of the small entries (test_climb_tables_equal_the_exact_closed_form).
_WALKER_REL = 1e-6
_WALKER_ABS = 2.0**-51


def _walker_bound(model, want):
    return _WALKER_ABS if model.strength == 0 else _WALKER_REL * want


def _walker_ratio(model, points, walker_points):
    """Worst |mean - walker mean| over the levels, as a fraction of its
    bound."""
    assert [lvl for lvl, _ in points] == [lvl for lvl, _ in walker_points]
    return max(
        abs(mean - want) / _walker_bound(model, want)
        for (_, mean), (_, want) in zip(points, walker_points)
    )


def _spy(monkeypatch, name):
    """Record (arguments, result) of every call to noise.<name>.  An array
    result is recorded as a copy, as decay_study rewrites its buffers in
    place, within a chunk and from chunk to chunk."""
    calls = []
    original = getattr(noise, name)

    def spy(*args):
        result = original(*args)
        calls.append((args, result.copy() if isinstance(result, np.ndarray) else result))
        return result

    monkeypatch.setattr(noise, name, spy)
    return calls


def _passages(model, top):
    """The passage table of levels 1..top - 1, read as the prefix of the
    model's cached one."""
    return passage_prefix(noise._climb_tables(model).passages(top), top)


def _law_climbs(model, bits):
    """noise._law_climbs on the model's cached passages, into buffers of
    its own."""
    n, width = bits.shape
    out = np.empty((n, width + 1), np.intp)
    return noise._law_climbs(noise._climb_tables(model).passages(width + 1), bits, out, np.empty_like(bits))


def _pure(model):
    """Models b and c tilt a pure state; a mixture is pure at weight 0 or 1."""
    return model.kind != "a" or model.strength in (0.0, 1.0)


def _replay(model, top, n, seed):
    """The step-by-step walker, on the counter rows of decay_study's key,
    against the tables: their distances at the walker's own downs (for a
    model whose saturation row is 0, decay_study's exact means, read from
    no draw) give per-level means within the walker's rounding of its own.
    Returns the worst agreement ratio."""
    replay = walker_decay_study(model, top, n, seed)
    tables = noise._climb_tables(model)
    if tables.saturation:
        points = list(enumerate(running_means(tables, np.array(replay.downs)), 1))
    else:
        points = decay_study(model, top, n, seed)
    ratio = _walker_ratio(model, points, replay.points)
    assert ratio <= 1
    return ratio


# near-symmetric mixtures: some merge goes up with probability near 1/2
# (0.54 for the 0.3 mixture, 0.51 for 0.4, 1/2 for 0.5), and the passages
# have heavy tails
_HEAVY_MODELS = [NoiseModel("a", 0.3), NoiseModel("a", 0.5), NoiseModel("a", 0.4)]
# the |+> resource: every up probability is 1/2, but it is pure
_PLUS = NoiseModel("b", math.pi / 4)
# mixtures whose downs move no distance, so their saturation row is 0: lam
# is 0 at weight 1/2, and at 1e-300 the resource and lam round to the pure
# ones
_STILL_MODELS = [NoiseModel("a", 0.5), NoiseModel("a", 1e-300)]
_PATH_MODELS = _GRID_MODELS + _REPLAY_MODELS + [NoiseModel("a", p) for p in (1e-8, 1e-6, 1e-5, 1e-4, 1e-2, 0.15, 0.05)]
_PATH_MODELS += _HEAVY_MODELS + [_PLUS, NoiseModel("a", 1.0)] + _STILL_MODELS


@pytest.mark.parametrize("model", list(dict.fromkeys(_PATH_MODELS)), ids=repr)
def test_the_model_alone_picks_the_path(model):
    """Two paths, whatever the count and the top.  The pure resources
    (models b and c, and the mixture at weight 0 or 1) and the mixtures
    whose downs move no distance read no draws: no counter block and no
    passage law.  Every other mixture, the near-symmetric ones too, takes
    the passage law in one block of counter_draws, and none walks."""
    still = _pure(model) or model in _STILL_MODELS
    # top 1 has no passage: the law path samples an empty block
    for top, n in ((1, 3), (2, 1), (14, 40), (3, 250)):
        with pytest.MonkeyPatch.context() as mp:
            spies = [_spy(mp, name) for name in ("counter_draws", "_law_climbs", "_noisy_climb")]
            decay_study(model, top, n, 1)
        assert tuple(map(len, spies)) == ((0, 0, 0) if still else (1, 1, 0))


@pytest.mark.parametrize("model", _HEAVY_MODELS + [_PLUS], ids=repr)
def test_near_symmetric_models_replay_the_walker(model):
    """The tables hold a near-symmetric mixture's walker means at the
    walker's own downs, hundreds of them; the mixture at 1/2 and the pure
    |+> resource read no draws, and their exact means hold to the
    walker's."""
    _replay(model, 14, 40, 3)


def test_criterion_8_means_agree_with_the_walker_to_its_rounding():
    """On the criterion-8 grid the walker's rounding shows most: its means
    differ from the tables' by up to about 4e-7 relative (c at 1e-8), which
    sets the bound of the replay tests.  Model a's tables are held to the
    walker's means at its own downs; models b and c read no draws, and
    their exact means are held to the walker's."""
    worst = 0.0
    for kind in "abc":
        for strength, top in ((1e-4, 28), (1e-6, 22), (1e-8, 16)):
            model = NoiseModel(kind, strength)
            worst = max(worst, _replay(model, top, 100, 3))
    print(f"criterion-8 grid: worst walker agreement {worst:.3g} of its bound")


# the criterion-8 grid (strength: top level) and three more strengths
_PURE_GRID = {1e-4: 28, 1e-6: 22, 1e-8: 16, 0.0: 28, 1e-3: 28, 0.3: 28}


@pytest.mark.parametrize("kind", ["b", "c"])
def test_pure_resource_means_equal_the_exact_first_arrival_states(kind, monkeypatch):
    """Models b and c give the exact first-arrival distances of
    oracles.exact_climb at no downs, up to rounding, and read no draws.
    For a pure sigma, |s01|^2 = s00 s11, so lam = 1 and the state at level
    l does not depend on the downs: every instance lands on the same
    distance, so the means are the same bytes whatever the seed and the
    count."""
    spies = [_spy(monkeypatch, name) for name in ("counter_draws", "_law_climbs", "_noisy_climb")]
    worst = 0.0
    for strength, top in _PURE_GRID.items():
        model = NoiseModel(kind, strength)
        exact = [float(d) for d in exact_climb(model, top, [0])[1][0][1:]]
        points = decay_study(model, top, 1000, 1)
        for (_, mean), want in zip(points, exact, strict=True):
            worst = max(worst, abs(mean - want) / (1e-9 * want + 1e-15))
        assert all(repr(decay_study(model, top, n, seed)) == repr(points) for seed in (1, 5) for n in (1, 10, 1000))
    print(f"model {kind}: worst |mean - exact| is {worst:.3f} of its bound")
    assert worst <= 1
    assert not any(spies)


def test_a_mixture_that_rounds_to_the_pure_resource_returns_the_pure_means(monkeypatch):
    """The 1e-300 mixture's resource, and so its up probabilities, round to
    the pure resource's (the mixture at 0), and its lam to 1, so its
    saturation row is 0: like the pure resource it reads no draws, and its
    means are the pure resource's exact ones, byte for byte."""
    model, pure = NoiseModel("a", 1e-300), NoiseModel("a", 0.0)
    assert np.array_equal(make_noisy_resource(model).mat, make_noisy_resource(pure).mat)
    assert noise._climb_tables(model).lam == 1.0
    spies = [_spy(monkeypatch, name) for name in ("counter_draws", "_law_climbs", "_noisy_climb")]
    for top in (28, 16):
        for seed, n in ((1, 1000), (5, 3)):
            assert repr(decay_study(model, top, n, seed)) == repr(decay_study(pure, top, n, seed))
    assert not any(spies)


@given(st.sampled_from("bc"), st.sampled_from(sorted(_PURE_GRID)) | st.floats(0, 10))
def test_pure_models_have_lam_exactly_one(kind, strength):
    """By construction: the computed ratio misses 1 by an ulp at b/1e-4,
    b/1e-8, c/1e-6 and about a quarter of random strengths."""
    assert noise._ClimbTables(NoiseModel(kind, strength)).lam == 1.0


@pytest.mark.parametrize("kind", ["b", "c"])
def test_a_pure_model_still_checks_every_argument(kind):
    model = NoiseModel(kind, 1e-6)
    for seed in (1.5, "x"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            decay_study(model, 4, 3, seed)
    with pytest.raises(ValueError, match="at least one instance"):
        decay_study(model, 4, 0, 1)
    with pytest.raises(ValueError, match=r"max_level must be in \[1, 150\]"):
        decay_study(model, 0, 3, 1)


def test_a_caller_that_changes_the_exact_means_changes_no_later_call():
    """A pure model's means come from one row solved per model, but each
    call returns a list of its own: changing one leaves the next call's
    means, at the same top and at a higher one, as they were."""
    model = NoiseModel("b", 1e-6)
    want, higher = repr(decay_study(model, 16, 10, 1)), repr(decay_study(model, 22, 10, 1))
    points = decay_study(model, 16, 10, 1)
    points[0] = (1, 0.0)
    points.append((17, 1.0))
    del points[3:8]
    assert repr(decay_study(model, 16, 10, 1)) == want
    assert repr(decay_study(model, 22, 10, 1)) == higher
    assert decay_study(model, 16, 10, 1) is not decay_study(model, 16, 10, 1)


def test_mixture_means_depend_on_the_seed():
    """Model a's arrivals above level 1 depend on the draws, so a different
    seed moves the mean at every such level: the stream is read.  (Every
    first arrival at level 1 merges two fresh resources.)"""
    model = NoiseModel("a", 1e-4)
    one, two = decay_study(model, 28, 1000, 1), decay_study(model, 28, 1000, 2)
    assert one[0] == two[0]
    assert all(a != b for (_, a), (_, b) in zip(one[1:], two[1:]))


# --- the passage law against exact arithmetic, the walk and the arrival law --

_LAW_JUDGE_MODELS = [NoiseModel("a", 1e-4), NoiseModel("a", 0.15), NoiseModel("b", 1e-6)]
# exact arithmetic rounded to 2^-200 per coefficient: unrounded, the
# fractions of the recursion grow to about 10^5 bits by level 6
_JUDGE_SCALE = 2**200


def _levels_of(keys):
    """The passage of each outcome key (passage l is segment l - 1, whose
    last key is l * 2^53)."""
    return ((keys - 1) >> 53) + 1


@pytest.mark.parametrize("model", [*_LAW_JUDGE_MODELS, NoiseModel("a", 0.3)], ids=repr)
def test_passage_series_equal_exact_arithmetic(model):
    """Every coefficient of A, B and H that levels 1-6 hold is within 1e-15
    of the same recursion in Fractions from the float up probabilities.  A
    level keeps min(K, M) terms, K where its tail first falls below 2^-60
    and M the saturation row (14 for the 0.3 mixture, which caps every
    level here), and its table two outcomes per kept term, and two more
    where the cap binds.  The kept masses miss at most 2^-52 of 1 before
    the clamp, beyond the tail P(D >= M) where the cap binds; there the
    outcome after A's terms holds the rest of the exact A_l(1) to 2^-51
    (the two keys' ceilings and the rounding of the float A_l(1))."""
    tables = noise._climb_tables(model)
    series_a, series_b, series_h, kept = passage_series(tables.up, 7, tables.saturation, noise._LAW_TAIL)
    keys = _passages(model, 7)[0]
    widths = np.diff(keys, prepend=0).tolist()
    up = [Fraction(u) for u in tables.up]
    terms = len(series_a[1])  # every level above 0 holds as many terms

    def rounded(x):
        return Fraction(round(x * _JUDGE_SCALE), _JUDGE_SCALE)

    a = [up[0]] + [Fraction(0)] * (terms - 1)
    b = [1 - up[0]] + [Fraction(0)] * (terms - 1)
    h = [Fraction(0)] * terms
    stays = up[0]  # A_l(1), the exact mass of passage l that does not restart
    worst = worst_lost = worst_rest = 0.0
    for level in range(1, 7):
        p = up[level]
        q = 1 - p
        stays = p / (1 - q * stays)
        below_a, below_b, below_h, a = a, b, [x + y for x, y in zip(h, a)], [p]
        for k in range(1, terms):
            a.append(rounded(q * sum(map(mul, below_a[:k], reversed(a)))))
        b = [rounded(q / p * sum(map(mul, below_b[: k + 1], a[k::-1]))) for k in range(terms)]
        h = [rounded(q / p * sum(map(mul, below_h[: k + 1], a[k::-1]))) for k in range(terms)]
        for series, exact in ((series_a[level], a), (series_b[level], b), (series_h[level], h)):
            assert len(series) == terms
            for got, want in zip(series, exact):
                worst = max(worst, abs(float(Fraction(got) - want)))
        kept_terms, tail = kept[level], series_h[level][kept[level] - 1]
        capped = tail >= 2.0**-60
        assert kept_terms == tables.saturation if capped else tail < 2.0**-60
        assert min(series_h[level][: kept_terms - 1], default=1.0) >= 2.0**-60
        mine = np.flatnonzero(_levels_of(keys) == level)
        assert mine.size == 2 * (kept_terms + capped)
        lost = 1 - math.fsum(chain(series_a[level][:kept_terms], series_b[level][:kept_terms]))
        worst_lost = max(worst_lost, abs(lost - tail * capped))
        if capped:
            rest = Fraction(widths[mine[kept_terms]], 2**53) - (stays - sum(a[:kept_terms]))
            worst_rest = max(worst_rest, abs(float(rest)))
    print(f"worst coefficient error {worst:.2e}; worst mass lost {worst_lost / 2**-52:.2f} x 2^-52; "
          f"worst rest of A_l(1) {worst_rest / 2**-51:.2f} x 2^-51")
    assert worst <= 1e-15 and worst_lost <= 2**-52 and worst_rest <= 2**-51


def _searched_climbs(model, bits):
    """_law_climbs by a binary search over all of the table's keys and the
    loop m_1 = 0, m_{l+1} = D if R else m_l + D over each row's passages."""
    keys, _, restarts, downs = _passages(model, bits.shape[1] + 1)
    keyed = bits.astype(np.int64) + (np.arange(bits.shape[1]) << 53)
    climbs = []
    for row in np.searchsorted(keys, keyed, side="right").tolist():
        m = [0]
        for j in row:
            m.append(int(downs[j]) + (0 if restarts[j] else m[-1]))
        climbs.append(m)
    return climbs


@pytest.mark.parametrize("model", [*_LAW_JUDGE_MODELS, NoiseModel("a", 0.2), NoiseModel("c", 1e-8)], ids=repr)
def test_draws_beside_a_threshold_pick_adjacent_outcomes(model):
    """The draws one unit of 2^-53 below and at each outcome's key pick
    that outcome and the next one (past any outcome of no width), and
    _law_climbs, through its guide, climbs exactly as a binary search over
    all keys does: on rows that put those draws in their passage's column
    among random draws, and on random rows.  The guide names no outcome
    that restarts: _law_climbs finds every restart among the searched
    draws."""
    top = 12
    keys, guide, restarts = _passages(model, top)[:3]
    assert not restarts[guide[guide >= 0]].any()
    levels = _levels_of(keys)
    local = keys - ((levels - 1) << 53)
    inside = np.flatnonzero((levels < top) & (local >= 1) & (local < 2**53))
    rows = np.arange(inside.size)
    bits = counter_draws(counter_rows(3, np.arange(2 * inside.size)), 0, top - 1)
    bits[2 * rows, levels[inside] - 1] = local[inside] - 1
    bits[2 * rows + 1, levels[inside] - 1] = local[inside]
    keyed = bits[np.arange(bits.shape[0]), np.repeat(levels[inside] - 1, 2)].astype(np.int64)
    picks = np.searchsorted(keys, keyed + (np.repeat(levels[inside] - 1, 2) << 53), side="right")
    assert np.array_equal(picks[0::2], np.searchsorted(keys, keys[inside], side="left"))
    assert np.array_equal(picks[1::2], np.searchsorted(keys, keys[inside], side="right"))
    assert _law_climbs(model, bits.copy()).tolist() == _searched_climbs(model, bits)
    draws = counter_draws(counter_rows(5, np.arange(2000)), 0, top - 1)
    assert _law_climbs(model, draws.copy()).tolist() == _searched_climbs(model, draws)


@pytest.mark.parametrize("model", [NoiseModel("a", 1e-4), NoiseModel("a", 0.2)], ids=repr)
def test_law_climbs_run_the_downs_recursion(model):
    """The downs at the first arrivals are the loop m_1 = 0,
    m_{l+1} = D if R else m_l + D over each row's picked passages."""
    bits = counter_draws(counter_rows(9, np.arange(500)), 0, 14)
    assert _law_climbs(model, bits.copy()).tolist() == _searched_climbs(model, bits)


# A pure model's decay_study reads no draws, so the study replays add a
# mixture for each pure replay model, across the same range of up
# probabilities (0.59 .. 0.75): light mixtures for the pure models at
# strengths 0, 1e-4 and 1e-2 and for c at 0.3, and a/0.15 beside b at 0.3
# (least up probability 0.62 against 0.61)
_STUDY_REPLAY_MODELS = list(
    dict.fromkeys(
        _REPLAY_MODELS
        + [NoiseModel("a", p) for p in (1e-8, 1e-6, 1e-5, 1e-4, 1e-2, 0.15, 0.05)]
    )
)


def _study_replay(model, top, n, seed):
    """decay_study replayed from its own counter stream: row i of the
    stream keyed by (seed, kind, strength) searched over the whole passage
    table, the downs composed by the loop and never capped, and the means
    summed by oracles.running_means, by repr (a model whose saturation row
    is 0 reads no draw).  The tables then hold the step-by-step walker's
    means at its own downs.  Returns the searched downs (none for a model
    that reads no draws) and the worst walker agreement."""
    with pytest.MonkeyPatch.context() as mp:
        spies = [_spy(mp, name) for name in ("counter_draws", "_law_climbs")]
        points = decay_study(model, top, n, seed)
    tables = noise._climb_tables(model)
    climbs = np.empty((0, top), np.intp)
    if tables.saturation:
        key = derive_seed(seed, "noise", model.kind, repr(model.strength))
        climbs = np.array(_searched_climbs(model, counter_draws(counter_rows(key, np.arange(n)), 0, top - 1)), np.intp)
        assert repr(points) == repr(list(enumerate(running_means(tables, climbs), 1)))
    else:
        assert not any(spies)
    return climbs, _replay(model, top, n, seed)


@pytest.mark.parametrize("model", _STUDY_REPLAY_MODELS, ids=repr)
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_decay_study_equals_its_searched_replay(model, seed):
    """The means of the searched replay of the same counter rows (none for
    a pure model), and tables that agree with the walker to its rounding."""
    print(f"worst walker agreement {_study_replay(model, 14, 40, seed)[1]:.3g} of its bound")


@pytest.mark.parametrize("model", _STUDY_REPLAY_MODELS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 10, 40, 151])
def test_searched_replay_at_any_count(model, n):
    _study_replay(model, 14, n, 7)


def test_climbs_past_the_saturation_row_read_its_row():
    """Under the 0.35 mixture (saturation row M = 11, whose row 10 differs
    from the limit row at levels 1-3 by an ulp or so) the one climb of seed
    4413 is M downs past its last restart at level 3, where row M - 1 would
    give another distance, and 17 at level 6; of 1000 climbs at seed 1,
    one passes M at level 3 and others higher up.  The replay reads their
    distances at the full downs, and decay_study's means, which read row M
    there, are the same bytes: with one instance, each mean is the
    climb's own distance."""
    model = NoiseModel("a", 0.35)
    tables = noise._climb_tables(model)
    cap = tables.saturation
    rows = tables.distances(range(cap + 1), MAX_LEVEL)
    differ = np.flatnonzero(rows[cap - 1] != rows[cap])
    assert cap == 11 and differ.tolist() == [0, 1, 2]
    for n, seed in ((1, 4413), (1000, 1)):
        climbs, _ = _study_replay(model, 14, n, seed)
        assert (climbs[:, differ] >= cap).any() and climbs.max() > cap


def test_downs_past_the_underflow_of_lam_read_the_limit_row(monkeypatch):
    """For the 0.01 mixture the saturation row M lies past the search, at
    the bound on the underflow of lam^m, beyond the first row u at which
    lam^m is 0; the distance grid runs to the deepest downs or M, whichever
    is less.  Downs in (u, M] keep their count, and each reads the limit
    row at its own level: the bytes of oracles.element_distances at the
    full downs, not the last cell of the grid.  The downs of instance 0 are
    pushed to 9500 + l at level l, those of instance 2 to M, and instance 1
    keeps its own."""
    model, top = NoiseModel("a", 0.01), 6
    tables = noise._climb_tables(model)
    cap = tables.saturation
    underflow = next(m for m in range(cap + 1) if tables.lam**m == 0.0)
    assert cap >= noise._SATURATION_SEARCH and underflow < 9500 + top <= cap
    law_climbs = noise._law_climbs
    pushed = []

    def deep(*args):
        downs = law_climbs(*args)
        downs[0] = 9500 + np.arange(1, top + 1)
        downs[2:] = cap
        pushed.append(downs.copy())
        return downs

    monkeypatch.setattr(noise, "_law_climbs", deep)
    points = decay_study(model, top, 3, 1)
    single = decay_study(model, top, 1, 1)
    downs, _ = pushed
    assert repr(points) == repr(list(enumerate(running_means(tables, downs), 1)))
    # with one instance, each mean is its own distance: the limit's
    assert [d for _, d in single] == element_distances(tables, downs[:1])[0].tolist()
    assert [d for _, d in single] == tables.distances([math.inf], top)[0].tolist()


def test_concurrent_tabulation_builds_the_serial_table():
    """Threads that run decay_study for different tops at once on a cleared
    table cache (more threads than cores, with a short switch interval)
    give the points of the same calls made in turn, and leave a passage
    table, of whichever top was built last, that is the prefix of the
    table built in turn."""
    model, tops = NoiseModel("a", 0.05), (5, 20, 12, 3, 17, 20, 9)
    want = {top: decay_study(model, top, 50, 3) for top in tops}
    serial = noise._climb_tables(model).passages(20)
    noise._climb_tables.cache_clear()
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda top=top: got.append((top, decay_study(model, top, 50, 3))), daemon=True)
            for top in tops
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(got) == sorted((top, want[top]) for top in tops)
    left = noise._climb_tables(model)._passages
    assert left.top in tops
    assert all(map(np.array_equal, passage_prefix(left, left.top), passage_prefix(serial, left.top)))


# a mixture whose saturation row caps its passages, and one it does not
_PREFIX_MODELS = [NoiseModel("a", 0.3), NoiseModel("a", 1e-4)]


@pytest.mark.parametrize("model", _PREFIX_MODELS, ids=repr)
def test_a_lower_top_reads_a_prefix_of_the_deepest_passage_table(model):
    """The table built at a top of its own is the byte prefix, dtypes too,
    of the top-150 table (the criterion-8 tops among them); every array is
    read-only and the guide intp."""
    deepest = noise._ClimbTables(model).passages(MAX_LEVEL)
    for top in (2, 3, 8, 16, 22, 28, 77, 149):
        own = noise._ClimbTables(model).passages(top)
        assert own.top == top
        for got, want in zip(own[1:], passage_prefix(deepest, top), strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for table in (own, deepest):
        assert table.guide.dtype == np.intp
        assert not any(array.flags.writeable for array in table[1:])


def test_a_lower_top_after_a_deeper_one_builds_no_table(monkeypatch):
    """The tables keep the deepest passage table asked for: a lower or equal
    top, in decay_study too, reads that one and builds none, and a deeper
    top builds one of its own and keeps it."""
    model = NoiseModel("a", 0.3)
    builds = _spy(monkeypatch, "inverse_cdf_table")
    noise._climb_tables.cache_clear()
    tables = noise._climb_tables(model)
    deep = tables.passages(20)
    assert len(builds) == 1 and deep.top == 20
    assert all(tables.passages(top) is deep for top in (1, 2, 5, 19, 20))
    for top in (1, 2, 14, 20):
        decay_study(model, top, 30, 1)
    assert len(builds) == 1
    deeper = tables.passages(21)
    assert len(builds) == 2 and deeper.top == 21 and tables.passages(20) is deeper


@pytest.mark.parametrize("model", _PREFIX_MODELS, ids=repr)
def test_decay_study_bytes_do_not_depend_on_the_deepest_top_built(model):
    """decay_study from a cleared cache, which builds its own top's table,
    gives the bytes it gives once the top-150 table is built."""
    for top in (1, 2, 14, 28):
        noise._climb_tables.cache_clear()
        cold = repr(decay_study(model, top, 200, 5))
        assert noise._climb_tables(model).passages(MAX_LEVEL).top == MAX_LEVEL
        assert repr(decay_study(model, top, 200, 5)) == cold


@pytest.mark.parametrize("model", ["a", ("a", 1e-4), {"kind": "a", "strength": 1e-4}, None], ids=repr)
def test_a_model_that_is_not_a_noise_model_is_refused(model):
    """decay_study and propagate_to_level name the model before any cache
    lookup, so an unhashable one is refused alike."""
    before = noise._climb_tables.cache_info()
    message = f"^model must be a NoiseModel, got {re.escape(repr(model))}$"
    with pytest.raises(ValueError, match=message):
        decay_study(model, 16, 10, 1)
    with pytest.raises(ValueError, match=message):
        propagate_to_level(model, 16, derive_rng(1, "refused"))
    assert noise._climb_tables.cache_info() == before


_LIGHT_MODELS = list(dict.fromkeys(_GRID_MODELS + _LAW_JUDGE_MODELS + [NoiseModel("a", 0.05), NoiseModel("a", 0.2)]))
# near-symmetric mixtures, whose passages the saturation rows 14 and 7 cap
_CAPPED_MODELS = [NoiseModel("a", 0.3), NoiseModel("a", 0.45)]


def _folded(law, cap):
    """A law of m folded at cap: the mass of every m >= cap on cap."""
    return law[:cap] + [math.fsum(law[cap:])] if len(law) > cap else law


@pytest.mark.parametrize("model", _LIGHT_MODELS + _CAPPED_MODELS, ids=repr)
def test_passage_law_composes_to_the_arrival_law(model):
    """Two exact routes to the law of min(m, M), m the downs at each first
    arrival and M the saturation row, agree to 1e-12 at every level up to
    16: the sampled law of each passage (each outcome's width between keys,
    over 2^53), composed level by level (m' = D after a restart, m + D
    otherwise, folded at M), and oracles.arrival_law's visits of the walk
    on (level, m), folded at M."""
    top = 16
    keys, _, restarts, downs = _passages(model, top)
    tables = noise._climb_tables(model)
    cap = tables.saturation
    # passage l's keys run up to l * 2^53, where passage l + 1's begin
    widths = np.diff(keys, prepend=0)
    exact, missing = arrival_law(tables.up, top)
    assert missing < 1e-13
    m_law, worst = [1.0], 0.0
    for level in range(1, top):
        mine = _levels_of(keys) == level
        after = [0.0] * min(len(m_law) + int(downs[mine].max()), cap + 1)
        for r, d, w in zip(restarts[mine].tolist(), downs[mine].tolist(), widths[mine].tolist()):
            mass = w * 2.0**-53
            if r:
                after[min(d, cap)] += mass
            else:
                for m, p in enumerate(m_law):
                    after[min(m + d, cap)] += p * mass
        m_law = after
        want = _folded(exact[level], cap)
        worst = max(worst, max(abs(x - y) for x, y in zip_longest(m_law, want, fillvalue=0.0)))
    print(f"worst |P(m) - exact| {worst:.2e}")
    assert worst <= 1e-12


@pytest.mark.parametrize("model", [NoiseModel("a", 1e-4), NoiseModel("a", 0.15)], ids=repr)
def test_arrival_law_equals_exact_arithmetic(model):
    """oracles.arrival_law's visits DP run in Fractions from the same float
    up probabilities: the float law of every level 1-6 is within 1e-15 of
    the exact one, term by term."""
    up = noise._climb_tables(model).up[:7]
    floats, exact = arrival_law(up, 6)[0], arrival_law([Fraction(u) for u in up], 6)[0]
    worst = max(
        abs(float(Fraction(x) - y))
        for got, want in zip(floats, exact, strict=True)
        for x, y in zip_longest(got, want, fillvalue=0.0)
    )
    print(f"worst |float law - exact law| {worst:.2e}")
    assert worst <= 1e-15


def test_law_downs_follow_the_walk():
    """Two-sample chi-squared of the downs at the first arrival at levels
    3-6, sampled from the passage law (counter stream) and walked merge by
    merge (random.Random), 10^5 climbs each, for three light models and two
    near-symmetric ones; the mixtures are compared on min(D, M), M their
    saturation row (24 for the 0.2 mixture, 14 and 7 for the near-symmetric
    ones, beyond the downs for 1e-4), as the capped law tells no more apart.
    Bonferroni over the 20 tests at a family-wise 1e-3."""
    n, top, tests = 100_000, 6, []
    for model in (NoiseModel("a", 1e-4), NoiseModel("a", 0.2), NoiseModel("b", 1e-6), *_CAPPED_MODELS):
        key = derive_seed(DEFAULT_SEED, "law-vs-walk", model.kind, repr(model.strength))
        law = _law_climbs(model, counter_draws(counter_rows(key, np.arange(n)), 0, top - 1))
        tables = noise._climb_tables(model)
        rng = derive_rng(DEFAULT_SEED, "walk", model.kind, repr(model.strength))
        walk = np.array([noise._noisy_climb(tables.up, top, iter(rng.random, None)) for _ in range(n)])
        if tables.saturation:  # the pure b resource's law is not capped
            law, walk = np.minimum(law, tables.saturation), np.minimum(walk, tables.saturation)
        for level in range(3, top + 1):
            tests.append((model, level, *_chi2_two_samples(law[:, level - 1], walk[:, level - 1])))
    bound = 1e-3 / len(tests)
    for model, level, stat, dof, p in tests:
        print(f"LAW VS WALK {model.kind}/{model.strength:g} level {level}: chi2 = {stat:.1f} on {dof} dof, p = {p:.3g}")
    print(f"Bonferroni bound on p: {bound:.2g}")
    assert min(p for *_, p in tests) > bound


def _chi2_two_samples(one, two):
    """(statistic, degrees of freedom, p) of the homogeneity of two equal
    samples of counts.  A cell expects half its bin's total, so the bins
    from the first whose total is below 10 are pooled, with one more if the
    pool's total is below 10 too."""
    from scipy.stats import chi2_contingency

    size = max(one.max(), two.max()) + 1
    table = np.array([np.bincount(one, minlength=size), np.bincount(two, minlength=size)])
    small = table.sum(axis=0) < 10
    cut = int(np.argmax(small)) if small.any() else size
    if table[:, cut:].sum() < 10:
        cut -= 1
    table = np.column_stack([table[:, :cut], table[:, cut:].sum(axis=1)])
    stat, p, dof, _ = chi2_contingency(table, correction=False)
    return stat, dof, p


@pytest.mark.parametrize("model", _GRID_MODELS, ids=repr)
def test_decay_study_means_match_the_exact_law_on_the_criterion_8_grid(model):
    """z-test of every level's mean of a 20000-instance decay_study against
    oracles.exact_decay on each criterion-8 cell, Bonferroni over all the
    grid's levels (66) at a family-wise 1e-3."""
    n, top = 20_000, {1e-4: 28, 1e-6: 22, 1e-8: 16}[model.strength]
    z = max(map(abs, decay_z_scores(model, decay_study(model, top, n, seed=11), n)))
    bound = NormalDist().inv_cdf(1 - 1e-3 / (2 * (28 + 22 + 16)))
    print(f"{model.kind}/{model.strength:g}: max |z| {z:.2f} over {top} levels (Bonferroni bound {bound:.2f})")
    assert z <= bound


def _study_downs(model, top, n, seed):
    """The points of decay_study and the downs at its instances' first
    arrivals (no rows for a model that reads no draws)."""
    with pytest.MonkeyPatch.context() as mp:
        laws = _spy(mp, "_law_climbs")
        points = decay_study(model, top, n, seed)
    if not laws:
        return points, np.empty((0, top), np.intp)
    ((_, downs),) = laws
    return points, downs


# the criterion-8 model-a cells, and two near-symmetric mixtures, capped at
# their saturation rows 14 and 7: every downs count from there on lands on
# that row of the distance grid
_JUDGED_SUMS = _GRID_MODELS[:3] + [NoiseModel("a", 0.3), NoiseModel("a", 0.45)]


@pytest.mark.parametrize("model", _JUDGED_SUMS, ids=repr)
def test_gathered_means_are_the_running_sums_of_the_element_distances(model):
    """decay_study takes each (level, downs) cell's distance once, gathers
    it per instance and sums each level with np.add.reduce: the same bytes,
    by repr, as oracles.running_means, every element's distance summed by a
    running sum down the instances, on the spied downs.  At the tops 1 (one
    column, which numpy's reduction would sum pairwise), 2 and the cell's,
    and at 1, 2, 10 and 1000 instances."""
    tables = noise._climb_tables(model)
    for top in (1, 2, {1e-4: 28, 1e-6: 22, 1e-8: 16}.get(model.strength, 14)):
        for n in (1, 2, 10, 1000):
            points, downs = _study_downs(model, top, n, 5)
            assert repr(points) == repr(list(enumerate(running_means(tables, downs), 1)))


# rows per chunk under the patched cell budget of the chunk tests
_CHUNK = 7


@pytest.mark.parametrize("model", _JUDGED_SUMS, ids=repr)
def test_chunk_boundaries_are_exact(model, monkeypatch):
    """With a cell budget of _CHUNK rows, decay_study runs n instances in
    ceil(n / _CHUNK) chunks, each with one counter_draws call and one
    _law_climbs call, and carries each level's sum from chunk to chunk: the
    same bytes, by repr, as the one-chunk call and as oracles.running_means
    on the spied downs of the chunks, concatenated.  At one instance, at a
    chunk less one, a chunk, a chunk and one, and three chunks and two, and
    at the tops 1 (whose sums take numpy's running sum, not its reduction),
    2 and the cell's."""
    tables = noise._climb_tables(model)
    for top in (1, 2, {1e-4: 28, 1e-6: 22, 1e-8: 16}.get(model.strength, 14)):
        for n in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 2):
            whole = decay_study(model, top, n, 5)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(noise, "_CHUNK_CELLS", _CHUNK * top)
                bits, laws = _spy(mp, "counter_draws"), _spy(mp, "_law_climbs")
                points = decay_study(model, top, n, 5)
            assert len(bits) == len(laws) == -(-n // _CHUNK)
            downs = np.concatenate([climbs for _, climbs in laws])
            assert repr(points) == repr(whole) == repr(list(enumerate(running_means(tables, downs), 1)))


def test_threads_get_the_serial_bytes(monkeypatch):
    """Eight threads, more than the cores, each run model-a decay_study
    calls of their own (model, top, n) at once, with a short switch
    interval, on a cell budget that splits most of the calls into chunks:
    every call gives the bytes of the same call made in turn, in one chunk
    where it fits, as each thread's workspace is its own."""
    calls = [
        (NoiseModel("a", 1e-4), 28, 1000),
        (NoiseModel("a", 0.3), 14, 300),
        (NoiseModel("a", 1e-6), 22, 40),
        (NoiseModel("a", 0.05), 150, 200),
        (NoiseModel("a", 1e-8), 2, 3000),
        (NoiseModel("a", 0.45), 1, 5000),
        (NoiseModel("a", 1e-4), 5, 700),
        (NoiseModel("a", 0.15), 9, 1),
    ]
    want = [repr(decay_study(*call, 3)) for call in calls]
    monkeypatch.setattr(noise, "_CHUNK_CELLS", 2**12)
    assert sum(n > 2**12 // top for _, top, n in calls) >= 5
    got = [[] for _ in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda i=i: got[i].extend(repr(decay_study(*calls[i], 3)) for _ in range(3)), daemon=True)
            for i in range(len(calls))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == [[w] * 3 for w in want]


def _check_prefixes(model, low, high, n, seed):
    points, downs = _study_downs(model, high, n, seed)
    short, short_downs = _study_downs(model, low, n, seed)
    assert short == points[:low] and np.array_equal(short_downs, downs[:, :low])
    few = n // 2 + 1
    assert np.array_equal(_study_downs(model, high, few, seed)[1], downs[:few])


@pytest.mark.parametrize("model", _GRID_MODELS[:3] + _HEAVY_MODELS[:1], ids=repr)
def test_a_lower_top_or_fewer_instances_read_a_prefix(model):
    """decay_study(model, 10, n, s) is the first 10 levels of
    decay_study(model, 20, n, s), and row i's downs do not depend on n."""
    _check_prefixes(model, 10, 20, 300, 4)


@settings(max_examples=25, deadline=None)
@given(_MODELS, st.integers(1, 30), st.integers(0, 2**40))
def test_a_lower_top_or_fewer_instances_read_a_prefix_for_any_model(model, n, seed):
    """The same for any model, on either path, at small tops."""
    _check_prefixes(model, 4, 8, n, seed)


@pytest.mark.parametrize("model", _REPLAY_MODELS, ids=repr)
@pytest.mark.parametrize("level", [1, 6, 13])
def test_propagate_equals_walker_replay(model, level):
    """The same draws, ups and downs as the walker: propagate_to_level lands
    on the table state at the walker's (level, downs), within rounding of
    the walker's state, and its distance agrees to the walker's rounding."""
    tables = noise._climb_tables(model)
    worst = 0.0
    for i in range(5):
        fast_rng = derive_rng(27, "replay", level, i)
        walk_rng = derive_rng(27, "replay", level, i)
        rho, dist = propagate_to_level(model, level, fast_rng)
        walker = walker_propagate(model, level, walk_rng)
        assert fast_rng.random() == walk_rng.random()  # the same number of draws
        r00, r01, r11 = tables.state(level, walker.downs)
        assert np.array_equal(rho.mat, DensityMatrix(np.array([[r00, r01], [r01.conjugate(), r11]])).mat)
        assert dist == element_distances(tables, np.full(level, walker.downs))[-1]
        assert trace_distance(rho, walker.density_matrix()) <= 1e-12
        want = walker.distance_to_ideal()
        worst = max(worst, abs(dist - want) / _walker_bound(model, want))
    print(f"worst walker agreement {worst:.3g} of its bound")
    assert worst <= 1


@pytest.mark.parametrize("kind", ["a", "b", "c"])
def test_zero_strength_propagation_reproduces_pure_ladder(kind):
    model = NoiseModel(kind, 0.0)
    for level in (1, 4, 9):
        rho, dist = propagate_to_level(model, level, derive_rng(20, "pure", level))
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert trace_distance(rho, ideal_resource(level)) == pytest.approx(0.0, abs=1e-12)


def test_propagation_states_stay_physical():
    model = NoiseModel("a", 1e-2)
    for i in range(20):
        rho, dist = propagate_to_level(model, 6, derive_rng(21, "phys", i))
        eigs = np.linalg.eigvalsh(rho.mat)
        assert eigs.min() >= -1e-10
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-10)
        assert dist >= 0


@pytest.mark.parametrize("n", [0, -3])
def test_decay_study_requires_an_instance(n):
    with pytest.raises(ValueError, match="at least one instance"):
        decay_study(NoiseModel("a", 1e-4), 4, n, seed=1)


class _Sized(Exception):
    """What the np.arange spy raises in place of sizing an array."""


def _refuse_arange(monkeypatch):
    """Replace np.arange with a spy that records its arguments and raises
    _Sized, so no test here allocates an instance-sized array."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise _Sized(args)

    monkeypatch.setattr(np, "arange", spy)
    return calls


@pytest.mark.parametrize("model", [NoiseModel("a", 1e-4), NoiseModel("a", 0.4), NoiseModel("b", 1e-6)], ids=repr)
@pytest.mark.parametrize("n", [2**32 + 1, 5_000_000_000])
def test_decay_study_refuses_more_instances_than_the_counter_holds(model, n, monkeypatch):
    """Counter rows lie in [0, 2^32): a larger count is refused, on every
    path, before any array is sized by it."""
    calls = _refuse_arange(monkeypatch)
    with pytest.raises(ValueError, match=r"n_instances must be at most 4294967296"):
        decay_study(model, 5, n, 1)
    assert not calls


def test_decay_study_takes_as_many_instances_as_the_counter_holds(monkeypatch):
    """2^32 instances pass the checks, and the first array sized by the
    instances holds those of the first chunk alone."""
    calls = _refuse_arange(monkeypatch)
    with pytest.raises(_Sized):
        decay_study(NoiseModel("a", 1e-4), 5, 2**32, 1)
    assert calls == [(0, noise._CHUNK_CELLS // 5)]


def _traced_peak(*args):
    """tracemalloc's peak above entry of decay_study(*args), in bytes."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        decay_study(*args)
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_in_the_instances():
    """The sampled path keeps one workspace per thread and runs its
    instances through it in chunks: past the first call, the peak above
    entry of a 10^5-instance criterion-8 cell (11 chunks; 82 MB when the
    instances were taken at once) stays within twice that of a one-chunk
    call, and a 1000-instance call peaks below 0.82 MB, that call's peak
    without the workspace."""
    model, top = NoiseModel("a", 1e-4), 28
    chunk = noise._CHUNK_CELLS // top
    decay_study(model, top, chunk, 1)  # builds the tables and the workspace
    one, many = _traced_peak(model, top, chunk, 2), _traced_peak(model, top, 100_000, 3)
    small = _traced_peak(model, top, 1000, 4)
    print(f"peak above entry: {chunk} instances {one / 1e6:.3f} MB, 10^5 {many / 1e6:.3f} MB, 1000 {small / 1e6:.3f} MB")
    assert many <= 2 * one
    assert small < 0.82e6


@given(st.floats() | st.fractions() | st.text())
def test_non_integral_levels_and_counts_are_rejected(value):
    model = NoiseModel("a", 1e-4)
    with pytest.raises(ValueError, match="max_level must be an integer"):
        decay_study(model, value, 3, seed=1)
    with pytest.raises(ValueError, match="n_instances must be an integer"):
        decay_study(model, 4, value, seed=1)
    with pytest.raises(ValueError, match="target_level must be an integer"):
        propagate_to_level(model, value, derive_rng(22, "bad"))


@given(st.sampled_from([np.int8, np.int32, np.int64, np.uint16]), st.integers(1, 12))
def test_numpy_integer_levels_and_counts_are_accepted(dtype, level):
    model = NoiseModel("a", 1e-2)
    assert decay_study(model, dtype(level), dtype(3), 1) == decay_study(model, level, 3, 1)
    rho, dist = propagate_to_level(model, dtype(level), derive_rng(23, "int", level))
    rho_int, dist_int = propagate_to_level(model, level, derive_rng(23, "int", level))
    assert dist == dist_int and np.array_equal(rho.mat, rho_int.mat)


def test_propagate_requires_positive_level():
    with pytest.raises(ValueError):
        propagate_to_level(NoiseModel("a", 1e-4), 0, derive_rng(22, "bad"))


# a regression here climbs a few instances to the drawn level, so keep the
# levels small enough for that to end quickly
@given(st.integers(min_value=MAX_LEVEL + 1, max_value=5000))
def test_levels_above_the_ladder_cap_are_rejected(level):
    """Past level ~840 the ideal angles underflow; the passage tables and
    each instance's draws also grow with the top level.  Both entry points
    stop at the ladder cap before any work."""
    with pytest.raises(ValueError, match=r"max_level must be in \[1, 150\]"):
        decay_study(NoiseModel("a", 1e-4), level, 3, seed=1)
    with pytest.raises(ValueError, match=r"target_level must be in \[1, 150\]"):
        propagate_to_level(NoiseModel("a", 1e-4), level, derive_rng(22, "bad"))


@given(st.integers(max_value=0))
def test_decay_study_requires_a_positive_level(level):
    with pytest.raises(ValueError, match=r"max_level must be in \[1, 150\]"):
        decay_study(NoiseModel("a", 1e-4), level, 3, seed=1)


def test_decay_study_runs_at_the_ladder_cap():
    points = decay_study(NoiseModel("b", 1e-6), MAX_LEVEL, 2, seed=1)
    assert len(points) == MAX_LEVEL and all(d > 0 for _, d in points)


def test_decay_study_marginals_match_single_level_runs():
    """First-arrival recording gives the same per-level means as independent
    runs to each level."""
    model = NoiseModel("a", 1e-3)
    level = 4
    n = 4000
    means = dict(decay_study(model, 6, n, seed=23))
    direct = [
        propagate_to_level(model, level, derive_rng(24, "direct", i))[1]
        for i in range(n)
    ]
    mean_direct = sum(direct) / n
    var = sum((d - mean_direct) ** 2 for d in direct) / (n - 1)
    sigma = math.sqrt(var / n) * math.sqrt(2)  # both estimates fluctuate
    assert abs(means[level] - mean_direct) < 4 * sigma


def test_fit_exponential_decay_exact():
    points = [(i, 5.0 * 3.0**-i) for i in range(3, 12)]
    fit = fit_exponential_decay(points)
    assert fit.prefactor == pytest.approx(5.0, rel=1e-9)
    assert fit.base == pytest.approx(3.0, rel=1e-9)
    assert fit.fit_range == (3, 11)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_exponential_decay_slope_se_equals_scipy(seed):
    """slope_se is the standard error of the slope of ln distance against
    level, as scipy's linregress gives it, and 0 for an exact decay."""
    from scipy.stats import linregress

    rng = derive_rng(seed, "decay-fit")
    points = [(lvl, 0.3 * 2.2**-lvl * math.exp(rng.gauss(0, 0.05))) for lvl in range(5, 17)]
    fit = fit_exponential_decay(points)
    want = linregress([lvl for lvl, _ in points], [math.log(d) for _, d in points]).stderr
    assert fit.slope_se == pytest.approx(want, rel=1e-9)
    exact = fit_exponential_decay([(i, 2.0**-i) for i in range(3, 12)])
    assert exact.slope_se == pytest.approx(0.0, abs=1e-9)


def test_fit_exponential_decay_validation():
    with pytest.raises(ValueError):
        fit_exponential_decay([(1, 0.5), (2, 0.25)])
    with pytest.raises(ValueError):
        fit_exponential_decay([(1, 0.5), (2, 0.0), (3, 0.1)])


@pytest.mark.parametrize("point", [(1, math.inf), (1, math.nan), (math.inf, 0.5), (math.nan, 0.5)])
def test_fit_exponential_decay_rejects_non_finite_points(point):
    with pytest.raises(ValueError, match="points must be finite"):
        fit_exponential_decay([point, (2, 0.1), (3, 0.01)])


@pytest.mark.parametrize("kind", ["a", "b", "c"])
def test_error_suppression_small(kind):
    """Reduced-size decay check: fitted base in the expected band (the
    acceptance suite runs the full grid)."""
    model = NoiseModel(kind, 1e-4)
    points = decay_study(model, 16, 400, seed=25)
    fit = fit_exponential_decay(points[10:])
    assert isinstance(fit, DecayFit)
    assert 2.0 <= fit.base <= 2.5
