import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    NoisyWalker,
    dm_apply_gate,
    dm_measure_qubit,
    pure_resource_decay,
    walker_decay_study,
    walker_propagate,
)
from rotsynth import noise, qcore
from rotsynth.ladder import MAX_LEVEL
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
from rotsynth.seeding import derive_rng


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


def test_noisy_resource_is_cached_per_model_and_read_only():
    rho = make_noisy_resource(NoiseModel("b", 0.1))
    assert make_noisy_resource(NoiseModel("b", 0.1)) is rho
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
    vb = qcore.bloch_vector(make_noisy_resource(NoiseModel("b", delta)))
    assert np.abs(
        vb - [math.sin(math.pi / 4 + delta), 0.0, math.cos(math.pi / 4 + delta)]
    ).max() < 1e-12
    vc = qcore.bloch_vector(make_noisy_resource(NoiseModel("c", delta)))
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


# --- the climb loop against the step-by-step oracle walker ------------------

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


@pytest.mark.parametrize("model", _REPLAY_MODELS, ids=repr)
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_decay_study_equals_walker_replay(model, seed):
    """Float for float: the same draws, the same products and divisions and
    the same first-arrival distances as one walker step at a time."""
    assert decay_study(model, 14, 40, seed) == walker_decay_study(model, 14, 40, seed)


_THRESHOLD = noise._LOCKSTEP_MIN_INSTANCES


def _spy(monkeypatch, name):
    """Record the arguments of every call to noise.<name>."""
    calls = []
    original = getattr(noise, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(noise, name, spy)
    return calls


@pytest.mark.parametrize("model", _REPLAY_MODELS, ids=repr)
@pytest.mark.parametrize("n", [1, 10, 99, 100, 101, 149, 150, 151])
def test_decay_study_paths_equal_walker_replay(model, n, monkeypatch):
    """The loop and the numpy lockstep, each forced at every count, give the
    walker's bytes."""
    expected = walker_decay_study(model, 14, n, 7)
    for threshold in (n + 1, n):
        monkeypatch.setattr(noise, "_LOCKSTEP_MIN_INSTANCES", threshold)
        runs = _spy(monkeypatch, "_lockstep_climbs")
        assert decay_study(model, 14, n, 7) == expected
        assert len(runs) == (threshold == n)


@pytest.mark.parametrize("n", [_THRESHOLD - 1, _THRESHOLD, _THRESHOLD + 1])
def test_decay_study_switches_path_at_threshold(n, monkeypatch):
    runs = _spy(monkeypatch, "_lockstep_climbs")
    model = NoiseModel("b", 1e-4)
    assert decay_study(model, 14, n, 7) == walker_decay_study(model, 14, n, 7)
    assert len(runs) == (n >= _THRESHOLD)


@pytest.mark.parametrize("model", _REPLAY_MODELS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 40])
def test_lockstep_equals_walker_replay_at_small_counts(model, n, monkeypatch):
    monkeypatch.setattr(noise, "_LOCKSTEP_MIN_INSTANCES", 1)
    for seed in (1, 2):
        assert decay_study(model, 14, n, seed) == walker_decay_study(model, 14, n, seed)


@pytest.mark.parametrize("n", [_THRESHOLD - 1, _THRESHOLD])
def test_instances_that_outrun_their_block_continue_their_rows(n, monkeypatch):
    """Under a 0.2 mixture some climbs need more than the first block's
    2 * top + 8 draws: on both paths they continue their own counter rows
    from the draw they reached, and the bytes still match the walker."""
    blocks = _spy(monkeypatch, "counter_uniforms")
    model = NoiseModel("a", 0.2)
    assert decay_study(model, 14, n, 1) == walker_decay_study(model, 14, n, 1)
    spans = [(len(rows), start, count) for _, rows, start, count in blocks]
    assert spans[0] == (n, 0, 36)
    more = spans[1:]
    assert more and all(rows < n and start >= 36 and count == start for rows, start, count in more)
    if n < _THRESHOLD:
        assert all(rows == 1 for rows, _, _ in more)


# the criterion-8 grid (strength: top level) and three more strengths
_PURE_GRID = {1e-4: 28, 1e-6: 22, 1e-8: 16, 0.0: 28, 1e-3: 28, 0.3: 28}


@pytest.mark.parametrize("lockstep", [False, True], ids=["loop", "lockstep"])
@pytest.mark.parametrize("kind", ["b", "c"])
def test_pure_resource_means_equal_the_exact_first_arrival_states(kind, lockstep, monkeypatch):
    """Models b and c: both paths give the closed-form distances of
    oracles.pure_resource_decay, up to rounding."""
    n = 1000
    monkeypatch.setattr(noise, "_LOCKSTEP_MIN_INSTANCES", n if lockstep else n + 1)
    runs = _spy(monkeypatch, "_lockstep_climbs")
    worst = 0.0
    for strength, top in _PURE_GRID.items():
        model = NoiseModel(kind, strength)
        exact = pure_resource_decay(model, top)
        for seed in (1, 5):
            for (_, mean), (_, want) in zip(decay_study(model, top, n, seed), exact, strict=True):
                worst = max(worst, abs(mean - want) / (1e-9 * want + 1e-15))
    print(f"model {kind}: worst |mean - exact| is {worst:.3f} of its bound")
    assert worst <= 1
    assert len(runs) == (2 * len(_PURE_GRID) if lockstep else 0)


@pytest.mark.parametrize("lockstep", [False, True], ids=["loop", "lockstep"])
def test_mixture_means_depend_on_the_seed(lockstep, monkeypatch):
    """Model a's arrivals above level 1 depend on the draws, so a different
    seed moves the mean at every such level: the stream is read.  (Every
    first arrival at level 1 merges two fresh resources.)"""
    n = 1000
    monkeypatch.setattr(noise, "_LOCKSTEP_MIN_INSTANCES", n if lockstep else n + 1)
    model = NoiseModel("a", 1e-4)
    one, two = decay_study(model, 28, n, 1), decay_study(model, 28, n, 2)
    assert one[0] == two[0]
    assert all(a != b for (_, a), (_, b) in zip(one[1:], two[1:]))


@pytest.mark.parametrize("model", _REPLAY_MODELS, ids=repr)
@pytest.mark.parametrize("level", [1, 6, 13])
def test_propagate_equals_walker_replay(model, level):
    for i in range(5):
        fast_rng = derive_rng(27, "replay", level, i)
        walk_rng = derive_rng(27, "replay", level, i)
        rho, dist = propagate_to_level(model, level, fast_rng)
        rho_walk, dist_walk = walker_propagate(model, level, walk_rng)
        assert dist == dist_walk
        assert np.array_equal(rho.mat, rho_walk.mat)
        assert fast_rng.random() == walk_rng.random()  # the same number of draws


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
    """Past level ~840 the ideal angles underflow; the lockstep block also
    grows with the top level.  Both entry points stop at the ladder cap
    before any work."""
    with pytest.raises(ValueError, match=r"target level must be in \[1, 150\]"):
        decay_study(NoiseModel("a", 1e-4), level, 3, seed=1)
    with pytest.raises(ValueError, match=r"target level must be in \[1, 150\]"):
        propagate_to_level(NoiseModel("a", 1e-4), level, derive_rng(22, "bad"))


@given(st.integers(max_value=0))
def test_decay_study_requires_a_positive_level(level):
    with pytest.raises(ValueError, match=r"target level must be in \[1, 150\]"):
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


def test_fit_exponential_decay_validation():
    with pytest.raises(ValueError):
        fit_exponential_decay([(1, 0.5), (2, 0.25)])
    with pytest.raises(ValueError):
        fit_exponential_decay([(1, 0.5), (2, 0.0), (3, 0.1)])


@pytest.mark.parametrize("kind", ["a", "b", "c"])
def test_error_suppression_small(kind):
    """Reduced-size decay check: fitted base in the expected band (the
    acceptance suite runs the full grid)."""
    model = NoiseModel(kind, 1e-4)
    points = decay_study(model, 16, 400, seed=25)
    fit = fit_exponential_decay(points[10:])
    assert isinstance(fit, DecayFit)
    assert 2.0 <= fit.base <= 2.5
