import functools
import itertools
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    CoinRecorder,
    apply_random_rotation,
    climb_law_prefix,
    coin_draws,
    min_online_rounds,
    nearest_state,
)
from rotsynth import synthesis
from rotsynth.ladder import (
    ALL_FAMILIES,
    MAX_LEVEL,
    Family,
    expected_climb_cost,
    rotation_angle,
    simulate_climb,
)
from rotsynth.seeding import counter_draws, counter_rows, derive_rng, derive_seed
from rotsynth.synthesis import (
    QUARTER_PI,
    LockstepResult,
    SynthesisConfig,
    SynthesisResult,
    _angle_table,
    _AngleTable,
    _climb_costs,
    _nearest_states,
    _state_bins,
    auto_max_level,
    lockstep_synthesize,
    min_online_synthesize,
    pick_state,
    reduce_by_clifford,
    synthesize,
)

H_ONLY = SynthesisConfig(epsilon=1e-6)


# --- angle plumbing ---------------------------------------------------------


@given(st.floats(-50, 50))
@settings(max_examples=200)
def test_reduce_by_clifford_properties(x):
    reduced, count = reduce_by_clifford(x)
    assert -QUARTER_PI - 1e-12 < reduced <= QUARTER_PI + 1e-12
    # the residual mod 2*pi lies in [-pi, pi], which leaves at most a half
    # turn to fold
    assert 0 <= count <= 2
    # equivalent modulo quarter turns
    k = (x - reduced) / (math.pi / 2)
    assert math.isclose(k, round(k), abs_tol=1e-9)


def test_reduce_by_clifford_examples():
    reduced, count = reduce_by_clifford(math.pi / 2)
    assert reduced == pytest.approx(0.0, abs=1e-15)
    assert count == 1
    reduced, count = reduce_by_clifford(math.pi / 5)
    assert reduced == pytest.approx(math.pi / 5, abs=1e-15)
    assert count == 0
    reduced, count = reduce_by_clifford(-0.9 * math.pi)
    assert reduced == pytest.approx(0.1 * math.pi, abs=1e-12)
    assert count == 2
    # boundary angle stays put
    reduced, count = reduce_by_clifford(QUARTER_PI)
    assert reduced == pytest.approx(QUARTER_PI, abs=1e-15)
    assert count == 0
    # a half turn folds to +0.0 with two quarter turns, also from -pi, which
    # the remainder mod 2*pi leaves at -pi: -pi + pi is +0.0
    for turns in (1, -1, 3, -3):
        reduced, count = reduce_by_clifford(turns * math.pi)
        assert (reduced, math.copysign(1.0, reduced), count) == (0.0, 1.0, 2)
    # 1001*pi rounds off an odd multiple of pi; it and the float neighbours
    # of every odd multiple above fold to within rounding of zero
    for turns in (1, -1, 3, -3, 1001, -1001):
        x = turns * math.pi
        for near in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
            reduced, count = reduce_by_clifford(near)
            assert abs(reduced) < 1e-12 and count == 2


def _fold_edges() -> list[float]:
    """Signed zeros and subnormals, and +-pi/4, the half-way multiples of
    pi/2 (odd multiples of pi/4), +-pi and +-2 pi, each with its float
    neighbours."""
    subnormals = [5e-324, 1e-310, math.ulp(0.0) * 2**51]
    centres = [QUARTER_PI * k for k in (1, 3, 5, 7, 9)] + [math.pi, 2 * math.pi]
    near = [y for x in centres for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    return [s * x for x in [0.0, *subnormals, *near] for s in (1.0, -1.0)]


def _same_float(a: float, b: float) -> bool:
    """The same bytes, sign included, both Python floats."""
    return type(a) is type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes()


def _in_fold_range(x: float) -> bool:
    return -QUARTER_PI < x <= QUARTER_PI and not (x == 0.0 and math.copysign(1.0, x) < 0)


@pytest.mark.parametrize(
    "r",
    sorted(
        {y for x in _fold_edges() for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
         if _in_fold_range(x) and _in_fold_range(y)}
    ),
)
def test_the_fold_is_the_identity_within_its_range(r):
    """The premise of the planners' guard, which skips reduce_by_clifford
    while a residual stays in (-pi/4, pi/4]: there, at the in-range entries
    of _fold_edges and their float neighbours, it returns the residual's own
    bytes and no correction."""
    folded, k = reduce_by_clifford(r)
    assert _same_float(folded, r) and type(k) is int and k == 0


@given(st.floats(-QUARTER_PI, QUARTER_PI, exclude_min=True))
@settings(max_examples=300)
def test_the_fold_is_the_identity_anywhere_within_its_range(r):
    assume(_in_fold_range(r))
    folded, k = reduce_by_clifford(r)
    assert _same_float(folded, r) and type(k) is int and k == 0


@pytest.mark.parametrize(
    "r, want",
    [
        (-QUARTER_PI, (QUARTER_PI, 1)),
        (math.nextafter(-QUARTER_PI, -math.inf), None),
        (math.nextafter(QUARTER_PI, math.inf), None),
        (-0.0, (0.0, 0)),
    ],
    ids=["-pi/4", "below -pi/4", "above pi/4", "-0.0"],
)
def test_the_fold_moves_what_lies_outside_its_range(r, want):
    """-pi/4 folds to +pi/4 with one correction, a float past either end
    with one quarter turn into the range, and -0.0 to +0.0: each is outside
    the guard, so the planners fold it."""
    assert not _in_fold_range(r)
    folded, k = reduce_by_clifford(r)
    assert _in_fold_range(folded) and not _same_float(folded, r)
    if want is None:
        assert k == 1 and math.isclose(abs(r - folded), 2 * QUARTER_PI)
    else:
        assert _same_float(folded, want[0]) and k == want[1]


def test_reduce_by_clifford_is_the_lockstep_fold():
    """At every edge value the lockstep's numpy fold (np.fmod into
    [-pi, pi], then np.rint's quarter turns) gives reduce_by_clifford's
    residual bytes and corrections: an accuracy above pi/4 finishes every
    sample at its first fold."""
    targets = _fold_edges()
    folded = [reduce_by_clifford(x) for x in targets]
    lockstep = lockstep_synthesize(targets, [1.0] * len(targets), (Family.H,), coin_draws([[]] * len(targets)))
    assert lockstep.residuals.tobytes() == np.array([r for r, _ in folded]).tobytes()
    assert lockstep.corrections.tolist() == [k for _, k in folded]
    assert all(math.copysign(1.0, r) == 1.0 for r, _ in folded if r == 0.0)


def test_zero_residuals_replay_in_the_lockstep():
    """Targets that fold to zero: synthesize's residual is the lockstep's,
    +0.0, also from -0.0 and -2 pi, whose remainder mod 2 pi is -0.0."""
    targets = [-0.0, -2 * math.pi, -math.pi / 2]
    results = [synthesize(t, H_ONLY, derive_rng(9, "zero", i)) for i, t in enumerate(targets)]
    lockstep = lockstep_synthesize(targets, [H_ONLY.epsilon] * 3, (Family.H,), coin_draws([[]] * 3))
    assert lockstep.residuals.tobytes() == np.array([r.residual for r in results]).tobytes()
    assert lockstep.corrections.tolist() == [r.clifford_corrections for r in results]


def test_apply_random_rotation_both_branches():
    rng = derive_rng(1, "rot")
    seen = set()
    for _ in range(100):
        new, sign = apply_random_rotation(math.pi / 4, math.pi / 4, rng)
        if sign > 0:
            assert new == pytest.approx(0.0, abs=1e-15)
        else:
            assert new == pytest.approx(math.pi / 2, abs=1e-15)
        seen.add(sign)
    assert seen == {1, -1}


def test_apply_random_rotation_rejects_nonpositive():
    with pytest.raises(ValueError):
        apply_random_rotation(0.1, 0.0, derive_rng(1, "bad"))


def test_failed_t_gate_fixed_by_free_phase_gate():
    # the pi/4 state applies -pi/4 instead: the residual pi/2 is one free S
    result = synthesize(math.pi / 4, H_ONLY, _forced_sign(-1))
    assert result.applied == ((Family.H, 0, -1),)
    assert result.residual == pytest.approx(0.0, abs=1e-15)
    assert result.clifford_corrections == 1


class _forced_sign:
    """Minimal rng stub: every draw picks the chosen rotation sign."""

    def __init__(self, sign):
        self._value = 0.0 if sign > 0 else 1.0 - 1e-12

    def random(self):
        return self._value


# --- state picking ----------------------------------------------------------


def test_auto_max_level():
    for eps in (1e-4, 1e-8, 1e-12):
        level = auto_max_level(eps)
        assert rotation_angle(Family.H, level) <= eps / 2
        assert rotation_angle(Family.H, level - 1) > eps / 2
    assert auto_max_level(1e-60) == 150


def test_pick_state_exact_match():
    config = SynthesisConfig(epsilon=1e-8)
    assert pick_state(rotation_angle(Family.H, 5), config) == (Family.H, 5)


def test_pick_state_multi_family_example():
    config = SynthesisConfig(epsilon=1e-8, families=ALL_FAMILIES)
    # nearest rotation to 0.60 among all level-0/1 angles is 0.5698
    assert pick_state(0.60, config) == (Family.PSI1, 0)


def test_pick_state_small_residual():
    config = SynthesisConfig(epsilon=1e-6)
    assert pick_state(7.2e-4, config) == (Family.H, 8)
    # below epsilon the pick is still the nearest state of the whole ladder
    assert pick_state(1e-9, config) == (Family.H, 23)
    assert pick_state(1e-9, SynthesisConfig(epsilon=1e-6, families=ALL_FAMILIES)) == (Family.PSI1, 23)


def test_pick_state_uses_absolute_residual():
    config = SynthesisConfig(epsilon=1e-8, families=ALL_FAMILIES)
    assert pick_state(-0.60, config) == pick_state(0.60, config)


def test_pick_state_brute_force_agreement():
    config = SynthesisConfig(epsilon=1e-10, families=ALL_FAMILIES)
    max_level = config.max_level
    rng = derive_rng(2, "brute")
    for _ in range(300):
        residual = (rng.random() - 0.5) * math.pi / 2
        if abs(residual) < 1e-10:
            continue
        best = min(
            (
                (abs(abs(residual) - rotation_angle(f, l)), f.value, l)
                for f in config.families
                for l in range(max_level + 1)
            ),
        )
        fam, lvl = pick_state(residual, config)
        assert (abs(abs(residual) - rotation_angle(fam, lvl))) == pytest.approx(
            best[0], abs=1e-15
        )


FAMILY_SUBSETS = [s for r in range(1, 5) for s in itertools.combinations(ALL_FAMILIES, r)]


def test_pick_state_matches_brute_force_for_every_subset_and_level():
    """The table lookup against the brute-force minimum of (distance,
    expected cost, family rank, level) over the enabled states, for every
    family subset and level cap.  Residuals include random ones, exact state
    angles, midpoints of neighbouring angles (some of them exact ties), and
    residuals below the finest and above the coarsest enabled angle."""
    rng = random.Random(20)
    exact_ties = 0
    for families in FAMILY_SUBSETS:
        states = [
            (rotation_angle(f, l), expected_climb_cost(f, l), ALL_FAMILIES.index(f), l, f)
            for f in families
            for l in range(MAX_LEVEL + 1)
        ]
        for max_level in range(MAX_LEVEL + 1):
            enabled = sorted(s for s in states if s[3] <= max_level)
            angles = [s[0] for s in enabled]
            config = SynthesisConfig(epsilon=1e-3, families=families, max_level=max_level)
            j = rng.randrange(len(angles) - 1) if len(angles) > 1 else 0
            midpoint = (angles[j] + angles[j + 1]) / 2 if len(angles) > 1 else angles[0]
            if len(angles) > 1 and midpoint - angles[j] == angles[j + 1] - midpoint:
                exact_ties += 1
            residuals = [
                angles[0] * math.exp(rng.uniform(0, math.log(2 / angles[0]))),
                angles[0] * math.exp(rng.uniform(0, math.log(2 / angles[0]))),
                rng.choice(angles),
                midpoint,
                angles[0] / 3,
                rng.uniform(angles[-1], math.pi),
            ]
            for residual in residuals:
                best = min((abs(residual - s[0]), s[1], s[2], s[3], s[4]) for s in enabled)
                assert pick_state(residual, config) == (best[4], best[3])
                assert pick_state(-residual, config) == (best[4], best[3])
    assert exact_ties > 100


def test_pick_state_ignores_epsilon_depth():
    # picking never rejects a shallow ladder; only synthesize does
    assert pick_state(0.1, SynthesisConfig(epsilon=1e-12, max_level=0)) == (Family.H, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pick_state_refuses_a_residual_that_is_not_finite(bad):
    """No state is nearest to these: a count of the thresholds would pick
    the coarsest state for all three."""
    with pytest.raises(ValueError, match="^residual must be finite$"):
        pick_state(bad, SynthesisConfig(epsilon=1e-6, families=ALL_FAMILIES))


def _auto_level_scan(epsilon):
    for level in range(MAX_LEVEL + 1):
        if rotation_angle(Family.H, level) <= epsilon / 2:
            return level
    return MAX_LEVEL


def test_auto_max_level_matches_linear_scan():
    rng = random.Random(21)
    epsilons = [math.exp(rng.uniform(math.log(1e-70), math.log(10))) for _ in range(2000)]
    for level in range(MAX_LEVEL + 1):
        boundary = 2 * rotation_angle(Family.H, level)
        epsilons += [boundary, math.nextafter(boundary, 0), math.nextafter(boundary, math.inf)]
    for epsilon in epsilons:
        assert auto_max_level(epsilon) == _auto_level_scan(epsilon)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
def test_auto_max_level_refuses_a_bad_accuracy(bad):
    with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
        auto_max_level(bad)


# --- synthesize -------------------------------------------------------------


def _replay_synthesize(target, config, rng):
    """The planner composed step by step from its public pieces: the oracle
    for synthesize, which must draw the same uniforms in the same order and
    bill the same costs."""
    residual, corrections = reduce_by_clifford(target)
    applied = []
    offline = 0.0
    while abs(residual) > config.epsilon:
        fam, lvl = pick_state(residual, config)
        offline += simulate_climb(fam, lvl, rng)
        residual, sign = apply_random_rotation(residual, rotation_angle(fam, lvl), rng)
        applied.append((fam, lvl, sign))
        residual, k = reduce_by_clifford(residual)
        corrections += k
    return SynthesisResult(tuple(applied), residual, len(applied), offline, corrections)


def _outcome(run, *args):
    """run(*args), or the message of the ValueError it raises."""
    try:
        return run(*args)
    except ValueError as exc:
        return str(exc)


def test_synthesize_matches_step_by_step_replay():
    """synthesize equals the replay.  Under the default cap, the whole
    ladder, both planners also equal their runs capped at
    auto_max_level(epsilon): a state finer than epsilon/2 is never the
    nearest to a residual above epsilon.  The last epsilons reach the
    level-150 cap, and those below twice the finest enabled level-150
    rotation raise the same message either way."""
    rng = random.Random(22)
    for i in range(330):
        families = rng.choice(FAMILY_SUBSETS)
        epsilon = 10 ** -rng.uniform(1, 14) if i < 300 else 10 ** -rng.uniform(50, 60)
        max_level = MAX_LEVEL if i % 3 else min(MAX_LEVEL, auto_max_level(epsilon) + rng.randrange(4))
        config = SynthesisConfig(epsilon=epsilon, families=families, max_level=max_level)
        target = rng.uniform(-10, 10)
        if max_level == MAX_LEVEL:
            capped = replace(config, max_level=auto_max_level(epsilon))
            for run in (synthesize, lambda t, c, r: min_online_synthesize(t, epsilon, c, r)):
                assert _outcome(run, target, config, random.Random(i)) == _outcome(
                    run, target, capped, random.Random(i)
                )
        result = _outcome(synthesize, target, config, random.Random(i))
        if isinstance(result, SynthesisResult):
            assert result == _replay_synthesize(target, config, random.Random(i))
        else:
            # the replay has no depth check, and would not stop
            assert epsilon < 2 * min(rotation_angle(f, MAX_LEVEL) for f in families)
    # the ends of the fold's range and their neighbours, which the replay,
    # folding after every step, judges the guarded loop at
    edges = [y for x in (QUARTER_PI, -QUARTER_PI) for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
    for i, (target, families) in enumerate(itertools.product(edges, FAMILY_SUBSETS)):
        config = SynthesisConfig(epsilon=10 ** -rng.uniform(1, 14), families=families)
        result = synthesize(target, config, random.Random(i))
        replay = _replay_synthesize(target, config, random.Random(i))
        assert result == replay and _same_float(result.residual, replay.residual)


def test_a_step_onto_minus_quarter_pi_is_folded():
    """From a target of theta_1 - pi/4 the H planner's first pick is level
    1, and heads lands the residual on -pi/4 exactly (Sterbenz), the one
    point the fold's range leaves out: synthesize, its replay, which folds
    after every step, and the lockstep, whose few samples run in _finish,
    fold it to +pi/4 with one correction alike."""
    angle = rotation_angle(Family.H, 1)
    target = angle - QUARTER_PI
    assert target - angle == -QUARTER_PI and pick_state(target, H_ONLY) == (Family.H, 1)
    results = [synthesize(target, H_ONLY, derive_rng(40, "edge", j)) for j in range(16)]
    assert any(r.applied[0] == (Family.H, 1, 1) for r in results)
    for j, result in enumerate(results):
        assert result == _replay_synthesize(target, H_ONLY, derive_rng(40, "edge", j))
    coins = [[s for *_, s in r.applied] for r in results]
    lockstep = lockstep_synthesize([target] * 16, [H_ONLY.epsilon] * 16, (Family.H,), coin_draws(coins))
    assert lockstep.corrections.tolist() == [r.clifford_corrections for r in results]
    assert lockstep.residuals.tobytes() == np.array([r.residual for r in results]).tobytes()


def test_synthesize_quarter_turn_target():
    # direct success or failure fixed by a free phase gate: either way one
    # resource state and residual 0
    for i in range(20):
        result = synthesize(math.pi / 4, H_ONLY, derive_rng(3, "t", i))
        assert result.online_cost == 1
        assert result.offline_cost == 1.0
        assert abs(result.residual) < 1e-12
        assert result.applied[0][:2] == (Family.H, 0)


def test_synthesize_zero_target_needs_nothing():
    result = synthesize(0.0, H_ONLY, derive_rng(4, "z"))
    assert result.online_cost == 0
    assert result.offline_cost == 0.0
    assert result.residual == 0.0


def test_synthesize_free_clifford_target():
    result = synthesize(math.pi / 2, H_ONLY, derive_rng(5, "c"))
    assert result.online_cost == 0
    assert result.clifford_corrections == 1
    assert abs(result.residual) < 1e-15


@pytest.mark.parametrize("seed", range(3))
def test_synthesize_reaches_accuracy(seed):
    rng = derive_rng(6, "acc", seed)
    for i in range(200):
        eps = 10 ** (-rng.random() * 8 - 2)
        target = rng.random() * 2 * math.pi
        config = SynthesisConfig(epsilon=eps, families=ALL_FAMILIES if i % 2 else (Family.H,))
        result = synthesize(target, config, rng)
        assert abs(result.residual) <= eps
        assert result.online_cost == len(result.applied)
        assert result.offline_cost >= result.online_cost


def test_offline_cost_bounds_h_levels():
    rng = derive_rng(7, "lvl")
    for _ in range(50):
        target = rng.random() * 2 * math.pi
        result = synthesize(target, SynthesisConfig(epsilon=1e-6), rng)
        floor = sum(lvl + 1 for _, lvl, _ in result.applied)
        assert result.offline_cost >= floor


def test_synthesize_deterministic_for_seed():
    config = SynthesisConfig(epsilon=1e-9, families=ALL_FAMILIES)
    a = synthesize(1.234, config, derive_rng(8, "d"))
    b = synthesize(1.234, config, derive_rng(8, "d"))
    assert a == b


def test_sign_symmetry_distributions():
    """Costs of synthesizing x and -x are identically distributed."""
    from scipy.stats import ks_2samp

    config = SynthesisConfig(epsilon=1e-8)
    pos = [
        synthesize(0.9, config, derive_rng(9, "p", i)).online_cost for i in range(800)
    ]
    neg = [
        synthesize(-0.9, config, derive_rng(9, "n", i)).online_cost for i in range(800)
    ]
    assert ks_2samp(pos, neg).pvalue > 0.01


def test_monotone_expected_progress():
    """Mean |residual| after step k+1 does not exceed that after step k
    (within 3 standard errors), tracked over an ensemble."""
    config = SynthesisConfig(epsilon=1e-9)
    by_step: dict[int, list[float]] = {}
    for i in range(400):
        rng = derive_rng(10, "mono", i)
        target = rng.random() * 2 * math.pi
        # replay the loop manually to observe intermediate residuals
        residual, _ = reduce_by_clifford(target)
        step = 0
        while abs(residual) > config.epsilon and step < 25:
            fam, lvl = pick_state(residual, config)
            residual, _ = apply_random_rotation(residual, rotation_angle(fam, lvl), rng)
            residual, _ = reduce_by_clifford(residual)
            step += 1
            by_step.setdefault(step, []).append(abs(residual))
    for k in range(1, 20):
        a, b = by_step.get(k), by_step.get(k + 1)
        if not a or not b or len(b) < 50:
            break
        mean_a = sum(a) / len(a)
        mean_b = sum(b) / len(b)
        var_b = sum((x - mean_b) ** 2 for x in b) / (len(b) - 1)
        assert mean_b <= mean_a + 3 * math.sqrt(var_b / len(b))


# --- min-online variant -----------------------------------------------------


def test_min_online_reaches_accuracy_and_counts_uses():
    config = SynthesisConfig(epsilon=1e-7, families=ALL_FAMILIES)
    rng = derive_rng(11, "mo")
    for _ in range(100):
        target = rng.random() * 2 * math.pi
        result = min_online_synthesize(target, 1e-7, config, rng)
        assert abs(result.residual) <= 1e-7
        assert result.applied == ()
        assert result.offline_cost >= result.online_cost


def test_min_online_geometric_distribution():
    from scipy.stats import chisquare

    config = SynthesisConfig(epsilon=1e-6, families=ALL_FAMILIES)
    counts: dict[int, int] = {}
    n = 10_000
    for i in range(n):
        rng = derive_rng(12, "geo", i)
        target = rng.random() * 2 * math.pi
        result = min_online_synthesize(target, 1e-6, config, rng)
        counts[result.online_cost] = counts.get(result.online_cost, 0) + 1
    mean = sum(k * v for k, v in counts.items()) / n
    assert 1.9 <= mean <= 2.1
    # chi-square against P(n) = 2^-n with a pooled tail
    kmax = 8
    observed = [counts.get(k, 0) for k in range(1, kmax)]
    observed.append(n - sum(observed))
    expected = [n * 2.0**-k for k in range(1, kmax)]
    expected.append(n - sum(expected))
    assert chisquare(observed, expected).pvalue > 0.01


def test_min_online_free_target():
    result = min_online_synthesize(math.pi, 1e-6, SynthesisConfig(epsilon=1e-6), derive_rng(13, "f"))
    assert result.online_cost == 0
    assert result.offline_cost == 0.0


def test_min_online_rejects_bad_eps():
    with pytest.raises(ValueError):
        min_online_synthesize(1.0, 0.0, H_ONLY, derive_rng(14, "e"))


def _min_online_case(rng: random.Random, i: int) -> tuple[float, float, SynthesisConfig]:
    """Case i of the judge below: families alternate between H and all four,
    epsilon is log-uniform in 1e-12..1e-2, every fourth target is a free
    multiple of pi/2, every third config caps the ladder at most two levels
    below the depth epsilon needs, and one case in seven passes an eps that
    is not config.epsilon: a bad one, a too fine one or just another one."""
    families = ALL_FAMILIES if i % 2 else (Family.H,)
    epsilon = math.exp(rng.uniform(math.log(1e-12), math.log(1e-2)))
    target = rng.randrange(-9, 10) * (math.pi / 2) if i % 4 == 0 else rng.uniform(-8, 8)
    max_level = MAX_LEVEL
    if i % 3 == 0:
        need = next(lvl for lvl in range(MAX_LEVEL + 1) if min(rotation_angle(f, lvl) for f in families) <= epsilon / 2)
        max_level = rng.randint(max(0, need - 2), MAX_LEVEL)
    eps = epsilon
    if i % 7 == 5:
        eps = rng.choice([0.0, -epsilon, math.nan, math.inf, 1e-300, epsilon * 1.5])
    return target, eps, SynthesisConfig(epsilon=epsilon, families=families, max_level=max_level)


def test_min_online_matches_its_rounds_oracle():
    """min_online_synthesize, one greedy loop on one validated table, gives
    the bytes, errors and generator state of today's rounds oracle, where
    each ancilla is a whole synthesize call."""
    cases = random.Random(22)
    seen = {"result": 0, "free": 0, "rounds": 0}
    errors = set()
    for i in range(2400):
        target, eps, config = _min_online_case(cases, i)
        outcomes = []
        for run in (min_online_synthesize, min_online_rounds):
            rng = random.Random(i)
            try:
                outcome = repr(run(target, eps, config, rng))
            except ValueError as error:
                outcome = f"ValueError: {error}"
            outcomes.append((outcome, rng.getstate()))
        assert outcomes[0] == outcomes[1], (i, target, eps, config)
        outcome = outcomes[0][0]
        if outcome.startswith("ValueError"):
            errors.add(re.sub(r"-?\b(?:\d[\d.]*(?:e[-+]\d+)?|nan|inf)\b", "#", outcome))
        else:
            seen["result"] += 1
            seen["free"] += "online_cost=0," in outcome
            seen["rounds"] += "online_cost=1," not in outcome
    assert min(seen.values()) >= 100, seen
    assert errors == {
        "ValueError: epsilon must be positive and finite",
        "ValueError: finest enabled rotation # exceeds epsilon/#; raise max_level",
        "ValueError: epsilon # is below what # levels reach: finest enabled rotation # exceeds epsilon/#",
        "ValueError: eps # differs from config.epsilon #",
    }, errors


# --- config validation ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SynthesisConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SynthesisConfig(epsilon=1e-6, families=())
    with pytest.raises(ValueError):
        SynthesisConfig(epsilon=1e-6, max_level=1000)
    assert SynthesisConfig(epsilon=1e-6).max_level == MAX_LEVEL


@pytest.mark.parametrize(
    "families, bad",
    [
        (("h",), "h"),
        ((Family.H, "psi0"), "psi0"),
        ((Family.PSI2, None), None),
        # not an iterable of families at all: the error names the argument
        (Family.H, Family.H),
        (3, 3),
        (None, None),
    ],
)
def test_config_rejects_families_that_are_not_family_members(families, bad):
    with pytest.raises(ValueError, match=f"^families must .* got {re.escape(repr(bad))}$"):
        SynthesisConfig(epsilon=1e-6, families=families)


@pytest.mark.parametrize(
    "families, repeated",
    [((Family.H, Family.H), "h"), ((Family.PSI0, Family.H, Family.PSI2, Family.PSI0), "psi0")],
)
def test_config_and_lockstep_reject_a_repeated_family(families, repeated):
    """A repeated family would double its states in the angle table and
    its laws in the lockstep's tables."""
    message = f"^family '{repeated}' is repeated in families$"
    with pytest.raises(ValueError, match=message):
        SynthesisConfig(epsilon=1e-6, families=families)
    with pytest.raises(ValueError, match=message):
        lockstep_synthesize([0.5], [1e-6], families, _no_draws)


def test_config_stores_families_as_a_tuple():
    config = SynthesisConfig(epsilon=1e-6, families=list(ALL_FAMILIES))
    assert config.families == ALL_FAMILIES
    assert config == SynthesisConfig(epsilon=1e-6, families=ALL_FAMILIES)
    assert hash(config) == hash(SynthesisConfig(epsilon=1e-6, families=ALL_FAMILIES))


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(NON_FINITE)
def test_config_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError):
        SynthesisConfig(epsilon=epsilon)


@given(NON_FINITE)
def test_min_online_rejects_non_finite_eps(eps):
    with pytest.raises(ValueError):
        min_online_synthesize(1.0, eps, H_ONLY, derive_rng(16, "e"))


@given(st.floats(1e-14, 1e-2), st.floats(1e-14, 1e-2), NON_FINITE, st.sampled_from(FAMILY_SUBSETS))
def test_min_online_rejects_eps_differing_from_config(config_eps, eps, bad_eps, families):
    """eps must equal config.epsilon; a bad eps fails its own validation first."""
    assume(eps != config_eps)
    config = SynthesisConfig(epsilon=config_eps, families=families)
    with pytest.raises(ValueError, match="differs from config.epsilon"):
        min_online_synthesize(1.0, eps, config, derive_rng(21, "m"))
    with pytest.raises(ValueError, match="positive and finite"):
        min_online_synthesize(1.0, bad_eps, config, derive_rng(21, "m"))


@given(NON_FINITE, st.sampled_from(FAMILY_SUBSETS))
def test_non_finite_targets_rejected(target, families):
    config = SynthesisConfig(epsilon=1e-6, families=families)
    with pytest.raises(ValueError):
        synthesize(target, config, derive_rng(17, "t"))
    with pytest.raises(ValueError):
        min_online_synthesize(target, 1e-6, config, derive_rng(17, "t"))


@given(
    st.floats(1e-14, 1e-2),
    st.sampled_from(FAMILY_SUBSETS),
    st.integers(0, MAX_LEVEL),
    st.floats(-4, 4),
)
@settings(max_examples=200)
def test_shallow_ladder_rejected_iff_finest_rotation_too_coarse(epsilon, families, max_level, target):
    config = SynthesisConfig(epsilon=epsilon, families=families, max_level=max_level)
    finest = min(rotation_angle(f, max_level) for f in families)
    if finest > epsilon / 2:
        with pytest.raises(ValueError):
            synthesize(target, config, derive_rng(18, "s"))
    else:
        assert abs(synthesize(target, config, derive_rng(18, "s")).residual) <= epsilon


@given(
    st.floats(1e-14, 1e-2),
    st.sampled_from(FAMILY_SUBSETS),
    st.integers(0, MAX_LEVEL),
    st.floats(-4, 4),
)
@settings(max_examples=200)
def test_min_online_keeps_the_level_cap(epsilon, families, max_level, target):
    """min_online_synthesize accepts and rejects a level cap by the rule
    synthesize follows above."""
    config = SynthesisConfig(epsilon=epsilon, families=families, max_level=max_level)
    finest = min(rotation_angle(f, max_level) for f in families)
    if finest > epsilon / 2:
        with pytest.raises(ValueError):
            min_online_synthesize(target, epsilon, config, derive_rng(18, "m"))
    else:
        assert abs(min_online_synthesize(target, epsilon, config, derive_rng(18, "m")).residual) <= epsilon


def test_shallow_ladder_example():
    # a level-2 cap at 1e-6 once ran millions of online uses before stopping
    raise_cap = r"^finest enabled rotation 1\.419e-01 exceeds epsilon/2; raise max_level$"
    with pytest.raises(ValueError, match=raise_cap):
        synthesize(1.0, SynthesisConfig(epsilon=1e-6, max_level=2), derive_rng(19, "x"))
    with pytest.raises(ValueError, match=raise_cap):
        min_online_synthesize(1.0, 1e-6, SynthesisConfig(epsilon=1e-6, max_level=2), derive_rng(19, "x"))


# psi0 has the finest level-150 rotation of all families
@given(st.floats(1e-300, 1.9 * rotation_angle(Family.PSI0, MAX_LEVEL)), st.sampled_from(FAMILY_SUBSETS))
def test_epsilon_beyond_deepest_ladder_rejected(epsilon, families):
    config = SynthesisConfig(epsilon=epsilon, families=families)
    # the ladder is already at its deepest, so the error advises no deeper cap
    below_reach = "^" + re.escape(f"epsilon {epsilon:.3e} is below what {MAX_LEVEL} levels reach: ")
    with pytest.raises(ValueError, match=below_reach) as raised:
        synthesize(1.0, config, derive_rng(20, "d"))
    assert "max_level" not in str(raised.value)
    with pytest.raises(ValueError, match=below_reach):
        min_online_synthesize(1.0, epsilon, config, derive_rng(20, "d"))


def _exact_ties(families: tuple[Family, ...]) -> list[float]:
    """The exact midpoints of neighbouring angles of the family set from
    1e-40 to pi/4: the magnitudes that the tie rule settles."""
    angles = sorted(rotation_angle(f, lvl) for f in families for lvl in range(MAX_LEVEL + 1))
    ties = [mid for lo, hi in zip(angles, angles[1:]) if lo > 1e-40 and (mid := (lo + hi) / 2) - lo == hi - mid < QUARTER_PI]
    assert len(ties) > 10
    return ties


def _replay_samples(families: tuple[Family, ...]) -> list[tuple[float, float]]:
    """4000 samples per family set: targets uniform in +-20, epsilon
    log-uniform from 1e-15 to 1e-1.  Random targets never tie, so the
    _exact_ties follow, at a quarter of their size."""
    params = derive_rng(5, "replica-params", len(families))
    samples = [(params.uniform(-20, 20), 10 ** params.uniform(-15, -1)) for _ in range(4000)]
    ties = _exact_ties(families)
    print(f"{len(ties)} exact ties")
    return samples + [(mid, mid / 4) for mid in ties]


def _judged(families: tuple[Family, ...], top: int, magnitudes: list[float]) -> None:
    """pick_state looks the magnitudes up to the brute-force nearest state
    up to top, and lockstep_synthesize, in the family set's bins, to the
    brute-force nearest state of the whole ladder."""
    table = _angle_table(families)
    config = SynthesisConfig(epsilon=1e-3, families=families, max_level=top)
    assert [pick_state(m, config) for m in magnitudes] == [nearest_state(families, top, m) for m in magnitudes]
    looked_up = _nearest_states(table.shift, table.first, table.bounds, np.array(magnitudes, dtype=float))
    want = [nearest_state(families, MAX_LEVEL, m) for m in magnitudes]
    assert [table.plus[i][:2] for i in looked_up.tolist()] == want


@pytest.mark.parametrize("top", [20, 32, 60, 150])
@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_the_thresholds_pick_the_nearest_state(families, top):
    """Looked up among the _AngleTable.thresholds of the states up to top,
    every threshold, every angle, the float neighbours of both and every
    exact tie go to the brute-force nearest state.  The thresholds
    strictly increase, one in each gap (lo, hi] between neighbouring
    angles."""
    table = _angle_table(families)
    start = table.start(top)
    thresholds, angles = table.thresholds[start:], table.angles[start:]
    assert len(thresholds) == len(angles) - 1
    assert all(lo < t <= hi for lo, t, hi in zip(angles, thresholds, angles[1:]))
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
    probes = [p for x in thresholds + angles for p in (math.nextafter(x, 0), x, math.nextafter(x, math.inf))]
    probes += _exact_ties(families)
    # the least magnitudes, and the greatest that a fold leaves (an ulp
    # above pi/4) and beyond
    probes += [0.0, 5e-324, QUARTER_PI, math.nextafter(QUARTER_PI, math.inf), math.pi]
    _judged(families, top, probes)
    print(f"{len(families)} families to level {top}: {len(probes)} magnitudes looked up")


@given(st.floats(0, QUARTER_PI), st.sampled_from(FAMILY_SUBSETS), st.integers(0, MAX_LEVEL))
def test_the_thresholds_pick_the_nearest_state_of_any_magnitude(magnitude, families, top):
    _judged(families, top, [magnitude])


def test_each_state_bin_holds_at_most_one_threshold():
    """For every family subset and level cap, _state_bins cuts a binade
    into at most 2^3 bins, the fewest that keep the thresholds in distinct
    bins, and first counts the thresholds below each bin, over every
    magnitude below 4.  Each gap's threshold depends on its own two
    neighbours only, so the caps' thresholds are suffixes of the whole
    ladder's: at three caps, the brute-force nearest state among the
    cap's states turns from each gap's lower state to its upper one at
    its threshold."""
    most = 0
    for families in FAMILY_SUBSETS:
        table = _angle_table(families)
        every = np.array(table.thresholds)
        for top in range(MAX_LEVEL + 1):
            thresholds = every[table.start(top) :]
            if top in (0, 20, MAX_LEVEL - 1):
                states = [entry[:2] for entry in table.plus[table.start(top) :]]
                lower = [nearest_state(families, top, math.nextafter(t, 0)) for t in thresholds.tolist()]
                assert lower == states[:-1]
                assert [nearest_state(families, top, t) for t in thresholds.tolist()] == states[1:]
            shift, first, sentinel = _state_bins(thresholds)
            bits = thresholds.view(np.int64)
            assert (np.diff(bits >> shift) > 0).all()
            assert shift == 52 or not (np.diff(bits >> (shift + 1)) > 0).all()
            assert len(first) == 1025 << (52 - shift)
            # a threshold lies below a bin's first float iff in a lower bin
            below = np.cumsum(np.bincount(bits >> shift, minlength=len(first)))
            assert first[0] == 0 and np.array_equal(first[1:], below[:-1])
            assert np.array_equal(sentinel, np.append(thresholds, math.inf))
            most = max(most, 52 - shift)
        # the family set's own bins are the whole ladder's
        assert table.shift == shift
        assert np.array_equal(table.first, first) and np.array_equal(table.bounds, sentinel)
        assert np.array_equal(table.signed, np.concatenate((table.angles, np.negative(table.angles))))
    assert most == 3
    print(f"at most 2^{most} bins a binade")


def test_the_family_set_bins_pick_as_each_caps_bins():
    """Above the finest angle of a level cap, the lookup in the family
    set's bins picks the state that a lookup in bins of the cap's suffix of
    the thresholds picks, at every threshold and its float neighbours, for
    every family subset at every cap.  Below that angle the cap's lookup
    picks its finest state and the family set's a finer one, which no
    planner consumes: the depth check holds that angle to at most
    epsilon/2."""
    for families in FAMILY_SUBSETS:
        table = _angle_table(families)
        every = np.array(table.thresholds)
        probes = np.concatenate((np.nextafter(every, 0), every, np.nextafter(every, math.inf)))
        whole = _nearest_states(table.shift, table.first, table.bounds, probes)
        for top in range(MAX_LEVEL + 1):
            start = table.start(top)
            above = probes > table.angles[start]
            capped = _nearest_states(*_state_bins(every[start:]), probes[above]) + start
            assert np.array_equal(whole[above], capped)
            assert (whole[~above] <= start).all()


@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_every_lockstep_table_is_read_only(families):
    """The climb laws, and the family set's bins and signed angles."""
    table = _angle_table(families)
    assert type(table.shift) is int
    laws = table.climb_laws(20)
    arrays = (laws.keys, laws.guide, laws.costs, table.first, table.bounds, table.signed)
    assert all(isinstance(array, np.ndarray) and not array.flags.writeable for array in arrays)


def _no_draws(rows, start, count):
    raise AssertionError("drew before checking the arguments")


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1e-6, -math.inf])
def test_the_lockstep_refuses_any_bad_accuracy(bad):
    """Each sample's accuracy is checked, not only the finest: an infinite
    one would finish its sample at once, with its target as residual."""
    with pytest.raises(ValueError, match="^epsilons must be positive and finite$"):
        lockstep_synthesize([0.5, 0.5, 0.5], [1e-8, bad, 1e-6], (Family.H,), _no_draws)


@pytest.mark.parametrize(
    "targets, epsilons, name",
    [
        ([0.5, 0.5], [1e-6], "epsilons"),
        ([0.5], [1e-6, 1e-6], "epsilons"),
        ([0.5, 0.5], [[1e-6, 1e-6]], "epsilons"),
        ([0.5, 0.5], 1e-6, "epsilons"),
        ([[0.5, 0.5]], [[1e-6, 1e-6]], "targets"),
        (0.5, 1e-6, "targets"),
    ],
)
def test_the_lockstep_refuses_mismatched_shapes_by_name(targets, epsilons, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        lockstep_synthesize(targets, epsilons, (Family.H,), _no_draws)


@pytest.mark.parametrize("ancilla", [False, True], ids=["greedy", "ancilla"])
def test_the_lockstep_reads_its_input_arrays_without_writing_them(ancilla):
    """Float arrays are read in place and lists are taken alike: the
    results are the same bytes, and the arrays are left as they were."""
    targets, epsilons = zip(*(_replay_samples(ALL_FAMILIES)[:40] + _EDGES))
    streams = counter_rows(11, np.arange(len(targets)))

    def draws(rows, start, count):
        return counter_draws(streams.take(rows), start, count)

    def run(*columns):
        return lockstep_synthesize(*columns, ALL_FAMILIES, draws, ancilla=ancilla)

    arrays = np.array(targets), np.array(epsilons)
    from_arrays = run(*arrays)
    assert arrays[0].tobytes() == np.array(targets).tobytes() and arrays[1].tobytes() == np.array(epsilons).tobytes()
    for a, b in zip(from_arrays, run(list(targets), list(epsilons))):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _steps(trace: list, n: int) -> list[int]:
    """The planner steps of each of n samples in a lockstep trace."""
    return np.bincount(np.concatenate([rows for rows, _ in trace]), minlength=n).tolist()


@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_the_lockstep_replays_the_planner(families):
    """Given the coins of synthesize's applied states, lockstep_synthesize
    makes the loop's (family, level) picks, Clifford corrections, online
    counts and final residual bytes, on the samples of _replay_samples."""
    samples = _replay_samples(families)
    results = [
        synthesize(target, SynthesisConfig(eps, families), derive_rng(5, "replica", len(families), j))
        for j, (target, eps) in enumerate(samples)
    ]
    targets, epsilons = map(np.array, zip(*samples))
    trace = []
    coins = [[s for *_, s in r.applied] for r in results]
    lockstep = lockstep_synthesize(targets, epsilons, families, coin_draws(coins), trace=trace)
    # every tick before a sample's last steps, and reads one coin
    assert _steps(trace, len(samples)) == list(map(len, coins))
    states = [entry[:2] for entry in _angle_table(families).plus]
    picks = [[] for _ in samples]
    for rows, picked in trace:
        for row, state in zip(rows.tolist(), picked.tolist()):
            picks[row].append(states[state])
    assert picks == [[a[:2] for a in r.applied] for r in results]
    assert lockstep.corrections.tolist() == [r.clifford_corrections for r in results]
    assert lockstep.online.tolist() == [r.online_cost for r in results]
    assert lockstep.residuals.tobytes() == np.array([r.residual for r in results]).tobytes()
    print(f"{len(families)} families: {sum(map(len, picks))} picks replayed")


@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_the_lockstep_replays_the_ancilla_rounds(families, monkeypatch):
    """min_online_synthesize with its climbs walked on another generator
    flips only coins on its own: fed those coins, lockstep_synthesize with
    ancilla gives its online counts, Clifford corrections and final
    residual bytes on the samples of _replay_samples."""
    climb_walk = synthesis.climb_walk
    walks = derive_rng(6, "replica-walks")
    monkeypatch.setattr(synthesis, "climb_walk", lambda probs, level, base, rnd: climb_walk(probs, level, base, walks.random))
    samples = _replay_samples(families)
    results, coins = [], []
    for j, (target, eps) in enumerate(samples):
        rng = CoinRecorder(derive_rng(6, "replica", len(families), j))
        results.append(min_online_synthesize(target, eps, SynthesisConfig(eps, families), rng))
        coins.append(rng.coins)
    targets, epsilons = map(np.array, zip(*samples))
    trace = []
    lockstep = lockstep_synthesize(targets, epsilons, families, coin_draws(coins), ancilla=True, trace=trace)
    # every tick before a sample's last steps or ends a round, and reads one coin
    steps = _steps(trace, len(samples))
    assert [s + r for s, r in zip(steps, lockstep.online.tolist())] == list(map(len, coins))
    assert lockstep.online.tolist() == [r.online_cost for r in results]
    assert lockstep.corrections.tolist() == [r.clifford_corrections for r in results]
    assert lockstep.residuals.tobytes() == np.array([r.residual for r in results]).tobytes()
    print(f"{len(families)} families: {sum(map(len, coins))} coins replayed")


# targets on the quarter turns' edges, at a fine accuracy
_EDGES = [(t, 1e-9) for t in (0.0, -0.0, QUARTER_PI, -QUARTER_PI, 2 * QUARTER_PI, -2 * QUARTER_PI, math.pi, -math.pi)]


@pytest.mark.parametrize("ancilla", [False, True], ids=["greedy", "ancilla"])
@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_the_lockstep_bills_each_climb_in_tick_order(families, ancilla):
    """On counter draws, each sample's offline cost is its traced steps'
    climbs, each the _climb_costs of its state at draw 2t of its row at
    tick t, added in tick order: with ancilla into the round's bill, which
    a tick before the sample's last that the trace misses ends, adding it
    to offline.  The samples are _replay_samples' and the targets on the
    quarter turns' edges."""
    samples = _replay_samples(families) + _EDGES
    targets, epsilons = map(np.array, zip(*samples))
    streams = counter_rows(derive_seed(7, "bill", len(families)), np.arange(len(samples)))
    trace = []
    lockstep = lockstep_synthesize(
        targets,
        epsilons,
        families,
        lambda rows, start, count: counter_draws(streams.take(rows), start, count),
        ancilla=ancilla,
        trace=trace,
    )
    laws = _angle_table(families).climb_laws(auto_max_level(min(epsilons)))
    climbs = [{} for _ in samples]
    for tick, (rows, states) in enumerate(trace):
        bits = counter_draws(streams.take(rows), 2 * tick, 1)[:, 0]
        for row, cost in zip(rows.tolist(), _climb_costs(laws, states, bits).tolist()):
            climbs[row][tick] = cost
    offline = []
    for row, costs in enumerate(climbs):
        # every tick before a sample's last steps or ends a round
        last = len(costs) + int(lockstep.online[row]) if ancilla else len(costs)
        total = spent = 0.0
        for tick in range(last):
            if tick in costs:
                spent += costs[tick]
            elif ancilla:
                total, spent = total + spent, 0.0
        offline.append(total if ancilla else spent)
    assert lockstep.offline.tobytes() == np.array(offline).tobytes()
    # the order of the additions shows only from three terms on
    steps = list(map(len, climbs))
    assert max(steps) >= 3
    if ancilla:
        assert max(lockstep.online.tolist()) >= 3
    print(f"{len(families)} families: {sum(steps)} climbs billed, up to {max(steps)} a sample")


@pytest.mark.parametrize("ancilla", [False, True], ids=["greedy", "ancilla"])
@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_every_step_consumes_a_state_whose_law_is_solved(families, ancilla):
    """On random targets with accuracies spread over 14 decades, every
    traced step consumes a state at a level at most auto_max_level of its
    own sample's epsilon, so one whose climb law the lockstep solved for
    the finest epsilon, in the laws' first (top + 1) * len(families)
    segments: the lookup runs over the whole ladder, and only that bound
    keeps it inside the laws."""
    rng = random.Random(23)
    n = 3000
    targets = np.array([rng.uniform(-20, 20) for _ in range(n)])
    epsilons = np.array([10 ** -rng.uniform(1, 15) for _ in range(n)])
    streams = counter_rows(derive_seed(9, "levels", len(families), ancilla), np.arange(n))
    trace = []
    lockstep_synthesize(
        targets,
        epsilons,
        families,
        lambda rows, start, count: counter_draws(streams.take(rows), start, count),
        ancilla=ancilla,
        trace=trace,
    )
    rows, states = map(np.concatenate, zip(*trace))
    caps = np.array([auto_max_level(eps) for eps in epsilons.tolist()])
    levels = np.array(_angle_table(families).levels).take(states)
    assert (levels <= caps.take(rows)).all()
    top = auto_max_level(float(epsilons.min()))
    laws = _angle_table(families).climb_laws(top)
    segments = laws.last - states
    assert (segments >= 0).all() and (segments < (top + 1) * len(families)).all()
    print(f"{len(states)} steps, each at least {int((caps.take(rows) - levels).min())} levels under its cap")


def test_a_climb_to_a_state_above_the_laws_top_is_refused():
    """H state 0 is level 150, above top 10: its climb raises rather than
    drawing from another level's law."""
    laws = _AngleTable((Family.H,)).climb_laws(10)
    with pytest.raises(ValueError, match=r"^segments must lie in \[0, 11\)$"):
        _climb_costs(laws, np.array([0]), np.zeros(1, np.uint64))


@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_the_climb_laws_of_a_top_are_a_prefix_of_a_deeper_tops(families):
    """Laid out level by level from the coarsest state, the laws solved to
    top 32 on a fresh table are, byte for byte and dtype for dtype, the
    first segments of the family set's laws solved to 60 or deeper; a
    table that holds the deeper laws serves top 32 from them."""
    shallow = _AngleTable(families).climb_laws(32)
    table = _angle_table(families)
    deep = table.climb_laws(60)
    assert table.climb_laws(32) is deep and deep.top >= 60
    assert shallow.top == 32 and shallow.last == deep.last == len(table.levels) - 1
    for own, served in zip((shallow.keys, shallow.guide, shallow.costs), climb_law_prefix(deep, 32, len(families))):
        assert own.dtype == served.dtype and own.tobytes() == served.tobytes()


def test_the_lockstep_gives_the_same_bytes_from_deeper_laws(monkeypatch):
    """lockstep_synthesize on fixed counter draws gives the same results
    and trace, byte for byte, greedy and with ancilla, from an empty
    _angle_table cache, where it solves the laws to its own top, as after
    the family set's laws were solved to a deeper top."""
    monkeypatch.setattr(synthesis, "_angle_table", functools.lru_cache(synthesis._AngleTable))
    rng = random.Random(31)
    n = 2000
    targets = np.array([rng.uniform(-20, 20) for _ in range(n)])
    epsilons = np.array([10 ** -rng.uniform(2, 6) for _ in range(n)])
    streams = counter_rows(derive_seed(8, "deeper-laws"), np.arange(n))

    def run(ancilla: bool) -> list[bytes]:
        trace = []
        result = lockstep_synthesize(
            targets,
            epsilons,
            ALL_FAMILIES,
            lambda rows, start, count: counter_draws(streams.take(rows), start, count),
            ancilla=ancilla,
            trace=trace,
        )
        return [a.tobytes() for a in result] + [a.tobytes() for pair in trace for a in pair]

    cold = [run(False), run(True)]
    table = synthesis._angle_table(ALL_FAMILIES)
    top = auto_max_level(float(epsilons.min()))
    assert table.climb_laws(0).top == top
    assert table.climb_laws(top + 20).top == top + 20
    assert [run(False), run(True)] == cold


# a _TAIL at or above every sample count here: the lockstep hands every
# sample to _finish once the first tick has folded it
_EVERY = 10**9


@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_the_finisher_alone_replays_the_planner(families, monkeypatch):
    monkeypatch.setattr(synthesis, "_TAIL", _EVERY)
    test_the_lockstep_replays_the_planner(families)


@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_the_finisher_alone_replays_the_ancilla_rounds(families, monkeypatch):
    monkeypatch.setattr(synthesis, "_TAIL", _EVERY)
    test_the_lockstep_replays_the_ancilla_rounds(families, monkeypatch)


@pytest.mark.parametrize("ancilla", [False, True], ids=["greedy", "ancilla"])
@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_the_finisher_alone_bills_each_climb_in_tick_order(families, ancilla, monkeypatch):
    monkeypatch.setattr(synthesis, "_TAIL", _EVERY)
    test_the_lockstep_bills_each_climb_in_tick_order(families, ancilla)


def _on_counter_draws(families, samples, ancilla, calls=None):
    """lockstep_synthesize of the samples on counter draws, and its trace;
    calls, if given, gets each draws call's (rows, start, count)."""
    targets, epsilons = map(np.array, zip(*samples))
    streams = counter_rows(derive_seed(8, "tail", len(families)), np.arange(len(samples)))

    def draws(rows, start, count):
        if calls is not None:
            calls.append((rows.tolist(), start, count))
        return counter_draws(streams.take(rows), start, count)

    trace = []
    return lockstep_synthesize(targets, epsilons, families, draws, ancilla=ancilla, trace=trace), trace


@pytest.mark.parametrize("ancilla", [False, True], ids=["greedy", "ancilla"])
@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_the_finisher_changes_no_byte(families, ancilla, monkeypatch):
    """Handing the last samples to _finish at none of them, at _TAIL's
    default, or at every one gives the same bytes of all four
    LockstepResult arrays, and the same trace, tick by tick, on the
    samples of _replay_samples and the targets on the quarter turns'
    edges."""
    samples = _replay_samples(families) + _EDGES
    finish, handoffs, default = synthesis._finish, [], synthesis._TAIL

    def spy(table, tick, stragglers, *rest):
        handoffs.append((tick, len(stragglers)))
        return finish(table, tick, stragglers, *rest)

    monkeypatch.setattr(synthesis, "_finish", spy)
    runs = {}
    for tail in (0, default, len(samples)):
        monkeypatch.setattr(synthesis, "_TAIL", tail)
        runs[tail] = _on_counter_draws(families, samples, ancilla)
    (_, (numpy, numpy_trace)), *others = runs.items()
    for tail, (result, trace) in others:
        for want, got in zip(numpy, result):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), tail
        assert len(trace) == len(numpy_trace), tail
        for tick, (want, got) in enumerate(zip(numpy_trace, trace)):
            for a, b in zip(want, got):
                assert b.dtype == a.dtype and b.tobytes() == a.tobytes(), (tail, tick)
    # none is handed over at the end of the numpy loop, a few on the way,
    # and all that the first tick leaves running at once
    (last, none), (tick, few), (first, every) = handoffs
    assert none == 0 and last == len(numpy_trace)
    assert 0 < few <= default and 0 < tick < last
    assert first == 0 and every > default
    print(f"{len(families)} families: {few} samples handed over at tick {tick} of {last}")


@functools.lru_cache(maxsize=None)
def _full_run(families: tuple[Family, ...], ancilla: bool) -> LockstepResult:
    return _on_counter_draws(families, _replay_samples(families), ancilla)[0]


@pytest.mark.parametrize("k", [1, 2, 16, 17, 33, 1025])
@pytest.mark.parametrize("ancilla", [False, True], ids=["greedy", "ancilla"])
@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_the_first_k_samples_alone_give_the_same_bytes(families, ancilla, k):
    """lockstep_synthesize on the first k samples of _replay_samples gives
    the bytes of rows 0..k-1 of the run over all of them, in all four
    LockstepResult arrays: at one sample, at two, at _TAIL and one past
    it, and one past a power of two.  The fewer samples' finest accuracy
    may tabulate fewer levels, which changes no state that is looked up."""
    full = _full_run(families, ancilla)
    result, _ = _on_counter_draws(families, _replay_samples(families)[:k], ancilla)
    for want, got in zip(full, result):
        assert got.dtype == want.dtype and got.tobytes() == want[:k].tobytes()


@pytest.mark.parametrize("ancilla", [False, True], ids=["greedy", "ancilla"])
@pytest.mark.parametrize("families", [(Family.H,), ALL_FAMILIES], ids=["h", "all"])
def test_each_draw_block_is_asked_for_once_and_only_while_its_sample_runs(families, ancilla):
    """Every draws call, in the numpy loop and in _finish alike, asks for
    one whole aligned block of _BLOCK_TICKS ticks, the blocks in turn, for
    exactly these rows in ascending order: in the numpy loop, the samples
    whose last tick (the one at which the fold finds them done) is at or
    after the block's first tick, so those that end at it are asked for
    too and their draws go unread; in _finish, its own stragglers, the
    samples whose last tick is after it.  The numpy loop hands over at the
    first tick that leaves at most _TAIL samples running."""
    samples = _replay_samples(families) + _EDGES
    calls = []
    lockstep, trace = _on_counter_draws(families, samples, ancilla, calls)
    # every tick before a sample's last steps or ends a round
    steps = _steps(trace, len(samples))
    last = [s + o for s, o in zip(steps, lockstep.online.tolist())] if ancilla else steps
    handoff = next(t for t in itertools.count() if sum(end > t for end in last) <= synthesis._TAIL)
    block = 2 * synthesis._BLOCK_TICKS
    assert [start for _, start, _ in calls] == list(range(0, block * len(calls), block))
    assert {count for *_, count in calls} == {block}
    for rows, start, _ in calls:
        tick = start // 2
        running = [row for row, end in enumerate(last) if end > tick or (end == tick and tick <= handoff)]
        assert rows == running, tick
    # the blocks of every tick that reads draws, and perhaps the one that
    # starts at the last sample's last tick
    assert (max(last) - 1) // synthesis._BLOCK_TICKS <= len(calls) - 1 <= max(last) // synthesis._BLOCK_TICKS
    # both the numpy loop and _finish ask for draws here
    widths = [len(rows) for rows, *_ in calls]
    assert widths[0] == len(samples) and handoff < calls[-1][1] // 2
    print(f"{len(families)} families: rows asked for per block {widths}, handed over at tick {handoff}")
