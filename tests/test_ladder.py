import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from oracles import climb_cost_law, failure_law, measure_qubit, plus_state, states_equal_up_to_phase
from rotsynth import qcore
from rotsynth.ladder import (
    ALL_FAMILIES,
    CLIMB_LAW_CUT,
    MAX_LEVEL,
    Family,
    base_average_cost,
    base_state_angle,
    climb_cost_laws,
    climb_walk,
    expected_climb_cost,
    ladder_angle,
    merge_success_prob,
    rotation_angle,
    simulate_climb,
    success_probs,
)
from rotsynth.noise import NoiseModel, decay_study, propagate_to_level
from rotsynth.seeding import DEFAULT_SEED, counter_draws, counter_rows, derive_rng, derive_seed
from rotsynth.synthesis import SynthesisConfig, _angle_table, _climb_costs, _lockstep_tables

SQRT2 = math.sqrt(2)

# Reference rotation angles 2*theta_i for the raw-resource ladder, printed
# to four significant figures (the source table truncates the i=0 entry).
H_ROTATIONS = {
    0: 7.853e-1,
    1: 3.398e-1,
    2: 1.419e-1,
    3: 5.886e-2,
    4: 2.439e-2,
    5: 1.010e-2,
    6: 4.184e-3,
    7: 1.733e-3,
    8: 7.179e-4,
    9: 2.974e-4,
    10: 1.232e-4,
    11: 5.102e-5,
    12: 2.113e-5,
    13: 8.753e-6,
    14: 3.626e-6,
    15: 1.502e-6,
    16: 6.221e-7,
}

# Reference rotation angles for all four ladders, levels 0..8.
MULTI_ROTATIONS = {
    Family.PSI0: [4.456e-1, 1.871e-1, 7.770e-2, 3.220e-2, 1.334e-2, 5.525e-3, 2.288e-3, 9.479e-4, 3.926e-4],
    Family.PSI1: [5.698e-1, 2.415e-1, 1.004e-1, 4.162e-2, 1.724e-2, 7.142e-3, 2.959e-3, 1.225e-3, 5.076e-4],
    Family.PSI2: [6.898e-1, 2.954e-1, 1.231e-1, 5.105e-2, 2.115e-2, 8.761e-3, 3.629e-3, 1.503e-3, 6.226e-4],
}


def table_tol(printed: float) -> float:
    """One unit in the fourth significant figure (covers truncate vs round)."""
    return 1.001 * 10 ** (math.floor(math.log10(printed)) - 3)


@pytest.mark.parametrize("level,printed", sorted(H_ROTATIONS.items()))
def test_h_rotation_table(level, printed):
    assert abs(rotation_angle(Family.H, level) - printed) <= table_tol(printed)


@pytest.mark.parametrize("family", [Family.PSI0, Family.PSI1, Family.PSI2])
@pytest.mark.parametrize("level", range(9))
def test_psi_rotation_tables(family, level):
    printed = MULTI_ROTATIONS[family][level]
    assert abs(rotation_angle(family, level) - printed) <= table_tol(printed)


def test_base_angles():
    assert base_state_angle(Family.H) == pytest.approx(math.pi / 8, abs=1e-15)
    assert base_state_angle(Family.PSI0) == pytest.approx(0.2228, abs=5e-5)
    assert base_state_angle(Family.PSI1) == pytest.approx(0.2849, abs=5e-5)
    assert base_state_angle(Family.PSI2) == pytest.approx(0.3449, abs=5e-5)


def test_h_angle_cotangent_identity():
    # tan(theta_i) * (1 + sqrt(2))^(i+1) = 1
    for i in range(0, MAX_LEVEL + 1, 5):
        assert math.tan(ladder_angle(Family.H, i)) * (1 + SQRT2) ** (i + 1) == pytest.approx(
            1.0, abs=1e-12
        )


def test_angle_decay_asymptote():
    # theta_i * (sqrt(2)+1)^(i+1) -> 1 from below
    for i in range(10, 40):
        ratio = ladder_angle(Family.H, i) * (SQRT2 + 1) ** (i + 1)
        assert 0.99 <= ratio <= 1.01


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_angles_decrease_and_stay_in_range(family):
    previous = None
    for level in range(40):
        angle = ladder_angle(family, level)
        assert 0 < angle <= math.pi / 4
        if previous is not None:
            assert angle < previous
        previous = angle


def test_ladder_angle_rejects_negative_level():
    with pytest.raises(ValueError):
        ladder_angle(Family.H, -1)


def test_merge_success_prob_level0_exact():
    assert merge_success_prob(Family.H, 0) == pytest.approx(0.75, abs=1e-15)


def test_merge_success_prob_bounds_and_limit():
    limit = math.cos(math.pi / 8) ** 2
    for i in range(0, 151, 10):
        p = merge_success_prob(Family.H, i)
        assert 0.75 <= p <= limit + 1e-15
    # strictly below the limit until floating point saturates (~level 20)
    assert merge_success_prob(Family.H, 15) < limit
    assert merge_success_prob(Family.H, 150) == pytest.approx(limit, abs=1e-12)


def test_merge_success_prob_psi0_formula_and_circuit():
    phi = base_state_angle(Family.PSI0)
    expected = (
        math.cos(phi) ** 2 * math.cos(math.pi / 8) ** 2
        + math.sin(phi) ** 2 * math.sin(math.pi / 8) ** 2
    )
    assert merge_success_prob(Family.PSI0, 0) == pytest.approx(expected, abs=1e-15)
    # cross-check through the simulated merge circuit
    reg = qcore.apply_gate(
        qcore.product_state(qcore.xz_state(math.pi / 8), qcore.xz_state(phi)), "CNOT", 1, 0
    )
    assert measure_qubit(reg, 0).prob0 == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("level", range(0, 21, 4))
def test_merge_circuit_agreement(family, level):
    """The two-qubit circuit reproduces the success probability and both
    outcome angles of the algebraic merge."""
    bottom = ladder_angle(family, level)
    reg = qcore.apply_gate(
        qcore.product_state(qcore.xz_state(math.pi / 8), qcore.xz_state(bottom)),
        "CNOT",
        1,
        0,
    )
    res = measure_qubit(reg, 0)
    assert res.prob0 == pytest.approx(merge_success_prob(family, level), abs=1e-12)
    up = ladder_angle(family, level + 1)
    assert abs(res.post0.amps[0].real - math.cos(up)) < 1e-12
    assert abs(res.post0.amps[1].real - math.sin(up)) < 1e-12
    if level > 0:
        down = ladder_angle(family, level - 1)
        assert abs(res.post1.amps[0].real - math.cos(down)) < 1e-12
        assert abs(res.post1.amps[1].real - math.sin(down)) < 1e-12
    elif family is Family.H:
        # level-0 failure leaves the free stabilizer state
        assert states_equal_up_to_phase(res.post1, plus_state())
    else:
        # discarded, but the circuit output still obeys the angle algebra
        down = math.atan(math.tan(bottom) / math.tan(math.pi / 8))
        assert abs(res.post1.amps[0].real - math.cos(down)) < 1e-12
        assert abs(res.post1.amps[1].real - math.sin(down)) < 1e-12


def test_simulate_climb_level0():
    """A level-0 climb merges nothing: it costs one base state."""
    assert simulate_climb(Family.H, 0, derive_rng(4, "c0")) == 1.0
    assert simulate_climb(Family.PSI0, 0, derive_rng(4, "c0b")) == base_average_cost(Family.PSI0)


def test_simulate_climb_minimum_consumption():
    for i in (1, 3, 6):
        for k in range(200):
            cost = simulate_climb(Family.H, i, derive_rng(5, "min", i, k))
            # the bottom and one top per level gained, then two per down
            # and two per restart (the merge and the fresh bottom)
            assert cost >= i + 1 and (cost - i - 1) % 2 == 0


def test_simulate_climb_h1_mean():
    # geometric restart: 2 resources per attempt, mean attempts 4/3
    n = 100_000
    total = sum(
        simulate_climb(Family.H, 1, derive_rng(6, "h1", k)) for k in range(n)
    )
    assert total / n == pytest.approx(8 / 3, abs=0.02)


def test_expected_climb_cost_h0_and_h1():
    assert expected_climb_cost(Family.H, 0) == 1.0
    assert expected_climb_cost(Family.H, 1) == pytest.approx(8 / 3, abs=1e-12)


def test_expected_climb_cost_psi_level0():
    for fam in (Family.PSI0, Family.PSI1, Family.PSI2):
        assert expected_climb_cost(fam, 0) == pytest.approx(base_average_cost(fam))


@pytest.mark.parametrize("family,level", [(Family.H, 2), (Family.H, 5), (Family.PSI0, 3), (Family.PSI2, 4)])
def test_monte_carlo_matches_oracle(family, level):
    n = 20_000
    costs = [
        simulate_climb(family, level, derive_rng(7, "mc", family.value, level, k)) for k in range(n)
    ]
    mean = sum(costs) / n
    var = sum((c - mean) ** 2 for c in costs) / (n - 1)
    stderr = math.sqrt(var / n)
    assert abs(mean - expected_climb_cost(family, level)) < 3 * stderr


def dense_expected_cost(family, level):
    """First-step analysis of the walk, solved as a dense linear system.

    E_l = 1 + p_l E_{l+1} + (1-p_l) E_{l-1} for interior levels, with
    absorption at the target and the restart boundary at level 0 (the down
    outcome re-bills the bottom resource).  Top resources and base states
    are solved for separately, then billed.
    """
    if level == 0:
        return base_average_cost(family)
    n = level
    p = [merge_success_prob(family, l) for l in range(n)]
    a = np.zeros((n, n))
    rhs_h = np.ones(n)  # one top resource per merge
    rhs_base = np.zeros(n)
    for l in range(n):
        a[l, l] = 1.0
        if l + 1 < n:
            a[l, l + 1] = -p[l]
        if l > 0:
            a[l, l - 1] = -(1 - p[l])
    # level-0 failure: stay at 0 and re-bill the bottom
    a[0, 0] -= 1 - p[0]
    if family is Family.H:
        rhs_h[0] += 1 - p[0]
    else:
        rhs_base[0] += 1 - p[0]
    e_h = np.linalg.solve(a, rhs_h)
    e_base = np.linalg.solve(a, rhs_base)
    if family is Family.H:
        return 1.0 + float(e_h[0])
    return float(e_h[0]) + (1.0 + float(e_base[0])) * base_average_cost(family)


def test_expected_climb_cost_matches_dense_solve():
    """The first-passage recurrence against the dense solve on all 604 cells."""
    worst = max(
        abs(expected_climb_cost(f, l) - dense_expected_cost(f, l)) / dense_expected_cost(f, l)
        for f in ALL_FAMILIES
        for l in range(MAX_LEVEL + 1)
    )
    assert worst <= 1e-12


def test_expected_climb_cost_validation():
    with pytest.raises(ValueError):
        expected_climb_cost(Family.H, -1)
    with pytest.raises(ValueError):
        expected_climb_cost(Family.PSI0, MAX_LEVEL + 1)


def _propagate(level):
    rho, distance = propagate_to_level(NoiseModel("a", 1e-4), level, derive_rng(31, "level"))
    return rho.mat.tolist(), distance


# every entry point that takes a ladder level: (call, argument name, lowest
# level, or None where the range is not checked: ladder_angle keeps its own
# lower-bound message and has no cap)
LEVEL_ENTRY_POINTS = {
    "simulate_climb": (
        lambda level: simulate_climb(Family.PSI1, level, derive_rng(31, "level")),
        "target_level",
        0,
    ),
    "expected_climb_cost": (lambda level: expected_climb_cost(Family.PSI2, level), "target_level", 0),
    "ladder_angle": (lambda level: ladder_angle(Family.H, level), "level", None),
    "SynthesisConfig": (lambda level: SynthesisConfig(epsilon=1e-6, max_level=level), "max_level", 0),
    "decay_study": (lambda level: decay_study(NoiseModel("a", 1e-4), level, 3, seed=1), "max_level", 1),
    "propagate_to_level": (_propagate, "target_level", 1),
}


@pytest.mark.parametrize("entry", sorted(LEVEL_ENTRY_POINTS))
def test_level_arguments_are_checked_by_name(entry):
    """Every level argument goes through ladder.checked_level (ladder_angle
    through checked_integer): a non-integral value or one outside the
    ladder is a ValueError naming the argument, and numpy integers answer
    as the equal Python int does."""
    call, name, lowest = LEVEL_ENTRY_POINTS[entry]
    for value in (5.5, 7.0, Fraction(7), Fraction(11, 2), "7", None):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call(value)
    for dtype in (np.int8, np.int64, np.uint16):
        assert call(dtype(7)) == call(7)
    if lowest is not None:
        for level in (lowest - 1, MAX_LEVEL + 1):
            with pytest.raises(ValueError, match=rf"^{name} must be in \[{lowest}, 150\], got {level}$"):
                call(level)


# every entry point that takes a ladder family, called on the family alone
FAMILY_ENTRY_POINTS = {
    "ladder_angle": lambda family: ladder_angle(family, 2),
    "rotation_angle": lambda family: rotation_angle(family, 2),
    "merge_success_prob": lambda family: merge_success_prob(family, 2),
    "success_probs": success_probs,
    "simulate_climb": lambda family: simulate_climb(family, 3, derive_rng(31, "family")),
    "expected_climb_cost": lambda family: expected_climb_cost(family, 3),
    "base_state_angle": base_state_angle,
    "base_average_cost": base_average_cost,
}


@pytest.mark.parametrize("value", ["h", "psi0", None, 0])
@pytest.mark.parametrize("entry", sorted(FAMILY_ENTRY_POINTS))
def test_family_arguments_are_checked_by_name(entry, value):
    """Every family argument goes through ladder.checked_family: anything but
    a Family member, even a member's value, is a ValueError naming the
    argument and the value."""
    call = FAMILY_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^family must be a Family member, got {re.escape(repr(value))}$"):
        call(value)
    call(Family.PSI0)


def test_expected_climb_cost_rejects_a_float_level_cold_and_warm():
    """Nothing caches the cost, so every call checks its level: 7.0 is
    refused before and after 7 has been solved (the float cases are also in
    test_level_arguments_are_checked_by_name)."""
    for _ in ("cold", "warm"):
        for value in (7.0, Fraction(7), np.float64(7)):
            with pytest.raises(ValueError, match="target_level must be an integer"):
                expected_climb_cost(Family.H, value)
        expected_climb_cost(Family.H, 7)


def test_simulate_climb_counts_match_walk():
    """climb_walk bills the walk it takes: one raw resource per draw (one
    merge each), and the base cost for the bottom and each restart;
    simulate_climb is that walk on the family's tables."""
    for family in ALL_FAMILIES:
        probs, base = success_probs(family), base_average_cost(family)
        for level in (0, 1, 7, 30):
            for k in range(20):
                rng, draws = derive_rng(9, "walk", family.value, level, k), []
                cost = climb_walk(probs, level, base, lambda: draws.append(rng.random()) or draws[-1])
                # replay the up/down/restart rule on the recorded draws
                at = restarts = 0
                for u in draws:
                    assert at < level  # no draw after the arrival
                    if u < probs[at]:
                        at += 1
                    elif at:
                        at -= 1
                    else:
                        restarts += 1
                assert at == level
                assert cost == len(draws) + (restarts + 1) * base
                assert simulate_climb(family, level, derive_rng(9, "walk", family.value, level, k)) == cost
                # one up move per level gained; down moves and restarts cost extra merges
                extra = len(draws) - level - restarts
                assert extra >= 0 and extra % 2 == 0


def _law_cases(levels):
    """(family, level) for every family, each H case with its level alone
    as its id."""
    return [
        pytest.param(family, level, id=str(level) if family is Family.H else f"{family.value}-{level}")
        for family in ALL_FAMILIES
        for level in levels
    ]


@pytest.mark.parametrize(("family", "level"), _law_cases([0, 1, 3, 6, 12, 30]))
def test_failure_law_mean_is_the_expected_climb_cost(family, level):
    """A climb to level L with d downs and r level-0 restarts costs
    L + 2 d + r + (r + 1) c for the family's base cost c: a top resource
    per merge, and the base state at the start and after every restart (for
    H, L + 1 + 2 (d + r)).  So the joint law's mean is the walk solve's
    expected cost."""
    law, missing = failure_law(family, level)
    assert abs(missing) < 1e-12
    mean = sum(p * cost for cost, p in climb_cost_law(family, level).items())
    assert mean == pytest.approx(expected_climb_cost(family, level), rel=1e-12, abs=0)


def _chi2_against_the_law(costs: list[float], family: Family, level: int, sampler: str) -> tuple[float, float]:
    """Chi-squared p-value of sampled climb costs against the exact law,
    one bin per cost (each a cell of downs and restarts, or for H all
    cells of one d + r) in increasing order, and the costs from the first
    one expected fewer than 5 times pooled, every bin expecting at least 5
    climbs; prints the statistic and returns it with the z of the sample
    mean against expected_climb_cost."""
    from scipy.stats import chisquare

    n = len(costs)
    counts = Counter(costs)
    law = climb_cost_law(family, level)
    assert set(counts) <= set(law)  # every cost is a cell's bill
    ordered = sorted(law)
    expected = n * np.array([law[c] for c in ordered])
    # costs from the first one expected fewer than 5 times share a bin,
    # which starts one cost lower if it would still hold fewer than 5
    pooled = int(np.argmax(expected < 5))
    if n - expected[:pooled].sum() < 5:
        pooled -= 1
    expected = np.append(expected[:pooled], n - expected[:pooled].sum())
    assert expected.min() >= 5
    observed = [counts[c] for c in ordered[:pooled]] + [sum(counts[c] for c in ordered[pooled:])]
    stat, p = chisquare(observed, expected)
    z = (np.mean(costs) - expected_climb_cost(family, level)) / (np.std(costs) / math.sqrt(n))
    print(
        f"CLIMB LAW {sampler} {family.value} level {level}: chi2 = {stat:.1f} on {pooled} degrees of freedom, "
        f"p = {p:.3g}; mean {np.mean(costs):.4f} against {expected_climb_cost(family, level):.4f}, z = {z:.2f}"
    )
    return p, z


@pytest.mark.parametrize(("family", "level"), _law_cases([5, 12, 30]))
def test_simulate_climb_follows_the_failure_law(family, level):
    """Chi-squared of the costs of 2e4 sampled climbs against the exact law."""
    rng = derive_rng(DEFAULT_SEED, "failure-law", level)
    p, _ = _chi2_against_the_law([simulate_climb(family, level, rng) for _ in range(20_000)], family, level, "walk")
    assert p > 1e-3


def _table_climbs(family: Family, level: int, n: int) -> list[float]:
    """n climb costs to the level drawn as lockstep_synthesize draws them:
    one counter-stream draw each, through the one-family lockstep tables."""
    tables = _lockstep_tables((family,), level)
    state = [entry[:2] for entry in _angle_table((family,)).plus].index((family, level)) - tables.start
    rows = counter_rows(derive_seed(DEFAULT_SEED, "table-climbs", family.value, level), np.arange(n))
    bits = counter_draws(rows, 0, 1)[:, 0]
    return _climb_costs(tables, np.full(n, state), bits).tolist()


@pytest.mark.parametrize(("family", "level"), _law_cases([1, 5, 12, 30]))
def test_the_tabulated_climbs_follow_the_failure_law(family, level):
    """The costs the lockstep tables draw, at shallow and deep levels:
    chi-squared of 2e5 draws against the exact law, and the z of their
    mean against expected_climb_cost."""
    p, z = _chi2_against_the_law(_table_climbs(family, level, 200_000), family, level, "table")
    assert p > 1e-3
    assert abs(z) < 4


def test_the_lockstep_tables_keep_each_law_in_its_segment():
    """A law may sum past 1 by rounding, and its segment then ends where
    the running sum passes 1: none up to level 40 does, and up to level 60
    one of each PSI family (PSI0 at 55, PSI1 at 50, PSI2 at 44; up to
    MAX_LEVEL, PSI0 at 81, 98 and 123, PSI1 at 89 and PSI2 at 83, 88, 114,
    127, 128 and 146 too, and no law of H).  So the keys never decrease and
    no key passes its segment's end: the first draw of every segment picks
    the first outcome of its own law, not a tail outcome of the law
    before."""
    top = 60
    tables = _lockstep_tables(ALL_FAMILIES, top)
    assert (np.diff(tables.keys) >= 0).all()
    first = {f: [costs[0] for costs, _ in climb_cost_laws(f, top)] for f in ALL_FAMILIES}
    states = _angle_table(ALL_FAMILIES).plus[tables.start :]
    drawn = _climb_costs(tables, np.arange(len(states)), np.zeros(len(states), np.uint64))
    assert drawn.tolist() == [first[f][level] for f, level, _ in states]


@pytest.mark.parametrize(("family", "level"), _law_cases([0, 1, 3, 6, 8, 9, 12, 30, 40]))
def test_climb_cost_laws_are_the_failure_law(family, level):
    """Each tabulated law, billed as climb_walk bills, at shallow and deep
    levels and at 8 and 9, either side of where blocks of levels were once
    solved together, holds every cost of the failure law within 1e-15 of
    its mass, loses less than CLIMB_LAW_CUT (to rounding), and its mean is
    the walk solve's expected cost within 1e-12 relative."""
    *_, (costs, masses) = climb_cost_laws(family, level)
    costs = costs.tolist()
    assert len(set(costs)) == len(costs)
    law = dict(zip(costs, masses.tolist()))
    want = climb_cost_law(family, level)
    assert max(abs(law.get(c, 0.0) - p) for c, p in want.items()) < 1e-15
    assert 1 - math.fsum(law.values()) < CLIMB_LAW_CUT + 1e-15
    mean = math.fsum(c * p for c, p in law.items())
    assert mean == pytest.approx(expected_climb_cost(family, level), rel=1e-12, abs=0)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_each_climb_law_is_independent_of_the_top(family):
    """The laws up to any top are the first top + 1 laws up to 40, outcome
    for outcome: each level's law is built from the passages beneath it
    alone, so the lockstep's cost draws do not depend on the finest
    accuracy of their batch."""
    deep = list(climb_cost_laws(family, 40))
    for top in range(1, 41):
        laws = list(climb_cost_laws(family, top))
        assert len(laws) == top + 1
        for (costs, masses), (want_costs, want_masses) in zip(laws, deep):
            assert np.array_equal(costs, want_costs) and np.array_equal(masses, want_masses)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_every_climb_law_stays_in_its_segment(family):
    """Every law up to MAX_LEVEL sums to at most 1 before its last mass,
    as inverse_cdf_table takes it: the float terms of a deep passage may
    sum past 1 by a fraction of an ulp, which compounds along the climb
    unless each law is scaled to sum to 1, and a law that rounding still
    takes past 1 ends at the first outcome that passes it.  So no law
    ends far from 1: every one sums to 1 within 2^-50."""
    laws = [masses.tolist() for _, masses in climb_cost_laws(family, MAX_LEVEL)]
    assert max(math.fsum(masses[:-1]) for masses in laws) <= 1
    assert max(abs(math.fsum(masses) - 1) for masses in laws) <= 2**-50


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_a_climb_makes_fewer_than_one_and_a_half_attempts(family):
    """climb_cost_laws' count of its quarters of CLIMB_LAW_CUT: a climb to
    any level makes fewer than 1.5 attempts from level 0 on average,
    1 / P(it reaches MAX_LEVEL without a restart), the product of each
    passage's A_l(1) = p / (1 - q A_{l-1}(1))."""
    up = success_probs(family)
    stays = reach = up[0]
    for p in up[1:]:
        stays = p / (1 - (1 - p) * stays)
        reach *= stays
    assert 1 / reach < 1.5


def test_expected_cost_increases_with_level():
    previous = 0.0
    for level in range(20):
        cost = expected_climb_cost(Family.H, level)
        assert cost > previous
        previous = cost


def test_simulate_climb_validation():
    with pytest.raises(ValueError):
        simulate_climb(Family.H, -1, derive_rng(8, "v"))
    with pytest.raises(ValueError):
        simulate_climb(Family.H, MAX_LEVEL + 1, derive_rng(8, "v"))
