import math
import re
from fractions import Fraction

import numpy as np
import pytest

from oracles import plus_state, states_equal_up_to_phase
from rotsynth import qcore
from rotsynth.ladder import (
    ALL_FAMILIES,
    MAX_LEVEL,
    Family,
    base_average_cost,
    base_state_angle,
    climb_walk,
    expected_climb_cost,
    ladder_angle,
    merge_success_prob,
    rotation_angle,
    simulate_climb,
    success_probs,
)
from rotsynth.noise import NoiseModel, decay_study, propagate_to_level
from rotsynth.seeding import derive_rng
from rotsynth.synthesis import SynthesisConfig

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
    assert qcore.measure_qubit(reg, 0).prob0 == pytest.approx(expected, abs=1e-12)


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
    res = qcore.measure_qubit(reg, 0)
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
