"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` (or -rA) to see the lines.
All stochastic checks use the package default seed and desk-scale trial
counts; the whole module targets a few minutes on a laptop.
"""
import math

import numpy as np
import pytest

from oracles import decay_z_scores, exact_decay, measure_qubit
from rotsynth import factories, ladder, noise, qcore, study
from rotsynth.ladder import ALL_FAMILIES, Family
from rotsynth.seeding import DEFAULT_SEED, counter_draws, counter_rows, derive_rng, derive_seed
from rotsynth.synthesis import SynthesisConfig, _angle_table, lockstep_synthesize, min_online_synthesize, synthesize

SQRT2 = math.sqrt(2)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>3} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- criterion 1: angle tables ----------------------------------------------

H_TABLE = {
    0: 7.853e-1, 1: 3.398e-1, 2: 1.419e-1, 3: 5.886e-2, 4: 2.439e-2,
    5: 1.010e-2, 6: 4.184e-3, 7: 1.733e-3, 8: 7.179e-4, 9: 2.974e-4,
    10: 1.232e-4, 11: 5.102e-5, 12: 2.113e-5, 13: 8.753e-6, 14: 3.626e-6,
    15: 1.502e-6, 16: 6.221e-7,
}
MULTI_TABLE = {
    Family.H: [7.853e-1, 3.398e-1, 1.419e-1, 5.886e-2, 2.439e-2, 1.010e-2, 4.184e-3, 1.733e-3, 7.179e-4],
    Family.PSI0: [4.456e-1, 1.871e-1, 7.770e-2, 3.220e-2, 1.334e-2, 5.525e-3, 2.288e-3, 9.479e-4, 3.926e-4],
    Family.PSI1: [5.698e-1, 2.415e-1, 1.004e-1, 4.162e-2, 1.724e-2, 7.142e-3, 2.959e-3, 1.225e-3, 5.076e-4],
    Family.PSI2: [6.898e-1, 2.954e-1, 1.231e-1, 5.105e-2, 2.115e-2, 8.761e-3, 3.629e-3, 1.503e-3, 6.226e-4],
}


def _fourth_digit_tol(printed: float) -> float:
    return 1.001 * 10 ** (math.floor(math.log10(printed)) - 3)


def test_criterion_1_angle_tables():
    worst = 0.0
    for level, printed in H_TABLE.items():
        err = abs(ladder.rotation_angle(Family.H, level) - printed)
        assert err <= _fourth_digit_tol(printed), (Family.H, level)
        worst = max(worst, err / printed)
    for family, column in MULTI_TABLE.items():
        for level, printed in enumerate(column):
            err = abs(ladder.rotation_angle(family, level) - printed)
            assert err <= _fourth_digit_tol(printed), (family, level)
            worst = max(worst, err / printed)
    _report("1", True, f"rotation tables reproduced to 4 significant figures (worst rel err {worst:.1e})")


# --- criterion 2: exact identities ------------------------------------------


def test_criterion_2_exact_identities():
    p00 = ladder.merge_success_prob(Family.H, 0)
    assert abs(p00 - 0.75) < 1e-15
    limit = math.cos(math.pi / 8) ** 2
    for i in range(151):
        p = ladder.merge_success_prob(Family.H, i)
        assert 0.75 <= p <= limit, i
        if i <= 15:  # strictly below until floating point saturates
            assert p < limit, i
    worst = max(
        abs(math.tan(ladder.ladder_angle(Family.H, i)) * (1 + SQRT2) ** (i + 1) - 1.0)
        for i in range(151)
    )
    assert worst < 1e-12
    _report("2", True, f"p(0)=3/4, bounds hold for i<=150, cotangent identity off by {worst:.1e}")


# --- criterion 3: factory closed forms --------------------------------------


def test_criterion_3_factory_closed_forms():
    expected = {
        Family.PSI0: (3 * (2 + SQRT2) / 32, 12.50),
        Family.PSI1: ((6 + SQRT2) / 32, 12.95),
        Family.PSI2: (11 / 32, 11.64),
    }
    details = []
    for kind, (prob_cf, avg_quoted) in expected.items():
        circuit_prob, _ = factories.simulate_factory_circuit(kind)
        projected = qcore.pauli_projector_overlap(
            list(factories.CODE_GENERATORS[kind]),
            factories._input_register(factories.factory_spec(kind)),
            factories.LOGICAL_Z,
        )
        assert abs(circuit_prob - prob_cf) < 1e-10, kind
        assert abs(projected.prob - prob_cf) < 1e-10, kind
        avg = ladder.base_average_cost(kind)
        assert abs(avg - avg_quoted) / avg_quoted < 0.005, kind
        details.append(f"{kind.value}: p={circuit_prob:.6f} cost={avg:.2f}")
    _report("3", True, "; ".join(details))


# --- criterion 4: climb oracle equivalence ----------------------------------


def test_criterion_4_climb_oracle():
    assert abs(ladder.expected_climb_cost(Family.H, 1) - 8 / 3) < 1e-12
    n = 100_000
    worst_z = 0.0
    for level in range(1, 13):
        rng = derive_rng(DEFAULT_SEED, "acceptance-climb", level)
        total = 0.0
        total_sq = 0.0
        for _ in range(n):
            cost = ladder.simulate_climb(Family.H, level, rng)
            total += cost
            total_sq += cost * cost
        mean = total / n
        stderr = math.sqrt(max(total_sq / n - mean * mean, 0.0) / n)
        z = abs(mean - ladder.expected_climb_cost(Family.H, level)) / stderr
        assert z < 3, (level, z)
        worst_z = max(worst_z, z)
    _report("4", True, f"Monte Carlo matches the walk oracle for levels 1..12 (worst |z| {worst_z:.2f}); E(level 1) = 8/3")


# --- criteria 5 and 6: scaling fits -----------------------------------------


@pytest.fixture(scope="module")
def h_only_study():
    return study.run_scaling_study(study.H_ONLY, 18_000, seed=DEFAULT_SEED)


@pytest.fixture(scope="module")
def multi_study():
    return study.run_scaling_study(study.MULTI, 18_000, seed=DEFAULT_SEED)


def _margin(value: float, se: float, low: float, high: float, fmt: str) -> str:
    """The value with its standard error, and its distance in standard
    errors to the nearer bound of its band (negative outside it)."""
    bound = min((low, high), key=lambda b: abs(value - b))
    margin = min(value - low, high - value) / se
    return f"{value:{fmt}} +/- {se:{fmt}} ({margin:.1f} SE from {bound:{fmt}})"


def _slope(fit, low: float, high: float) -> str:
    return _margin(fit.slope, fit.slope_se, low, high, ".3f")


# the largest |z| a study's bill may read against the exact climb means, as
# perfbench's ORACLE_Z_MAX
BILL_Z_MAX = 5


def _bill_z(scheme: str, samples) -> float:
    """z = sum(offline - E) / sqrt(sum((offline - E)^2)) of a study at
    DEFAULT_SEED, where E sums expected_climb_cost over the states each
    sample consumed.  The study's lockstep is replayed on its own targets,
    accuracies and counter streams with a trace, which names those states;
    the replay must bill the study's offline costs byte for byte."""
    families, ancilla = study._scheme(scheme)
    epsilons = np.array([s.epsilon for s in samples])
    targets = np.array([s.target for s in samples])
    offline = np.array([s.offline for s in samples])
    streams = counter_rows(derive_seed(DEFAULT_SEED, "scaling", scheme), np.arange(len(samples)))
    trace = []
    result = lockstep_synthesize(
        targets,
        epsilons,
        families,
        lambda rows, start, count: counter_draws(streams.take(rows), start, count),
        ancilla=ancilla,
        trace=trace,
    )
    assert result.offline.tobytes() == offline.tobytes()
    means = np.array([ladder.expected_climb_cost(f, level) for f, level, _ in _angle_table(families).plus])
    expected = np.zeros(len(samples))
    for rows, states in trace:
        np.add.at(expected, rows, means.take(states))
    gap = (offline - expected).tolist()
    return math.fsum(gap) / math.sqrt(math.fsum(g * g for g in gap))


def _crossover_se(h_samples, multi_samples, reps: int = 400) -> float:
    """Paired-bootstrap standard error of the offline crossover of two
    studies that share their (epsilon, target) per index: each replicate
    draws the indices once, with replacement, for both studies, and
    refits both offline lines on the drawn samples that consumed a state
    (weighted least squares, a sample's weight its number of draws)."""
    assert [s.epsilon for s in h_samples] == [s.epsilon for s in multi_samples]
    x = np.array([math.log(math.log(1 / s.epsilon)) for s in h_samples])
    lines = [
        (np.array([s.online > 0 for s in samples]), np.log([max(s.offline, 1.0) for s in samples]))
        for samples in (h_samples, multi_samples)
    ]
    rng = np.random.default_rng(DEFAULT_SEED)
    crossovers = []
    for _ in range(reps):
        counts = np.bincount(rng.integers(0, len(x), len(x)), minlength=len(x))
        fits = []
        for consumed, y in lines:
            w = counts * consumed
            xbar, ybar = np.average(x, weights=w), np.average(y, weights=w)
            slope = np.sum(w * (x - xbar) * (y - ybar)) / np.sum(w * (x - xbar) ** 2)
            fits.append(study.FitLine(ybar - slope * xbar, slope))
        crossovers.append(study.sk_crossover(*fits))
    return float(np.std(crossovers, ddof=1))


def test_criterion_5_h_only_scaling(h_only_study):
    samples, fit_on, fit_off = h_only_study
    z = _bill_z(study.H_ONLY, samples)
    ok = 1.19 <= fit_on.slope <= 1.39 and 2.07 <= fit_off.slope <= 2.47 and abs(z) <= BILL_Z_MAX
    _report(
        "5",
        ok,
        f"h-only slopes: online {_slope(fit_on, 1.19, 1.39)} (want 1.19..1.39, ref 1.29), "
        f"offline {_slope(fit_off, 2.07, 2.47)} (want 2.07..2.47, ref 2.27); "
        f"offline bill vs exact climb means z {z:+.2f} (want |z| <= {BILL_Z_MAX})",
    )


def test_criterion_6_multi_scaling(h_only_study, multi_study):
    h_samples, _, fit_off_h = h_only_study
    samples, fit_on, fit_off = multi_study
    crossover = study.sk_crossover(fit_off_h, fit_off)
    z = _bill_z(study.MULTI, samples)
    ok = (
        1.02 <= fit_on.slope <= 1.22
        and 1.55 <= fit_off.slope <= 1.95
        and 1.28e-5 / 2 <= crossover <= 1.28e-5 * 2
        and abs(z) <= BILL_Z_MAX
    )
    se = _crossover_se(h_samples, samples)
    _report(
        "6",
        ok,
        f"multi slopes: online {_slope(fit_on, 1.02, 1.22)} (want 1.02..1.22, ref 1.12), "
        f"offline {_slope(fit_off, 1.55, 1.95)} (want 1.55..1.95, ref 1.75); "
        f"offline crossover vs h-only {_margin(crossover, se, 1.28e-5 / 2, 1.28e-5 * 2, '.2e')} "
        f"(want within 2x of 1.28e-5, paired-bootstrap SE); "
        f"offline bill vs exact climb means z {z:+.2f} (want |z| <= {BILL_Z_MAX})",
    )


# --- criterion 7: min-online ------------------------------------------------


def test_criterion_7_min_online():
    from scipy.stats import chisquare

    # as many samples as criteria 5 and 6's studies
    samples, _, fit_off = study.run_scaling_study(study.MIN_ONLINE, 18_000, seed=DEFAULT_SEED)
    n = len(samples)
    mean_online = sum(s.online for s in samples) / n
    counts: dict[int, int] = {}
    for s in samples:
        counts[s.online] = counts.get(s.online, 0) + 1
    kmax = 8
    observed = [counts.get(k, 0) for k in range(1, kmax)]
    observed.append(n - sum(observed))
    expected = [n * 2.0**-k for k in range(1, kmax)]
    expected.append(n - sum(expected))
    pvalue = chisquare(observed, expected).pvalue
    z = _bill_z(study.MIN_ONLINE, samples)
    ok = 1.9 <= mean_online <= 2.1 and pvalue > 0.01 and 1.55 <= fit_off.slope <= 1.95 and abs(z) <= BILL_Z_MAX
    _report(
        "7",
        ok,
        f"min-online mean {mean_online:.3f} (want 1.9..2.1, ref {study.MIN_ONLINE_MEAN}), "
        f"geometric chi2 p={pvalue:.3f} (want >0.01), offline slope {_slope(fit_off, 1.55, 1.95)} (want 1.55..1.95); "
        f"offline bill vs exact climb means z {z:+.2f} (want |z| <= {BILL_Z_MAX})",
    )


# --- criterion 8: noise suppression -----------------------------------------


def test_criterion_8_noise_suppression():
    p = 1e-4
    level0 = qcore.trace_distance(
        noise.make_noisy_resource(noise.NoiseModel("a", p)), noise.ideal_resource(0)
    )
    assert abs(level0 - p) < 1e-12

    # data ranges per strength; fit windows: the documented ones for the
    # mixture model, the top third of levels otherwise
    grid = {1e-4: (28, 18), 1e-6: (22, 18), 1e-8: (16, 13)}
    details = []
    for kind in ("a", "b", "c"):
        for strength, (max_level, a_window_start) in grid.items():
            fit_from = a_window_start if kind == "a" else max_level - max_level // 3 + 1
            model = noise.NoiseModel(kind, strength)
            points = noise.decay_study(model, max_level, 1000, seed=DEFAULT_SEED)
            fit = noise.fit_exponential_decay([(l, d) for l, d in points if l >= fit_from])
            assert 2.0 <= fit.base <= 2.5, (kind, strength, fit.base)
            # the exact law's base over the same window, and how far the
            # study's means sit from the exact ones (reported, not gated)
            exact = exact_decay(model, max_level)[0]
            exact_fit = noise.fit_exponential_decay([(l, d) for l, d in enumerate(exact, 1) if l >= fit_from])
            z = max(map(abs, decay_z_scores(model, points, 1000)))
            details.append(f"{kind}/{strength:g}: {fit.base:.2f} (exact {exact_fit.base:.4f}, max |z| {z:.2f})")
    _report(
        "8",
        True,
        f"level-0 mixture distance equals p exactly; decay bases in 2.0..2.5 ({', '.join(details)})",
    )


# --- criterion 9: reference crossovers --------------------------------------


def test_criterion_9_reference_crossovers():
    quoted = {
        "h_only_offline_vs_sk_z": 8.71e-4,
        "h_only_offline_vs_sk_unitary": 2.67e-7,
        "multi_offline_vs_sk_z": 4.41e-4,
        "multi_offline_vs_sk_unitary": 1.03e-6,
    }
    crossovers = study.comparison_table()["crossovers"]
    details = []
    for name, reference in quoted.items():
        value = crossovers[name]
        assert reference / 2 <= value <= reference * 2, name
        details.append(f"{name.split('_vs_')[1]}: {value:.2e} vs {reference:.2e}")
    _report("9", True, "stored-constant crossovers within 2x of quoted values (" + ", ".join(details) + ")")


# --- criterion 10: fixed-angle spot checks ----------------------------------


def _cell(mean: float, se: float, quoted: float) -> str:
    """A criterion-10 cell: its mean, band (quoted +-30%), standard error
    and signed distance to the nearer bound in SEs, negative outside."""
    lo, hi = quoted * 0.7, quoted * 1.3
    return f"{mean:.2f} (want {lo:.2f}..{hi:.2f}; SE {se:.2f}, {min(mean - lo, hi - mean) / se:+.1f} SE to the nearer bound)"


def test_criterion_10_fixed_angle_spot_checks():
    row_h = study.fixed_angle_study(math.pi / 16, [1e-8], study.H_ONLY, 20_000, seed=DEFAULT_SEED)[0]
    row_m = study.fixed_angle_study(math.pi / 1024, [1e-12], study.MULTI, 4_000, seed=DEFAULT_SEED)[0]
    on_ok = 24.52 * 0.7 <= row_h.mean_online <= 24.52 * 1.3
    off_ok = 349.8 * 0.7 <= row_h.mean_offline <= 349.8 * 1.3
    multi_ok = 15.23 * 0.7 <= row_m.mean_online <= 15.23 * 1.3
    _report(
        "10",
        on_ok and off_ok and multi_ok,
        f"pi/16@1e-8 h-only: online {_cell(row_h.mean_online, row_h.online_se, 24.52)}, "
        f"offline {_cell(row_h.mean_offline, row_h.offline_se, 349.8)}; "
        f"pi/1024@1e-12 multi: online {_cell(row_m.mean_online, row_m.online_se, 15.23)}",
    )


# --- criterion 11: consolidated property suite -------------------------------


def test_criterion_11_property_suite():
    # termination and cost invariants over random (target, accuracy) pairs
    rng = derive_rng(DEFAULT_SEED, "acceptance-props")
    ln_lo, ln_hi = math.log(1e-12), math.log(1e-4)
    for i in range(10_000):
        eps = math.exp(ln_lo + (ln_hi - ln_lo) * rng.random())
        target = rng.random() * 2 * math.pi
        families = ALL_FAMILIES if i % 2 else (Family.H,)
        result = synthesize(target, SynthesisConfig(epsilon=eps, families=families), rng)
        assert abs(result.residual) <= eps
        assert result.online_cost == len(result.applied)
        assert result.offline_cost >= result.online_cost
        assert result.offline_cost >= sum(
            lvl + 1 for fam, lvl, _ in result.applied if fam is Family.H
        )

    # normalization of every gate kind on a random register
    reg = qcore.product_state(
        qcore.xz_state(0.3), qcore.xz_state(0.7), qcore.xz_state(1.1), qcore.xz_state(0.2)
    )
    for gate in sorted(qcore.GATES_1Q):
        assert abs(sum(abs(a) ** 2 for a in qcore.apply_gate(reg, gate, 2).amps) - 1) < 1e-12
    for gate in sorted(qcore.GATES_2Q):
        assert abs(sum(abs(a) ** 2 for a in qcore.apply_gate(reg, gate, 0, 3).amps) - 1) < 1e-12

    # measurement completeness along a random circuit
    res = measure_qubit(qcore.apply_gate(reg, "CNOT", 1, 0), 0)
    assert abs(res.prob0 + res.prob1 - 1.0) < 1e-12

    # determinism: identical seeds reproduce studies exactly
    a = study.run_scaling_study(study.H_ONLY, 300, seed=DEFAULT_SEED + 1)
    b = study.run_scaling_study(study.H_ONLY, 300, seed=DEFAULT_SEED + 1)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]

    # min-online mean online uses stay near two
    total = 0
    for i in range(2_000):
        inner = derive_rng(DEFAULT_SEED, "acceptance-mo", i)
        eps = math.exp(ln_lo + (ln_hi - ln_lo) * inner.random())
        target = inner.random() * 2 * math.pi
        total += min_online_synthesize(
            target, eps, SynthesisConfig(epsilon=eps, families=ALL_FAMILIES), inner
        ).online_cost
    mean = total / 2_000
    assert 1.9 <= mean <= 2.1

    _report(
        "11",
        True,
        f"termination, accuracy, cost and normalization invariants hold on 1e4 random cases; "
        f"studies are seed-deterministic; min-online mean {mean:.3f}",
    )
