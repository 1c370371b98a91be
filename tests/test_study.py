import dataclasses
import json
import math
import pickle
import re
import statistics

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import fit_points, load_samples_csv
from rotsynth import study
from rotsynth.study import (
    CSV_HEADER,
    DEFAULT_EPS_RANGE,
    H_ONLY,
    LN3,
    MIN_ONLINE,
    MIN_ONLINE_MEAN,
    MULTI,
    SCHEMES,
    SK_CONSTANTS,
    FitLine,
    ScalingSample,
    comparison_table,
    export_json,
    export_samples_csv,
    fit_columns,
    fit_loglog,
    fits_summary,
    fixed_angle_study,
    run_scaling_study,
    shift_for_unitary,
    sk_crossover,
)
from rotsynth.seeding import derive_rng
from rotsynth.synthesis import SynthesisConfig, min_online_synthesize, synthesize


def test_fit_loglog_two_points_exact():
    fit = fit_loglog([(1.0, 2.0), (3.0, 8.0)])
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-12)
    assert fit.rms_residual == pytest.approx(0.0, abs=1e-12)
    assert math.isnan(fit.slope_se)  # two points leave no residual degree of freedom


@pytest.mark.parametrize("seed", range(4))
def test_fit_loglog_slope_se_equals_scipy(seed):
    """The closed-form standard error of the slope, against scipy's
    linregress on noisy lines of 3 to 300 points."""
    from scipy.stats import linregress

    rng = np.random.default_rng(seed)
    n = (3, 10, 50, 300)[seed]
    xs = rng.uniform(1.5, 3.5, n)
    ys = 1.3 * xs + rng.normal(0, 0.2, n)
    fit = fit_loglog(list(zip(xs.tolist(), ys.tolist())))
    assert fit.slope_se == pytest.approx(linregress(xs, ys).stderr, rel=1e-9)


def test_fit_loglog_recovers_synthetic_cost_law():
    # C = exp(2 lnln(1/eps)) exactly
    import random

    rng = random.Random(5)
    points = []
    for _ in range(500):
        eps = math.exp(-math.exp(rng.uniform(1.5, 3.5)))
        x = math.log(math.log(1 / eps))
        points.append((x, math.log(math.exp(2 * x))))
    fit = fit_loglog(points)
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)


def test_fit_loglog_validation():
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0)])
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (1.0, 2.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1])
def test_fit_loglog_rejects_non_finite_points(bad, position):
    point = (bad, 1.0) if position == 0 else (1.0, bad)
    with pytest.raises(ValueError, match="points must be finite"):
        fit_loglog([point, (2.0, 2.0), (3.0, 3.0)])


def _cloud(seed: int, n: int, scale: float = 1.0) -> tuple[np.ndarray, ...]:
    """x uniform on [1.5, 3.5), a noisy line on it and an unrelated column,
    all but the last times scale."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(1.5, 3.5, n) * scale
    return xs, 1.3 * xs + rng.normal(0, 0.2, n) * scale, rng.normal(2.0, 1.0, n)


def _pointwise(xs, *ys) -> tuple:
    return tuple(fit_points(list(zip(list(xs), list(y)))) for y in ys)


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
@pytest.mark.parametrize("n", [2, 3, 10, 28, 1000, 18000])
def test_fit_columns_is_the_pointwise_fit(n, scale):
    """Every column's fit is the bytes of the point-by-point fit in Python
    floats, from arrays or from lists, and fit_loglog's from points."""
    xs, line, other = _cloud(n, n, scale)
    want = _pointwise(xs.tolist(), line.tolist(), other.tolist())
    assert repr(fit_columns(xs, line, other)) == repr(want)
    assert repr(fit_columns(xs.tolist(), other.tolist())) == repr(want[1:])
    assert repr(fit_loglog(list(zip(xs.tolist(), line.tolist())))) == repr(want[0])


@pytest.mark.parametrize("n", [3, 28])
def test_fit_columns_takes_integer_x(n):
    """Levels, as the noise decay fit passes them: Python or numpy integers."""
    levels = list(range(4, 4 + n))
    ys = [math.log(0.3**lvl * (1 + 0.01 * (lvl % 3))) for lvl in levels]
    want = _pointwise(levels, ys)
    assert repr(fit_columns(levels, ys)) == repr(want)
    assert repr(fit_columns(np.array(levels), np.array(ys))) == repr(want)


def test_fit_columns_squares_as_pow_does():
    """This cloud's fit moves if the squares are taken by multiplication,
    which differs from pow in the last bit of some doubles."""
    xs, line, _ = _cloud(157, 10)
    points = list(zip(xs.tolist(), line.tolist()))
    assert repr(fit_points(points, square=lambda d: d * d)) != repr(fit_points(points))
    assert repr(fit_columns(xs, line)) == repr((fit_points(points),))


@pytest.mark.parametrize(
    "xs, ys, message",
    [
        ([1.0], [2.0], "need at least two points"),
        ([], [], "need at least two points"),
        ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0], "points must be finite"),
        ([1.0, 2.0, 3.0], [1.0, -math.inf, 3.0], "points must be finite"),
        ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "x values are degenerate"),
    ],
)
def test_fit_columns_refuses_what_the_pointwise_fit_refuses(xs, ys, message):
    """With the same message, in the first column or a later one."""
    for fit in (
        lambda: fit_points(list(zip(xs, ys))),
        lambda: fit_columns(xs, ys),
        lambda: fit_columns(xs, [0.0] * len(xs), ys),
        lambda: fit_loglog(list(zip(xs, ys))),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit()


def test_fit_columns_refuses_a_column_of_another_length():
    with pytest.raises(ValueError, match="^need one y per x in every column$"):
        fit_columns([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0])


def test_sk_crossover_algebra():
    # identical intercepts, different slopes: x = 0, eps = 1/e
    assert sk_crossover(FitLine(1.0, 2.0), FitLine(1.0, 3.0)) == pytest.approx(math.exp(-1), rel=1e-12)
    with pytest.raises(ValueError):
        sk_crossover(FitLine(0.0, 2.0), FitLine(1.0, 2.0))
    # just inside either end of the floats: a subnormal eps, and the float below 1
    assert 0.0 < sk_crossover(FitLine(0.0, 1.0), FitLine(6.61, 0.0)) < 2.0**-1022
    assert sk_crossover(FitLine(0.0, 1.0), FitLine(-37.4, 0.0)) == 1.0 - 2.0**-53


@pytest.mark.parametrize(
    "x",
    [
        6.62,  # eps = exp(-exp(x)) underflows to 0
        700.0,
        709.8,  # exp(x) overflows
        1000.0,
        -37.5,  # eps rounds to 1
        -1000.0,
    ],
)
def test_sk_crossover_refuses_a_crossing_where_eps_is_no_float(x):
    """Lines that cross where eps is not a float in (0, 1) raise ValueError
    naming x, not 0.0, 1.0 or math.exp's OverflowError."""
    with pytest.raises(ValueError, match=f"^the lines cross at lnln\\(1/eps\\) = {re.escape(repr(x))}, "):
        sk_crossover(FitLine(0.0, 1.0), FitLine(x, 0.0))


def test_reference_crossovers_match_quoted_values():
    """Crossovers recomputed from the two-decimal reference constants land
    within a factor of two of the quoted accuracies."""
    quoted = {
        "h_only_offline_vs_sk_z": 8.71e-4,
        "h_only_offline_vs_sk_unitary": 2.67e-7,
        "multi_offline_vs_sk_z": 4.41e-4,
        "multi_offline_vs_sk_unitary": 1.03e-6,
        "multi_offline_vs_h_only_offline": 1.28e-5,
    }
    crossovers = comparison_table()["crossovers"]
    for name, reference in quoted.items():
        assert reference / 2 <= crossovers[name] <= reference * 2, name


def test_unitary_shift_is_exactly_ln3():
    line = FitLine(-0.72, 2.27)
    shifted = shift_for_unitary(line)
    assert shifted.intercept - line.intercept == LN3
    assert shifted.slope == line.slope
    table = comparison_table()
    assert table["constants"]["unitary_shift"] == LN3


def test_sk_constants_are_fixed_data():
    assert SK_CONSTANTS.sk_z == FitLine(-4.88, 4.41)
    assert SK_CONSTANTS.sk_unitary == FitLine(-2.67, 3.40)
    assert MIN_ONLINE_MEAN == 1.99
    # only lines: comparison_table exports every field as one
    assert all(isinstance(getattr(SK_CONSTANTS, f.name), FitLine) for f in dataclasses.fields(SK_CONSTANTS))


def test_run_scaling_study_deterministic():
    a = run_scaling_study(H_ONLY, 200, seed=99)
    b = run_scaling_study(H_ONLY, 200, seed=99)
    assert a[0] == b[0]
    assert a[1] == b[1] and a[2] == b[2]
    c = run_scaling_study(H_ONLY, 200, seed=100)
    assert c[0] != a[0]


def test_run_scaling_study_jobs_do_not_change_results():
    serial = run_scaling_study(MULTI, 300, seed=7, jobs=1)
    parallel = run_scaling_study(MULTI, 300, seed=7, jobs=2)
    assert serial[0] == parallel[0]
    assert serial[1] == parallel[1]


@pytest.mark.parametrize(
    "jobs, cores, n_samples",
    [(5000, 2, 2), (5000, 64, 769), (3, 64, 600), (8, 2, 600), (4, None, 600), (2, 8, 257)],
)
def test_jobs_start_no_pool_and_change_nothing(jobs, cores, n_samples, monkeypatch):
    """jobs is validated and has no effect: whatever jobs, the machine's
    core count and the sample count, the study runs in this process and
    gives the jobs=1 samples and fits."""
    import concurrent.futures
    import os

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    want = run_scaling_study(H_ONLY, n_samples, seed=7, jobs=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert run_scaling_study(H_ONLY, n_samples, seed=7, jobs=jobs) == want


def test_run_scaling_study_eps_range_respected():
    samples, _, _ = run_scaling_study(H_ONLY, 150, eps_range=(1e-6, 1e-3), seed=3)
    assert all(1e-6 <= s.epsilon <= 1e-3 for s in samples)
    assert all(0 < s.target < 2 * math.pi for s in samples)
    assert all(s.scheme == H_ONLY for s in samples)


@pytest.mark.parametrize(
    "eps_range",
    [(0.0, 1e-4), (-1e-6, 1e-4), (1e-6, 1.0), (1e-6, 2.0), (1e-4, 1e-6), (math.nan, 1e-4), (1e-6, math.inf)],
)
def test_run_scaling_study_rejects_eps_range_outside_unit_interval(eps_range):
    with pytest.raises(ValueError, match="0 < lo <= hi < 1"):
        run_scaling_study(H_ONLY, 10, eps_range=eps_range, seed=3)


@pytest.mark.parametrize("n", [2.5, 2.0, "10", None])
def test_run_scaling_study_rejects_a_non_integral_sample_count(n):
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        run_scaling_study(H_ONLY, n, seed=3)


@pytest.mark.parametrize("jobs", [1.5, 2.0, "2"])
def test_run_scaling_study_rejects_a_non_integral_job_count(jobs):
    with pytest.raises(ValueError, match="jobs must be an integer"):
        run_scaling_study(H_ONLY, 10, seed=3, jobs=jobs)


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_scaling_study_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
        run_scaling_study(H_ONLY, 5, seed=3, jobs=jobs)


def test_run_scaling_study_refuses_a_single_accuracy_before_sampling(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(study, "lockstep_synthesize", spy)
    with pytest.raises(ValueError, match=r"^eps_range holds one accuracy, 1e-06: the fits need lo < hi$"):
        run_scaling_study(H_ONLY, 20, eps_range=(1e-6, 1e-6), seed=3)


@pytest.mark.parametrize("scheme", [H_ONLY, MIN_ONLINE])
def test_run_scaling_study_names_too_few_consuming_samples(scheme):
    """Accuracies above pi/4 leave every folded target within its epsilon,
    so no sample consumes a state and there is nothing to fit."""
    with pytest.raises(ValueError, match=r"^0 of 3 samples consumed a state, and the fits need two"):
        run_scaling_study(scheme, 3, eps_range=(0.8, 0.9), seed=3)


def test_run_scaling_study_refuses_more_samples_than_the_counter_holds(monkeypatch):
    """Refused before an array is sized by the count."""

    def spy(*args, **kwargs):
        raise AssertionError(f"np.arange{args}")

    monkeypatch.setattr(np, "arange", spy)
    with pytest.raises(ValueError, match=r"^n_samples must be at most 4294967296, got 4294967297$"):
        run_scaling_study(H_ONLY, 2**32 + 1)


@pytest.mark.parametrize("scheme", [H_ONLY, MULTI, MIN_ONLINE])
def test_samples_depend_on_neither_the_batch_nor_jobs(scheme):
    """Sample i reads row i of the streams alone: a prefix of the study
    and the study at jobs=2 give the same samples."""
    samples = run_scaling_study(scheme, 600, seed=5)[0]
    assert run_scaling_study(scheme, 300, seed=5)[0] == samples[:300]
    assert run_scaling_study(scheme, 600, seed=5, jobs=2)[0] == samples


def test_run_scaling_study_accepts_numpy_integer_counts():
    numpy_counts = run_scaling_study(H_ONLY, np.int32(10), seed=3, jobs=np.int64(1))
    assert numpy_counts == run_scaling_study(H_ONLY, 10, seed=3)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_scaling_study_returns_records_and_the_pointwise_fits(scheme):
    """ScalingSample instances of plain Python values, and the fits of
    their consuming samples' (lnln(1/eps), ln C) points."""
    samples, fit_on, fit_off = run_scaling_study(scheme, 200, seed=2)
    assert all(type(s) is ScalingSample for s in samples)
    assert {tuple(map(type, s)) for s in samples} == {(str, float, float, int, float)}
    consumed = [s for s in samples if s.online > 0]
    xs = [math.log(math.log(1 / s.epsilon)) for s in consumed]
    want = _pointwise(xs, [math.log(s.online) for s in consumed], [math.log(s.offline) for s in consumed])
    assert repr((fit_on, fit_off)) == repr(want)


def test_min_online_scheme_samples():
    samples, fit_on, _ = run_scaling_study(MIN_ONLINE, 300, seed=11)
    mean_online = sum(s.online for s in samples) / len(samples)
    assert 1.7 <= mean_online <= 2.3
    # online cost does not grow with accuracy
    assert abs(fit_on.slope) < 0.2


def test_export_csv_roundtrip(tmp_path):
    samples, fit_on, fit_off = run_scaling_study(H_ONLY, 150, seed=42)
    path = tmp_path / "samples.csv"
    export_samples_csv(samples, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 151
    back = load_samples_csv(str(path))
    assert back == samples
    refit_on = fit_loglog(
        [(math.log(math.log(1 / s.epsilon)), math.log(s.online)) for s in back if s.online > 0]
    )
    assert refit_on.intercept == fit_on.intercept
    assert refit_on.slope == fit_on.slope


def test_export_csv_byte_stable(tmp_path):
    samples, _, _ = run_scaling_study(H_ONLY, 80, seed=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_samples_csv(samples, str(p1))
    export_samples_csv(run_scaling_study(H_ONLY, 80, seed=4)[0], str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_samples_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_samples_csv(str(path))


def test_fits_summary_and_json_export(tmp_path):
    _, fit_on, fit_off = run_scaling_study(H_ONLY, 150, seed=8)
    summary = fits_summary(H_ONLY, fit_on, fit_off, seed=8, eps_range=DEFAULT_EPS_RANGE)
    path = tmp_path / "fits.json"
    export_json(summary, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["online"]["slope"] == fit_on.slope
    assert loaded["offline"]["slope"] == fit_off.slope
    assert loaded["scheme"] == H_ONLY
    export_json(summary, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_fixed_angle_study_quarter_turn():
    rows = fixed_angle_study(math.pi / 4, [1e-4, 1e-8], H_ONLY, 50, seed=2)
    for row in rows:
        assert row.mean_online == pytest.approx(1.0)
        assert row.mean_offline == pytest.approx(1.0)
        assert row.n_samples == 50
        assert row.online_se == row.offline_se == 0.0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fixed_angle_study_standard_errors(scheme):
    """Each mean's standard error is the SD of its samples over sqrt(n):
    the samples replayed from their streams, the SD by statistics; a single
    sample has none."""
    rows = fixed_angle_study(0.3, [1e-3, 1e-6], scheme, 40, seed=5)
    families, ancilla = study._scheme(scheme)
    for eps_index, row in enumerate(rows):
        config = SynthesisConfig(epsilon=row.epsilon, families=families)
        results = []
        for i in range(40):
            rng = derive_rng(5, "fixed", scheme, eps_index, i)
            results.append(
                min_online_synthesize(0.3, row.epsilon, config, rng) if ancilla else synthesize(0.3, config, rng)
            )
        for costs, mean, se in (
            ([r.online_cost for r in results], row.mean_online, row.online_se),
            ([r.offline_cost for r in results], row.mean_offline, row.offline_se),
        ):
            assert mean == statistics.fmean(costs)
            assert se > 0
            assert se == pytest.approx(statistics.stdev(costs) / math.sqrt(40), rel=1e-12)
    (row,) = fixed_angle_study(0.3, [1e-3], scheme, 1)
    assert math.isnan(row.online_se) and math.isnan(row.offline_se)


def test_fixed_angle_study_validation():
    with pytest.raises(ValueError):
        fixed_angle_study(0.0, [1e-4], H_ONLY, 10)


@pytest.mark.parametrize("eps_list", [[], [1e-3]])
def test_fixed_angle_study_rejects_an_unknown_scheme(eps_list):
    """Before any accuracy is run, so an empty list cannot hide the name;
    the scaling study checks through the same dispatch."""
    with pytest.raises(ValueError, match="^unknown scheme 'bogus'$"):
        fixed_angle_study(0.5, eps_list, "bogus", 10)
    with pytest.raises(ValueError, match="^unknown scheme 'bogus'$"):
        run_scaling_study("bogus", 2)


@pytest.mark.parametrize("n", [0, -2])
def test_fixed_angle_study_requires_a_sample(n):
    with pytest.raises(ValueError, match="need at least one sample"):
        fixed_angle_study(0.3, [1e-3], H_ONLY, n)


@given(st.floats() | st.fractions() | st.text())
def test_fixed_angle_study_rejects_a_non_integral_count(n):
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        fixed_angle_study(0.3, [1e-3], H_ONLY, n)


@pytest.mark.parametrize("dtype", [np.int16, np.int64, np.uint32])
def test_fixed_angle_study_accepts_numpy_integer_counts(dtype):
    assert fixed_angle_study(0.3, [1e-3], H_ONLY, dtype(5), seed=2) == fixed_angle_study(
        0.3, [1e-3], H_ONLY, 5, seed=2
    )


def test_scaling_sample_is_plain_record():
    """A read-only record that pickles."""
    s = ScalingSample(H_ONLY, 1e-6, 1.0, 3, 17.5)
    assert s.scheme == H_ONLY
    assert s.online == 3
    with pytest.raises(AttributeError):
        s.online = 4
    back = pickle.loads(pickle.dumps(s))
    assert type(back) is ScalingSample and back == s
