import json

import numpy as np
import pytest

from rotsynth import factories
from rotsynth.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SUBCOMMANDS = [
    "angles",
    "climb",
    "factory",
    "synth",
    "min-online",
    "scaling",
    "noise",
    "compare-sk",
]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["angles", "--bogus"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_angles_h_table(capsys):
    code, out, _ = run_cli(capsys, "angles", "--family", "h", "--max", "8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10  # header + levels 0..8
    level8 = float(lines[-1].split()[1])
    assert level8 == pytest.approx(7.179e-4, abs=1e-6)


def test_angles_all_families(capsys):
    code, out, _ = run_cli(capsys, "angles", "--family", "all", "--max", "1")
    assert code == 0
    header = out.splitlines()[0]
    for name in ("h", "psi0", "psi1", "psi2"):
        assert name in header


def test_angles_bad_level(capsys):
    code, _, err = run_cli(capsys, "angles", "--max", "900")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("level", ["-1", "151"])
@pytest.mark.parametrize("command, option", [("angles", "--max"), ("climb", "--level")])
def test_level_error_names_the_option(capsys, command, option, level):
    code, out, err = run_cli(capsys, command, option, level)
    assert code == 1 and out == ""
    assert f"error: {option} must be in [0, 150], got {level}" in err


def test_climb_reports_oracle_and_mean(capsys):
    code, out, _ = run_cli(capsys, "climb", "--family", "h", "--level", "1", "--trials", "4000", "--seed", "5")
    assert code == 0
    assert "expected cost (exact) 2.666667" in out
    mean = float(out.splitlines()[-1].split()[3])
    assert abs(mean - 8 / 3) < 0.1


def test_factory_output(capsys):
    code, out, _ = run_cli(capsys, "factory", "--kind", "psi2", "--trials", "2000", "--seed", "3")
    assert code == 0
    assert "0.343750000000" in out
    assert "code check            ok" in out


@pytest.mark.parametrize("kind", ["psi0", "psi1", "psi2"])
def test_factory_command_runs_its_circuit_once(kind, capsys, monkeypatch):
    """The printed circuit probability is the code check's: nothing caches
    the circuit, so the command runs it once."""
    calls = []
    run = factories.simulate_factory_circuit
    monkeypatch.setattr(factories, "simulate_factory_circuit", lambda k: calls.append(k) or run(k))
    code, out, _ = run_cli(capsys, "factory", "--kind", kind, "--trials", "10")
    assert code == 0
    assert [k.value for k in calls] == [kind]


def test_synth_quarter_turn(capsys):
    code, out, _ = run_cli(
        capsys, "synth", "--target", "0.7853981634", "--eps", "1e-6", "--families", "h", "--seed", "1"
    )
    assert code == 0
    assert "online cost  1" in out
    assert "offline cost 1.0" in out


def test_synth_trials_mean(capsys):
    code, out, _ = run_cli(
        capsys, "synth", "--target", "0.41", "--eps", "1e-4", "--trials", "50", "--seed", "2"
    )
    assert code == 0
    assert "mean online" in out


def test_synth_epsilon_below_the_deepest_ladder(capsys):
    # the CLI has no level-cap option, so the error must not advise raising one
    code, out, err = run_cli(capsys, "synth", "--target", "1", "--eps", "1e-60")
    assert (code, out) == (1, "")
    assert err == (
        "error: epsilon 1.000e-60 is below what 150 levels reach: "
        "finest enabled rotation 3.176e-58 exceeds epsilon/2\n"
    )


def test_min_online_command(capsys):
    code, out, _ = run_cli(
        capsys, "min-online", "--target", "1.1", "--eps", "1e-5", "--trials", "40", "--seed", "4"
    )
    assert code == 0
    assert "mean online" in out


def test_families_parsing_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--target", "1.0", "--eps", "1e-4", "--families", "h,nope"])
    assert exc.value.code == 2


def test_scaling_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "samples.csv"
    code, out, _ = run_cli(
        capsys,
        "scaling",
        "--scheme",
        "h-only",
        "--trials",
        "120",
        "--seed",
        "7",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert "online  fit" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "scheme,epsilon,target,online,offline"
    assert len(lines) == 121


def test_scaling_writes_json(tmp_path, capsys):
    out_path = tmp_path / "fits.json"
    code, _, _ = run_cli(
        capsys,
        "scaling",
        "--scheme",
        "multi",
        "--trials",
        "120",
        "--seed",
        "7",
        "--out",
        str(out_path),
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert "slope" in data["online"] and "slope" in data["offline"]


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_two_point_scaling_json_is_strict(tmp_path, capsys):
    """Two samples leave each fit's slope_se undefined: it is written as
    null, and the file parses with NaN and the infinities refused."""
    out_path = tmp_path / "fits.json"
    code, _, _ = run_cli(capsys, "scaling", "--scheme", "h-only", "--trials", "2", "--out", str(out_path), "--format", "json")
    assert code == 0
    data = json.loads(out_path.read_text(), parse_constant=_refuse)
    assert data["online"]["slope_se"] is None and data["offline"]["slope_se"] is None
    assert data["online"]["n_samples"] == 2


def test_stdout_byte_identical_for_same_seed(capsys):
    args = ("scaling", "--scheme", "h-only", "--trials", "60", "--seed", "13")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_noise_command(tmp_path, capsys):
    out_path = tmp_path / "noise.json"
    code, out, _ = run_cli(
        capsys,
        "noise",
        "--model",
        "a",
        "--strength",
        "1e-4",
        "--levels",
        "8",
        "--instances",
        "50",
        "--seed",
        "9",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert "fit over levels" in out
    data = json.loads(out_path.read_text())
    assert len(data["means"]) == 8
    assert data["fit"]["base"] > 1.0


@pytest.mark.parametrize(
    "levels, window", [(3, "1..3"), (4, "2..4"), (5, "3..5"), (9, "6..9"), (16, "11..16"), (28, "19..28")]
)
def test_noise_default_fit_window(levels, window, capsys):
    """Without --fit-from the fit runs over levels L - L//3 .. L, and at least the top three."""
    code, out, _ = run_cli(
        capsys, "noise", "--model", "a", "--strength", "1e-4", "--levels", str(levels), "--instances", "20"
    )
    assert code == 0
    assert f"fit over levels {window}:" in out


def test_noise_fit_from_sets_the_window(capsys):
    argv = ["noise", "--model", "a", "--strength", "1e-4", "--levels", "28", "--instances", "20"]
    code, out, _ = run_cli(capsys, *argv, "--fit-from", "18")
    assert code == 0
    assert "fit over levels 18..28:" in out
    code, out, err = run_cli(capsys, *argv, "--fit-from", "27")
    assert code == 1
    assert out == ""
    assert "need at least 3 points" in err


@pytest.mark.parametrize("levels", ["2", "0", "-1"])
def test_noise_too_few_levels_is_usage_error(levels, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["noise", "--model", "a", "--strength", "1e-4", "--levels", levels])
    assert exc.value.code == 2
    assert "--levels: must be at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["151", "1000"])
def test_noise_levels_above_the_ladder_cap_is_usage_error(levels, capsys):
    """--levels 1000 used to run the whole study, then fail in the fit
    because the ideal angles underflow past level ~840."""
    with pytest.raises(SystemExit) as exc:
        main(["noise", "--model", "a", "--strength", "1e-4", "--levels", levels])
    assert exc.value.code == 2
    assert f"--levels: must be at most 150, got {levels}" in capsys.readouterr().err


def test_compare_sk(tmp_path, capsys):
    out_path = tmp_path / "cmp.json"
    code, out, _ = run_cli(capsys, "compare-sk", "--out", str(out_path))
    assert code == 0
    assert "multi_offline_vs_h_only_offline" in out
    data = json.loads(out_path.read_text())
    assert data["crossovers"]["multi_offline_vs_h_only_offline"] == pytest.approx(
        1.26e-5, rel=0.05
    )


def test_parser_prog_name():
    assert build_parser().prog == "rotsynth"


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--target", "1.0", "--eps", "1e-4"),
        ("min-online", "--target", "1.0", "--eps", "1e-4"),
        ("climb", "--level", "3"),
        ("factory", "--kind", "psi0"),
    ],
)
@pytest.mark.parametrize("count", ["0", "-3"])
def test_non_positive_trials_is_usage_error(argv, count, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--trials", count])
    assert exc.value.code == 2
    assert "--trials: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_non_positive_instances_is_usage_error(count, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["noise", "--model", "a", "--strength", "1e-4", "--instances", count])
    assert exc.value.code == 2
    assert "--instances: must be a positive integer" in capsys.readouterr().err


def test_non_integer_trials_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["climb", "--level", "3", "--trials", "ten"])
    assert exc.value.code == 2
    assert "invalid int value: 'ten'" in capsys.readouterr().err


@pytest.mark.parametrize("strength", ["nan", "inf"])
def test_noise_non_finite_strength_is_error(strength, capsys):
    code, _, err = run_cli(capsys, "noise", "--model", "a", "--strength", strength)
    assert code == 1
    assert "strength must be finite" in err


@pytest.mark.parametrize("command", ["angles", "climb"])
def test_unknown_family_is_usage_error(command, capsys):
    argv = [command, "--family", "bogus"] + (["--level", "3"] if command == "climb" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unknown family 'bogus'; choose from h,psi0,psi1,psi2" in capsys.readouterr().err


def test_climb_rejects_all_families(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["climb", "--family", "all", "--level", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["synth", "min-online"])
def test_repeated_family_is_error(command, capsys):
    code, out, err = run_cli(capsys, command, "--target", "0.5", "--eps", "1e-6", "--families", "h,psi1,h")
    assert code == 1
    assert out == ""
    assert err == "error: family 'h' is repeated in families\n"


_SCALING = ("scaling", "--scheme", "h-only")


@pytest.mark.parametrize("count", ["1", "0", "-2"])
def test_scaling_too_few_trials_is_usage_error(count, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*_SCALING, "--trials", count])
    assert exc.value.code == 2
    assert "--trials: must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bounds", [("--eps-min", "0"), ("--eps-max", "2"), ("--eps-min", "1e-3", "--eps-max", "1e-5")]
)
def test_scaling_eps_range_outside_unit_interval_is_error(bounds, capsys):
    code, out, err = run_cli(capsys, *_SCALING, "--trials", "10", *bounds)
    assert code == 1
    assert out == ""
    assert "eps_range must satisfy 0 < lo <= hi < 1" in err


def test_scaling_single_accuracy_is_error(capsys):
    """A range of one accuracy gives the fit one lnln(1/eps): refused with
    its own message, not the fit's "x values are degenerate"."""
    code, out, err = run_cli(capsys, *_SCALING, "--trials", "20", "--eps-min", "1e-6", "--eps-max", "1e-6")
    assert code == 1
    assert out == ""
    assert err == "error: eps_range holds one accuracy, 1e-06: the fits need lo < hi\n"


def test_scaling_with_no_sample_consuming_a_state_is_error(capsys):
    """Accuracies above pi/4 leave every folded target within its epsilon."""
    code, out, err = run_cli(capsys, *_SCALING, "--trials", "3", "--eps-min", "0.8", "--eps-max", "0.9")
    assert code == 1
    assert out == ""
    assert err.startswith("error: 0 of 3 samples consumed a state, and the fits need two")


def test_more_instances_than_the_counter_holds_exit_1(capsys, monkeypatch):
    """Refused before an array is sized by the count (np.arange would
    raise here)."""

    def spy(*args, **kwargs):
        raise AssertionError(f"np.arange{args}")

    monkeypatch.setattr(np, "arange", spy)
    assert main(["noise", "--model", "a", "--strength", "1e-4", "--instances", "5000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: n_instances must be at most 4294967296, got 5000000000\n"
    assert captured.out == ""
