"""Golden digests: fixed (seed, arguments) must keep producing the same bytes.

The digests were recorded from the planner before its inner loop was
rebuilt around the shared angle table and walk; any change to the random
stream, the tie-breaks or the cost accounting shows up here.  A change that
alters the stream on purpose updates these digests and says so in
CHANGES.md.
"""
import hashlib
import math

import pytest

from rotsynth.cli import main
from rotsynth.seeding import DEFAULT_SEED
from rotsynth.study import export_samples_csv, fixed_angle_study, run_scaling_study

STUDY_DIGESTS = {
    "h-only": "712cea4a2a9a8fa0a2e0c574280a4f0f9664af5ba08f45825c28a7f23dd8844e",
    "multi": "0f794e866ff9593d9bce563781c36f4884afb14dafcc7e93f541553e7dcdda3e",
    "min-online": "8b26e4b27994924883c17896d5d50769d7c0e95a6285262bc27865918b4a2086",
}
# FixedAngleRow(epsilon=1e-08, mean_online=30.52, mean_offline=463.415, n_samples=200)
FIXED_ANGLE_DIGEST = "010178cbb68ca05ae81b265820b10b540dbcb591f6e02b676ee127ded2c5f04a"
CLI_DIGESTS = {
    ("synth", "--target", "0.61", "--eps", "1e-9", "--families", "all", "--trials", "50"):
        "3428beabaa1b1174b5486d15aeeaa0a5e20b6880f944201cba3a77652f03bb1f",
    ("synth", "--target", "1.3", "--eps", "1e-7", "--families", "h", "--trials", "50"):
        "ee9ce9df128e56451c756f1a72af69246c2715051fc62b85cb0072d80f4fa80f",
    # one run printed in full: pins every (family, level, sign) the planner picks
    ("synth", "--target", "0.61", "--eps", "1e-12", "--families", "all"):
        "0745913deecb9701f852d7655c69b1531ecf2235bb3fbf36453740a52257effe",
    ("min-online", "--target", "1.3", "--eps", "1e-8", "--trials", "50"):
        "00b54c0304a39031f46ddf2bfb82ae8801cc17f0fa339d0575bd5265fcad7b6b",
    ("climb", "--family", "psi1", "--level", "12", "--trials", "2000"):
        "e74d4f1a0bb334b23f5353b7ea27ed4bddad236c650b0289e6e0b77306363c4a",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("scheme", sorted(STUDY_DIGESTS))
def test_study_csv_bytes(scheme, tmp_path):
    samples, _, _ = run_scaling_study(scheme, 300, seed=DEFAULT_SEED)
    path = tmp_path / "samples.csv"
    export_samples_csv(samples, str(path))
    assert _sha256(path.read_bytes()) == STUDY_DIGESTS[scheme]


def test_fixed_angle_row():
    (row,) = fixed_angle_study(math.pi / 16, [1e-8], "h-only", 200, seed=DEFAULT_SEED)
    assert _sha256(repr(row).encode()) == FIXED_ANGLE_DIGEST


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS))
def test_cli_stdout(argv, capsys):
    assert main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out.encode()) == CLI_DIGESTS[argv]
