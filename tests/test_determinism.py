"""Golden digests: fixed (seed, arguments) must keep producing the same bytes.

The digests were recorded before the code they cover was last rebuilt (the
planner's inner loop; the decay fit, factory sampling and crossover solve
when src/ was cut down; the noisy climb loop, with model b added); any
change to the random stream, the tie-breaks, the cost accounting or the fits
shows up here.  A change that alters the stream on purpose updates these
digests and says so in CHANGES.md: the noise digests were re-recorded when
noise moved to the counter stream, and again when the noisy climb became a
walk over closed-form tables (the same draws and walks, but distances free
of the step-by-step rounding: the means moved by up to 4.3e-7 relative, so
the printed 7 digits stayed and out.json changed), and again when
decay_study began to sample each passage between first arrivals from its
exact law with one draw (model a's means moved within their sampling error;
the pure models' bytes stayed).
Pure-state noise (models b and c) lands on one state per level whatever the
draws, so only the last digits of its means can move with the stream.
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
    ("climb", "--family", "h", "--level", "12", "--trials", "2000"):
        "e152c16308ba994c0441090031ec7c80f98d6dcb8e13f07a45a179fcd4c3e6c2",
    ("climb", "--family", "psi1", "--level", "12", "--trials", "2000"):
        "e74d4f1a0bb334b23f5353b7ea27ed4bddad236c650b0289e6e0b77306363c4a",
    ("factory", "--kind", "psi0", "--trials", "2000"):
        "135d404026074e443eac44d584eb833f3a6c6099f9cb058f9b3a7906d680804e",
    ("factory", "--kind", "psi1", "--trials", "2000"):
        "e247a08589baf41b31c25abf506f96c3e5451b04af269ff0a6269c0a5cf2bcc8",
    ("factory", "--kind", "psi2", "--trials", "2000"):
        "1faec1abae9e1c6085f5fecc3d2619a35d6a6fbb0dcfabc7adfdcadf402e97e4",
}
# (stdout, out.json) digests of commands that also write a file; they run in
# an empty directory, so the "wrote out.json" line is the same everywhere
CLI_FILE_DIGESTS = {
    ("noise", "--model", "a", "--strength", "1e-4", "--out", "out.json"): (
        "535d6c2732f3bee6d85fccc4d8ca323cce1b8087bd30817393a1a43dcbb1b978",
        "5594ce907139e575c54505a05ac60f47b645a0a6521f0b0cc77f3d03e4797711",
    ),
    ("noise", "--model", "b", "--strength", "1e-6", "--out", "out.json"): (
        "a43ddfa28da62f092409098b79b50f7c2e59dbe4d30ea24c171e0a8f78422f4e",
        "c8092a055ede3cf86d0c5f348384948fb49e5e8d7ae1f3a496bbcdcd748aaa71",
    ),
    ("noise", "--model", "c", "--strength", "1e-3", "--out", "out.json"): (
        "55cb6e7aa8a2364f0d6126a31cd27c4bda2ae7a7f5a6af161ff90fd9cb28525b",
        "367c86f86f0298a182d5cd9fae0831447307914091ef67827c01e3633a7844ec",
    ),
    ("scaling", "--scheme", "multi", "--trials", "300", "--format", "json", "--out", "out.json"): (
        "ae9d19689dab50c94eb9627e380e7cc8b70c79d60d0e49c4023c734dcb48a561",
        "cf14487dd8617f16eb72b4d2a34208c96b0c40f0ebc7e42b6525551f5d99f981",
    ),
    ("compare-sk", "--out", "out.json"): (
        "79f217c710a4e123e0640a11b045b42d36331906ac693195d0008a10f03643cc",
        "2f00e7bc3f177aeb2dcb925b54b8befc93011ad67c855d40faeee2a385513130",
    ),
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


@pytest.mark.parametrize("argv", sorted(CLI_FILE_DIGESTS))
def test_cli_stdout_and_file(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    digests = (_sha256(capsys.readouterr().out.encode()), _sha256((tmp_path / "out.json").read_bytes()))
    assert digests == CLI_FILE_DIGESTS[argv]
