"""Golden digests: fixed (seed, arguments) must keep producing the same bytes.

The digests were recorded before the code they cover was last rebuilt (the
planner's inner loop; the decay fit, factory sampling and crossover solve
when src/ was cut down; the noisy climb loop, with model b added); any
change to the random stream, the tie-breaks, the cost accounting or the fits
shows up here.  A change that alters the stream on purpose updates these
digests and says so in CHANGES.md.  The re-recordings so far:

* noise, when it moved to the counter stream;
* noise, when the noisy climb became a walk over closed-form tables (the
  same draws and walks, but distances free of the step-by-step rounding:
  the means moved by up to 4.3e-7 relative, so the printed 7 digits stayed
  and out.json changed);
* noise model a, when decay_study began to sample each passage between
  first arrivals from its exact law with one draw (the means moved within
  their sampling error; the pure models' bytes stayed);
* noise models b and c (out.json only), when decay_study stopped averaging
  equal numbers for a pure resource and returned the exact distances of
  the one state per level it lands on, reading no draws (the means moved
  in their last digits; the printed 7 digits stayed);
* the scaling JSON, when the fits gained the slope's standard error;
* STUDY_DIGESTS and the scaling command's digests, when run_scaling_study
  moved from one scalar planner run per sample on its own random.Random to
  one numpy lockstep over all samples on counter streams, with each climb
  drawn from its exact cost law by inverse CDF.  That engine change is the
  scaling studies' one deliberate stream change; the fixed-angle row, the
  synth, min-online, climb, factory and noise bytes stayed, as those still
  run the scalar planners and walks;
* noise model a at 0.3 (pinned then, as no digest covered a near-symmetric
  mixture), when decay_study stopped walking near-symmetric mixtures merge
  by merge and sampled them from the passage law capped at the saturation
  row; every other pinned byte stayed;
* the fixed-angle row, when it gained the standard errors of its means
  (the means kept their bytes, which FIXED_ANGLE_MEANS pins).
"""
import hashlib
import math

import pytest

from rotsynth.cli import main
from rotsynth.seeding import DEFAULT_SEED
from rotsynth.study import export_samples_csv, fixed_angle_study, run_scaling_study

STUDY_DIGESTS = {
    "h-only": "1d80e8e062df79c72659c26275a06e46ef77531c9d6d301e69d204450557f262",
    "multi": "50c836d5638795841eda2bdb4373a9c5b1d4b79b5cf8345882e9ce69a15af2f1",
    "min-online": "c623ad24557b8a2d7a5bb82068858707a58c34d6305c6cfa6150022089289c69",
}
# FixedAngleRow(epsilon=1e-08, mean_online=30.52, mean_offline=463.415, n_samples=200,
#               online_se=1.1701470937901473, offline_se=18.176137481426537)
FIXED_ANGLE_DIGEST = "b01e821e8bf8aca3613ab7a49a73ee068f518bc0f5a3a62de230a2fa21b869c4"
# the row's means as they were before the row gained its standard errors
FIXED_ANGLE_MEANS = ("0x1.e851eb851eb85p+4", "0x1.cf6a3d70a3d71p+8")
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
    # a near-symmetric mixture: its passage law is capped at its saturation row
    ("noise", "--model", "a", "--strength", "0.3", "--out", "out.json"): (
        "5db17ccf1d698d2bd4b9fcb893265b75cbacd27b5c28cfeb4c5a2e5393ce22be",
        "420340881a065a99f56475124eb1f45d56e29d32558a1dbd90af142168e027ca",
    ),
    ("noise", "--model", "b", "--strength", "1e-6", "--out", "out.json"): (
        "a43ddfa28da62f092409098b79b50f7c2e59dbe4d30ea24c171e0a8f78422f4e",
        "28399ff49dfdcace4d93e52373fdeabc5e916fce0f8d70fb85edfdfcc5845853",
    ),
    ("noise", "--model", "c", "--strength", "1e-3", "--out", "out.json"): (
        "55cb6e7aa8a2364f0d6126a31cd27c4bda2ae7a7f5a6af161ff90fd9cb28525b",
        "dbd9fbae7cd45d4ddcfc149d38400363d3a61c65c894cb63fbc4793c38c20825",
    ),
    ("scaling", "--scheme", "multi", "--trials", "300", "--format", "json", "--out", "out.json"): (
        "c395a4729acd11d56ce6c663356122307e55ba9b0ba8ba0e9088e8d1b2a4390c",
        "47a648d41bfccbbc206306dc5b973230ddaf847adc7f0a327bc78c5ef5240ae2",
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
    assert (row.mean_online.hex(), row.mean_offline.hex()) == FIXED_ANGLE_MEANS


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
