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
  (the means kept their bytes, which FIXED_ANGLE_MEANS pins);
* the four noise out.json files, when the decay fit gained the slope's
  standard error (fit.slope_se): stdout stayed, and each file without that
  key is the bytes it was before, which NOISE_FILES_BEFORE_SLOPE_SE pins.
"""
import hashlib
import json
import math

import numpy as np
import pytest

from oracles import climb_law_prefix, passage_prefix
from rotsynth import noise
from rotsynth.cli import main
from rotsynth.ladder import ALL_FAMILIES, MAX_LEVEL, Family
from rotsynth.noise import NoiseModel
from rotsynth.seeding import DEFAULT_SEED, GUIDE_BITS
from rotsynth.study import export_samples_csv, fixed_angle_study, run_scaling_study
from rotsynth.synthesis import _angle_table, _AngleTable

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
        "c28a7040ca3e589dc8fc8645ddb2a794137a5e29fbd38542e93999e6a6da686d",
    ),
    # a near-symmetric mixture: its passage law is capped at its saturation row
    ("noise", "--model", "a", "--strength", "0.3", "--out", "out.json"): (
        "5db17ccf1d698d2bd4b9fcb893265b75cbacd27b5c28cfeb4c5a2e5393ce22be",
        "efea38b4da2db9d4b10d80eab8bac5ec946d213acaa99c220c60513f1df7a3b1",
    ),
    ("noise", "--model", "b", "--strength", "1e-6", "--out", "out.json"): (
        "a43ddfa28da62f092409098b79b50f7c2e59dbe4d30ea24c171e0a8f78422f4e",
        "d495e19b3b9cb83dc530af7db8bdbfc3569ac4980bfe3bf89647b31f6b2d5649",
    ),
    ("noise", "--model", "c", "--strength", "1e-3", "--out", "out.json"): (
        "55cb6e7aa8a2364f0d6126a31cd27c4bda2ae7a7f5a6af161ff90fd9cb28525b",
        "b169ab3301492f9af22338f7c849572e57a43a188d3784d8b9689a19fee74c6b",
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
# the noise out.json digests as they were before the fit gained slope_se
NOISE_FILES_BEFORE_SLOPE_SE = {
    ("noise", "--model", "a", "--strength", "1e-4", "--out", "out.json"):
        "5594ce907139e575c54505a05ac60f47b645a0a6521f0b0cc77f3d03e4797711",
    ("noise", "--model", "a", "--strength", "0.3", "--out", "out.json"):
        "420340881a065a99f56475124eb1f45d56e29d32558a1dbd90af142168e027ca",
    ("noise", "--model", "b", "--strength", "1e-6", "--out", "out.json"):
        "28399ff49dfdcace4d93e52373fdeabc5e916fce0f8d70fb85edfdfcc5845853",
    ("noise", "--model", "c", "--strength", "1e-3", "--out", "out.json"):
        "dbd9fbae7cd45d4ddcfc149d38400363d3a61c65c894cb63fbc4793c38c20825",
}

# the inverse-CDF tables, past the top levels the studies above reach: the
# lockstep's climb laws, whose top 60 holds the first law of each PSI family
# that ends where rounding takes its running sum past 1 (PSI0 at 55, PSI1 at
# 50, PSI2 at 44), and the criterion-8 grid's and a near-symmetric
# mixture's passages.  The climb laws' digests were re-recorded when the
# laws were laid out level by level rather than family by family, with no
# segments array: H's alone hash as their keys, guide and costs did
# before, as one family's two layouts are the same
LOCKSTEP_TABLE_DIGESTS = {
    ((Family.H,), 32): "364773aff2401be248fb102f802a578ca6768c621e8544c99892a8f97c2bb34f",
    (ALL_FAMILIES, 32): "78dc13f7a44a1a3c702f6ab4ff7f67de1d11cf191be74c8d213e07b01f4d7299",
    (ALL_FAMILIES, 60): "cba4c4b278ad17a350da0090fec36e8ca707d91ea7dcfde96a4476ee23190dc4",
}
# each state's law apart from where the table lays it (_law_sha256),
# recorded while the laws were laid out family by family
LOCKSTEP_LAW_DIGESTS = {
    ((Family.H,), 32): "de4786352468019188926a277eacd268c43c412e89343a6db1829af66ca91d4f",
    (ALL_FAMILIES, 32): "8f2d697c52f916a2bd51985daa97849c43c69e211486eb090dbb38faf2b4d8bd",
    (ALL_FAMILIES, 60): "6fdae54ec13e4006382870d24952e286cbd32833dce59600cab28c26c5bccac2",
}
# a family set's nearest-state bins: the shift, and the digest of first,
# bounds and signed, recorded as those of its lockstep tables at top 150
# while each top had its own
ANGLE_TABLE_BIN_DIGESTS = {
    (Family.H,): (52, "5d25dc46dc9c55bf3f41156eff8b5f166c7f8cd160763ce276c3700a34d4119c"),
    ALL_FAMILIES: (49, "cac39249bd89329403bd1b1208af5afe7116a1659aef8fa2b74bcf2178dcbddd"),
    (Family.H, Family.PSI2): (50, "e5e46045efa033da68d21d1dde46fbc14be313fdb1f967ccf442826d45d64b5c"),
}
PASSAGE_TABLE_DIGESTS = {
    (1e-4, 28): "6216fe800f084d4f0aabfef4a74f950e9f1e999e881a5f7fbac415a40d06dd33",
    (1e-6, 22): "bc03fafd160817cac4bec8b3f38e18ad8d6411f32443cff62312da1b1e68eb37",
    (1e-8, 16): "783e2e69c3623c8d1d83945f575fea8d0df7286a49eba02c2495471d20c63808",
    (0.3, 20): "f844c8bc70dca00e8254de5bedc43982ec5c5fa9a2c75e34a29f8e2eb13f14f6",
}
# decay_study at every top 1-150 (seed 1, 10 instances) of the models that
# read no draws: b and c on the criterion-8 strengths, and the mixtures at
# 0, 1 and 1/2, recorded while each call still solved its own distance row
PURE_MEANS_MODELS = [NoiseModel(k, s) for k in "bc" for s in (1e-4, 1e-6, 1e-8)]
PURE_MEANS_MODELS += [NoiseModel("a", 0.0), NoiseModel("a", 1.0), NoiseModel("a", 0.5)]
PURE_MEANS_DIGEST = "781fb13a3d3f7f5e481cd990f65e58b0b2c2c1455476e6c8f9de25cd7f320f39"


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


@pytest.mark.parametrize("argv", sorted(NOISE_FILES_BEFORE_SLOPE_SE))
def test_noise_files_gained_only_the_slope_se(argv, capsys, tmp_path, monkeypatch):
    """Each noise out.json, dumped again as study.export_json does but
    without fit.slope_se, is the file written before the fit had that key."""
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    assert math.isfinite(payload["fit"].pop("slope_se"))
    redumped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert _sha256(redumped.encode()) == NOISE_FILES_BEFORE_SLOPE_SE[argv]


def _arrays_sha256(arrays) -> str:
    """The digest of the dtypes and bytes of the arrays among arrays, in turn."""
    h = hashlib.sha256()
    for array in arrays:
        if isinstance(array, np.ndarray):
            h.update(array.dtype.str.encode())
            h.update(array.tobytes())
    return h.hexdigest()


def _law_sha256(table: _AngleTable, laws, top: int) -> str:
    """The digest of the climb laws of the table's states of levels 0..top,
    state by state in table order, each apart from its segment s: its keys
    less s * 2^53, its guide's slots as offsets from its first outcome (-1
    kept) and its costs."""
    n_segments = len(laws.guide) >> GUIDE_BITS
    # segment s's keys lie in (s * 2^53, (s + 1) * 2^53]
    edges = np.searchsorted(laws.keys, np.arange(n_segments + 1, dtype=np.int64) << 53, side="right").tolist()
    assert edges[0] == 0 and edges[-1] == len(laws.keys)
    arrays = []
    for state, level in enumerate(table.levels):
        if level <= top:
            s = laws.last - state
            lo, hi = edges[s], edges[s + 1]
            slots = laws.guide[s << GUIDE_BITS : (s + 1) << GUIDE_BITS]
            arrays += [laws.keys[lo:hi] - (s << 53), np.where(slots < 0, slots, slots - lo), laws.costs[lo:hi]]
    return _arrays_sha256(arrays)


@pytest.mark.parametrize("families, top", sorted(LOCKSTEP_TABLE_DIGESTS, key=repr), ids=repr)
def test_lockstep_table_bytes(families, top):
    """The laws of levels 0..top, the first segments of whatever deeper
    laws the family set's table holds."""
    table = _angle_table(families)
    laws = table.climb_laws(top)
    assert _arrays_sha256(climb_law_prefix(laws, top, len(families))) == LOCKSTEP_TABLE_DIGESTS[families, top]
    assert _law_sha256(table, laws, top) == LOCKSTEP_LAW_DIGESTS[families, top]


@pytest.mark.parametrize("families", sorted(ANGLE_TABLE_BIN_DIGESTS, key=repr), ids=repr)
def test_angle_table_bin_bytes(families):
    table = _angle_table(families)
    digest = _arrays_sha256((table.first, table.bounds, table.signed))
    assert (table.shift, digest) == ANGLE_TABLE_BIN_DIGESTS[families]


def test_pure_means_bytes():
    """From a cleared cache, so that top 1 is served from the row solved to
    MAX_LEVEL, and every later top from the cache."""
    noise._climb_tables.cache_clear()
    h = hashlib.sha256()
    for model in PURE_MEANS_MODELS:
        for top in range(1, 151):
            h.update(repr(noise.decay_study(model, top, 10, seed=1)).encode())
    assert h.hexdigest() == PURE_MEANS_DIGEST


@pytest.mark.parametrize("strength, top", sorted(PASSAGE_TABLE_DIGESTS), ids=repr)
def test_passage_table_bytes(strength, top):
    """The table built at its own top, and the same top read as a prefix of
    the top-150 table."""
    model = NoiseModel("a", strength)
    own = noise._ClimbTables(model).passages(top)
    assert own.top == top and _arrays_sha256(own) == PASSAGE_TABLE_DIGESTS[strength, top]
    deepest = noise._ClimbTables(model).passages(MAX_LEVEL)
    assert _arrays_sha256(passage_prefix(deepest, top)) == PASSAGE_TABLE_DIGESTS[strength, top]
