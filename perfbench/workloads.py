"""The three benchmark workloads, their inputs and their correctness gates.

Every input comes from the workload seed through ``sub_seed``; the program
only ever sees the generated (scheme, size, seed), (target, epsilon, rng) or
(noise model, level, seed) values.  Each workload has two parts:

* a *study rep*: one fixed-size study through the public API, the unit of
  ``samples_per_s`` (a study sample, or one noisy-climb instance).  A rep is
  a list of blocks, each timed on its own between two calibration loops
  (see speed.py): the whole study for h-only and min-online, one grid cell
  for noise-decay;
* a *compile op*: one single call, the unit of the ``compile_*`` latencies.
  On noise-decay the single call is a ``decay_study`` of NOISE_OP_INSTANCES
  instances on a random grid cell.
"""
from __future__ import annotations

import hashlib
import math
import random

from rotsynth import noise, qcore, study, synthesis
from rotsynth.ladder import ALL_FAMILIES, Family, expected_climb_cost

from setup_child import EPS_RANGE, NOISE_GRID

TAU = 2 * math.pi
# decay fit windows of acceptance criterion 8: the documented start level
# for the mixture model, the top third of the levels otherwise
NOISE_A_WINDOW = {1e-4: 18, 1e-6: 18, 1e-8: 13}
# one noisy climb takes ~130 us, short enough for host noise to set its
# p99 from run to run; a call of ten averages that noise out
NOISE_OP_INSTANCES = 10
# |z| of the exact-oracle martingale above which the compile pass fails;
# 5 sigma keeps false alarms below 1e-6 per run
ORACLE_Z_MAX = 5.0


def sub_seed(seed: int, *path) -> int:
    material = ",".join(str(p) for p in (seed, *path)).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def run_rep(wl, rep_seed: int) -> list:
    return [block() for block in wl.rep_blocks(rep_seed)]


class Gates:
    """Named pass/fail checks; each counts as one attempted operation."""

    def __init__(self) -> None:
        self.results: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"gate": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


def samples_digest(samples, path) -> str:
    """SHA-256 of the samples in ``study.export_samples_csv`` form."""
    study.export_samples_csv(samples, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


class StudyWorkload:
    """h-only and min-online: ``run_scaling_study`` reps plus a compile pass."""

    def __init__(self, name: str, rep_size: int, min_reps: int, min_calls: int, oracle_calls: int):
        self.name = name
        self.families = (Family.H,) if name == "h-only" else ALL_FAMILIES
        self.rep_size = rep_size
        self.min_reps = min_reps  # also the reps pooled for the fit-band gates
        self.min_calls = min_calls
        self.oracle_calls = oracle_calls
        self.pooled: list[tuple[float, int, float]] = []
        self.oracle = [0.0, 0.0, 0]  # sum, sum of squares, calls

    # --- study reps ---------------------------------------------------------

    def rep_blocks(self, rep_seed: int):
        return [lambda: study.run_scaling_study(self.name, self.rep_size, EPS_RANGE, rep_seed, jobs=1)[0]]

    def check_rep(self, rep, pool: bool) -> int:
        """Per-sample gate; returns the number of bad samples."""
        bad = 0
        for s in rep[0]:
            if not (_finite(s.epsilon, s.target, s.offline) and s.offline >= s.online >= 0):
                bad += 1
            elif pool:
                self.pooled.append((math.log(math.log(1 / s.epsilon)), s.online, s.offline))
        return bad

    def digest(self, rep, path) -> str:
        return samples_digest(rep[0], path)

    def units(self, rep) -> int:
        return len(rep[0])

    # --- compile pass -------------------------------------------------------

    def compile_inputs(self, seed: int):
        """Endless (target, epsilon, planner seed) stream for the compile pass."""
        rng = random.Random(sub_seed(seed, self.name, "compile"))
        ln_lo, ln_hi = math.log(EPS_RANGE[0]), math.log(EPS_RANGE[1])
        while True:
            yield rng.random() * TAU, math.exp(ln_lo + (ln_hi - ln_lo) * rng.random()), rng.getrandbits(64)

    def compile_call(self, inp):
        target, eps, planner_seed = inp
        config = synthesis.SynthesisConfig(epsilon=eps, families=self.families)
        rng = random.Random(planner_seed)
        if self.name == "min-online":
            return synthesis.min_online_synthesize(target, eps, config, rng)
        return synthesis.synthesize(target, config, rng)

    def check_call(self, inp, result) -> bool:
        eps = inp[1]
        ok = abs(result.residual) <= eps and _finite(result.offline_cost)
        if self.name == "min-online":
            return ok and result.applied == () and result.online_cost >= 0
        if ok and result.online_cost == len(result.applied):
            self._oracle_add(result)
            return True
        return False

    def _oracle_add(self, result) -> None:
        d = result.offline_cost - math.fsum(expected_climb_cost(f, l) for f, l, _ in result.applied)
        self.oracle[0] += d
        self.oracle[1] += d * d
        self.oracle[2] += 1

    # --- gates over the whole run -------------------------------------------

    def final_gates(self, gates: Gates, seed: int, traced: bool) -> None:
        if traced:
            return  # one rep and no compile pass: too small for the statistical gates
        pooled = self.pooled
        gates.check("pooled_samples", len(pooled) >= 2, f"{len(pooled)} samples")
        if len(pooled) < 2:
            return
        fit_on = study.fit_loglog([(x, math.log(on)) for x, on, _ in pooled if on > 0])
        fit_off = study.fit_loglog([(x, math.log(off)) for x, _, off in pooled if off > 0])
        n = len(pooled)
        if self.name == "h-only":
            gates.check("criterion5_online_slope", 1.19 <= fit_on.slope <= 1.39, f"{fit_on.slope:.4f} over {n}")
            gates.check("criterion5_offline_slope", 2.07 <= fit_off.slope <= 2.47, f"{fit_off.slope:.4f} over {n}")
        else:
            mean_online = math.fsum(on for _, on, _ in pooled) / n
            gates.check("criterion7_mean_online", 1.9 <= mean_online <= 2.1, f"{mean_online:.4f} over {n}")
            gates.check("criterion7_offline_slope", 1.55 <= fit_off.slope <= 1.95, f"{fit_off.slope:.4f} over {n}")
            # the ancilla scheme hides its states from `applied`: judge the
            # multi-family planner it runs on the same compile inputs instead
            inputs = self.compile_inputs(seed)
            for _ in range(self.oracle_calls):
                target, eps, planner_seed = next(inputs)
                config = synthesis.SynthesisConfig(epsilon=eps, families=ALL_FAMILIES)
                self._oracle_add(synthesis.synthesize(target, config, random.Random(planner_seed)))
        total, total_sq, calls = self.oracle
        z = total / math.sqrt(total_sq) if total_sq > 0 else 0.0
        gates.check("oracle_z", calls > 0 and abs(z) <= ORACLE_Z_MAX, f"z={z:.3f} over {calls} calls")


class NoiseWorkload:
    """noise-decay: the criterion-8 grid of ``decay_study`` plus decay fits."""

    name = "noise-decay"
    cells = [(kind, strength) for kind in "abc" for strength in NOISE_GRID]

    def __init__(self, rep_size: int, min_reps: int, min_calls: int):
        self.rep_size = rep_size  # instances per grid cell
        self.min_reps = min_reps
        self.min_calls = min_calls
        self.bad_cells = 0

    def rep_blocks(self, rep_seed: int):
        return [lambda k=kind, s=strength: self._cell(k, s, rep_seed) for kind, strength in self.cells]

    def _cell(self, kind: str, strength: float, rep_seed: int):
        top = NOISE_GRID[strength]
        points = noise.decay_study(noise.NoiseModel(kind, strength), top, self.rep_size, rep_seed)
        start = NOISE_A_WINDOW[strength] if kind == "a" else top - top // 3 + 1
        fit = noise.fit_exponential_decay([(l, d) for l, d in points if l >= start])
        return kind, strength, points, fit.base

    def check_rep(self, cells, pool: bool) -> int:
        bad = 0
        for kind, strength, points, base in cells:
            ok = (
                len(points) == NOISE_GRID[strength]
                and all(_finite(d) and d > 0 for _, d in points)
                and 2.0 <= base <= 2.5
            )
            if not ok:
                self.bad_cells += 1
                bad += self.rep_size
        return bad

    def digest(self, cells, path) -> str:
        text = "\n".join(f"{k},{s!r}," + ",".join(repr(d) for _, d in pts) for k, s, pts, _ in cells)
        path.write_text(text + "\n")
        return hashlib.sha256(text.encode() + b"\n").hexdigest()

    def units(self, cells) -> int:
        return self.rep_size * len(cells)

    def compile_inputs(self, seed: int):
        rng = random.Random(sub_seed(seed, self.name, "compile"))
        while True:
            kind, strength = self.cells[rng.randrange(len(self.cells))]
            yield noise.NoiseModel(kind, strength), NOISE_GRID[strength], rng.getrandbits(32)

    def compile_call(self, inp):
        model, top, instance_seed = inp
        return noise.decay_study(model, top, NOISE_OP_INSTANCES, instance_seed)

    def check_call(self, inp, points) -> bool:
        return len(points) == inp[1] and all(_finite(d) and d >= 0 for _, d in points)

    def final_gates(self, gates: Gates, seed: int, traced: bool) -> None:
        gates.check("criterion8_decay_bases", self.bad_cells == 0, f"{self.bad_cells} cells outside 2.0..2.5")
        for p in NOISE_GRID:
            level0 = qcore.trace_distance(
                noise.make_noisy_resource(noise.NoiseModel("a", p)), noise.ideal_resource(0)
            )
            gates.check(f"criterion8_level0_p{p:g}", abs(level0 - p) < 1e-12, f"{level0!r}")


def make(name: str, smoke: bool):
    """Workload objects at benchmark size, or tiny for the smoke run."""
    if name == "noise-decay":
        if smoke:
            return NoiseWorkload(rep_size=40, min_reps=1, min_calls=20)
        return NoiseWorkload(rep_size=1000, min_reps=2, min_calls=1000)
    if smoke:
        return StudyWorkload(name, rep_size=100, min_reps=1, min_calls=20, oracle_calls=50)
    return StudyWorkload(name, rep_size=1000, min_reps=20, min_calls=1000, oracle_calls=3000)
