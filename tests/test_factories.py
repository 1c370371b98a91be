import math

import numpy as np
import pytest

from oracles import measure_qubit
from rotsynth import qcore
from rotsynth.cli import main
from rotsynth.factories import (
    CODE_GENERATORS,
    LOGICAL_Z,
    factory_spec,
    simulate_factory_circuit,
    verify_factory_against_code,
)
from rotsynth.ladder import (
    FACTORY_TRIALS,
    Family,
    base_average_cost,
    base_state_angle,
    ladder_angle,
    merge_success_prob,
)
from rotsynth.qcore import pauli_projector_overlap, paulis_commute

SQRT2 = math.sqrt(2)
FACTORIES = (Family.PSI0, Family.PSI1, Family.PSI2)

CLOSED_FORM_PROBS = {
    Family.PSI0: 3 * (2 + SQRT2) / 32,
    Family.PSI1: (6 + SQRT2) / 32,
    Family.PSI2: 11 / 32,
}
AVG_COSTS = {Family.PSI0: 12.50, Family.PSI1: 12.95, Family.PSI2: 11.64}
OUTPUT_ANGLES = {Family.PSI0: 0.2228, Family.PSI1: 0.2849, Family.PSI2: 0.3449}


@pytest.mark.parametrize("kind", FACTORIES)
def test_circuit_probability_matches_closed_form(kind):
    prob, _ = simulate_factory_circuit(kind)
    assert prob == pytest.approx(CLOSED_FORM_PROBS[kind], abs=1e-10)
    assert FACTORY_TRIALS[kind][1] == pytest.approx(CLOSED_FORM_PROBS[kind], abs=1e-14)


@pytest.mark.parametrize("kind", FACTORIES)
def test_sliced_outcome_matches_sequential_measurements(kind):
    """The all-zero slice is the generic measurement of the three qubits in
    turn, highest first: its probability is the product of the outcome-0
    probabilities, and its state the last post state up to a global phase."""
    spec = factory_spec(kind)
    reg = qcore.product_state(*map(qcore.xz_state, spec.inputs))
    for gate, qubits in spec.gates:
        reg = qcore.apply_gate(reg, gate, *qubits)
    prob = 1.0
    for q in sorted(spec.measured_qubits, reverse=True):
        res = measure_qubit(reg, q)
        prob *= res.prob0
        reg = res.post0
    sliced_prob, sliced = simulate_factory_circuit(kind)
    assert abs(sliced_prob - prob) < 1e-15
    overlap = np.vdot(reg.amps, sliced.amps)
    assert np.abs(sliced.amps - overlap / abs(overlap) * reg.amps).max() < 1e-12


@pytest.mark.parametrize("kind", FACTORIES)
def test_average_cost(kind):
    expected = FACTORY_TRIALS[kind][0] / CLOSED_FORM_PROBS[kind]
    assert base_average_cost(kind) == pytest.approx(expected, rel=1e-12)
    assert base_average_cost(kind) == pytest.approx(AVG_COSTS[kind], rel=5e-3)


def test_per_trial_inputs():
    # one input of the psi1 circuit is the free |+>, so a trial bills 3
    assert FACTORY_TRIALS[Family.PSI0][0] == 4
    assert FACTORY_TRIALS[Family.PSI1][0] == 3
    assert FACTORY_TRIALS[Family.PSI2][0] == 4


@pytest.mark.parametrize("kind", FACTORIES)
def test_output_angle_closed_form(kind):
    assert base_state_angle(kind) == pytest.approx(OUTPUT_ANGLES[kind], abs=5e-5)


@pytest.mark.parametrize("kind", FACTORIES)
def test_output_state_canonical_angle(kind):
    _, output = simulate_factory_circuit(kind)
    assert qcore.canonical_xz_angle(output) == pytest.approx(base_state_angle(kind), abs=1e-10)


@pytest.mark.parametrize("kind", FACTORIES)
def test_monte_carlo_success_frequency(kind, capsys):
    """The factory command's sampled success rate (one uniform per trial
    against the circuit probability) matches the closed form."""
    n = 100_000
    p = CLOSED_FORM_PROBS[kind]
    assert main(["factory", "--kind", kind.value, "--trials", str(n), "--seed", "11"]) == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines() if "sampled" in l]
    wins = float(line.split()[1]) * n
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(wins - n * p) < 4 * sigma


@pytest.mark.parametrize("kind", FACTORIES)
def test_code_generators_commute(kind):
    gens = CODE_GENERATORS[kind]
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            assert paulis_commute(a, b)
        assert paulis_commute(a, LOGICAL_Z)


def test_projector_probabilities():
    h4 = qcore.product_state(*[qcore.xz_state(math.pi / 8)] * 4)
    res0 = pauli_projector_overlap(list(CODE_GENERATORS[Family.PSI0]), h4, LOGICAL_Z)
    assert res0.prob == pytest.approx(3 * (2 + SQRT2) / 32, abs=1e-12)
    res2 = pauli_projector_overlap(list(CODE_GENERATORS[Family.PSI2]), h4, LOGICAL_Z)
    assert res2.prob == pytest.approx(11 / 32, abs=1e-12)


@pytest.mark.parametrize("kind", FACTORIES)
def test_verify_factory_against_code(kind):
    report = verify_factory_against_code(kind)
    assert report.probs_match, report.failure_reason()
    assert report.states_match, report.failure_reason()
    assert report.ok
    assert report.failure_reason() is None


@pytest.mark.parametrize("kind", FACTORIES)
def test_code_check_rejects_a_decoded_state_off_by_a_small_rotation(kind, monkeypatch):
    """A decoded state 1e-6 rad away from the circuit output lies in another
    Clifford orbit: the check fails on the states and names both angles."""
    overlap = qcore.pauli_projector_overlap

    def tilted(*args):
        result = overlap(*args)
        a0, a1 = result.decoded.amps
        c, s = math.cos(1e-6), math.sin(1e-6)
        decoded = qcore.PureRegister([c * a0 - s * a1, s * a0 + c * a1])
        return qcore.ProjectorResult(result.prob, decoded)

    monkeypatch.setattr(qcore, "pauli_projector_overlap", tilted)
    report = verify_factory_against_code(kind)
    assert report.probs_match and not report.states_match and not report.ok
    assert abs(report.decoded_angle - report.circuit_angle) == pytest.approx(1e-6, rel=1e-6)
    reason = report.failure_reason()
    assert repr(report.decoded_angle) in reason and repr(report.circuit_angle) in reason


def test_failure_reason_reports_which_check():
    report = verify_factory_against_code(Family.PSI0)
    broken = type(report)(
        **{**report.__dict__, "probs_match": False}
    )
    assert "probability" in broken.failure_reason()


@pytest.mark.parametrize("kind", FACTORIES)
def test_factory_output_feeds_ladder(kind):
    """Merging the factory output with a fresh resource reproduces the
    level-1 rotation of its ladder (reference values at table precision)."""
    level1 = {Family.PSI0: 1.871e-1, Family.PSI1: 2.415e-1, Family.PSI2: 2.954e-1}[kind]
    angle0 = base_state_angle(kind)
    reg = qcore.apply_gate(
        qcore.product_state(qcore.xz_state(math.pi / 8), qcore.xz_state(angle0)),
        "CNOT",
        1,
        0,
    )
    res = measure_qubit(reg, 0)
    up_angle = math.atan2(abs(res.post0.amps[1]), abs(res.post0.amps[0]))
    assert 2 * up_angle == pytest.approx(level1, abs=5e-4)
    assert 2 * up_angle == pytest.approx(2 * ladder_angle(kind, 1), abs=1e-12)
    assert res.prob0 == pytest.approx(merge_success_prob(kind, 0), abs=1e-12)
