"""Post-selected 4-qubit Clifford factories for the psi base states.

Each factory consumes copies of the raw resource cos(pi/8)|0> + sin(pi/8)|1>
(one input is the free |+> for psi1), measures three qubits, and keeps the
remaining qubit only on the all-zero outcome.  The kept state is a new
non-stabilizer base state.  Each circuit decodes a 4-qubit stabilizer code,
which provides an independent check of both the success probability and
the output state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import qcore
from .ladder import THETA0, Family
from .qcore import PauliString, PureRegister

# the code check's agreement tolerance, for probabilities and canonical angles
_CODE_TOL = 1e-10

# (gate, qubits) sequences transcribed from the factory circuits; the
# stabilizer-code projector and the closed-form probabilities pin them down.
_PSI0_GATES = (
    ("H", (0,)),
    ("H", (2,)),
    ("CNOT", (1, 2)),
    ("CNOT", (2, 0)),
    ("CNOT", (1, 3)),
    ("H", (1,)),
    ("CZ", (2, 3)),
    ("CNOT", (0, 3)),
    ("H", (2,)),
)
_PSI2_GATES = (
    ("CNOT", (2, 1)),
    ("CNOT", (0, 3)),
    ("CNOT", (0, 2)),
    ("H", (0,)),
    ("CNOT", (3, 1)),
    ("H", (1,)),
)


@dataclass(frozen=True)
class FactorySpec:
    """A factory circuit; ladder holds its closed forms (FACTORY_TRIALS, base accessors)."""

    gates: tuple[tuple[str, tuple[int, ...]], ...]
    # state angle a of each input cos(a)|0> + sin(a)|1>, qubit 0 first
    inputs: tuple[float, float, float, float]
    measured_qubits: tuple[int, int, int]


_SPECS = {
    Family.PSI0: FactorySpec(_PSI0_GATES, (THETA0,) * 4, (0, 1, 3)),
    Family.PSI1: FactorySpec(_PSI0_GATES, (THETA0, math.pi / 4, THETA0, THETA0), (0, 1, 3)),
    Family.PSI2: FactorySpec(_PSI2_GATES, (THETA0,) * 4, (0, 2, 3)),
}

# Stabilizer codes decoded by the circuits (psi1 runs the psi0 circuit, so
# it shares the psi0 code with the |+> substitution on qubit 1).
_PSI0_CODE = (
    PauliString(1, "XZXI"),
    PauliString(1, "IXZX"),
    PauliString(1, "XIXZ"),
)
CODE_GENERATORS = {
    Family.PSI0: _PSI0_CODE,
    Family.PSI1: _PSI0_CODE,
    Family.PSI2: (
        PauliString(1, "XXXX"),
        PauliString(1, "ZIZI"),
        PauliString(1, "ZIIZ"),
    ),
}
LOGICAL_Z = PauliString(1, "ZZZZ")


def factory_spec(kind: Family) -> FactorySpec:
    if kind not in _SPECS:
        raise ValueError(f"{kind} is not a factory family")
    return _SPECS[kind]


def _input_register(spec: FactorySpec) -> PureRegister:
    return qcore.product_state(*map(qcore.xz_state, spec.inputs))


def simulate_factory_circuit(kind: Family) -> tuple[float, PureRegister]:
    """Exact circuit run: success probability of the all-zero outcome and the
    post-selected single-qubit output state."""
    spec = factory_spec(kind)
    reg = _input_register(spec)
    for gate, qubits in spec.gates:
        reg = qcore.apply_gate(reg, gate, *qubits)
    prob = 1.0
    # measure from the highest index down so positions stay valid
    for q in sorted(spec.measured_qubits, reverse=True):
        res = qcore.measure_qubit(reg, q)
        prob *= res.prob0
        reg = res.post0
    return prob, reg


@dataclass(frozen=True)
class CodeCheckReport:
    kind: Family
    circuit_prob: float
    projector_prob: float
    circuit_angle: float
    decoded_angle: float
    probs_match: bool
    states_match: bool

    @property
    def ok(self) -> bool:
        return self.probs_match and self.states_match

    def failure_reason(self) -> str | None:
        if not self.probs_match:
            return (
                f"{self.kind.value}: projector probability {self.projector_prob!r} "
                f"!= circuit probability {self.circuit_prob!r}"
            )
        if not self.states_match:
            return (
                f"{self.kind.value}: decoded state angle {self.decoded_angle!r} "
                f"!= circuit output angle {self.circuit_angle!r}"
            )
        return None


def verify_factory_against_code(kind: Family) -> CodeCheckReport:
    """Check the circuit against its stabilizer code: the projector overlap
    must equal the post-selected probability, and the decoded logical state
    must match the circuit output up to a single-qubit Clifford and phase.

    Both states lie on a reflection circle of the Clifford group (else
    canonical_xz_angle raises), where equal canonical angles mean the same
    Clifford orbit."""
    spec = factory_spec(kind)
    circuit_prob, circuit_out = simulate_factory_circuit(kind)
    projected = qcore.pauli_projector_overlap(
        list(CODE_GENERATORS[kind]), _input_register(spec), LOGICAL_Z
    )
    circuit_angle = qcore.canonical_xz_angle(circuit_out)
    decoded_angle = qcore.canonical_xz_angle(projected.decoded)
    return CodeCheckReport(
        kind=kind,
        circuit_prob=circuit_prob,
        projector_prob=projected.prob,
        circuit_angle=circuit_angle,
        decoded_angle=decoded_angle,
        probs_match=abs(circuit_prob - projected.prob) < _CODE_TOL,
        states_match=abs(circuit_angle - decoded_angle) < _CODE_TOL,
    )
