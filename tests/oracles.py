"""Independent cross-check simulators used only by the tests.

Generic density-matrix evolution (a gate's full unitary, measurement with
removal of the measured qubit) judges the noisy walker's 2x2 closed form,
and the one-state rotation step replays the planner from its public pieces.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from rotsynth.qcore import DensityMatrix, PureRegister, apply_gate
from rotsynth.synthesis import wrap_angle


def basis_state(n_qubits: int, index: int = 0) -> PureRegister:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return PureRegister(amps)


def states_equal_up_to_phase(a: PureRegister, b: PureRegister, tol: float = 1e-10) -> bool:
    if a.n_qubits != b.n_qubits:
        return False
    return abs(abs(np.vdot(a.amps, b.amps)) - 1.0) < tol


def gate_unitary(n: int, gate: str, qubits: tuple[int, ...]) -> np.ndarray:
    """Full 2^n x 2^n unitary of a named gate, column by column."""
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        u[:, k] = apply_gate(basis_state(n, k), gate, *qubits).amps
    return u


def dm_apply_gate(rho: DensityMatrix, gate: str, *qubits: int) -> DensityMatrix:
    u = gate_unitary(rho.n_qubits, gate, qubits)
    return DensityMatrix(u @ rho.mat @ u.conj().T)


@dataclass(frozen=True)
class DmMeasureResult:
    prob0: float
    post0: DensityMatrix | None
    prob1: float
    post1: DensityMatrix | None


def dm_measure_qubit(rho: DensityMatrix, q: int) -> DmMeasureResult:
    """Measure qubit q of a density matrix; the measured qubit is removed."""
    n = rho.n_qubits
    if not 0 <= q < n:
        raise IndexError(f"qubit {q} out of range for {n}-qubit density matrix")
    tensor = rho.mat.reshape([2] * (2 * n))
    branches = []
    for m in (0, 1):
        sub = np.take(np.take(tensor, m, axis=q), m, axis=n - 1 + q)
        dim = 2 ** (n - 1)
        sub = sub.reshape(dim, dim) if n > 1 else np.array([[sub]], dtype=complex)
        p = float(np.trace(sub).real)
        if n == 1:
            branches.append((p, None))
        else:
            branches.append((p, DensityMatrix(sub / p) if p > 1e-15 else None))
    (p0, post0), (p1, post1) = branches
    return DmMeasureResult(p0, post0, p1, post1)


def apply_random_rotation(
    residual: float, rot_angle: float, rng: random.Random
) -> tuple[float, int]:
    """Consume one resource state: the applied rotation is +rot_angle or
    -rot_angle with probability 1/2 each.  Returns the new residual, wrapped
    to (-pi, pi], and the applied sign."""
    if rot_angle <= 0:
        raise ValueError("rotation angle must be positive")
    sign = 1 if rng.random() < 0.5 else -1
    return wrap_angle(residual - sign * rot_angle), sign
