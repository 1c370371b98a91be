"""Exact linear algebra for small quantum registers.

Dense complex state vectors (1-4 qubits) and density matrices (1-2 qubits),
the Clifford gates the factory circuits and Pauli strings use, Pauli-string
algebra with stabilizer projectors, and the trace distance.  Measurement is
left to the callers: a factory keeps its one outcome by indexing the
amplitudes.  Everything is immutable and pure; sizes never grow beyond
dimension 16, so no sparsity or tableau tricks are used.

Qubit 0 is the first tensor factor (leftmost ket label).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import cos, sin, sqrt

import numpy as np

_SQ2 = sqrt(2)

GATES_1Q: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}

GATES_2Q: dict[str, np.ndarray] = {
    # control is the first listed qubit
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}


@dataclass(frozen=True)
class PureRegister:
    """Normalized state vector over 1-4 qubits."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        n = amps.size.bit_length() - 1
        if amps.size != 2**n or not 1 <= n <= 4:
            raise ValueError(f"amplitude vector of length {amps.size} is not a 1-4 qubit state")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} is not 1")
        object.__setattr__(self, "amps", amps / norm)
        self.amps.setflags(write=False)

    @property
    def n_qubits(self) -> int:
        return self.amps.size.bit_length() - 1


def xz_state(angle: float) -> PureRegister:
    """cos(angle)|0> + sin(angle)|1>."""
    return PureRegister(np.array([cos(angle), sin(angle)], dtype=complex))


def product_state(*factors: PureRegister) -> PureRegister:
    amps = np.array([1.0], dtype=complex)
    for f in factors:
        amps = np.kron(amps, f.amps)
    return PureRegister(amps)


def apply_gate(reg: PureRegister, gate: str, *qubits: int) -> PureRegister:
    """Apply a named gate to the given qubit(s); returns a new register."""
    n = reg.n_qubits
    for q in qubits:
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n}-qubit register")
    tensor = reg.amps.reshape([2] * n)
    if gate in GATES_1Q:
        (q,) = qubits
        mat = GATES_1Q[gate]
        tensor = np.tensordot(mat, tensor, axes=([1], [q]))
        tensor = np.moveaxis(tensor, 0, q)
    elif gate in GATES_2Q:
        c, t = qubits
        if c == t:
            raise IndexError("control and target must differ")
        mat = GATES_2Q[gate].reshape(2, 2, 2, 2)
        tensor = np.tensordot(mat, tensor, axes=([2, 3], [c, t]))
        tensor = np.moveaxis(tensor, (0, 1), (c, t))
    else:
        raise KeyError(f"unknown gate {gate!r}")
    return PureRegister(tensor.reshape(-1))


# --- density matrices ---------------------------------------------------


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix over 1-2 qubits."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=complex)
        dim = mat.shape[0]
        n = dim.bit_length() - 1
        if mat.shape != (dim, dim) or dim != 2**n or not 1 <= n <= 2:
            raise ValueError(f"matrix of shape {mat.shape} is not a 1-2 qubit density matrix")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        if np.abs(mat - mat.conj().T).max() > 1e-10:
            raise ValueError("matrix is not Hermitian")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace {tr} is not 1")
        if np.linalg.eigvalsh(mat).min() < -1e-10:
            raise ValueError("matrix has a negative eigenvalue")
        object.__setattr__(self, "mat", mat / tr)
        self.mat.setflags(write=False)

    @property
    def n_qubits(self) -> int:
        return self.mat.shape[0].bit_length() - 1


def dm_from_bloch(x: float, y: float, z: float) -> DensityMatrix:
    mat = 0.5 * (
        np.eye(2) + x * GATES_1Q["X"] + y * GATES_1Q["Y"] + z * GATES_1Q["Z"]
    )
    return DensityMatrix(mat)


def trace_distance(r: DensityMatrix, s: DensityMatrix) -> float:
    """D(r, s) = (1/2) tr |r - s|."""
    if r.mat.shape != s.mat.shape:
        raise ValueError("density matrices have different dimensions")
    eigs = np.linalg.eigvalsh(r.mat - s.mat)
    return 0.5 * float(np.abs(eigs).sum())


# --- Pauli strings and stabilizer projectors -----------------------------


@dataclass(frozen=True)
class PauliString:
    """Signed Pauli operator, e.g. PauliString(+1, "XZXI")."""

    sign: int
    letters: str

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not self.letters or any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"bad Pauli letters {self.letters!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        return sum(1 for c in self.letters if c != "I")


def pauli_matrix(p: PauliString) -> np.ndarray:
    mat = np.array([[p.sign]], dtype=complex)
    for c in p.letters:
        mat = np.kron(mat, GATES_1Q[c])
    return mat


def paulis_commute(a: PauliString, b: PauliString) -> bool:
    """Symplectic product: strings commute iff they anticommute on an even
    number of positions."""
    if len(a.letters) != len(b.letters):
        raise ValueError("Pauli strings act on different qubit counts")
    clashes = sum(
        1 for x, y in zip(a.letters, b.letters) if x != "I" and y != "I" and x != y
    )
    return clashes % 2 == 0


def _stabilizer_projector(generators: list[PauliString]) -> np.ndarray:
    proj = eye = np.eye(2 ** generators[0].n_qubits, dtype=complex)
    for g in generators:
        proj = proj @ (eye + pauli_matrix(g)) / 2
    return proj


def find_logical_x(generators: list[PauliString], logical_z: PauliString) -> PauliString:
    """Weight-minimal positive Pauli commuting with every generator and
    anticommuting with the logical Z."""
    n = generators[0].n_qubits
    candidates = []
    for letters in product("IXYZ", repeat=n):
        s = PauliString(1, "".join(letters))
        if s.weight == 0:
            continue
        if all(paulis_commute(s, g) for g in generators) and not paulis_commute(s, logical_z):
            candidates.append((s.weight, s.letters, s))
    if not candidates:
        raise ValueError("no logical X exists for these generators")
    return min(candidates)[2]


@dataclass(frozen=True)
class ProjectorResult:
    prob: float
    decoded: PureRegister | None


def pauli_projector_overlap(
    generators: list[PauliString],
    reg: PureRegister,
    logical_z: PauliString | None = None,
) -> ProjectorResult:
    """Overlap with the joint +1 eigenspace of commuting generators.

    Returns the squared norm of the projected input and, when the code space
    is two-dimensional, the logical qubit read out through ``logical_z``
    (default Z...Z) and a weight-minimal logical X.
    """
    n = reg.n_qubits
    for g in generators:
        if g.n_qubits != n:
            raise ValueError("generator length does not match register size")
    for i, a in enumerate(generators):
        for b in generators[i + 1 :]:
            if not paulis_commute(a, b):
                raise ValueError(f"generators {a.letters} and {b.letters} do not commute")
    proj = _stabilizer_projector(generators)
    v = proj @ reg.amps
    prob = float(np.vdot(v, v).real)
    code_dim = round(np.trace(proj).real)
    if code_dim != 2 or prob <= 1e-15:
        return ProjectorResult(prob, None)

    zbar = logical_z if logical_z is not None else PauliString(1, "Z" * n)
    xbar = find_logical_x(generators, zbar)
    pz = proj @ (np.eye(2**n) + pauli_matrix(zbar)) / 2
    col = next(
        pz[:, k] for k in range(2**n) if np.linalg.norm(pz[:, k]) > 1e-6
    )
    zero_l = col / np.linalg.norm(col)
    one_l = pauli_matrix(xbar) @ zero_l
    decoded = np.array([np.vdot(zero_l, v), np.vdot(one_l, v)]) / sqrt(prob)
    return ProjectorResult(prob, PureRegister(decoded))


# --- single-qubit Clifford canonicalization -------------------------------

# how far off a reflection circle (smallest |Bloch component|) a state may
# sit, and below which the middle |component| reads as zero
_CANONICAL_TOL = 1e-9


def bloch_vector(state: PureRegister) -> np.ndarray:
    if not isinstance(state, PureRegister) or state.n_qubits != 1:
        raise ValueError("Bloch vector requires a single-qubit PureRegister")
    rho = np.outer(state.amps, state.amps.conj())
    return np.array(
        [
            2 * rho[0, 1].real,
            -2 * rho[0, 1].imag,
            (rho[0, 0] - rho[1, 1]).real,
        ]
    )


def canonical_xz_angle(state: PureRegister) -> float:
    """State angle of the Clifford-orbit representative cos(a)|0> + sin(a)|1>
    with a in [0, pi/8].

    Defined for states lying on a reflection circle of the octahedral group
    (all states produced in this package do).  The Clifford orbit of a Bloch
    vector is the signed permutations of its coordinates, so with the
    |components| sorted small <= mid <= big, small must be zero and the
    representative's Bloch angle is atan2(mid, big).
    """
    small, mid, big = np.sort(np.abs(bloch_vector(state)))
    if small >= _CANONICAL_TOL:
        raise ValueError("state is not Clifford-equivalent to an XZ-plane state")
    if mid <= _CANONICAL_TOL:
        return 0.0
    return float(np.arctan2(mid, big)) / 2
