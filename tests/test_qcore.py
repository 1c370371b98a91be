import math
import random

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    basis_state,
    dm_apply_gate,
    dm_bloch_vector,
    dm_from_pure,
    dm_measure_qubit,
    measure_qubit,
    plus_state,
    states_equal_up_to_phase,
)
from rotsynth import qcore
from rotsynth.qcore import (
    DensityMatrix,
    PauliString,
    PureRegister,
    apply_gate,
    bloch_vector,
    canonical_xz_angle,
    dm_from_bloch,
    pauli_matrix,
    pauli_projector_overlap,
    paulis_commute,
    product_state,
    trace_distance,
    xz_state,
)

THETA0 = math.pi / 8
H0 = xz_state(THETA0)


def random_register(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return PureRegister(amps / np.linalg.norm(amps))


def random_density(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


@pytest.mark.parametrize("gate", sorted(qcore.GATES_1Q))
def test_single_qubit_gates_unitary(gate):
    u = qcore.GATES_1Q[gate]
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("gate", sorted(qcore.GATES_2Q))
def test_two_qubit_gates_unitary(gate):
    u = qcore.GATES_2Q[gate]
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_h_on_zero():
    reg = apply_gate(basis_state(1), "H", 0)
    expected = np.array([1, 1]) / math.sqrt(2)
    assert np.abs(reg.amps - expected).max() < 1e-12


def test_cnot_on_10():
    reg = apply_gate(basis_state(2, 0b10), "CNOT", 0, 1)
    assert np.abs(reg.amps - basis_state(2, 0b11).amps).max() < 1e-12


def test_cnot_control_second_qubit_on_h_pair():
    # parity-merge orientation: control is the second qubit
    reg = apply_gate(product_state(H0, H0), "CNOT", 1, 0)
    assert abs(reg.amps[0b00] - math.cos(THETA0) ** 2) < 1e-12
    assert abs(reg.amps[0b01] - math.sin(THETA0) ** 2) < 1e-12


@pytest.mark.parametrize("gate,qubits", [("H", (0,)), ("S", (1,)), ("CNOT", (0, 2)), ("CZ", (3, 1))])
@pytest.mark.parametrize("seed", range(3))
def test_norm_preserved(gate, qubits, seed):
    reg = random_register(4, seed)
    out = apply_gate(reg, gate, *qubits)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


def test_apply_gate_index_errors():
    with pytest.raises(IndexError):
        apply_gate(basis_state(2), "H", 2)
    with pytest.raises(IndexError):
        apply_gate(basis_state(2), "CNOT", 0, 0)
    with pytest.raises(KeyError):
        apply_gate(basis_state(1), "NOPE", 0)


def test_measure_plus_state():
    res = measure_qubit(plus_state(), 0)
    assert abs(res.prob0 - 0.5) < 1e-12
    assert abs(res.prob1 - 0.5) < 1e-12


def test_measure_merge_circuit_h0_h0():
    reg = apply_gate(product_state(H0, H0), "CNOT", 1, 0)
    res = measure_qubit(reg, 0)
    assert abs(res.prob0 - 0.75) < 1e-12
    # outcome 1 decodes to the free |+> state
    assert states_equal_up_to_phase(res.post1, plus_state())


@pytest.mark.parametrize("i", [1, 2, 5, 10])
def test_measure_merge_prob_formula(i):
    angle = math.atan(math.tan(THETA0) ** (i + 1))
    reg = apply_gate(product_state(H0, xz_state(angle)), "CNOT", 1, 0)
    res = measure_qubit(reg, 0)
    expected = (
        math.cos(angle) ** 2 * math.cos(THETA0) ** 2
        + math.sin(angle) ** 2 * math.sin(THETA0) ** 2
    )
    assert abs(res.prob0 - expected) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_measure_completeness_and_removal(seed):
    reg = random_register(3, seed)
    for q in range(3):
        res = measure_qubit(reg, q)
        assert abs(res.prob0 + res.prob1 - 1.0) < 1e-12
        assert res.post0.n_qubits == 2
        assert res.post1.n_qubits == 2


def test_measure_zero_probability_branch():
    res = measure_qubit(basis_state(2, 0b00), 0)
    assert res.prob1 == pytest.approx(0.0, abs=1e-15)
    assert res.post1 is None


def test_trace_distance_identical():
    rho = random_density(7)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)


def test_trace_distance_orthogonal_pure():
    zero = dm_from_pure(basis_state(1, 0))
    one = dm_from_pure(basis_state(1, 1))
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("p", [1e-8, 1e-4, 0.3])
def test_trace_distance_axis_mixture(p):
    # oracle: rho - sigma is traceless Hermitian 2x2, eigenvalues come from
    # the explicit quadratic formula
    ideal = dm_from_pure(H0)
    orth = dm_from_pure(PureRegister([math.sin(THETA0), -math.cos(THETA0)]))
    mixed = DensityMatrix((1 - p) * ideal.mat + p * orth.mat)
    diff = mixed.mat - ideal.mat
    oracle = math.sqrt(
        ((diff[0, 0] - diff[1, 1]).real / 2) ** 2 + abs(diff[0, 1]) ** 2
    )
    assert oracle == pytest.approx(p, rel=1e-12)
    assert trace_distance(mixed, ideal) == pytest.approx(p, rel=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_trace_distance_metric_properties(seed):
    a, b, c = (random_density(3 * seed + k) for k in range(3))
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-14)
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10
    assert 0.0 <= trace_distance(a, b) <= 1.0 + 1e-12


def test_trace_distance_dimension_mismatch():
    one = dm_from_pure(basis_state(1))
    two = dm_from_pure(basis_state(2))
    with pytest.raises(ValueError):
        trace_distance(one, two)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.8, 0.0], [0.0, 0.8]]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue


def test_dm_measure_matches_pure_measurement():
    reg = random_register(2, 11)
    rho = DensityMatrix(np.outer(reg.amps, reg.amps.conj()))
    pure = measure_qubit(reg, 0)
    mixed = dm_measure_qubit(rho, 0)
    assert mixed.prob0 == pytest.approx(pure.prob0, abs=1e-12)
    assert (
        trace_distance(mixed.post0, dm_from_pure(pure.post0)) == pytest.approx(0.0, abs=1e-10)
    )


def test_dm_apply_gate_matches_pure():
    reg = random_register(2, 13)
    rho = dm_apply_gate(DensityMatrix(np.outer(reg.amps, reg.amps.conj())), "CNOT", 1, 0)
    pure = apply_gate(reg, "CNOT", 1, 0)
    assert trace_distance(rho, dm_from_pure(pure)) == pytest.approx(0.0, abs=1e-10)


# --- Pauli strings ---------------------------------------------------------


def test_pauli_square_is_identity():
    for letters in ("XZXI", "IXZX", "ZZZZ", "XYZI"):
        p = PauliString(1, letters)
        m = pauli_matrix(p)
        assert np.abs(m @ m - np.eye(2 ** len(letters))).max() < 1e-12


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ("XI", "ZI", False),
        ("XI", "IZ", True),
        ("XZXI", "IXZX", True),
        ("XZXI", "ZZZZ", True),
        ("XXXX", "ZZZZ", True),
        ("XIII", "ZZZZ", False),
    ],
)
def test_commutation_symplectic_vs_matrices(a, b, expected):
    pa, pb = PauliString(1, a), PauliString(1, b)
    assert paulis_commute(pa, pb) is expected
    ma, mb = pauli_matrix(pa), pauli_matrix(pb)
    comm = np.abs(ma @ mb - mb @ ma).max()
    assert bool(comm < 1e-12) is expected


def test_projector_stabilized_input():
    gens = [PauliString(1, "ZI"), PauliString(1, "IZ")]
    res = pauli_projector_overlap(gens, basis_state(2, 0b00))
    assert res.prob == pytest.approx(1.0, abs=1e-12)
    assert res.decoded is None  # code space is one-dimensional


def test_projector_noncommuting_generators_rejected():
    gens = [PauliString(1, "XI"), PauliString(1, "ZI")]
    with pytest.raises(ValueError):
        pauli_projector_overlap(gens, basis_state(2))


def test_projector_plus_state_single_generator():
    res = pauli_projector_overlap([PauliString(1, "XI")], basis_state(2, 0b00))
    assert res.prob == pytest.approx(0.5, abs=1e-12)
    assert res.decoded is not None
    assert res.decoded.n_qubits == 1


# --- Bloch / Clifford canonicalization -------------------------------------


def test_bloch_vector_basics():
    assert np.abs(bloch_vector(basis_state(1, 0)) - [0, 0, 1]).max() < 1e-12
    assert np.abs(bloch_vector(plus_state()) - [1, 0, 0]).max() < 1e-12
    v = bloch_vector(H0)
    assert np.abs(v - [math.sin(math.pi / 4), 0, math.cos(math.pi / 4)]).max() < 1e-12
    for seed in range(5):
        reg = random_register(1, seed)
        assert np.abs(bloch_vector(reg) - dm_bloch_vector(dm_from_pure(reg))).max() < 1e-12


def test_bloch_vector_takes_one_pure_qubit_only():
    for state in (dm_from_bloch(0.3, -0.4, 0.5), basis_state(2), dm_from_pure(basis_state(2))):
        with pytest.raises(ValueError, match="single-qubit PureRegister"):
            bloch_vector(state)


def _clifford_words(seed, count=20, max_len=8):
    """Seeded random words of H, S, X and Z, each with a global phase."""
    rng = random.Random(seed)
    return [
        ([rng.choice("HSXZ") for _ in range(rng.randint(1, max_len))], rng.uniform(0, 2 * math.pi))
        for _ in range(count)
    ]


CLIFFORD_WORDS = [([gate], 0.0) for gate in "HSXZ"] + _clifford_words(11)


@pytest.mark.parametrize("angle", [0.05, 0.2, THETA0, 0.3449])
def test_canonical_angle_invariant_under_cliffords(angle):
    state = xz_state(angle)
    assert canonical_xz_angle(state) == pytest.approx(min(angle, math.pi / 4 - angle), abs=1e-12)
    for word, phase in CLIFFORD_WORDS:
        mapped = state
        for gate in word:
            mapped = apply_gate(mapped, gate, 0)
        mapped = PureRegister(mapped.amps * np.exp(1j * phase))
        assert canonical_xz_angle(mapped) == pytest.approx(
            canonical_xz_angle(state), abs=1e-9
        ), (word, phase)


def test_canonical_angle_rejects_state_off_every_reflection_circle():
    # Bloch vector (0.43, 0.36, 0.83): no component is zero
    state = PureRegister(np.array([math.cos(0.3), np.exp(0.7j) * math.sin(0.3)]))
    with pytest.raises(ValueError, match="not Clifford-equivalent"):
        canonical_xz_angle(state)


@pytest.mark.parametrize(
    "state",
    [basis_state(1, 0), basis_state(1, 1), plus_state(), apply_gate(plus_state(), "S", 0)],
    ids=["0", "1", "+", "+i"],
)
def test_canonical_angle_of_stabilizer_states_is_exactly_zero(state):
    angle = canonical_xz_angle(state)
    assert (angle, math.copysign(1.0, angle)) == (0.0, 1.0)


def test_states_equal_up_to_phase():
    a = random_register(2, 3)
    b = PureRegister(a.amps * np.exp(1j * 1.234))
    assert states_equal_up_to_phase(a, b)
    assert not states_equal_up_to_phase(a, random_register(2, 4))


def test_dm_from_bloch_roundtrip():
    rho = dm_from_bloch(0.3, -0.4, 0.5)
    assert np.abs(dm_bloch_vector(rho) - [0.3, -0.4, 0.5]).max() < 1e-12


def test_pure_register_validation():
    with pytest.raises(ValueError):
        PureRegister([0.5, 0.5])  # norm != 1
    with pytest.raises(ValueError):
        PureRegister([1.0, 0.0, 0.0])  # not a power-of-two length
    with pytest.raises(ValueError):
        PureRegister(np.zeros(32))  # five qubits exceed the supported range
    reg = basis_state(3, 5)
    assert reg.n_qubits == 3
    with pytest.raises(ValueError):
        reg.amps[0] = 1.0  # frozen


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, complex(math.nan, 0), complex(0, math.inf)])


@given(st.integers(1, 4), st.data(), NON_FINITE)
def test_pure_register_rejects_non_finite_amplitudes(n_qubits, data, bad):
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    amps[data.draw(st.integers(0, 2**n_qubits - 1))] = bad
    with pytest.raises(ValueError):
        PureRegister(amps)


def test_pure_register_rejects_all_nan():
    with pytest.raises(ValueError):
        PureRegister(np.full(2, np.nan))


@given(st.integers(1, 2), st.data(), NON_FINITE)
def test_density_matrix_rejects_non_finite_entries(n_qubits, data, bad):
    mat = np.eye(2**n_qubits, dtype=complex) / 2**n_qubits
    row = data.draw(st.integers(0, 2**n_qubits - 1))
    col = data.draw(st.integers(0, 2**n_qubits - 1))
    mat[row, col] = bad
    with pytest.raises(ValueError):
        DensityMatrix(mat)


def test_density_matrix_rejects_all_nan():
    with pytest.raises(ValueError):
        DensityMatrix(np.full((2, 2), np.nan))
