"""Dense oracle: trace replay, branch mixing, Pauli expectations."""

import random
import tracemalloc

import numpy as np
import pytest

from stabcheck import PauliString, density_from_branches, pauli_expect_dense, run_dense
from stabcheck.checker import local_observable
from stabcheck.dense import (
    _GATE_1Q,
    ZeroProbabilityError,
    apply_gate_dense,
    pauli_expectations,
    project_z,
    reduced_density,
    zero_state,
)

from helpers import enumerate_circuit_branches, hermitian_paulis, random_circuit

INV_SQRT2 = 1 / np.sqrt(2)

# teleport body on wires (psi, a, b), Bell prep included, no corrections
TELEPORT_BASE = [("H", 1), ("CNOT", 1, 2), ("CNOT", 0, 1), ("H", 0), ("M", 0), ("M", 1)]


class TestRunDense:
    def test_hadamard(self):
        state, prob = run_dense(1, [("H", 0)])
        assert np.allclose(state, [INV_SQRT2, INV_SQRT2])
        assert prob == 1.0

    def test_measure_one_branch(self):
        state, prob = run_dense(1, [("H", 0), ("M", 0)], outcomes=(1,))
        assert np.allclose(state, [0, 1])
        assert prob == pytest.approx(0.5)

    def test_zero_probability_branch(self):
        with pytest.raises(ZeroProbabilityError):
            run_dense(1, [("M", 0)], outcomes=(1,))

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            run_dense(1, [("T", 0)])

    def test_outcome_bits_are_0_or_1(self):
        # Outcome 2 was reported as an outcome of probability zero, and
        # project_z on |0> reported 2 and -1 so too.
        for bit in (2, -1):
            for call in (
                lambda: run_dense(1, [("H", 0), ("M", 0)], outcomes=(bit,)),
                lambda: project_z(zero_state(1), 1, 0, bit),
            ):
                with pytest.raises(ValueError, match="^outcome bit must be 0 or 1$") as exc:
                    call()
                assert not isinstance(exc.value, ZeroProbabilityError)
        with pytest.raises(ZeroProbabilityError, match="^outcome 1 on qubit 0 has probability zero$"):
            project_z(zero_state(1), 1, 0, 1)

    def test_outcome_coverage(self):
        with pytest.raises(ValueError):
            run_dense(1, [("M", 0)])
        with pytest.raises(ValueError):
            run_dense(1, [("H", 0)], outcomes=(0,))

    def test_teleport_trivial_branch_carries_input(self):
        # prepare |0>+i|1> on the input wire, then pick the (0, 0) branch:
        # no correction needed, the output wire holds the input state
        prep = [("H", 0), ("P", 0)]
        state, prob = run_dense(3, prep + TELEPORT_BASE, outcomes=(0, 0))
        assert prob == pytest.approx(0.25)
        want = np.zeros(8, dtype=complex)
        want[0] = INV_SQRT2      # |000>
        want[1] = 1j * INV_SQRT2  # |001>
        assert np.allclose(state, want)


def gate_matrix(n: int, gate: str, *qubits: int) -> np.ndarray:
    """The gate's 2^n x 2^n matrix as Kronecker products, qubit 0 first."""

    def kron(factors: dict) -> np.ndarray:
        mat = np.eye(1)
        for q in range(n):
            mat = np.kron(mat, factors.get(q, np.eye(2)))
        return mat

    if gate == "CNOT":
        c, t = qubits
        return kron({c: np.diag([1, 0])}) + kron({c: np.diag([0, 1]), t: _GATE_1Q["X"]})
    return kron({qubits[0]: _GATE_1Q[gate]})


class TestApplyGateDenseStack:
    def test_stack_matches_row_by_row(self):
        # A stack (2, 3, 2^n) takes each gate row by row, and each row as the
        # gate's full matrix would.
        rng = np.random.default_rng(41)
        for n in range(1, 5):
            stack = rng.normal(size=(2, 3, 1 << n)) + 1j * rng.normal(size=(2, 3, 1 << n))
            gates = [(g, q) for g in "HPXYZ" for q in range(n)]
            gates += [("CNOT", c, t) for c in range(n) for t in range(n) if c != t]
            for gate in gates:
                got = apply_gate_dense(stack, n, *gate)
                assert got.shape == stack.shape
                for row, state in zip(got.reshape(6, -1), stack.reshape(6, -1)):
                    assert np.allclose(row, apply_gate_dense(state, n, *gate), rtol=0, atol=1e-12), (n, gate)
                    assert np.allclose(row, gate_matrix(n, *gate) @ state, rtol=0, atol=1e-12), (n, gate)

    def test_stack_checks_gates(self):
        stack = np.ones((3, 4), dtype=complex)
        with pytest.raises(ValueError, match="must differ"):
            apply_gate_dense(stack, 2, "CNOT", 1, 1)
        with pytest.raises(ValueError, match="unknown gate"):
            apply_gate_dense(stack, 2, "T", 0)


class TestDensityFromBranches:
    def test_single_branch(self):
        rho = density_from_branches([(1.0, np.array([1, 0], dtype=complex))], [0])
        assert np.allclose(rho, [[1, 0], [0, 0]])

    def test_even_mixture(self):
        branches = [(0.5, np.array([1, 0], dtype=complex)), (0.5, np.array([0, 1], dtype=complex))]
        assert np.allclose(density_from_branches(branches, [0]), np.eye(2) / 2)

    def test_teleport_output_density(self):
        # all four outcome branches with the right corrections, input |+>
        prep = [("H", 0)]
        branches = []
        for m0 in (0, 1):
            for m1 in (0, 1):
                fixes = [("X", 2)] * m1 + [("Z", 2)] * m0
                state, prob = run_dense(3, prep + TELEPORT_BASE + fixes, outcomes=(m0, m1))
                branches.append((prob, state))
        rho = density_from_branches(branches, [2])
        assert np.allclose(rho, np.full((2, 2), 0.5))

    def test_rejects_bad_probability_total(self):
        with pytest.raises(ValueError):
            density_from_branches([(0.7, np.array([1, 0], dtype=complex))], [0])

    def test_rejects_mixed_sizes(self):
        branches = [(0.5, np.ones(2, dtype=complex)), (0.5, np.ones(4, dtype=complex))]
        with pytest.raises(ValueError):
            density_from_branches(branches, [0])

    def test_output_is_state_like(self):
        rng = random.Random(37)
        for _ in range(15):
            n = rng.randint(1, 3)
            ops = random_circuit(rng, n, 12, 2)
            from stabcheck import new_zero_state

            tab_branches = enumerate_circuit_branches(new_zero_state(n), ops)
            dense_branches = []
            for t, prob, outcomes in tab_branches:
                state, _ = run_dense(n, t.trace, outcomes=outcomes)
                dense_branches.append((float(prob), state))
            keep = sorted(rng.sample(range(n), rng.randint(1, n)))
            rho = density_from_branches(dense_branches, keep)
            assert np.allclose(rho, rho.conj().T)
            assert np.trace(rho).real == pytest.approx(1.0)
            assert min(np.linalg.eigvalsh(rho)) > -1e-9


class TestPauliExpectDense:
    def test_z_on_zero(self):
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        assert pauli_expect_dense(rho, PauliString.from_label("+Z")) == pytest.approx(1.0)

    def test_x_on_mixed(self):
        assert pauli_expect_dense(np.eye(2, dtype=complex) / 2, PauliString.from_label("+X")) == pytest.approx(0.0)

    def test_xx_on_ghz(self):
        state, _ = run_dense(2, [("H", 0), ("CNOT", 0, 1)])
        rho = reduced_density(state, [0, 1])
        assert pauli_expect_dense(rho, PauliString.from_label("+XX")) == pytest.approx(1.0)

    def test_rejects_non_hermitian_observable(self):
        with pytest.raises(ValueError):
            pauli_expect_dense(np.eye(2, dtype=complex) / 2, PauliString(1, 1, 1, 0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pauli_expect_dense(np.eye(4, dtype=complex) / 4, PauliString.from_label("+X"))

    def test_keeps_no_matrices(self):
        # Whatever one call leaves behind adds up over all 256 Paulis at k = 4.
        dm = np.eye(16, dtype=complex) / 16
        observables = hermitian_paulis(4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for obs in observables:
                pauli_expect_dense(dm, obs)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024


class TestPauliExpectations:
    def test_columns_match_pauli_expect_dense(self):
        # Column q is the expectation of local_observable(k, q), for a stack
        # of random Hermitian matrices.
        rng = np.random.default_rng(43)
        for k in range(1, 4):
            dim = 1 << k
            raw = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
            dms = raw + raw.conj().transpose(0, 2, 1)
            got = pauli_expectations(dms)
            assert got.shape == (3, 4 ** k)
            for dm, row in zip(dms, got):
                want = [pauli_expect_dense(dm, local_observable(k, q)) for q in range(4 ** k)]
                assert np.allclose(row, want, rtol=0, atol=1e-12)

    def test_rejects_imaginary_expectations(self):
        # Tr(Y |0><1|) = i.
        with pytest.raises(ValueError, match="imaginary"):
            pauli_expectations(np.array([[[0, 1], [0, 0]]], dtype=complex))
