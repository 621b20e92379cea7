"""Tableau simulator: gate rules, measurement, expectations, canonical form."""

import random

import numpy as np
import pytest

from stabcheck import (
    PauliString,
    apply_gate,
    canonical_form,
    expectation,
    measure_z,
    new_zero_state,
    run_circuit,
    tensor,
)
from stabcheck.tableau import supported_subgroup
from stabcheck.dense import pauli_expect_state, run_dense

from helpers import (
    enumerate_circuit_branches,
    hermitian_paulis,
    random_circuit,
    states_equal_up_to_phase,
)


def stab_strings(t):
    return [str(r) for r in canonical_form(t)]


class TestPauliString:
    def test_label_round_trip(self):
        for label in ("+X", "-Z", "+Y", "-IXYZ", "+II"):
            assert str(PauliString.from_label(label)) == label

    def test_products(self):
        X = PauliString.from_label("+X")
        Y = PauliString.from_label("+Y")
        Z = PauliString.from_label("+Z")
        assert X * Y == PauliString(1, 0, 1, 1)  # X*Y = iZ
        assert Y * X == PauliString(1, 0, 1, 3)  # Y*X = -iZ
        assert Y * Y == PauliString.identity(1)
        assert (X * Z).is_hermitian is False
        assert str(Z * X * Z) == "-X"

    def test_commutation(self):
        X = PauliString.from_label("+X")
        Z = PauliString.from_label("+Z")
        assert not X.commutes(Z)
        assert PauliString.from_label("+XX").commutes(PauliString.from_label("+ZZ"))

    def test_sign(self):
        assert PauliString.from_label("-Y").sign == -1
        with pytest.raises(ValueError):
            _ = PauliString(1, 1, 1, 0).sign  # XZ alone is -iY

    def test_validation(self):
        with pytest.raises(ValueError):
            PauliString(0)
        with pytest.raises(ValueError):
            PauliString(1, x_bits=2)


class TestZeroState:
    def test_single_qubit(self):
        assert stab_strings(new_zero_state(1)) == ["+Z"]

    def test_two_qubits(self):
        assert stab_strings(new_zero_state(2)) == ["+ZI", "+IZ"]

    def test_three_qubit_expectations(self):
        t = new_zero_state(3)
        for q in range(3):
            assert expectation(t, PauliString.single(3, q, "Z")) == 1

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            new_zero_state(0)


class TestApplyGate:
    def test_h_gives_plus(self):
        assert stab_strings(run_circuit(1, [("H", 0)])) == ["+X"]

    def test_h_then_p_gives_y(self):
        # |0>+i|1> is stabilized by +Y; sign confirmed against the oracle
        t = run_circuit(1, [("H", 0), ("P", 0)])
        assert stab_strings(t) == ["+Y"]
        state, _ = run_dense(1, t.trace)
        assert pauli_expect_state(state, PauliString.from_label("+Y")) == pytest.approx(1.0)

    def test_bell_pair(self):
        t = run_circuit(2, [("H", 0), ("CNOT", 0, 1)])
        assert stab_strings(t) == ["+XX", "+ZZ"]
        state, _ = run_dense(2, t.trace)
        assert np.allclose(state, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_gate_errors(self):
        t = new_zero_state(2)
        with pytest.raises(ValueError):
            apply_gate(t, "H", 5)
        with pytest.raises(ValueError):
            apply_gate(t, "CNOT", 1, 1)
        with pytest.raises(ValueError):
            apply_gate(t, "T", 0)

    def test_invariants_after_random_circuits(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 6)
            ops = random_circuit(rng, n, 30, rng.randint(0, 2))
            for t, _, _ in enumerate_circuit_branches(new_zero_state(n), ops):
                t.assert_valid()


class TestTensor:
    def test_zero_tensor_zero(self):
        t = tensor(new_zero_state(1), new_zero_state(1))
        assert canonical_form(t) == canonical_form(new_zero_state(2))

    def test_plus_tensor_zero(self):
        t = tensor(run_circuit(1, [("H", 0)]), new_zero_state(1))
        assert stab_strings(t) == ["+XI", "+IZ"]

    def test_tensor_then_cnot_rebuilds_two_qubit_chain(self):
        # extend |0>+|1> by a fresh |0> and fuse with CNOT on the last two wires
        t = tensor(run_circuit(1, [("H", 0)]), new_zero_state(1))
        apply_gate(t, "CNOT", 0, 1)
        from stabcheck import ghz_circuit

        assert canonical_form(t) == canonical_form(ghz_circuit(2).prepare())


class TestMeasureZ:
    def test_deterministic_zero(self):
        res, collapse = measure_z(new_zero_state(1), 0)
        assert res.deterministic and res.outcome == 0
        assert stab_strings(collapse(0)) == ["+Z"]
        with pytest.raises(ValueError):
            collapse(1)

    def test_random_on_plus(self):
        res, collapse = measure_z(run_circuit(1, [("H", 0)]), 0)
        assert not res.deterministic
        assert stab_strings(collapse(0)) == ["+Z"]
        assert stab_strings(collapse(1)) == ["-Z"]

    def test_bell_collapse_matches_oracle(self):
        t = run_circuit(2, [("H", 0), ("CNOT", 0, 1)])
        res, collapse = measure_z(t, 0)
        assert not res.deterministic
        c0 = collapse(0)
        assert canonical_form(c0) == canonical_form(new_zero_state(2))
        state, prob = run_dense(2, c0.trace, outcomes=(0,))
        assert np.allclose(state, [1, 0, 0, 0])
        assert prob == pytest.approx(0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            measure_z(new_zero_state(1), 3)

    def test_branch_probabilities_total_one(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 3)
            ops = random_circuit(rng, n, 15, 3)
            branches = enumerate_circuit_branches(new_zero_state(n), ops)
            assert sum(p for _, p, _ in branches) == 1


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(new_zero_state(1), PauliString.from_label("+Z")) == 1

    def test_x_on_zero(self):
        assert expectation(new_zero_state(1), PauliString.from_label("+X")) == 0

    def test_bell_correlations(self):
        t = run_circuit(2, [("H", 0), ("CNOT", 0, 1)])
        state, _ = run_dense(2, t.trace)
        for label, want in (("+XX", 1), ("+ZZ", 1), ("+YY", -1)):
            obs = PauliString.from_label(label)
            assert expectation(t, obs) == want
            assert pauli_expect_state(state, obs) == pytest.approx(want)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expectation(new_zero_state(1), PauliString(1, 1, 1, 0))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            expectation(new_zero_state(2), PauliString.from_label("+Z"))

    def test_group_size_is_2_to_n(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 3)
            t = run_circuit(n, random_circuit(rng, n, 25))
            values = [expectation(t, obs) for obs in hermitian_paulis(n)]
            assert sum(1 for v in values if v != 0) == 2 ** n
            assert all(v in (-1, 0, 1) for v in values)

    def test_matches_oracle_on_random_circuits(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 3)
            ops = random_circuit(rng, n, 20, rng.randint(0, 2))
            for t, prob, outcomes in enumerate_circuit_branches(new_zero_state(n), ops):
                state, dense_prob = run_dense(n, t.trace, outcomes=outcomes)
                assert abs(dense_prob - float(prob)) < 1e-9
                for obs in hermitian_paulis(n):
                    assert abs(pauli_expect_state(state, obs) - expectation(t, obs)) < 1e-9


class TestSupportedSubgroup:
    def test_bell_pair_beside_a_zero(self):
        t = run_circuit(3, [("H", 0), ("CNOT", 0, 1)])
        assert sorted(str(g) for g in supported_subgroup(t, 0b011)) == ["+XXI", "+ZZI"]
        assert supported_subgroup(t, 0b001) == []
        assert [str(g) for g in supported_subgroup(t, 0b100)] == ["+IIZ"]


class TestCanonicalForm:
    def test_h_twice_is_identity(self):
        t = run_circuit(1, [("H", 0), ("H", 0)])
        assert canonical_form(t) == canonical_form(new_zero_state(1))

    def test_row_multiplied_generators_same_group(self):
        bell = run_circuit(2, [("H", 0), ("CNOT", 0, 1)])
        twisted = bell.copy()
        # replace the second generator by the product: {+XX, +ZZ} -> {+XX, -YY}
        twisted.rows[3] = twisted.rows[3] * twisted.rows[2]
        assert str(twisted.rows[3]) == "-YY"

        def group_of(rows):
            members = {str(PauliString.identity(2))}
            members.update(str(r) for r in rows)
            members.add(str(rows[0] * rows[1]))
            return members

        assert group_of(bell.rows[2:]) == group_of(twisted.rows[2:])
        assert canonical_form(twisted) == canonical_form(bell)

    def test_zero_and_one_differ(self):
        one = run_circuit(1, [("X", 0)])
        assert canonical_form(one) != canonical_form(new_zero_state(1))

    def test_equality_iff_oracle_states_match(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 3)
            t1 = run_circuit(n, random_circuit(rng, n, 15))
            t2 = run_circuit(n, random_circuit(rng, n, 15))
            s1, _ = run_dense(n, t1.trace)
            s2, _ = run_dense(n, t2.trace)
            assert (canonical_form(t1) == canonical_form(t2)) == states_equal_up_to_phase(s1, s2)
