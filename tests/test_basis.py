"""Basis construction, exact decomposition, rank and census."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from stabcheck import (
    BasisElement,
    count_stabilizer_states,
    decompose,
    decompose_by_solve,
    element_matrix,
    enumerate_basis,
    ghz_circuit,
    hermitian_coords,
    recompose,
    span_rank,
    sum_state_circuit,
)
from stabcheck.basis import ExactComplex, basis_element, basis_index, parse_element_spec, _eliminate
from stabcheck.dense import run_dense

from helpers import exact_to_numpy, random_rational_hermitian


def dense_state(circ):
    state, _ = run_dense(circ.element.n, circ.gates)
    return state


class TestGhzCircuit:
    def test_single_qubit_i_variant(self):
        circ = ghz_circuit(1, with_i=True)
        assert circ.gates == (("H", 0), ("P", 0))
        assert np.allclose(dense_state(circ), np.array([1, 1j]) / np.sqrt(2))

    def test_two_qubits(self):
        circ = ghz_circuit(2)
        assert circ.gates == (("H", 0), ("CNOT", 0, 1))
        assert np.allclose(dense_state(circ), np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_three_qubits_support(self):
        state = dense_state(ghz_circuit(3))
        nonzero = np.flatnonzero(np.abs(state) > 1e-12)
        assert list(nonzero) == [0, 7]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ghz_circuit(0)


class TestSumStateCircuit:
    def test_complementary_pair_equals_ghz(self):
        assert sum_state_circuit(0, 3, "plus", 2) == ghz_circuit(2)

    def test_example_gate_list(self):
        circ = sum_state_circuit(1, 2, "plus", 2)
        assert circ.gates == (("H", 0), ("CNOT", 0, 1), ("X", 1))
        assert np.allclose(dense_state(circ), np.array([0, 1, 1, 0]) / np.sqrt(2))

    def test_shared_bit_i_variant(self):
        circ = sum_state_circuit(2, 3, "i", 2)
        assert np.allclose(dense_state(circ), np.array([0, 0, 1, 1j]) / np.sqrt(2))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            sum_state_circuit(2, 1, "plus", 2)
        with pytest.raises(ValueError):
            sum_state_circuit(0, 4, "plus", 2)
        with pytest.raises(ValueError):
            sum_state_circuit(0, 1, "minus", 1)

    def test_amplitudes_exact_for_all_pairs(self):
        # the i must sit on |y>, never on |x>
        for n in (1, 2, 3):
            dim = 1 << n
            for x, y in itertools.combinations(range(dim), 2):
                for phase, factor in (("plus", 1.0), ("i", 1j)):
                    state = dense_state(sum_state_circuit(x, y, phase, n))
                    want = np.zeros(dim, dtype=complex)
                    want[x] = 1 / np.sqrt(2)
                    want[y] = factor / np.sqrt(2)
                    assert np.allclose(state, want), (x, y, phase, n)

    def test_gate_budget(self):
        for n in (1, 2, 3, 4):
            for circ in enumerate_basis(n):
                gates = [g[0] for g in circ.gates]
                assert gates.count("H") <= 1
                assert gates.count("P") <= 1
                assert gates.count("CNOT") <= n - 1
                assert gates.count("X") <= n


class TestEnumerateBasis:
    def test_single_qubit_order(self):
        kinds = [(c.element.kind, c.element.x, c.element.y) for c in enumerate_basis(1)]
        assert kinds == [("diag", 0, None), ("diag", 1, None), ("plus", 0, 1), ("iplus", 0, 1)]

    def test_counts_for_two_qubits(self):
        elements = [c.element for c in enumerate_basis(2)]
        assert len(elements) == 16
        by_kind = {k: sum(1 for e in elements if e.kind == k) for k in ("diag", "plus", "iplus")}
        assert by_kind == {"diag": 4, "plus": 6, "iplus": 6}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_basis_element_inverts_basis_index(self, n):
        elements = [c.element for c in enumerate_basis(n)]
        assert [basis_element(n, k) for k in range(4 ** n)] == elements
        assert [basis_index(basis_element(n, k)) for k in range(4 ** n)] == list(range(4 ** n))
        for k in (-1, 4 ** n):
            with pytest.raises(ValueError, match="out of range"):
                basis_element(n, k)

    def test_full_sweep_matches_matrices(self):
        for n in (1, 2):
            for circ in enumerate_basis(n):
                state = dense_state(circ)
                want = exact_to_numpy(element_matrix(circ.element))
                assert np.max(np.abs(np.outer(state, state.conj()) - want)) < 1e-9

    def test_prepared_tableaus_valid_up_to_five_qubits(self):
        for n in (4, 5):
            for circ in enumerate_basis(n):
                circ.prepare().assert_valid()

    def test_element_spec_round_trip(self):
        for circ in enumerate_basis(2):
            e = circ.element
            assert parse_element_spec(e.label(), 2) == e
        with pytest.raises(ValueError):
            parse_element_spec("plus:3", 2)
        with pytest.raises(ValueError):
            parse_element_spec("wobble:0,1", 2)
        # A malformed spec names the accepted forms; a label out of range keeps BasisElement's message.
        forms = "expected diag:X, plus:X,Y or iplus:X,Y"
        for spec in ("iplus:0", "plus:a,b", "plus:3", "wobble:0,1", "diag:0,1", "diag:", "diag", "plus:0,1,2", ""):
            with pytest.raises(ValueError) as exc:
                parse_element_spec(spec, 2)
            assert str(exc.value) == f"bad basis element spec {spec!r}: {forms}"
        for spec, message in (("diag:4", "label out of range"), ("plus:1,0", "two-label kinds need 0 <= x < y < 2^n")):
            with pytest.raises(ValueError) as exc:
                parse_element_spec(spec, 2)
            assert str(exc.value) == f"bad basis element spec {spec!r}: {message}"


class TestElementMatrix:
    def test_diag(self):
        m = element_matrix(BasisElement(1, "diag", 0))
        assert exact_to_numpy(m).tolist() == [[1, 0], [0, 0]]

    def test_plus(self):
        m = exact_to_numpy(element_matrix(BasisElement(1, "plus", 0, 1)))
        assert np.array_equal(m, np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_iplus(self):
        m = exact_to_numpy(element_matrix(BasisElement(1, "iplus", 0, 1)))
        assert np.array_equal(m, np.array([[0.5, -0.5j], [0.5j, 0.5]]))

    def test_trace_one(self):
        for circ in enumerate_basis(2):
            m = element_matrix(circ.element)
            assert sum((m[i][i].re for i in range(4)), Fraction(0)) == 1


class TestDecompose:
    def test_maximally_mixed(self):
        half = Fraction(1, 2)
        assert decompose([[half, 0], [0, half]]) == [half, half, 0, 0]

    def test_pauli_x(self):
        assert decompose([[0, 1], [1, 0]]) == [-1, -1, 2, 0]

    def test_pauli_y(self):
        y = [[0, complex(0, -1)], [complex(0, 1), 0]]
        assert decompose(y) == [-1, -1, 0, 2]
        assert decompose_by_solve(y) == [-1, -1, 0, 2]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            decompose([[0, 1], [2, 0]])  # not Hermitian
        with pytest.raises(ValueError):
            decompose([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # not a power of 2

    def test_round_trip_and_solver_agreement(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.choice((1, 2))
            m = random_rational_hermitian(rng, 1 << n)
            coeffs = decompose(m)
            assert coeffs == decompose_by_solve(m)
            assert recompose(coeffs, n) == m

    def test_coords_encode_exactly(self):
        rng = random.Random(29)
        m = random_rational_hermitian(rng, 4)
        coords = hermitian_coords(m)
        assert len(coords) == 16
        # rebuild from coordinates and compare
        rebuilt = [[ExactComplex() for _ in range(4)] for _ in range(4)]
        pairs = list(itertools.combinations(range(4), 2))
        for x in range(4):
            rebuilt[x][x] = ExactComplex(coords[x])
        for idx, (x, y) in enumerate(pairs):
            re = coords[4 + idx]
            im = -coords[4 + len(pairs) + idx]
            rebuilt[x][y] = ExactComplex(re, im)
            rebuilt[y][x] = ExactComplex(re, -im)
        assert rebuilt == m


class TestSpanRank:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_rank(self, n):
        assert span_rank(n) == 4 ** n

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            span_rank(4)

    def test_fraction_free_rank_cross_check(self):
        rng = random.Random(31)
        for _ in range(30):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            got = _eliminate([row[:] for row in mat], cols)
            want = np.linalg.matrix_rank(np.array(mat, dtype=float))
            assert got == want


class TestCensus:
    def test_counts(self):
        assert count_stabilizer_states(1) == 6
        assert count_stabilizer_states(2) == 60

    def test_basis_is_smaller(self):
        assert 4 ** 2 < count_stabilizer_states(2)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            count_stabilizer_states(4)
