"""Tableau simulator: gate rules, measurement, expectations, canonical form."""

import random

import numpy as np
import pytest

from stabcheck import (
    PauliString,
    Tableau,
    apply_gate,
    canonical_form,
    expectation,
    measure_z,
    new_zero_state,
    run_circuit,
    tensor,
)
from stabcheck.tableau import GATE_NAMES, _boxed, _circuit, _echelon, _product, _supported, apply_tableau
from stabcheck.tableau import supported_subgroup
from stabcheck.dense import pauli_expect_state, run_dense

from helpers import (
    enumerate_circuit_branches,
    hermitian_paulis,
    random_circuit,
    reference_apply_gate,
    reference_canonical_form,
    reference_echelon,
    reference_supported,
    reference_supported_subgroup,
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


class TestAssertValid:
    @staticmethod
    def tableau(destabilizers, stabilizers):
        rows = [PauliString.from_label(r) if isinstance(r, str) else r for r in destabilizers + stabilizers]
        return Tableau(len(stabilizers), rows, [])

    def test_a_valid_tableau_passes(self):
        self.tableau(["+XI", "+IX"], ["+ZI", "-IZ"]).assert_valid()

    @pytest.mark.parametrize(
        "destabilizers, stabilizers, message",
        [
            (["+XI"], ["+ZI", "+IZ"], "must hold 2n rows"),
            (["+XI", "+IX"], ["+ZI", "+IZI"], "row width mismatch"),
            (["+XI", "+IX"], ["+ZI", PauliString(2, 0, 0b10, 1)], "not a signed Hermitian Pauli"),
            (["+ZI", "+IX"], ["+XI", "+ZZ"], "stabilizer rows 0 and 1 anticommute"),
            # Paired with the stabilizers, but XI and ZX anticommute.
            (["+XI", "+ZX"], ["+ZI", "+IZ"], "destabilizer rows 0 and 1 anticommute"),
            # Commuting pairwise, each set is GF(2) dependent: a repeated
            # row, a row equal to -1 times another, and a product of two.
            (["+XI", "+IX"], ["+ZI", "+ZI"], "GF\\(2\\) dependent"),
            (["+XI", "+IX"], ["+ZZ", "-ZZ"], "GF\\(2\\) dependent"),
            (["+XII", "+IXI", "+IIX"], ["+ZII", "+IZI", "-ZZI"], "GF\\(2\\) dependent"),
            (["+IX", "+XI"], ["+ZI", "+IZ"], "symplectic pairing broken at \\(0, 0\\)"),
            (["+XI", "+XX"], ["+ZI", "+IZ"], "symplectic pairing broken at \\(1, 0\\)"),
        ],
    )
    def test_each_broken_invariant_is_rejected(self, destabilizers, stabilizers, message):
        with pytest.raises(ValueError, match=message):
            self.tableau(destabilizers, stabilizers).assert_valid()


class TestRunCircuit:
    def test_matches_gate_by_gate(self):
        rng = random.Random(23)
        for n in range(1, 15):
            for _ in range(25):
                gates = random_circuit(rng, n, rng.randint(0, 60))
                # Runs of P around an H carry the phase's low bit into its high bit.
                q = rng.randrange(n)
                gates += [("P", q)] * rng.randint(1, 7) + [("H", q)] + [("P", q)] * rng.randint(1, 7)
                gates += random_circuit(rng, n, rng.randint(0, 10))
                want = new_zero_state(n)
                for gate in gates:
                    apply_gate(want, *gate)
                got = run_circuit(n, gates)
                assert got.rows == want.rows  # phases included
                assert got.trace == want.trace

    @pytest.mark.parametrize("gate", [("T", 0), ("H", 0, 1), ("CNOT", 0), ("X", 2), ("Z", -1), ("CNOT", 1, 1)])
    def test_same_errors_as_apply_gate(self, gate):
        with pytest.raises(ValueError) as want:
            apply_gate(new_zero_state(2), *gate)
        with pytest.raises(ValueError) as got:
            run_circuit(2, [("H", 0), gate])
        assert str(got.value) == str(want.value)

    def test_needs_a_qubit(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            run_circuit(0, [])

    def test_a_column_map_moves_each_rows_bits(self):
        # _circuit with column writes qubit q's bits at bit column[q] of
        # each row, rows still in qubit order; the identity map changes
        # nothing, so it gives the gate-by-gate rows.
        def moved(bits, column):
            return sum(1 << c for q, c in enumerate(column) if bits >> q & 1)

        rng = random.Random(37)
        seen = set()
        for n in (1, 2, 3, 5, 8, 16, 40, 100, 300):
            for _ in range(3):
                gates = random_circuit(rng, n, 4 * n + 8)
                seen.update(g[0] for g in gates)
                want = _circuit(n, gates)
                assert _circuit(n, gates, range(n)) == want
                if n <= 16:
                    start = new_zero_state(n)
                    for gate in gates:
                        reference_apply_gate(start, *gate)
                    assert _boxed(n, want) == start.rows
                column = rng.sample(range(n), n)
                assert _circuit(n, gates, column) == [(moved(x, column), moved(z, column), ph) for x, z, ph in want]
        assert seen == set(GATE_NAMES)


class TestApplyTableau:
    def test_matches_gate_by_gate(self):
        rng = random.Random(19)
        collapsed = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            start = new_zero_state(n)
            for op in random_circuit(rng, n, rng.randint(0, 20), rng.randint(0, 2)):
                if op[0] == "M":
                    res, collapse = measure_z(start, op[1])
                    start = collapse(res.outcome if res.deterministic else rng.randint(0, 1))
                    collapsed += 1
                else:
                    apply_gate(start, *op)
            gates = random_circuit(rng, n, rng.randint(0, 40))
            want = start.copy()
            for gate in gates:
                apply_gate(want, *gate)
            got = apply_tableau(start.copy(), run_circuit(n, gates))
            assert got.rows == want.rows  # phases included
            assert got.trace == want.trace
        assert collapsed > 100

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            apply_tableau(new_zero_state(2), run_circuit(1, [("H", 0)]))


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

    def test_outcome_bits_are_0_or_1(self):
        # The deterministic collapse reported 2 and -1 as outcomes of probability zero.
        for start in (new_zero_state(1), run_circuit(1, [("H", 0)])):
            _, collapse = measure_z(start, 0)
            for bit in (2, -1):
                with pytest.raises(ValueError, match="^outcome bit must be 0 or 1$"):
                    collapse(bit)
        with pytest.raises(ValueError, match="^outcome 1 has probability zero$"):
            measure_z(new_zero_state(1), 0)[1](1)

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

    def test_products_of_generators_keep_the_form(self):
        # Multiplying one stabilizer row into another keeps the group, so
        # the form, signs included, must not move.
        rng = random.Random(29)
        for _ in range(200):
            n = rng.randint(2, 6)
            t = run_circuit(n, random_circuit(rng, n, 30))
            want = canonical_form(t)
            for _ in range(5):
                i, j = rng.sample(range(n, 2 * n), 2)
                t.rows[i] = t.rows[i] * t.rows[j]
            assert canonical_form(t) == want

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


def local_circuit(rng, n, n_gates):
    """A random Clifford circuit whose CNOTs join neighbouring wires."""
    gates = []
    for _ in range(n_gates):
        gate, q = rng.choice(("H", "P", "X", "Y", "Z", "CNOT")), rng.randrange(n)
        if gate != "CNOT":
            gates.append((gate, q))
        elif n > 1:
            q = min(q, n - 2)
            gates.append(("CNOT", q, q + 1) if rng.random() < 0.5 else ("CNOT", q + 1, q))
    return gates


def stabilizer_rows(rng, n, local):
    """The stabilizer rows of a random n-wire state, (x, z, ph) triples."""
    gates = local_circuit(rng, n, 3 * n) if local else random_circuit(rng, n, 4 * n)
    return _circuit(n, gates)[n:]


def product_of(rng, rows):
    """The product of a random non-empty subset of rows."""
    out = (0, 0, 0)
    for row in rng.sample(rows, rng.randint(1, len(rows))):
        out = _product(out, row)
    return out


def row_sets(seed):
    """(n, rows, wires) for the kernel tests, from fixed seeds: n commuting
    rows whose group holds no -I.  Dense and nearest-neighbour states at
    widths 1-300, each as generated, shuffled, multiplied together, with
    some rows made products of others, or with some rows I; then one
    nearest-neighbour state at 2,000 wires.  wires is a random wire mask."""
    rng = random.Random(seed)
    for n in (1, 2, 3, 4, 6, 9, 16, 40, 100, 300):
        for local in (False, True):
            rows = list(stabilizer_rows(rng, n, local))
            variant = rng.randrange(5)
            if variant == 1:
                rng.shuffle(rows)
            elif variant == 2:
                for _ in range(2 * n):
                    i, j = rng.randrange(n), rng.randrange(n)
                    if i != j:
                        rows[i] = _product(rows[i], rows[j])
            elif variant >= 3:
                kept = rows[: rng.randrange(n)] or [(0, 0, 0)]
                rows = kept + [product_of(rng, kept) if variant == 3 else (0, 0, 0) for _ in range(n - len(kept))]
                rng.shuffle(rows)
            yield n, rows, rng.getrandbits(n)
    yield 2000, stabilizer_rows(rng, 2000, True), rng.getrandbits(2000)


def group_form(generators, n):
    """The echelon form of the group generated by at most n rows."""
    return _echelon(list(generators) + [(0, 0, 0)] * (n - len(generators)), n)


class TestEliminationKernels:
    """_echelon and _supported against the dense kernels they replaced."""

    def test_echelon_equals_the_reference(self):
        for n, rows, _ in row_sets(31):
            assert _echelon(rows, n) == reference_echelon(rows, n), n

    def test_supported_generates_the_reference_group(self):
        for n, rows, wires in row_sets(37):
            assert group_form(_supported(rows, n, wires), n) == group_form(reference_supported(rows, n, wires), n), n

    def test_rows_whose_product_is_minus_identity(self):
        rng = random.Random(41)
        for n in (2, 3, 5, 8, 20, 60):
            for local in (False, True):
                rows = stabilizer_rows(rng, n, local)
                kept = rows[: rng.randrange(1, n)]
                # The first extra row is minus a product of kept rows, so
                # the two multiply to -I; the other extra rows are +-I.
                extra = [_product(product_of(rng, kept), (0, 0, 2))]
                extra += [(0, 0, rng.choice((0, 2))) for _ in range(n - len(kept) - 1)]
                rows = kept + extra
                # With the extra rows after the rows they depend on, the
                # form is the same, signs and order included.
                want = reference_echelon(rows, n)
                assert _echelon(rows, n) == want
                assert want[-len(extra)] == (0, 0, 2)
                # Shuffled, the group holds -I, so its signs are not fixed;
                # both kernels still find the same pivots and keep -I.
                rng.shuffle(rows)
                got, want = _echelon(rows, n), reference_echelon(rows, n)
                assert [row[:2] for row in got] == [row[:2] for row in want]
                assert (0, 0, 2) in got and (0, 0, 2) in want

    def test_boundary_matches_the_reference(self):
        # canonical_form and supported_subgroup on run_circuit states and
        # on the collapsed branches of measured circuits.
        rng = random.Random(43)
        tableaus = []
        for n in (1, 2, 3, 5, 8, 13, 21, 40):
            tableaus.append(run_circuit(n, random_circuit(rng, n, 5 * n)))
            ops = random_circuit(rng, n, 4 * n, min(n, 4))
            tableaus += [t for t, _, _ in enumerate_circuit_branches(new_zero_state(n), ops)]
        for t in tableaus:
            n = t.n
            assert canonical_form(t) == reference_canonical_form(t)
            wires = rng.getrandbits(n)
            got = supported_subgroup(t, wires)
            assert all(not (g.x_bits | g.z_bits) & ~wires for g in got)
            want = reference_supported_subgroup(t, wires)
            triples = [[(g.x_bits, g.z_bits, g.phase_exp) for g in gens] for gens in (got, want)]
            assert group_form(triples[0], n) == group_form(triples[1], n)
