"""Equivalence engine: branch runs, fingerprints, verdicts, oracle checks."""

import random
from fractions import Fraction

import numpy as np
import pytest

from stabcheck import (
    ArityMismatchError,
    BudgetExceededError,
    PauliString,
    builtin_identity,
    check_equivalence,
    decompose,
    enumerate_basis,
    expectation,
    fingerprint,
    fingerprint_dense,
    parse,
    run_protocol,
    run_protocol_dense,
)
from stabcheck.basis import BasisElement, circuit_for, element_matrix
from stabcheck.checker import local_observable
from stabcheck.cli import corpus_path
from stabcheck.dense import density_from_branches, pauli_expect_dense, run_dense

from helpers import exact_to_numpy, random_rational_hermitian

CORPUS_ONE_WIRE = ["teleport.qpr", "teleport_noX.qpr", "teleport_noZ.qpr", "identity.qpr", "identity_hh.qpr"]
CORPUS_TWO_WIRE = ["swap_cnot.qpr", "swap_wires.qpr"]


def load(name):
    return parse(corpus_path(name).read_text(encoding="utf-8"))


def diag(n, x):
    return circuit_for(BasisElement(n, "diag", x))


def plus(n, x, y):
    return circuit_for(BasisElement(n, "plus", x, y))


class TestRunProtocol:
    def test_identity_single_branch(self):
        branches = run_protocol(builtin_identity(1), plus(1, 0, 1))
        assert len(branches) == 1
        assert branches[0].probability == 1
        assert expectation(branches[0].state, PauliString.from_label("+X")) == 1

    def test_teleport_on_zero(self):
        branches = run_protocol(load("teleport.qpr"), diag(1, 0))
        assert len(branches) == 4
        z_out = PauliString.single(3, 2, "Z")
        for br in branches:
            assert br.probability == Fraction(1, 4)
            assert expectation(br.state, z_out) == 1
        # dense replay of every branch agrees
        dense_branches = []
        for br in branches:
            state, prob = run_dense(3, br.state.trace, outcomes=br.outcomes)
            assert prob == pytest.approx(0.25)
            dense_branches.append((prob, state))
        rho = density_from_branches(dense_branches, [2])
        assert np.allclose(rho, [[1, 0], [0, 0]])

    def test_measure_splits_in_two(self):
        ast = parse("protocol p { qubit a: input; cbit m; H a; measure a -> m; output a; }")
        branches = run_protocol(ast, diag(1, 0))
        assert [br.probability for br in branches] == [Fraction(1, 2), Fraction(1, 2)]
        assert [br.outcomes for br in branches] == [(0,), (1,)]

    def test_probabilities_sum_to_one_across_corpus(self):
        for name in CORPUS_ONE_WIRE:
            ast = load(name)
            for circ in enumerate_basis(1):
                branches = run_protocol(ast, circ)
                assert sum(br.probability for br in branches) == 1

    def test_rejects_wrong_input_arity(self):
        with pytest.raises(ValueError):
            run_protocol(builtin_identity(2), diag(1, 0))

    def test_rejects_invalid_ast(self):
        ast = parse("protocol p { qubit a: input; if m then X a; output a; }")
        with pytest.raises(ValueError):
            run_protocol(ast, diag(1, 0))


class TestFingerprint:
    def test_identity_table(self):
        fp = fingerprint(builtin_identity(1))
        assert fp.n_in == 1 and fp.n_out == 1
        want = (
            (1, 0, 0, 1),   # |0><0|
            (1, 0, 0, -1),  # |1><1|
            (1, 1, 0, 0),   # |+><+|
            (1, 0, 1, 0),   # |0>+i|1>
        )
        assert fp.table == tuple(tuple(Fraction(v) for v in row) for row in want)

    def test_teleport_equals_identity(self):
        assert fingerprint(load("teleport.qpr")) == fingerprint(builtin_identity(1))

    def test_mutant_differs_at_plus_input(self):
        fp_mut = fingerprint(load("teleport_noX.qpr"))
        fp_id = fingerprint(builtin_identity(1))
        # row 2 is plus:0,1 and column 1 is X
        assert fp_mut.table[2][1] == 0
        assert fp_id.table[2][1] == 1
        # every diagonal-input row still matches, which is the point
        assert fp_mut.table[0] == fp_id.table[0]
        assert fp_mut.table[1] == fp_id.table[1]

    def test_identity_column_is_exactly_one(self):
        for name in CORPUS_ONE_WIRE + CORPUS_TWO_WIRE:
            fp = fingerprint(load(name))
            assert all(row[0] == 1 for row in fp.table)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            fingerprint(builtin_identity(2), budget=100)

    def test_identity_2_equals_double_x(self):
        src = (
            "protocol xx { qubit a: input; qubit b: input;"
            " X a; X a; X b; X b; output a, b; }"
        )
        assert fingerprint(parse(src)) == fingerprint(builtin_identity(2))


class TestCheckEquivalence:
    def test_teleport_vs_identity(self):
        assert check_equivalence(load("teleport.qpr"), builtin_identity(1)).equivalent

    def test_hh_is_identity(self):
        assert check_equivalence(load("identity_hh.qpr"), builtin_identity(1)).equivalent

    @pytest.mark.parametrize("mutant", ["teleport_noX.qpr", "teleport_noZ.qpr"])
    def test_mutants_counterexample(self, mutant):
        verdict = check_equivalence(load(mutant), builtin_identity(1))
        assert not verdict.equivalent
        ce = verdict.counterexample
        assert ce.basis_element == BasisElement(1, "plus", 0, 1)
        assert str(ce.observable) == "+X"
        assert (ce.value_lhs, ce.value_rhs) == (0, 1)

    def test_z_protocol_counterexample(self):
        pz = parse("protocol pz { qubit a: input; Z a; output a; }")
        verdict = check_equivalence(builtin_identity(1), pz)
        assert not verdict.equivalent
        ce = verdict.counterexample
        assert ce.basis_element == BasisElement(1, "plus", 0, 1)
        assert str(ce.observable) == "+X"
        assert (ce.value_lhs, ce.value_rhs) == (1, -1)

    def test_swap_forms_agree(self):
        assert check_equivalence(load("swap_cnot.qpr"), load("swap_wires.qpr")).equivalent

    def test_verdict_is_symmetric(self):
        lhs, rhs = load("teleport_noZ.qpr"), builtin_identity(1)
        v1 = check_equivalence(lhs, rhs)
        v2 = check_equivalence(rhs, lhs)
        assert v1.equivalent == v2.equivalent is False
        assert v1.counterexample.basis_element == v2.counterexample.basis_element
        assert (v1.counterexample.value_lhs, v1.counterexample.value_rhs) == (
            v2.counterexample.value_rhs,
            v2.counterexample.value_lhs,
        )

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            check_equivalence(builtin_identity(1), builtin_identity(2))


class TestOracleAgreement:
    def test_exact_fingerprints_match_dense(self):
        for name in CORPUS_ONE_WIRE + CORPUS_TWO_WIRE:
            ast = load(name)
            exact = np.array([[float(v) for v in row] for row in fingerprint(ast).table])
            oracle = fingerprint_dense(ast)
            assert np.max(np.abs(exact - oracle)) < 1e-9, name


def superop_dense(ast, matrix) -> np.ndarray:
    """Apply a protocol to an arbitrary Hermitian input, dense all the way.

    The input is eigendecomposed and each eigenvector pushed through the
    branch-complete dense runner; results are recombined with the (possibly
    negative) eigenvalues.  Works entirely outside the exact engine.
    """
    positions = {q.name: i for i, q in enumerate(ast.qubits)}
    keep = [positions[o.name] for o in ast.outputs]
    dim_out = 1 << len(keep)
    acc = np.zeros((dim_out, dim_out), dtype=complex)
    vals, vecs = np.linalg.eigh(matrix)
    for lam, vec in zip(vals, vecs.T):
        if abs(lam) < 1e-14:
            continue
        branches = run_protocol_dense(ast, vec)
        total = sum(p for p, _ in branches)
        rho = density_from_branches([(p / total, s) for p, s in branches], keep)
        acc += lam * total * rho
    return acc


class TestLinearity:
    def test_protocols_act_linearly_on_mixtures(self):
        rng = random.Random(43)
        for name in CORPUS_ONE_WIRE:
            ast = load(name)
            base_outputs = [
                superop_dense(ast, exact_to_numpy(element_matrix(circ.element)))
                for circ in enumerate_basis(1)
            ]
            for _ in range(10):
                m = random_rational_hermitian(rng, 2)
                coeffs = decompose(m)
                lhs = superop_dense(ast, exact_to_numpy(m))
                rhs = sum(float(c) * out for c, out in zip(coeffs, base_outputs))
                assert np.max(np.abs(lhs - rhs)) < 1e-9, name

    def test_two_wire_linearity(self):
        rng = random.Random(47)
        ast = load("swap_cnot.qpr")
        base_outputs = [
            superop_dense(ast, exact_to_numpy(element_matrix(circ.element)))
            for circ in enumerate_basis(2)
        ]
        for _ in range(5):
            m = random_rational_hermitian(rng, 4)
            coeffs = decompose(m)
            lhs = superop_dense(ast, exact_to_numpy(m))
            rhs = sum(float(c) * out for c, out in zip(coeffs, base_outputs))
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestLocalObservable:
    def test_order_is_base_four_msb_first(self):
        assert str(local_observable(2, 0)) == "+II"
        assert str(local_observable(2, 1)) == "+IX"
        assert str(local_observable(2, 2)) == "+IY"
        assert str(local_observable(2, 3)) == "+IZ"
        assert str(local_observable(2, 4)) == "+XI"
        assert str(local_observable(2, 15)) == "+ZZ"
