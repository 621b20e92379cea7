"""Equivalence engine: branch runs, fingerprints, verdicts, oracle checks."""

import dataclasses
import random
import time
import tracemalloc
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
    run_circuit,
    run_protocol_dense,
    Verdict,
)
from stabcheck.basis import BasisCircuit, BasisElement, basis_element, basis_index, block, circuit_for, element_matrix
from stabcheck import checker, dense
from stabcheck.checker import local_observable, lower
from stabcheck.cli import corpus_path
from stabcheck.dense import density_from_branches, pauli_expect_dense, run_dense

from stabcheck.protocol import GateStmt, IfGateStmt, MeasureStmt, pretty_print, validate
from stabcheck.tableau import _boxed

from helpers import (
    cluster_wire_source,
    exact_to_numpy,
    frame_pushed,
    h_controlled_cluster_wire_source,
    output_observable,
    random_circuit,
    random_protocol_source,
    random_rational_hermitian,
    reference_echelon,
    reference_pauli_expect,
    reference_supported,
    repetition_code_source,
    teleport_source,
    teleported,
    with_h_control,
)

CORPUS_ONE_WIRE = ["teleport.qpr", "teleport_noX.qpr", "teleport_noZ.qpr", "identity.qpr", "identity_hh.qpr"]
CORPUS_TWO_WIRE = ["swap_cnot.qpr", "swap_wires.qpr"]


def load(name):
    return parse(corpus_path(name).read_text(encoding="utf-8"))


def diag(n, x):
    return circuit_for(BasisElement(n, "diag", x))


def plus(n, x, y):
    return circuit_for(BasisElement(n, "plus", x, y))


class TestLower:
    def test_each_gate_run_becomes_one_op(self):
        rng = random.Random(13)
        asts = [load(name) for name in CORPUS_ONE_WIRE + CORPUS_TWO_WIRE]
        asts += [parse(teleport_source(3))] + [parse(random_protocol_source(rng)) for _ in range(200)]
        for ast in asts:
            # Reference: one op per statement, read off by scanning forward.
            wire = {q.name: i for i, q in enumerate(ast.qubits)}
            bit = {c.name: i for i, c in enumerate(ast.cbits)}
            outputs = {o.name for o in ast.outputs}
            ops, run, ancillas = [], None, 0
            for i, stmt in enumerate(ast.body):
                rest = ast.body[i + 1 :]
                if isinstance(stmt, GateStmt):
                    if run is None:
                        run = []
                        ops.append(("u", run))
                    run.append((stmt.gate, *(wire[a.name] for a in stmt.args)))
                    continue
                run = None
                c = stmt.cbit.name
                if isinstance(stmt, IfGateStmt):
                    ops.append(("if", bit[c], stmt.gate, tuple(wire[a.name] for a in stmt.args)))
                else:
                    q = stmt.qubit.name
                    touched_later = any(
                        q == s.qubit.name if isinstance(s, MeasureStmt) else q in {a.name for a in s.args} for s in rest
                    )
                    ops.append(("m", wire[q], bit[c]))
                    # A measured wire that is an output or is touched later is copied onto an ancilla.
                    ancillas += q in outputs or touched_later

            program = lower(ast)
            assert program.ops == tuple(("u", tuple(op[1])) if op[0] == "u" else op for op in ops)
            assert program.denominator == 2 ** sum(isinstance(s, MeasureStmt) for s in ast.body)
            for _, rows in checker._deferred(program):
                assert len(rows) == 2 * (program.n_wires + ast.n_in + ancillas)

    def test_choi_walk_starts_from_bell_pairs_and_runs_the_plain_ops(self, monkeypatch):
        rng = random.Random(14)
        asts = [parse(teleport_source(2))] + [parse(random_protocol_source(rng, shuffle=True)) for _ in range(100)]
        walks = []
        monkeypatch.setattr(checker, "_walk", lambda *args: walks.append(args) or [])
        for ast in asts:
            program = lower(ast)
            n, width = len(ast.qubits), len(ast.qubits) + ast.n_in
            assert program.n_wires == n
            # The form's columns: reference j (wire n + j) at j, output i at
            # n_in + i, then the other wires.
            outputs = list(program.outputs)
            column = {n + j: j for j in range(ast.n_in)}
            others = [w for w in range(n) if w not in outputs]
            column.update((w, ast.n_in + i) for i, w in enumerate(outputs + others))
            bell = [g for j, q in enumerate(program.inputs) for g in (("H", j), ("CNOT", j, column[q]))]
            # Deferred measurement of a program with no ops leaves the Bell
            # rows, each row still that of its wire, its bits at their columns.
            (weight, start), = checker._deferred(dataclasses.replace(program, ops=()))
            want = run_circuit(width, bell).rows
            assert weight == 1
            assert _boxed(width, start) == [want[half + column[w]] for half in (0, width) for w in range(width)]
            # fingerprint walks no branch, also when a bit controls H.
            fingerprint(ast)
            fingerprint(parse(with_h_control(random_protocol_source(rng, shuffle=True))))
            assert walks == []


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

    def test_checks_prep_gates_on_the_inputs_before_moving_them(self):
        # -1 would name the last input wire, and 5 no wire, once moved.
        for gates in ((("X", -1),), (("X", 5),)):
            with pytest.raises(ValueError) as want:
                run_circuit(2, gates)
            with pytest.raises(ValueError) as got:
                run_protocol(builtin_identity(2), BasisCircuit(BasisElement(2, "diag", 0), gates))
            assert str(got.value) == str(want.value)

    def test_branch_limit(self, monkeypatch):
        monkeypatch.setattr(checker, "BRANCH_LIMIT", 8)

        def rounds(k):
            bits = "".join(f"cbit c{i}; " for i in range(k))
            body = "".join(f"H a; measure a -> c{i}; " for i in range(k))
            return parse(f"protocol p {{ qubit psi: input; qubit a: zero; {bits}{body}output psi; }}")

        assert len(run_protocol(rounds(3), diag(1, 0))) == 8
        with pytest.raises(checker.BranchLimitError, match=r"2\^3 branches"):
            run_protocol(rounds(4), diag(1, 0))


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

    def test_a_first_row_difference_builds_only_the_inputs_it_reads(self):
        # 8 inputs and one output, 4^9 entries: within the default budget,
        # and the tables differ in row 0, so no other basis input is built.
        decls = "".join(f"  qubit q{i}: input;\n" for i in range(8))
        lhs = parse(f"protocol a {{\n{decls}  output q0;\n}}\n")
        rhs = parse(f"protocol b {{\n{decls}  H q0;\n  output q0;\n}}\n")
        checker._input_generators.cache_clear()
        tracemalloc.start()
        try:
            verdict = check_equivalence(lhs, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ce = verdict.counterexample
        assert (ce.basis_element, str(ce.observable), ce.value_lhs, ce.value_rhs) == (BasisElement(8, "diag", 0), "+X", 0, 1)
        assert peak < 5 * 2 ** 20

    def test_the_input_cache_is_bounded(self):
        # Every input of every table up to n_in = 6 stays cached; the 4^7
        # inputs of n_in = 7 keep only the last 4^6, where an unbounded
        # cache kept about 10.4 MB.
        checker._input_generators.cache_clear()
        tracemalloc.start()
        try:
            for k in range(4 ** 7):
                checker._input_generators(7, k)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert checker._input_generators.cache_info().currsize == 4 ** 6
        assert kept < 5 * 2 ** 20

    def test_classical_control_limit(self, monkeypatch):
        # Deferred measurement composes one state per assignment of the
        # bits that control H, P or CNOT; past BRANCH_LIMIT it builds none.
        monkeypatch.setattr(checker, "BRANCH_LIMIT", 16)
        assert check_equivalence(parse(h_controlled_cluster_wire_source(6, controls=4)), builtin_identity(1)).equivalent
        monkeypatch.setattr(checker, "_circuit", None)
        with pytest.raises(checker.BranchLimitError, match=r"^5 bits control H, P or CNOT.* limit of 2\^4$"):
            check_equivalence(parse(h_controlled_cluster_wire_source(6, controls=5)), builtin_identity(1))

    def test_a_negative_budget_is_refused(self):
        # It was taken: a refuted pair was "over the budget of -1", and an
        # equivalent one, which needs no table, passed.
        for name in ("teleport_noX.qpr", "teleport.qpr"):
            with pytest.raises(ValueError, match=r"^budget takes None or a non-negative entry count, not -1$") as exc:
                check_equivalence(load(name), builtin_identity(1), budget=-1)
            assert not isinstance(exc.value, BudgetExceededError)
        with pytest.raises(ValueError, match="not -1$") as exc:
            fingerprint(load("teleport.qpr"), budget=-1)
        assert not isinstance(exc.value, BudgetExceededError)

    def test_budgets_none_and_zero_keep_their_meaning(self):
        assert check_equivalence(load("teleport.qpr"), builtin_identity(1), budget=0).equivalent
        assert not check_equivalence(load("teleport_noX.qpr"), builtin_identity(1), budget=None).equivalent
        with pytest.raises(BudgetExceededError, match="over the budget of 0$"):
            check_equivalence(load("teleport_noX.qpr"), builtin_identity(1), budget=0)
        assert fingerprint(load("teleport.qpr"), budget=None) == fingerprint(builtin_identity(1))
        with pytest.raises(BudgetExceededError, match="over the budget of 0$"):
            fingerprint(load("teleport.qpr"), budget=0)


def teleport_3_items():
    """teleport_3 and its six one-correction mutants, as sources."""
    return [teleport_source(3)] + [teleport_source(3, f"{gate}{k}") for k in range(3) for gate in "XZ"]


def outcome(verdict):
    return verdict.equivalent, verdict.counterexample, verdict.fingerprints, verdict.decider


class TestKeptResults:
    """An AST keeps its checked pass, and a Program its forms and, within
    DEFAULT_BUDGET entries, its channel's parts; none of it may show in a
    result."""

    def test_a_shared_identity_checked_twice_matches_a_fresh_one(self):
        shared = builtin_identity(3)
        fresh = pretty_print(shared)
        for source in teleport_3_items():
            lhs = parse(source)
            want = outcome(check_equivalence(parse(source), parse(fresh)))
            assert [outcome(check_equivalence(lhs, shared)) for _ in range(2)] == [want, want], source

    def test_a_repeated_check_defers_nothing_again(self, monkeypatch):
        deferred = checker._deferred
        runs = []
        monkeypatch.setattr(checker, "_deferred", lambda program: runs.append(program) or deferred(program))
        pairs = [(parse(source), builtin_identity(3)) for source in teleport_3_items()]
        first = [check_equivalence(*pair) for pair in pairs]
        # Once per candidate, and once for the identity unless an earlier test checked it.
        assert len(runs) in (7, 8)
        runs.clear()
        assert [check_equivalence(*pair) for pair in pairs] == first and runs == []
        lhs, rhs = pairs[1]
        assert lower(lhs) is lower(lhs)
        again = dataclasses.replace(lhs)
        assert check_equivalence(again, rhs) == first[1] and len(runs) == 1 and runs[0] is not lower(lhs)

    def test_a_kept_channel_never_passes_a_smaller_budget(self):
        fingerprint(builtin_identity(2), budget=None)
        with pytest.raises(BudgetExceededError, match="over the budget of 100$") as caught:
            fingerprint(builtin_identity(2), budget=100)
        assert caught.value.work == 256
        lhs = load("teleport_noX.qpr")
        assert not check_equivalence(lhs, builtin_identity(1), budget=None).equivalent
        # The refutation kept the parts it read.
        assert vars(lower(lhs))["_parts"]
        with pytest.raises(BudgetExceededError, match="^the two sides differ.* over the budget of 0$"):
            check_equivalence(lhs, builtin_identity(1), budget=0)
        with pytest.raises(BudgetExceededError, match="^fingerprint needs 16 .* over the budget of 15$"):
            fingerprint(lhs, budget=15)

    def test_a_refutation_keeps_only_the_parts_it_read(self):
        # Z0 leaves the diag rows alone: the sides are told apart block by
        # block by their parts, and only the blocks of rows 0 to the
        # counterexample's row are read.
        lhs = parse(teleport_source(3, "Z0"))
        ce = check_equivalence(lhs, builtin_identity(3)).counterexample
        k = basis_index(ce.basis_element)
        parts = set(vars(lower(lhs))["_parts"])
        assert block(3, k) != 0 and parts == {block(3, j) for j in range(k + 1)} == {0, 4, 2, 6, 1}

    def test_a_channel_past_the_default_budget_is_not_kept(self):
        # 4^12 entries: built on each call, so a pinned identity stays small.
        program = lower(builtin_identity(6))
        first = checker._channel(program, None)
        second = checker._channel(program, None)
        assert first is not second and first[0] == second[0] and first == second
        assert "_parts" not in vars(program)
        kept = lower(builtin_identity(5))
        assert checker._channel(kept, None) is checker._channel(kept, None)

    def test_blocks_past_the_default_budget_are_not_kept(self):
        # A refutation builds the parts it sums, kept under _channel's rule:
        # identity:6 has 4^12 entries.
        for n, kept in ((6, False), (5, True)):
            identity = lower(builtin_identity(n))
            verdict = check_equivalence(parse(teleport_source(n, "Z0")), builtin_identity(n), budget=None)
            assert not verdict.equivalent
            assert ("_parts" in vars(identity)) == kept, n
            if kept:
                parts = vars(identity)["_parts"]
                assert checker._channel(identity, None) is parts and 0 in parts

    def test_validate_returns_a_fresh_list(self):
        ast = parse("protocol p { qubit a: input; qubit b: zero; cbit c; measure b -> c; output a; }")
        first = validate(ast)
        assert [d.severity for d in first] == ["warning"]
        first.clear()
        second = validate(ast)
        assert [d.severity for d in second] == ["warning"] and second is not validate(ast)


class TestDeferredMeasurement:
    def test_teleport_100_is_the_identity(self):
        verdict = check_equivalence(parse(teleport_source(100)), builtin_identity(100))
        assert verdict.equivalent and verdict.decider == checker.DEFERRED

    def test_cluster_wire_64_is_the_identity_and_every_drop_is_refuted(self):
        assert check_equivalence(parse(cluster_wire_source(64)), builtin_identity(1)).equivalent
        for j in range(64):
            verdict = check_equivalence(parse(cluster_wire_source(64, drop=j)), builtin_identity(1))
            assert not verdict.equivalent, j
            assert verdict.counterexample.value_lhs != verdict.counterexample.value_rhs

    def test_a_difference_past_the_budget_says_the_sides_differ(self):
        with pytest.raises(BudgetExceededError, match="the two sides differ") as caught:
            check_equivalence(parse(teleport_source(100, "Z0")), builtin_identity(100))
        assert caught.value.work == 4 ** 200 and str(4 ** 200) in str(caught.value)

    def test_an_equivalent_pair_needs_no_budget_but_its_tables_do(self):
        verdict = check_equivalence(load("teleport.qpr"), builtin_identity(1), budget=4)
        assert verdict.equivalent
        with pytest.raises(BudgetExceededError, match="fingerprint needs 16 exact entries"):
            verdict.fingerprints

    def test_the_decider_is_named(self):
        enumerated = parse(h_controlled_cluster_wire_source(2))
        named = "deferred measurement over 2^1 assignments: bit s1 controls H"
        assert check_equivalence(load("teleport.qpr"), builtin_identity(1)).decider == "deferred measurement"
        assert check_equivalence(enumerated, builtin_identity(1)).decider == named
        assert check_equivalence(builtin_identity(1), enumerated).decider == named
        # k counts the bits that control H, P or CNOT, not their ifs.
        source = h_controlled_cluster_wire_source(4, controls=3)
        three = parse(source.replace("\n  output", "\n  if s2 then P w0;\n  output"))
        named = "deferred measurement over 2^3 assignments: bit s1 controls H"
        assert check_equivalence(three, builtin_identity(1)).decider == named

    def test_forms_match_the_reference_kernels(self, monkeypatch):
        # _forms is kept on each Program, so each build lowers a fresh parse.
        rng = random.Random(47)
        gates = [f"{g[0]} {', '.join(f'q{q}' for q in g[1:])};" for g in random_circuit(rng, 300, 900)]
        wires = ", ".join(f"q{q}" for q in range(300))
        circuit = "protocol c {\n" + "".join(f"qubit q{q}: input;\n" for q in range(300))
        circuit += "\n".join(gates) + f"\noutput {wires};\n}}\n"
        for source in (teleport_source(300), circuit):
            got = checker._forms(lower(parse(source)))
            with monkeypatch.context() as patch:
                patch.setattr(checker, "_echelon", reference_echelon)
                patch.setattr(checker, "_supported", reference_supported)
                assert checker._forms(lower(parse(source))) == got

    def test_shuffled_declarations_keep_the_wide_form(self):
        # Shuffled declaration lines, the psi inputs in their relative order,
        # move every wire of teleport_300 to another column of _deferred's
        # rows; the form, in its own columns, must not move.
        def shuffled(source):
            rng = random.Random(61)
            lines = source.split("\n")
            at = [i for i, line in enumerate(lines) if line.startswith(("  qubit ", "  cbit "))]
            decls = [lines[i] for i in at]
            inputs = iter([line for line in decls if line.endswith(": input;")])
            for i, line in zip(at, rng.sample(decls, len(decls))):
                lines[i] = next(inputs) if line.endswith(": input;") else line
            return "\n".join(lines)

        plain, moved = lower(parse(teleport_source(300))), lower(parse(shuffled(teleport_source(300))))
        assert moved.inputs != plain.inputs and moved.outputs != plain.outputs
        assert checker._forms(moved) == checker._forms(plain)
        with pytest.raises(BudgetExceededError, match="the two sides differ"):
            check_equivalence(parse(shuffled(teleport_source(300, drop="Z0"))), builtin_identity(300))

    def test_only_measurements_not_marked_reset_take_an_ancilla(self):
        # teleport.qpr's two measured wires are never touched again;
        # measuring a wire that is used later copies it onto an ancilla.
        program = lower(load("teleport.qpr"))
        (_, rows), = checker._deferred(program)
        assert len(rows) == 2 * (program.n_wires + 1)
        ast = parse("protocol p { qubit a: input; cbit m; measure a -> m; if m then Z a; output a; }")
        program = lower(ast)
        (_, rows), = checker._deferred(program)
        assert len(rows) == 2 * (program.n_wires + 1 + 1)
        # Z on a wire just measured in Z changes nothing.
        dephase = parse("protocol q { qubit a: input; cbit m; measure a -> m; output a; }")
        assert check_equivalence(ast, dephase).equivalent


class TestClassicalControls:
    """Bits that control H, P or CNOT: _deferred composes one state per
    assignment of their values."""

    FORCED = "protocol f {{ qubit a: input; qubit f: zero; cbit m; {flip}measure f -> m; if m then H a; output a; }}"

    def test_a_forced_outcome_keeps_one_assignment(self):
        # A fresh |0> measures 0, so the H never runs; after X it always does.
        stays = lower(parse(self.FORCED.format(flip="")))
        flips = lower(parse(self.FORCED.format(flip="X f; ")))
        assert [weight for weight, _ in checker._deferred(stays)] == [2]
        assert [weight for weight, _ in checker._deferred(flips)] == [2]
        verdict = check_equivalence(parse(self.FORCED.format(flip="")), builtin_identity(1))
        assert verdict.equivalent and verdict.decider == "deferred measurement over 2^1 assignments: bit m controls H"
        verdict = check_equivalence(parse(self.FORCED.format(flip="X f; ")), builtin_identity(1))
        assert not verdict.equivalent
        assert verdict.counterexample.value_lhs != verdict.counterexample.value_rhs

    def test_a_bit_that_controls_h_and_a_pauli(self):
        # H X = Z H, so either order of the two corrections is one channel.
        def source(corrections):
            return parse(
                "protocol c { qubit a: input; qubit f: zero; cbit m; H f; measure f -> m; "
                + " ".join(f"if m then {g} a;" for g in corrections) + " output a; }"
            )

        xh, hz = source("XH"), source("HZ")
        assert [weight for weight, _ in checker._deferred(lower(xh))] == [1, 1]
        assert check_equivalence(xh, hz).equivalent
        for lhs, rhs in ((source("H"), hz), (xh, source("H")), (source("X"), xh)):
            verdict = check_equivalence(lhs, rhs)
            assert not verdict.equivalent
            ce = verdict.counterexample
            assert ce.value_lhs != ce.value_rhs
        exact = np.array([[float(v) for v in row] for row in fingerprint(xh).table])
        assert np.max(np.abs(exact - fingerprint_dense(xh))) < 1e-9

    def test_h_controlled_cluster_wire_64_is_the_identity_and_every_drop_is_refuted(self):
        start = time.perf_counter()
        verdict = check_equivalence(parse(h_controlled_cluster_wire_source(64)), builtin_identity(1))
        assert time.perf_counter() - start < 1.0
        assert verdict.equivalent and verdict.decider == "deferred measurement over 2^1 assignments: bit s1 controls H"
        for j in range(64):
            verdict = check_equivalence(parse(h_controlled_cluster_wire_source(64, drop=j)), builtin_identity(1))
            assert not verdict.equivalent, j
            assert verdict.counterexample.value_lhs != verdict.counterexample.value_rhs


class TestEdgePaths:
    def test_a_side_of_several_states_past_the_budget_says_only_the_budget(self):
        # Two bits control H, so each side has several states and the
        # verdict needs the Choi coefficients, which the budget refuses.
        ast = parse(h_controlled_cluster_wire_source(4, controls=2))
        assert len(checker._forms(lower(ast))) > 1
        with pytest.raises(BudgetExceededError) as caught:
            check_equivalence(ast, ast, budget=0)
        assert str(caught.value) == "fingerprint needs 16 exact entries, over the budget of 0"

    def test_a_verdict_without_channels_has_no_fingerprints(self):
        assert Verdict(True).fingerprints is None

    def test_run_protocol_dense_rejects_a_state_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="input state dimension does not match the input arity"):
            run_protocol_dense(load("teleport.qpr"), np.eye(4)[0])


def clifford_source(rng, n, n_gates):
    """A random Clifford circuit on n input wires, every wire an output."""
    wires = [f"q{i}" for i in range(n)]
    body = [f"{g[0]} {', '.join(wires[q] for q in g[1:])};" for g in random_circuit(rng, n, n_gates)]
    decls = [f"qubit {w}: input;" for w in wires]
    return "protocol c {\n  " + "\n  ".join(decls + body) + f"\n  output {', '.join(wires)};\n}}\n"


def without_each_correction(source):
    """source with one gadget correction left out, for each in turn."""
    lines = source.split("\n")
    return ["\n".join(lines[:i] + lines[i + 1:]) for i, line in enumerate(lines) if line.startswith("  if tp")]


class TestTeleportedCircuits:
    def test_small_circuits_keep_their_channel_and_every_dropped_correction_is_refuted(self):
        rng = random.Random(3101)
        for _ in range(30):
            n = rng.randint(2, 3)
            # Each gadget multiplies the dense oracle's amplitudes by 16, so 3
            # wires take at most 2 gadgets: with 3 the test takes 1.7 s, not 0.4 s.
            plain = clifford_source(rng, n, rng.randint(4, 12))
            source = teleported(plain, rng, rng.randint(1, 5 - n))
            ast = parse(source)
            assert check_equivalence(ast, parse(plain)).equivalent, source
            exact = np.array([[float(v) for v in row] for row in fingerprint(ast).table])
            assert np.max(np.abs(exact - fingerprint_dense(ast))) < 1e-9, source
            for dropped in without_each_correction(source):
                lhs, rhs = parse(dropped), parse(plain)
                verdict = check_equivalence(lhs, rhs)
                assert not verdict.equivalent, dropped
                ce = verdict.counterexample
                k = basis_index(ce.basis_element)
                q = next(q for q in range(4 ** n) if local_observable(n, q) == ce.observable)
                assert (fingerprint(lhs).table[k][q], fingerprint(rhs).table[k][q]) == (ce.value_lhs, ce.value_rhs)

    def test_a_wide_circuit_keeps_its_channel_and_a_dropped_correction_is_refuted(self):
        rng = random.Random(3102)
        plain = clifford_source(rng, 100, 2000)
        source = teleported(plain, rng, 100)
        assert check_equivalence(parse(source), parse(plain)).equivalent
        dropped = without_each_correction(source)
        assert len(dropped) == 200
        with pytest.raises(BudgetExceededError, match="the two sides differ"):
            check_equivalence(parse(rng.choice(dropped)), parse(plain))


class TestFramePushedCircuits:
    # frame_pushed moves every if of a teleported circuit to the end: the
    # channel is unchanged, and as the plain circuit is a unitary, each
    # pushed if left out leaves a Pauli error with probability 1/2.
    def test_small_circuits_keep_their_channel_and_every_dropped_if_is_refuted(self):
        rng = random.Random(3401)
        for _ in range(40):
            n = rng.randint(2, 3)
            plain = clifford_source(rng, n, rng.randint(4, 12))
            source = frame_pushed(teleported(plain, rng, rng.randint(1, 2)))
            ast = parse(source)
            assert check_equivalence(ast, parse(plain)).equivalent, source
            exact = np.array([[float(v) for v in row] for row in fingerprint(ast).table])
            assert np.max(np.abs(exact - fingerprint_dense(ast))) < 1e-9, source
            for dropped in without_each_correction(source):
                lhs, rhs = parse(dropped), parse(plain)
                verdict = check_equivalence(lhs, rhs)
                assert not verdict.equivalent, dropped
                ce = verdict.counterexample
                k = basis_index(ce.basis_element)
                q = next(q for q in range(4 ** n) if local_observable(n, q) == ce.observable)
                assert (fingerprint(lhs).table[k][q], fingerprint(rhs).table[k][q]) == (ce.value_lhs, ce.value_rhs)

    def test_random_protocols_keep_their_channel(self):
        # Wires measured and then used again: a frame with X on a measured
        # wire flips its bit, so later ifs of that bit add to that frame too.
        rng = random.Random(3403)
        for i in range(200):
            source = random_protocol_source(rng, shuffle=i % 2 == 1)
            assert check_equivalence(parse(frame_pushed(source)), parse(source)).equivalent, source

    @pytest.mark.parametrize(
        "source,n",
        [(teleport_source(3), 3), (cluster_wire_source(4), 1), (repetition_code_source(3), 1)],
        ids=["teleport_3", "cluster_4", "repetition_3"],
    )
    def test_known_protocols_pushed_are_the_identity(self, source, n):
        lines = frame_pushed(source).split("\n")
        ifs = [i for i, line in enumerate(lines) if line.startswith("  if ")]
        assert ifs == list(range(ifs[0], ifs[-1] + 1)) and lines[ifs[-1] + 1].startswith("  output")
        assert check_equivalence(parse("\n".join(lines)), builtin_identity(n)).equivalent

    def test_a_wide_circuit_keeps_its_channel_and_a_dropped_if_is_refuted(self):
        rng = random.Random(3402)
        plain = clifford_source(rng, 100, 2000)
        source = frame_pushed(teleported(plain, rng, 100))
        assert check_equivalence(parse(source), parse(plain)).equivalent
        dropped = without_each_correction(source)
        assert len(dropped) > 200
        with pytest.raises(BudgetExceededError, match="the two sides differ"):
            check_equivalence(parse(rng.choice(dropped)), parse(plain))


class TestOracleAgreement:
    def test_exact_fingerprints_match_dense(self):
        for name in CORPUS_ONE_WIRE + CORPUS_TWO_WIRE:
            ast = load(name)
            exact = np.array([[float(v) for v in row] for row in fingerprint(ast).table])
            oracle = fingerprint_dense(ast)
            assert np.max(np.abs(exact - oracle)) < 1e-9, name

    def test_oracle_checks_each_inputs_total_probability(self, monkeypatch):
        # Without its last branch, teleport keeps 3/4 of each input's probability.
        run_dense = dense._run_dense
        monkeypatch.setattr(dense, "_run_dense", lambda program, states: run_dense(program, states)[:-1])
        with pytest.raises(ValueError, match="branch probabilities sum to 0.7"):
            fingerprint_dense(load("teleport.qpr"))

    def test_oracle_refuses_teleport_5(self):
        # 15 wires and 10 measurements: 2^25 amplitudes for one basis input.
        ast = parse(teleport_source(5))
        with pytest.raises(dense.DenseLimitError, match=r"2\^25 amplitudes, over its limit of 2\^20"):
            fingerprint_dense(ast)
        with pytest.raises(dense.DenseLimitError):
            run_protocol_dense(ast, np.eye(32)[0])


CORPUS = sorted(path.name for path in corpus_path("teleport.qpr").parent.glob("*.qpr"))


def program_and_channel(name):
    program = lower(load(name))
    return program, checker._channel(program, None)


class TestCrossCheck:
    @pytest.mark.parametrize("name", CORPUS)
    def test_passes_on_every_corpus_channel(self, name):
        checker._cross_check(name, *program_and_channel(name))

    def test_a_changed_coefficient_fails_naming_the_side(self):
        # A fault on the exact side: the oracle is left as it is.
        program, channel = program_and_channel("teleport.qpr")
        row = channel[0][max(channel[0])]
        row[min(row)] += 1
        with pytest.raises(RuntimeError, match=r"^oracle cross-check failed for teleport: max deviation"):
            checker._cross_check("teleport", program, channel)

    def test_refuses_an_oracle_past_the_dense_limit(self, monkeypatch):
        # teleport has 3 wires and 2 measurements: 2^5 amplitudes per input.
        monkeypatch.setattr(dense, "DENSE_LIMIT", 2 ** 4)
        with pytest.raises(dense.DenseLimitError, match=r"2\^5 amplitudes, over its limit of 2\^4"):
            checker._cross_check("teleport", *program_and_channel("teleport.qpr"))


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

    @pytest.mark.parametrize("n_out", [1, 2, 3])
    def test_matches_the_reference_on_the_identity(self, n_out):
        ast = builtin_identity(n_out)
        for q in range(4 ** n_out):
            assert local_observable(n_out, q) == output_observable(ast, q)


class TestTableConventions:
    def test_cell_is_xor_linear_and_numbers_the_output_pauli(self):
        # A row product XORs the rows' bits, so its cell must be the XOR of
        # theirs; the cell's low 2 * n_out bits are the output Pauli's column.
        rng = random.Random(29)
        for _ in range(400):
            n_in = rng.randint(1, 4)
            n_out = rng.randint(1, 8 - n_in)
            m, mask = n_in + n_out, (1 << n_in) - 1
            (x1, z1), (x2, z2) = [(rng.getrandbits(m), rng.getrandbits(m)) for _ in range(2)]
            cell = checker._cell(x1, z1, n_in, n_out)
            assert checker._cell(x1 ^ x2, z1 ^ z2, n_in, n_out) == cell ^ checker._cell(x2, z2, n_in, n_out)
            a, q = divmod(cell, 4 ** n_out)
            assert a == (x1 & mask) << n_in | z1 & mask
            observable = local_observable(n_out, q)
            assert (observable.x_bits, observable.z_bits) == (x1 >> n_in, z1 >> n_in)

    @pytest.mark.parametrize("n_in", [1, 2])
    def test_input_groups_carry_the_transposed_signs(self, n_in):
        # Each +-A in the group of _input_generators must be Tr(A rho^T),
        # and every Pauli outside the group must have Tr(A rho^T) = 0.
        mask = (1 << n_in) - 1
        for k in range(4 ** n_in):
            rho_t = exact_to_numpy(element_matrix(basis_element(n_in, k))).T
            group = dict(checker._group(checker._input_generators(n_in, k)))
            assert len(group) == 2 ** n_in
            for a in range(4 ** n_in):
                x, z = a >> n_in, a & mask
                want = reference_pauli_expect(rho_t, PauliString(n_in, x, z, (x & z).bit_count() % 4))
                assert want == group.get(a, 0), (k, a)

    @pytest.mark.parametrize("n_in", [1, 2, 3, 4])
    def test_each_input_reads_one_block(self, n_in):
        # The premise of _refuted: input k's group holds Paulis of X-part 0
        # and d_k = basis.block(n_in, k) only, d_k = 0 exactly for the diag
        # inputs, and each block d != 0 has 2^n_in rows.
        rows_per_block = {}
        for k in range(4 ** n_in):
            generators = checker._input_generators(n_in, k)
            d = 0
            for x, _, _, _ in generators:
                d |= x
            assert block(n_in, k) == d
            assert {a >> n_in for a, _ in checker._group(generators)} <= {0, d}, k
            assert (d == 0) == (k < 2 ** n_in), k
            rows_per_block[d] = rows_per_block.get(d, 0) + 1
        assert rows_per_block == {d: 2 ** n_in for d in range(2 ** n_in)}
