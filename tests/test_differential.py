"""fingerprint against the reference tabulation in helpers, and branch merging."""

import random

import numpy as np
import pytest

from stabcheck import builtin_identity, check_equivalence, enumerate_basis, fingerprint, fingerprint_dense, parse
from stabcheck import checker
from stabcheck.cli import corpus_path
from stabcheck.dense import TOL

from helpers import random_protocol_source, reference_counterexample, reference_fingerprint, teleport_source

CORPUS = sorted(p.name for p in corpus_path("identity.qpr").parent.glob("*.qpr"))


def load(name):
    return parse(corpus_path(name).read_text(encoding="utf-8"))


def assert_same_verdict(lhs, rhs, ref_l, ref_r):
    verdict = check_equivalence(lhs, rhs)
    want = reference_counterexample(ref_l, ref_r)
    assert verdict.equivalent == (want is None)
    if want is not None:
        ce = verdict.counterexample
        assert (ce.basis_element, ce.observable, ce.value_lhs, ce.value_rhs) == want


def assert_dense_agrees(ast, fp):
    exact = np.array([[float(v) for v in row] for row in fp.table])
    assert np.max(np.abs(exact - fingerprint_dense(ast))) < TOL


def test_corpus_matches_reference():
    asts = {name: load(name) for name in CORPUS}
    refs = {name: reference_fingerprint(ast) for name, ast in asts.items()}
    for name, ast in asts.items():
        assert fingerprint(ast) == refs[name], name
        identity = builtin_identity(ast.n_in)
        assert_same_verdict(ast, identity, refs[name], reference_fingerprint(identity))
        for other, other_ast in asts.items():
            if other_ast.n_in == ast.n_in:
                assert_same_verdict(ast, other_ast, refs[name], refs[other])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_teleport_n_matches_reference(n):
    ast = parse(teleport_source(n))
    ref = reference_fingerprint(ast)
    assert fingerprint(ast) == ref
    assert_same_verdict(ast, builtin_identity(n), ref, reference_fingerprint(builtin_identity(n)))
    if n < 3:
        assert_dense_agrees(ast, ref)
        for drop in ("X0", "Z0"):
            mutant = parse(teleport_source(n, drop))
            assert_same_verdict(mutant, ast, reference_fingerprint(mutant), ref)


def _without_one_statement(rng, source):
    lines = source.splitlines()
    deletable = [i for i, line in enumerate(lines) if line.strip().split(" ")[0] in ("H", "P", "X", "Y", "Z", "CNOT", "if")]
    if deletable:
        del lines[rng.choice(deletable)]
    return "\n".join(lines).replace("protocol rand", "protocol mutant") + "\n"


def test_random_protocols_match_reference():
    # 260 pairs: a random protocol and the same protocol less one gate or correction.
    rng = random.Random(1112)
    refuted = 0
    for i in range(260):
        source = random_protocol_source(rng)
        lhs, rhs = parse(source), parse(_without_one_statement(rng, source))
        ref_l, ref_r = reference_fingerprint(lhs), reference_fingerprint(rhs)
        assert fingerprint(lhs) == ref_l, source
        assert fingerprint(rhs) == ref_r, source
        assert_same_verdict(lhs, rhs, ref_l, ref_r)
        refuted += ref_l != ref_r
        if i % 20 == 0:
            assert_dense_agrees(lhs, ref_l)
    assert 50 < refuted < 250  # both verdicts are exercised


@pytest.mark.parametrize(
    "use_again",
    [
        "CNOT a, b;",  # gated
        "measure a -> n; if n then X b;",  # measured again
        "if m then X a; CNOT a, b;",  # corrected
    ],
)
def test_measured_wire_used_again_is_not_reset(use_again):
    cbits = "cbit m; cbit n;" if "-> n" in use_again else "cbit m;"
    ast = parse(f"protocol p {{ qubit a: input; qubit b: zero; {cbits} measure a -> m; {use_again} output b; }}")
    first = next(op for op in checker.lower(ast).ops if op[0] == "m")
    assert first[3] is False
    assert fingerprint(ast) == reference_fingerprint(ast)


def test_discarded_measured_wires_are_reset():
    program = checker.lower(load("teleport.qpr"))
    assert [op[3] for op in program.ops if op[0] == "m"] == [True, True]
    assert program.drops[-2:] == ((program.cbits.index("m1"),), (program.cbits.index("m0"),))


@pytest.mark.parametrize("drop", ["X0", "X1", "X2", "Z0", "Z1", "Z2"])
def test_dropping_a_correction_from_teleport_3_is_refuted(drop):
    verdict = check_equivalence(parse(teleport_source(3, drop)), builtin_identity(3))
    assert not verdict.equivalent
    assert verdict.counterexample.value_lhs != verdict.counterexample.value_rhs


def test_teleport_3_merges_to_one_branch_per_input():
    program = checker.lower(parse(teleport_source(3)))
    for circ in enumerate_basis(3):
        (weight, _, _, bits), = checker._walk(program, circ, merge=True)
        assert weight == 2 ** 6 and bits == {}
