"""fingerprint against the reference tabulation in helpers, and deferred
measurement against the reference walk."""

import dataclasses
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from stabcheck import (
    PauliString,
    builtin_identity,
    check_equivalence,
    enumerate_basis,
    fingerprint,
    fingerprint_dense,
    parse,
    run_protocol,
    run_protocol_dense,
)
from stabcheck import checker, dense
from stabcheck.basis import basis_index, block
from stabcheck.checker import local_observable
from stabcheck.cli import corpus_path
from stabcheck.dense import TOL, pauli_expect_dense, pauli_expect_state, pauli_expectations

from stabcheck.protocol import GateStmt, IfGateStmt
from stabcheck.tableau import GATE_NAMES

from helpers import (
    assert_checked_as_reference,
    cluster_wire_source,
    h_controlled_cluster_wire_source,
    random_protocol_source,
    reference_choi,
    reference_basis_state,
    reference_counterexample,
    reference_fingerprint,
    reference_fingerprint_dense,
    reference_lower,
    reference_pauli_expect,
    reference_run_dense,
    reference_parse,
    reference_run_protocol,
    repetition_code_source,
    teleport_source,
    tensor_source,
    with_classical_controls,
    with_h_control,
)

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


def coefficient_verdict(lhs, rhs):
    """The verdict of the two sides' full tables, built from their channels'
    parts (_table), at their first difference (reference_counterexample):
    never by comparing the _reduced forms or testing blocks."""
    channels = [checker._channel(checker.lower(ast), None) for ast in (lhs, rhs)]
    want = reference_counterexample(*map(checker._table, channels))
    ce = None if want is None else checker.Counterexample(*want)
    return checker.Verdict(want is None, ce, lambda: tuple(channels), "coefficients")


def choi_fractions(channel):
    """A channel as _channel or reference_choi gives it: its nonzero
    coefficients as exact fractions keyed (A, q) as reference_choi keys
    them, whatever its denominator.

    A _Channel's parts, merged, map A's key a to {q: c} over
    checker._DENOMINATOR, read here without the checker's own helpers: a
    is A's reference x bits over its z bits, and the coefficient,
    Tr((A x P_q) J), takes the (-1)^#Y(A) that reference_choi's holds."""
    if isinstance(channel, checker._Channel):
        n_in, n_out, denominator = channel.n_in, channel.n_out, checker._DENOMINATOR
        parts = [(a, row) for d in range(2 ** n_in) for a, row in channel[d].items()]
        nested = [(a, {q: (-1) ** (a >> n_in & a).bit_count() * c for q, c in row.items()}) for a, row in parts]
    else:
        n_in, n_out, denominator, choi = channel
        nested = choi.items()
    return n_in, n_out, {(a, q): Fraction(c, denominator) for a, coeffs in nested for q, c in coeffs.items() if c}


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


def _without_one_line(rng, source):
    """source less one random declaration or body line, so most results are
    invalid: an undeclared qubit or bit, a bit read before it is written, no inputs."""
    lines = source.splitlines()
    # Line 0 opens the protocol; the last two hold the outputs and the closing brace.
    del lines[rng.randrange(1, len(lines) - 2)]
    return "\n".join(lines) + "\n"


def test_diagnostics_and_lowering_match_reference_validate():
    rng = random.Random(2323)
    invalid = warned = 0
    for i in range(300):
        source = random_protocol_source(rng, shuffle=i % 2 == 1)
        if i % 3 == 0:
            source = with_classical_controls(rng, source)
        for text in (source, _without_one_statement(rng, source), _without_one_line(rng, source)):
            diagnostics = assert_checked_as_reference(parse(text))
            invalid += any(d.severity == "error" for d in diagnostics)
            warned += any(d.severity == "warning" for d in diagnostics)
    assert invalid > 100 and warned > 100


def test_deferred_ancillas_match_reference_reset():
    # A measurement takes an ancilla in deferred measurement exactly when
    # the reference lowering does not mark it reset.
    rng = random.Random(2424)
    several = 0
    for i in range(600):
        source = random_protocol_source(rng, shuffle=i % 4 >= 2)
        if i % 2:
            source = with_classical_controls(rng, source)
        ast = parse(source)
        program = checker.lower(ast)
        ancillas = sum(op[0] == "m" and not op[3] for op in reference_lower(ast).ops)
        states = checker._deferred(program)
        several += len(states) > 1
        for _, rows in states:
            assert len(rows) == 2 * (program.n_wires + len(program.inputs) + ancillas), source
    assert several > 30


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


def test_shuffled_declarations_match_reference():
    # Inputs declared anywhere among the ancillas and outputs, as in teleport_n,
    # so each reference wire must pair with its own input, not with a wire index.
    rng = random.Random(2718)
    interleaved = 0
    for _ in range(150):
        source = random_protocol_source(rng, shuffle=True)
        lhs, rhs = parse(source), parse(_without_one_statement(rng, source))
        ref_l, ref_r = reference_fingerprint(lhs), reference_fingerprint(rhs)
        assert fingerprint(lhs) == ref_l, source
        assert_same_verdict(lhs, rhs, ref_l, ref_r)
        interleaved += checker.lower(lhs).inputs != tuple(range(lhs.n_in))
    assert interleaved > 50


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
    program = checker.lower(ast)
    # Only the first measurement's wire is touched later, so it alone takes an ancilla.
    (_, rows), = checker._deferred(program)
    assert len(rows) == 2 * (program.n_wires + len(program.inputs) + 1)
    assert fingerprint(ast) == reference_fingerprint(ast)


def test_discarded_measured_wires_are_reset():
    program = checker.lower(load("teleport.qpr"))
    # Both measured wires are their bits' controls: no ancilla.
    (_, rows), = checker._deferred(program)
    assert len(rows) == 2 * (program.n_wires + len(program.inputs))


def assert_first_difference(verdict):
    """The counterexample is the first entry, in table order, where the
    verdict's own tables differ."""
    ce = verdict.counterexample
    want = reference_counterexample(*verdict.fingerprints)
    assert (ce.basis_element, ce.observable, ce.value_lhs, ce.value_rhs) == want


@pytest.mark.parametrize("drop", ["X0", "X1", "X2", "Z0", "Z1", "Z2"])
def test_dropping_a_correction_from_teleport_3_is_refuted(drop):
    verdict = check_equivalence(parse(teleport_source(3, drop)), builtin_identity(3))
    assert not verdict.equivalent
    assert verdict.counterexample.value_lhs != verdict.counterexample.value_rhs
    assert_first_difference(verdict)


def test_deleting_a_first_phase_gate_is_refuted_on_a_superposition():
    # Z or P as a wire's first gate only rephases a basis state, so the two
    # circuits' tables agree on every diag row and differ on plus/iplus rows.
    rng = random.Random(1717)
    wires = ["a", "b", "c"]
    decls = " ".join(f"qubit {w}: input;" for w in wires)
    for i in range(12):
        body = []
        for _ in range(rng.randint(5, 40)):
            gate = rng.choice(("H", "P", "X", "Y", "Z", "CNOT"))
            body.append(f"{gate} {', '.join(rng.sample(wires, 2) if gate == 'CNOT' else [rng.choice(wires)])};")
        deleted = f"{rng.choice(('Z', 'P'))} {rng.choice(wires)};"
        lhs, rhs = (parse(f"protocol c{i} {{ {decls} {' '.join(gates)} output a, b, c; }}") for gates in ([deleted, *body], body))
        verdict = check_equivalence(lhs, rhs)
        assert not verdict.equivalent
        assert verdict.counterexample.basis_element.kind != "diag"
        assert_first_difference(verdict)


@pytest.mark.parametrize("drop", [None, "X3", "Z0", "X0", "X1", "X2", "Z1", "Z2", "Z3"])
def test_teleport_4_against_identity(drop):
    # The reference tabulation takes about 90 s at n = 4, so a refutation,
    # read from the two forms block by block, is checked against the first
    # difference of the full tables (coefficient_verdict).
    lhs, rhs = parse(teleport_source(4, drop)), builtin_identity(4)
    verdict = check_equivalence(lhs, rhs)
    assert verdict.equivalent == (drop is None)
    if drop is not None:
        assert verdict.counterexample.value_lhs != verdict.counterexample.value_rhs
        assert verdict.counterexample == coefficient_verdict(lhs, rhs).counterexample
        assert_first_difference(verdict)


# Bit c is measured from a zero wire, so it is forced to 0 and its if never
# fires: one deferred state, of weight 2 over denominator 2.
WEIGHTED = "protocol p {{ qubit a: input; qubit b: input; qubit z: zero; cbit c; measure z -> c; if c then H a; {} output a, b; }}"


@pytest.mark.parametrize(
    "body, want",
    [
        ("", None),
        ("X a;", "diag:0 +ZI"),
        ("H b;", "diag:0 +IX"),
        ("P a;", "plus:0,2 +XI"),
        ("Z b;", "plus:0,1 +IX"),
        ("CNOT a, b;", "diag:2 +IZ"),
    ],
)
def test_a_weighted_one_state_side(body, want):
    lhs, rhs = parse(WEIGHTED.format(body)), builtin_identity(2)
    ((weight, _),) = checker._forms(checker.lower(lhs))
    assert (weight, checker.lower(lhs).denominator) == (2, 2)
    verdict = check_equivalence(lhs, rhs)
    assert verdict.decider == "deferred measurement over 2^1 assignments: bit c controls H"
    assert verdict.counterexample == coefficient_verdict(lhs, rhs).counterexample
    if want is None:
        assert verdict.equivalent
    else:
        ce = verdict.counterexample
        assert f"{ce.basis_element.label()} {ce.observable}" == want
        assert_first_difference(verdict)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_cluster_wire_is_the_identity(k):
    # Every byproduct correction comes after the last measurement, so all
    # 2^k branches stay live until then.
    ast = parse(cluster_wire_source(k))
    assert check_equivalence(ast, builtin_identity(1)).equivalent
    if k <= 4:
        assert_dense_agrees(ast, fingerprint(ast))


@pytest.mark.parametrize("k", [2, 4, 6])
def test_dropping_a_correction_from_a_cluster_wire_is_refuted(k):
    for j in range(k):
        verdict = check_equivalence(parse(cluster_wire_source(k, drop=j)), builtin_identity(1))
        assert not verdict.equivalent, j
        assert verdict.counterexample.value_lhs != verdict.counterexample.value_rhs


def test_repetition_code_is_the_identity():
    # d = 3 is corpus/repetition_code.qpr; at d = 100 the deferred state is
    # one wide block with no tensor structure, which fills in under
    # tableau._eliminated.
    assert check_equivalence(parse(repetition_code_source(3)), load("repetition_code.qpr")).equivalent
    for d in (3, 10, 100):
        assert check_equivalence(parse(repetition_code_source(d)), builtin_identity(1)).equivalent, d


@pytest.mark.parametrize("d", [3, 10, 100])
def test_dropping_a_correction_from_a_repetition_code_is_refuted(d):
    for drop in ["X"] + [f"Z{i}" for i in range(1, d)]:
        verdict = check_equivalence(parse(repetition_code_source(d, drop)), builtin_identity(1))
        assert not verdict.equivalent, drop
        assert verdict.counterexample.value_lhs != verdict.counterexample.value_rhs


# ---------------------------------------------------------------------------
# Metamorphic tests: each transform keeps the channel, so check_equivalence
# must call the pair equivalent.

IDENTITIES = ("H {0}; H {0};", "P {0}; P {0}; P {0}; P {0};", "X {0}; X {0};", "CNOT {0}, {1}; CNOT {0}, {1};")


def _split(source):
    """(header, declaration lines, statement lines, footer) of a one-statement-per-line source."""
    lines = source.splitlines()
    middle = [line.strip() for line in lines[1:-2]]
    n_decls = sum(line.startswith(("qubit ", "cbit ")) for line in middle)
    return lines[0], middle[:n_decls], middle[n_decls:], lines[-2:]


def _join(header, decls, body, footer):
    return "\n".join([header, *decls, *body, *footer]) + "\n"


def _qubits(decls):
    return [line.split()[1].rstrip(":") for line in decls if line.startswith("qubit ")]


def insert_identity(rng, source):
    header, decls, body, footer = _split(source)
    qubits = _qubits(decls)
    patterns = IDENTITIES if len(qubits) > 1 else IDENTITIES[:-1]
    body.insert(rng.randint(0, len(body)), rng.choice(patterns).format(*rng.sample(qubits, min(2, len(qubits)))))
    return _join(header, decls, body, footer)


def relabel(rng, source):
    """Rename every qubit and cbit and shuffle the qubit declarations; the
    inputs keep their relative order and the output line its order."""
    _, decls, _, _ = _split(source)
    names = _qubits(decls) + [c for line in decls for c in re.findall(r"cbit (\w+);", line)]
    mapping = dict(zip(names, rng.sample([f"v{i}" for i in range(len(names))], len(names))))
    source = re.sub(r"\b(" + "|".join(names) + r")\b", lambda m: mapping[m.group(1)], source)
    header, decls, body, footer = _split(source)
    qubit_lines = [line for line in decls if line.startswith("qubit ")]
    inputs = iter([line for line in qubit_lines if line.endswith(": input;")])
    rng.shuffle(qubit_lines)
    qubit_lines = [next(inputs) if line.endswith(": input;") else line for line in qubit_lines]
    return _join(header, qubit_lines + decls[len(qubit_lines) :], body, footer)


def add_discarded_ancilla(rng, source):
    header, decls, body, footer = _split(source)
    body.insert(rng.randint(0, len(body)), "H anc; measure anc -> canc;")
    return _join(header, ["qubit anc: zero;", *decls, "cbit canc;"], body, footer)


TRANSFORMS = (insert_identity, relabel, add_discarded_ancilla)


def _metamorphic_sources():
    rng = random.Random(4242)
    sources = [random_protocol_source(rng, shuffle=True) for _ in range(60)]
    return rng, sources + [teleport_source(n) for n in (1, 2, 3)]


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda t: t.__name__)
def test_transforms_keep_equivalence(transform):
    rng, sources = _metamorphic_sources()
    for source in sources:
        changed = transform(rng, source)
        lhs, rhs = parse(source), parse(changed)
        assert check_equivalence(lhs, rhs).equivalent, changed
        assert check_equivalence(rhs, lhs).equivalent, changed
        assert check_equivalence(lhs, rhs).decider == checker.DEFERRED
        assert coefficient_verdict(lhs, rhs).equivalent, changed
        if transform is add_discarded_ancilla:
            # The ancilla's measurement doubles the Program denominator; the
            # weights of the deferred states stay as they were.
            assert checker.lower(rhs).denominator == 2 * checker.lower(lhs).denominator


def test_relabel_moves_the_inputs():
    rng, sources = _metamorphic_sources()
    moved = 0
    for source in sources:
        lhs, rhs = parse(source), parse(relabel(rng, source))
        assert (rhs.n_in, rhs.n_out) == (lhs.n_in, lhs.n_out)
        moved += checker.lower(lhs).inputs != checker.lower(rhs).inputs
    assert moved > 20


# ---------------------------------------------------------------------------
# The tables a verdict hands out, and counterexamples replayed densely.


def _verdict_pairs():
    asts = [load(name) for name in CORPUS]
    pairs = [(a, b) for a in asts for b in asts if a.n_in == b.n_in and a.n_out == b.n_out]
    pairs += [(a, builtin_identity(a.n_in)) for a in asts if a.n_in == a.n_out]
    rng = random.Random(5150)
    for _ in range(50):
        source = random_protocol_source(rng, shuffle=True)
        pairs.append((parse(source), parse(_without_one_statement(rng, source))))
    return pairs


def test_verdict_fingerprints_are_the_tables():
    kinds = set()
    for lhs, rhs in _verdict_pairs():
        verdict = check_equivalence(lhs, rhs)
        assert verdict.fingerprints == (fingerprint(lhs), fingerprint(rhs))
        kinds.add(verdict.equivalent)
    assert kinds == {True, False}


def assert_replays(lhs, rhs, ce):
    """The counterexample's entry of both dense tables holds its two values."""
    k = basis_index(ce.basis_element)
    q = next(q for q in range(4 ** lhs.n_out) if checker.local_observable(lhs.n_out, q) == ce.observable)
    assert abs(fingerprint_dense(lhs)[k, q] - float(ce.value_lhs)) < TOL
    assert abs(fingerprint_dense(rhs)[k, q] - float(ce.value_rhs)) < TOL


def test_counterexamples_replay_through_the_dense_oracle():
    replayed = 0
    for lhs, rhs in _verdict_pairs():
        verdict = check_equivalence(lhs, rhs)
        ce = verdict.counterexample
        if ce is None or lhs.n_in > 2:
            continue
        assert_replays(lhs, rhs, ce)
        replayed += 1
    assert replayed > 20


# ---------------------------------------------------------------------------
# Metamorphic deletion: a corpus protocol less one correction, or swap_cnot
# less one CNOT, is a different channel.

DEPHASE_2 = """protocol dephase_2 {
  qubit x0: input; qubit x1: input; cbit m0; cbit m1;
  measure x0 -> m0; measure x1 -> m1;
  output x0, x1;
}"""


def test_corrected_corpus_files_implement_their_channels():
    for name, channel in (
        ("entanglement_swap.qpr", builtin_identity(2)),
        ("superdense.qpr", parse(DEPHASE_2)),
        ("repetition_code.qpr", builtin_identity(1)),
    ):
        assert check_equivalence(load(name), channel).equivalent, name


@pytest.mark.parametrize("name", ["entanglement_swap.qpr", "superdense.qpr", "repetition_code.qpr", "swap_cnot.qpr"])
def test_deleting_one_correction_is_refuted(name):
    ast = load(name)
    # swap_cnot has no corrections; each of its three CNOTs is deleted instead.
    kind = GateStmt if name == "swap_cnot.qpr" else IfGateStmt
    deletable = [i for i, stmt in enumerate(ast.body) if isinstance(stmt, kind)]
    assert len(deletable) >= 2
    for i in deletable:
        mutant = dataclasses.replace(ast, body=ast.body[:i] + ast.body[i + 1 :])
        verdict = check_equivalence(ast, mutant)
        assert not verdict.equivalent, (name, i)
        assert_replays(ast, mutant, verdict.counterexample)
        assert verdict.decider == checker.DEFERRED
        assert coefficient_verdict(ast, mutant) == verdict


# ---------------------------------------------------------------------------
# Three deciders on one set of pairs: deferred measurement (check_equivalence
# on protocols whose bits control only X, Y and Z, by _reduced forms), the
# full tables of the same states (coefficient_verdict) and the reference
# tabulation in helpers.


def _three_way_pairs():
    asts = [load(name) for name in CORPUS]
    pairs = [(a, b) for a in asts for b in asts if a.n_in == b.n_in and a.n_out == b.n_out]
    pairs += [(a, builtin_identity(a.n_in)) for a in asts if a.n_in == a.n_out]
    for n in (1, 2, 3, 4):
        for drop in (None, *(f"{p}{k}" for p in "XZ" for k in range(n))):
            pairs.append((parse(teleport_source(n, drop)), builtin_identity(n)))
    for k in range(2, 9):
        for drop in (None, *range(k)):
            pairs.append((parse(cluster_wire_source(k, drop)), builtin_identity(1)))
    rng = random.Random(1213)
    for i in range(300):
        source = random_protocol_source(rng, shuffle=i % 2 == 1)
        pairs.append((parse(source), parse(_without_one_statement(rng, source))))
    return pairs


@pytest.mark.parametrize("drop", ["X0", "X1", "X2", "Z0", "Z1", "Z2"])
def test_teleport_3_counterexamples_match_the_tables_and_the_dense_oracle(drop):
    # At n_in = 3 the reference tabulation is too slow to run here, so the
    # counterexample that _refuted names from the parts that differ is
    # checked against the tables _rows builds and against the dense oracle.
    lhs, rhs = parse(teleport_source(3, drop)), builtin_identity(3)
    verdict = check_equivalence(lhs, rhs)
    assert_first_difference(verdict)
    assert_replays(lhs, rhs, verdict.counterexample)


def h_controlled_teleport_2_source(drop, controls):
    """teleport_source(2, drop) with controls fresh ancillas h<j> in |+>,
    each measured into a bit g<j> that controls an H on the measured psi0:
    the channel is the same, over 2^controls deferred states."""
    decls = "".join(f"\n  qubit h{j}: zero; cbit g{j};" for j in range(controls))
    body = "".join(f"\n  H h{j}; measure h{j} -> g{j}; if g{j} then H psi0;" for j in range(controls))
    return teleport_source(2, drop).replace("{", "{" + decls, 1).replace("\n  output", body + "\n  output")


@pytest.mark.parametrize("drop", [*range(6), "Z0", "Z1"])
def test_sides_over_different_choi_denominators(drop):
    # Two bits that control H give the left side four deferred states, of
    # weights summing to 4; identity:1 has one state of weight 1.  On
    # teleport_2, both sides have such bits, two against one, and dropping
    # Z0 leaves the first difference in block 1, read after block 2.
    if isinstance(drop, int):
        lhs, rhs = parse(h_controlled_cluster_wire_source(6, drop=drop, controls=2)), builtin_identity(1)
    else:
        lhs, rhs = parse(h_controlled_teleport_2_source(drop, 2)), parse(h_controlled_teleport_2_source(None, 1))
    programs = checker.lower(lhs), checker.lower(rhs)
    weights = [sum(weight for weight, _ in checker._forms(program)) for program in programs]
    assert weights == ([4, 1] if isinstance(drop, int) else [4, 2])
    ce = check_equivalence(lhs, rhs).counterexample
    want = reference_counterexample(reference_fingerprint(lhs), reference_fingerprint(rhs))
    assert (ce.basis_element, ce.observable, ce.value_lhs, ce.value_rhs) == want
    assert_replays(lhs, rhs, ce)
    if drop == "Z0":
        blocks = [block(2, k) for k in range(basis_index(ce.basis_element) + 1)]
        assert blocks[-1] == 1 and 2 in blocks


def test_refutations_from_diag_differences_and_from_the_rest_match_reference():
    # _refuted tests part 0 at the diag inputs, the only part they read, and
    # the other parts only when it is equal; both branches name the
    # reference's first differing entry.
    rng = random.Random(2024)
    pairs = []
    for i in range(120):
        source = random_protocol_source(rng, shuffle=i % 2 == 1)
        pairs.append((parse(source), parse(_without_one_statement(rng, source))))
    pairs += [(parse(h_controlled_cluster_wire_source(6, drop=j, controls=2)), builtin_identity(1)) for j in range(6)]
    kinds = set()
    for lhs, rhs in pairs:
        verdict = check_equivalence(lhs, rhs)
        want = reference_counterexample(reference_fingerprint(lhs), reference_fingerprint(rhs))
        assert verdict.equivalent == (want is None)
        if want is not None:
            ce = verdict.counterexample
            assert (ce.basis_element, ce.observable, ce.value_lhs, ce.value_rhs) == want
            kinds.add(ce.basis_element.kind == "diag")
    assert kinds == {True, False}


def test_rows_of_the_difference_map_are_the_differences_of_the_rows():
    # _refuted sums only the rows of a block whose part differs, as row k
    # reads parts 0 and block(n_in, k) alone.  Summed from the difference
    # map of two channels' parts, both over _DENOMINATOR, the rows must be
    # the entrywise differences of the two sides' _rows, zero wherever
    # _refuted skips them, and the first nonzero entry must be the
    # counterexample's cell.
    rng = random.Random(2929)
    pairs = [(parse(teleport_source(3, drop)), builtin_identity(3)) for drop in ("X0", "Z1", "X2")]
    for i in range(150):
        source = random_protocol_source(rng, shuffle=i % 2 == 1)
        mutant = _without_one_statement(rng, source)
        if i % 3:
            mutant = with_h_control(mutant) if i % 3 == 2 else with_classical_controls(rng, mutant)
        pairs.append((parse(source), parse(mutant)))
    skipped = unequal = 0
    for lhs, rhs in pairs:
        programs = [checker.lower(ast) for ast in (lhs, rhs)]
        channels = [checker._channel(program, None) for program in programs]
        n_in, n_out = lhs.n_in, lhs.n_out
        diff = {}
        for channel, sign in zip(channels, (1, -1)):
            for d in range(2 ** n_in):
                for a, row in channel[d].items():
                    diff_a = diff.setdefault(a, {})
                    for q, c in row.items():
                        diff_a[q] = diff_a.get(q, 0) + sign * c
        rows = [checker._summed(checker._group(checker._input_generators(n_in, k)), diff, 4 ** n_out) for k in range(4 ** n_in)]
        sides = zip(*map(checker._rows, channels))
        assert rows == [[l - r for l, r in zip(row_l, row_r)] for row_l, row_r in sides], lhs.name
        differs = {d for d in range(2 ** n_in) if channels[0][d] != channels[1][d]}
        assert all(not any(row) for k, row in enumerate(rows) if not {0, block(n_in, k)} & differs), lhs.name
        verdict = check_equivalence(lhs, rhs)
        assert verdict.equivalent == (not differs)
        if differs:
            k, q = next((k, q) for k, row in enumerate(rows) for q, c in enumerate(row) if c)
            ce = verdict.counterexample
            assert (basis_index(ce.basis_element), ce.observable) == (k, local_observable(n_out, q))
            assert (ce.value_lhs - ce.value_rhs) * checker._DENOMINATOR == rows[k][q]
            skipped += 0 not in differs
            weights = [sum(weight for weight, _ in checker._forms(program)) for program in programs]
            unequal += weights[0] != weights[1]
    assert skipped > 8 and unequal > 30, (skipped, unequal)


def _with_cbits_reversed(source):
    """source with its cbit declarations, one a line, in reverse order, so
    each bit's index, and with it _deferred's order of assignments, changes."""
    lines = source.split("\n")
    at = [i for i, line in enumerate(lines) if line.startswith("  cbit ")]
    for i, line in zip(at, reversed([lines[i] for i in at])):
        lines[i] = line
    return "\n".join(lines)


def test_parts_are_canonical():
    # Several _deferred states add into each part in one pass: no part
    # holds a zero or an empty row, and the parts of a source whose states
    # come in another order are equal as they are, with no sort.
    rng = random.Random(34)
    multi = reordered = 0
    for i in range(1000):
        source = with_classical_controls(rng, random_protocol_source(rng, shuffle=i % 2 == 1))
        ast, other = parse(source), parse(_with_cbits_reversed(source))
        forms = checker._forms(checker.lower(ast))
        if len(forms) < 2:
            continue
        multi += 1
        reordered += checker._forms(checker.lower(other)) != forms
        channels = [checker._channel(checker.lower(side), None) for side in (ast, other)]
        for d in range(2 ** ast.n_in):
            assert all(row and all(row.values()) for channel in channels for row in channel[d].values()), source
            assert channels[0][d] == channels[1][d], source
        assert checker._refuted(*channels) is None, source
    assert multi > 200 and reordered > 4, (multi, reordered)


def test_deferred_walk_and_reference_agree():
    # The reference tabulation runs every basis input on its own, which
    # takes seconds from n_in = 3 on, so it is compared up to n_in = 2;
    # test_teleport_n_matches_reference covers teleport_3 itself.
    refuted = referenced = 0
    for i, (lhs, rhs) in enumerate(_three_way_pairs()):
        label = (lhs.name, rhs.name, i)
        verdict = check_equivalence(lhs, rhs, budget=None)
        assert verdict.decider == checker.DEFERRED, label
        compared = coefficient_verdict(lhs, rhs)
        assert (verdict.equivalent, verdict.counterexample) == (compared.equivalent, compared.counterexample), label
        tables = verdict.fingerprints
        assert tables == compared.fingerprints, label
        refuted += not verdict.equivalent
        if lhs.n_in <= 2:
            refs = reference_fingerprint(lhs), reference_fingerprint(rhs)
            assert tables == refs, label
            want = reference_counterexample(*refs)
            ce = verdict.counterexample
            assert (want is None) == verdict.equivalent, label
            if want is not None:
                assert (ce.basis_element, ce.observable, ce.value_lhs, ce.value_rhs) == want, label
            referenced += 1
            if i % 10 == 0:
                assert_dense_agrees(lhs, tables[0])
                assert_dense_agrees(rhs, tables[1])
    assert referenced > 300 and 100 < refuted


# ---------------------------------------------------------------------------
# The walk on engine rows against the frozen PauliString-row walk in helpers.

MEASURED_TWICE = """protocol twice {
  qubit a: input; qubit b: zero; cbit m0; cbit m1;
  H a; CNOT a, b; measure a -> m0;
  if m0 then X a;
  measure a -> m1;
  if m1 then Z b;
  if m0 then Y b;
  output b;
}"""


def _walk_sources():
    rng = random.Random(6006)
    sources = [corpus_path(name).read_text(encoding="utf-8") for name in CORPUS]
    for n in (1, 2, 3, 4):
        sources += [teleport_source(n, drop) for drop in (None, *(f"{p}{k}" for p in "XZ" for k in range(n)))]
    sources += [cluster_wire_source(k) for k in range(2, 7)]
    sources += [random_protocol_source(rng, shuffle=i % 2 == 1) for i in range(300)]
    return sources + [MEASURED_TWICE]


def test_walk_matches_reference_walk():
    # _channel sums its deferred states over 2^(bits that control H, P or
    # CNOT), the reference walk its merged branches over 2^measurements.
    branches = 0
    for source in _walk_sources():
        ast = parse(source)
        program = checker.lower(ast)
        got = checker._channel(program, None)
        assert choi_fractions(got) == choi_fractions(reference_choi(ast, None)), source
        if ast.n_in > 2:
            continue
        for circ in enumerate_basis(ast.n_in):
            got, want = run_protocol(ast, circ), reference_run_protocol(ast, circ)
            assert len(got) == len(want), source
            for g, w in zip(got, want):
                assert (g.probability, g.outcomes, g.cbits) == (w.probability, w.outcomes, w.cbits), source
                assert (g.state.n, g.state.rows, g.state.trace) == (w.state.n, w.state.rows, w.state.trace), source
                branches += 1
    assert branches > 5000


def test_classical_controls_match_reference():
    # Bits that control H, P or CNOT: the deferred states of each value
    # assignment against the reference walk and the reference tabulation.
    rng = random.Random(2026)
    sources = [with_classical_controls(rng, random_protocol_source(rng, shuffle=i % 2 == 1)) for i in range(900)]
    sources += [with_h_control(random_protocol_source(rng, shuffle=True)) for _ in range(150)]
    controlled = refuted = 0
    for i, source in enumerate(sources):
        ast = parse(source)
        program = checker.lower(ast)
        got = checker._channel(program, None)
        assert choi_fractions(got) == choi_fractions(reference_choi(ast, None)), source
        reference = reference_fingerprint(ast)
        table = fingerprint(ast)
        assert table == reference, source
        if i % 25 == 0:
            assert_dense_agrees(ast, table)
        if i % 5 == 0:
            mutant = parse(_without_one_statement(rng, source))
            assert_same_verdict(ast, mutant, reference, reference_fingerprint(mutant))
            refuted += not check_equivalence(ast, mutant).equivalent
        controlled += checker._assignments(program) is not None
    assert controlled > 350 and refuted > 100


# ---------------------------------------------------------------------------
# The batched dense oracle against the reference oracle, which walks one
# input at a time.


def _dense_sources():
    """Every corpus file, identity:1..3, teleport_1..2 with each one
    correction dropped and with all of them dropped, cluster wires k = 2..6
    and 200 fixed-seed random protocols, every other one with shuffled
    declarations."""
    asts = [load(name) for name in CORPUS] + [builtin_identity(n) for n in (1, 2, 3)]
    for n in (1, 2):
        asts += [parse(teleport_source(n, drop)) for drop in (None, *(f"{g}{k}" for g in "XZ" for k in range(n)))]
        asts.append(parse(re.sub(r"\n  if .*;", "", teleport_source(n))))
    asts += [parse(cluster_wire_source(k)) for k in range(2, 7)]
    rng = random.Random(1515)
    asts += [parse(random_protocol_source(rng, shuffle=i % 2 == 1)) for i in range(200)]
    return asts


def test_fingerprint_dense_matches_reference():
    for ast in _dense_sources():
        got, want = fingerprint_dense(ast), reference_fingerprint_dense(checker.lower(ast))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12, ast.name


def test_run_protocol_dense_matches_reference():
    # Every basis input, and one random input per protocol.
    rng = np.random.default_rng(1516)
    for ast in _dense_sources():
        program = checker.lower(ast)
        inputs = [reference_basis_state(circ) for circ in enumerate_basis(ast.n_in)]
        state = rng.normal(size=1 << ast.n_in) + 1j * rng.normal(size=1 << ast.n_in)
        inputs.append(state / np.linalg.norm(state))
        for state in inputs:
            got, want = run_protocol_dense(ast, state), reference_run_dense(program, state)
            assert len(got) == len(want), ast.name
            for (p, branch), (q, ref) in zip(got, want):
                assert abs(p - q) < 1e-12 and np.max(np.abs(branch - ref)) < 1e-12, ast.name


@pytest.mark.parametrize(
    "ast,limit,chunks",
    [
        # 4 wires and 2 measurements: 2^6 amplitudes per input, 16 inputs.
        pytest.param(load("entanglement_swap.qpr"), 3 << 6, [3, 3, 3, 3, 3, 1], id="entanglement_swap"),
        # 6 wires and 4 measurements: 2^10 amplitudes per input, 16 inputs.
        pytest.param(parse(teleport_source(2)), 1 << 12, [4, 4, 4, 4], id="teleport_2"),
        pytest.param(builtin_identity(3), 1 << 4, [2] * 32, id="identity_3"),
    ],
)
def test_chunked_tables_are_unchanged(monkeypatch, ast, limit, chunks):
    whole = fingerprint_dense(ast)
    sizes = []
    run_dense = dense._run_dense

    def counted(program, states):
        branches = run_dense(program, states)
        assert branches.size <= limit
        sizes.append(len(states))
        return branches

    monkeypatch.setattr(dense, "DENSE_LIMIT", limit)
    monkeypatch.setattr(dense, "_run_dense", counted)
    assert np.max(np.abs(fingerprint_dense(ast) - whole)) < 1e-12
    assert sizes == chunks


# ---------------------------------------------------------------------------
# The dense Pauli kernel against the reference's Kronecker-built matrices.


def test_pauli_expectations_match_reference():
    # Every Pauli on k = 1..3 qubits with either sign, so -Y and -XZ among
    # them, on random Hermitian matrices and random pure states.
    rng = np.random.default_rng(1616)
    for k in (1, 2, 3):
        dim = 1 << k
        raw = rng.normal(size=(4, dim, dim)) + 1j * rng.normal(size=(4, dim, dim))
        dms = raw + raw.conj().transpose(0, 2, 1)
        states = rng.normal(size=(4, dim)) + 1j * rng.normal(size=(4, dim))
        table = pauli_expectations(dms)
        for q in range(4 ** k):
            plus = checker.local_observable(k, q)
            minus = PauliString(k, plus.x_bits, plus.z_bits, plus.phase_exp + 2)
            assert minus.sign == -1
            for dm, row in zip(dms, table):
                assert abs(row[q] - reference_pauli_expect(dm, plus)) < 1e-12
                for obs in (plus, minus):
                    assert abs(pauli_expect_dense(dm, obs) - reference_pauli_expect(dm, obs)) < 1e-12
            for state in states:
                rho = np.outer(state, state.conj())
                for obs in (plus, minus):
                    assert abs(pauli_expect_state(state, obs) - reference_pauli_expect(rho, obs)) < 1e-12


def _with_identity_pair(rng: random.Random, source: str) -> str:
    """A one-statement-per-line source with a gate sequence that multiplies
    to the identity (H H, X X or P P P P) inserted on one wire, at a random
    place in its body."""
    lines = source.splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if line.split()[0] in (*GATE_NAMES, "measure", "if", "output")]
    wire = rng.choice(re.findall(r"qubit (\w+):", source))
    gate, times = rng.choice((("H", 2), ("X", 2), ("P", 4)))
    at = rng.choice(body)
    return "".join(lines[:at] + [f"  {gate} {wire};\n"] * times + lines[at:])


def _without_one_gate(rng: random.Random, source: str) -> str:
    """A one-statement-per-line source less one gate or if line."""
    lines = source.splitlines(keepends=True)
    del lines[rng.choice([i for i, line in enumerate(lines) if line.split()[0] in (*GATE_NAMES, "if")])]
    return "".join(lines)


# (seed, whether block 0 stays equivalent once its right side loses one statement)
TENSOR_CASES = [(0, True), (1, False), (3, True), (5, False)]


@pytest.mark.parametrize("seed, block_0_equivalent", TENSOR_CASES)
def test_a_tensor_product_is_equivalent_exactly_when_every_block_pair_is(seed, block_0_equivalent):
    # A product of trace-preserving channels equals another product of as
    # many channels of the same arities exactly when the factors are equal
    # pairwise.  The right-hand blocks equal the left-hand ones up to an
    # identity pair, except block 0, which loses one statement.
    rng = random.Random(seed)
    lhs = [random_protocol_source(rng, f"blk{k}", shuffle=True) for k in range(100)]
    rhs = [_without_one_gate(rng, lhs[0])] + [_with_identity_pair(rng, source) for source in lhs[1:]]
    small = [(parse(left), parse(right)) for left, right in zip(lhs, rhs)]
    ref_0 = [reference_fingerprint(ast) for ast in small[0]]
    assert (reference_counterexample(*ref_0) is None) == block_0_equivalent
    assert check_equivalence(*small[0]).equivalent == block_0_equivalent
    for ast, ref in zip(small[0], ref_0):
        assert_dense_agrees(ast, ref)
    assert all(check_equivalence(*pair).equivalent for pair in small[1:])
    sources = tensor_source(lhs), tensor_source(rhs)
    product = tuple(map(parse, sources))
    assert product == tuple(map(reference_parse, sources))
    assert product[0].n_in == sum(left.n_in for left, _ in small) > 120
    if block_0_equivalent:
        assert check_equivalence(*product).equivalent
    else:
        with pytest.raises(checker.BudgetExceededError, match="the two sides differ"):
            check_equivalence(*product)


def _controlled_blocks(rng: random.Random, count: int) -> list[str]:
    """count random blocks, each with a bit that controls H, P or CNOT, and
    each with n_in + n_out at most 10 // count, so that their product stays
    within the default budget."""
    blocks = []
    while len(blocks) < count:
        source = with_classical_controls(rng, random_protocol_source(rng, f"blk{len(blocks)}", shuffle=True))
        ast = parse(source)
        if re.search(r"then (H|P|CNOT) ", source) and ast.n_in + ast.n_out <= 10 // count:
            blocks.append(source)
    return blocks


@pytest.mark.parametrize("seed", range(8))
def test_a_product_of_classically_controlled_blocks_is_decided_as_its_blocks(seed):
    # As above, with 3 or 4 blocks whose bits control H, P or CNOT, so that
    # each side of the product has several _deferred states.
    rng = random.Random(seed)
    lhs = _controlled_blocks(rng, 3 + seed % 2)
    rhs = [_without_one_gate(rng, lhs[0])] + [_with_identity_pair(rng, source) for source in lhs[1:]]
    small = [(parse(left), parse(right)) for left, right in zip(lhs, rhs)]
    verdicts = [check_equivalence(*pair).equivalent for pair in small]
    assert all(verdicts[1:])
    ref_0 = [reference_fingerprint(ast) for ast in small[0]]
    assert (reference_counterexample(*ref_0) is None) == verdicts[0]
    for ast, ref in zip(small[0], ref_0):
        assert_dense_agrees(ast, ref)
    product = tuple(parse(tensor_source(sources)) for sources in (lhs, rhs))
    assert all(len(checker._forms(checker.lower(side))) > 1 for side in product)
    assert product[0].n_in + product[0].n_out <= 10
    assert check_equivalence(*product).equivalent == all(verdicts)
    # Block 0 is refuted in half the seeds.
    assert verdicts[0] == (seed % 4 < 2)
