"""Parser, validator and pretty-printer for the .qpr format."""

import dataclasses
import random

import pytest

from stabcheck import ParseError, builtin_identity, parse, pretty_print, validate
from stabcheck.cli import corpus_path
from stabcheck.protocol import (
    GateStmt,
    IfGateStmt,
    MeasureStmt,
    errors_of,
)

from helpers import random_protocol_source, reference_parse, teleport_source

CORPUS = [
    "teleport.qpr",
    "teleport_noX.qpr",
    "teleport_noZ.qpr",
    "identity.qpr",
    "identity_hh.qpr",
    "swap_cnot.qpr",
    "swap_wires.qpr",
]


def load(name):
    return corpus_path(name).read_text(encoding="utf-8")


class TestParse:
    def test_teleport_shape(self):
        ast = parse(load("teleport.qpr"))
        assert ast.name == "teleport"
        assert [(q.name, q.init) for q in ast.qubits] == [
            ("psi", "input"),
            ("a", "zero"),
            ("b", "zero"),
        ]
        assert [c.name for c in ast.cbits] == ["m0", "m1"]
        assert [o.name for o in ast.outputs] == ["b"]
        kinds = [type(s).__name__ for s in ast.body]
        assert kinds == [
            "GateStmt",
            "GateStmt",
            "GateStmt",
            "GateStmt",
            "MeasureStmt",
            "MeasureStmt",
            "IfGateStmt",
            "IfGateStmt",
        ]
        gates = [s.gate for s in ast.body if isinstance(s, (GateStmt, IfGateStmt))]
        assert gates == ["H", "CNOT", "CNOT", "H", "X", "Z"]
        measured = [(s.qubit.name, s.cbit.name) for s in ast.body if isinstance(s, MeasureStmt)]
        assert measured == [("psi", "m0"), ("a", "m1")]
        assert ast.n_in == 1 and ast.n_out == 1

    def test_minimal_identity(self):
        ast = parse("protocol id { qubit a: input; output a; }")
        assert ast.body == ()
        assert ast.n_in == 1 and ast.n_out == 1

    def test_non_clifford_gate_rejected(self):
        src = "protocol t { qubit a: input; T a; output a; }"
        with pytest.raises(ParseError) as err:
            parse(src)
        assert "Clifford" in str(err.value)
        span = err.value.diagnostic.span
        assert span.line == 1
        assert src.splitlines()[span.line - 1][span.col_start - 1] == "T"

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError) as err:
            parse("protocol d { qubit a: input; cbit a; output a; }")
        assert "duplicate" in str(err.value)

    def test_syntax_errors_carry_spans(self):
        bad_sources = [
            "protocol p { qubit a input; output a; }",
            "protocol p { qubit a: input; H a output a; }",
            "protocol p { qubit a: input; output a; } trailing",
            "protocol p { qubit a: input; measure a c; output a; }",
            "protocol p { qubit a: maybe; output a; }",
            "protocol p { qubit a: input; @ output a; }",
        ]
        for src in bad_sources:
            with pytest.raises(ParseError) as err:
                parse(src)
            span = err.value.diagnostic.span
            lines = src.splitlines() or [""]
            assert 1 <= span.line <= len(lines)
            assert 1 <= span.col_start <= len(lines[span.line - 1]) + 1


class TestValidate:
    def test_corpus_is_clean(self):
        for name in CORPUS:
            ast = parse(load(name))
            assert errors_of(validate(ast)) == [], name

    def test_if_on_undeclared_cbit(self):
        ast = parse("protocol p { qubit a: input; if m then X a; output a; }")
        errs = errors_of(validate(ast))
        assert any("'m'" in d.message for d in errs)
        assert all(d.span.line >= 1 for d in errs)

    def test_no_input_qubits(self):
        ast = parse("protocol p { qubit a: zero; output a; }")
        assert any("no input" in d.message for d in errors_of(validate(ast)))

    def test_empty_outputs_flagged(self):
        ast = parse("protocol p { qubit a: input; output a; }")
        stripped = type(ast)(ast.name, ast.qubits, ast.cbits, ast.body, (), ast.span)
        assert any("empty output set" in d.message for d in errors_of(validate(stripped)))

    def test_cnot_same_wire(self):
        ast = parse("protocol p { qubit a: input; CNOT a, a; output a; }")
        assert any("differ" in d.message for d in errors_of(validate(ast)))

    def test_arity_mismatch(self):
        ast = parse("protocol p { qubit a: input; qubit b: input; H a, b; output a, b; }")
        assert any("argument" in d.message for d in errors_of(validate(ast)))

    def test_output_never_declared(self):
        ast = parse("protocol p { qubit a: input; output a, ghost; }")
        assert any("ghost" in d.message for d in errors_of(validate(ast)))

    def test_read_before_write(self):
        ast = parse(
            "protocol p { qubit a: input; cbit m; if m then X a; measure a -> m; output a; }"
        )
        assert any("before" in d.message for d in errors_of(validate(ast)))

    def test_double_write(self):
        ast = parse(
            "protocol p { qubit a: input; cbit m; measure a -> m; measure a -> m; output a; }"
        )
        assert any("more than once" in d.message for d in errors_of(validate(ast)))

    def test_unwritten_cbit(self):
        ast = parse("protocol p { qubit a: input; cbit m; output a; }")
        assert any("never written" in d.message for d in errors_of(validate(ast)))

    def test_unread_cbit_is_only_a_warning(self):
        ast = parse("protocol p { qubit a: input; cbit m; H a; measure a -> m; output a; }")
        diags = validate(ast)
        assert errors_of(diags) == []
        assert any(d.severity == "warning" and "never read" in d.message for d in diags)

    def test_remeasure_warns(self):
        ast = parse(
            "protocol p { qubit a: input; cbit m; cbit k; measure a -> m; measure a -> k;"
            " if m then X a; if k then X a; output a; }"
        )
        diags = validate(ast)
        assert errors_of(diags) == []
        assert any(d.severity == "warning" and "measured again" in d.message for d in diags)


class TestPrettyPrint:
    def test_corpus_round_trip(self):
        for name in CORPUS:
            ast = parse(load(name))
            assert parse(pretty_print(ast)) == ast, name

    def test_pretty_print_is_a_fixed_point(self):
        ast = parse(load("teleport.qpr"))
        once = pretty_print(ast)
        assert pretty_print(parse(once)) == once


class TestBuiltinIdentity:
    def test_single_qubit(self):
        ast = builtin_identity(1)
        assert ast.n_in == 1 and ast.n_out == 1 and ast.body == ()
        assert errors_of(validate(ast)) == []

    def test_round_trips(self):
        ast = builtin_identity(3)
        assert parse(pretty_print(ast)) == ast

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            builtin_identity(0)


def _random_valid_source(rng: random.Random) -> str:
    n_inputs = rng.randint(1, 2)
    n_anc = rng.randint(0, 1)
    qubits = [f"q{i}" for i in range(n_inputs + n_anc)]
    decls = [f"qubit {q}: {'input' if i < n_inputs else 'zero'};" for i, q in enumerate(qubits)]
    body = []
    cbits = []
    written = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.6:
            gate = rng.choice(("H", "P", "X", "Y", "Z", "CNOT"))
            if gate == "CNOT" and len(qubits) >= 2:
                a, b = rng.sample(qubits, 2)
                body.append(f"CNOT {a}, {b};")
            elif gate != "CNOT":
                body.append(f"{gate} {rng.choice(qubits)};")
        elif roll < 0.8:
            name = f"m{len(cbits)}"
            cbits.append(name)
            written.append(name)
            body.append(f"measure {rng.choice(qubits)} -> {name};")
        elif written:
            gate = rng.choice(("X", "Z", "Y"))
            body.append(f"if {rng.choice(written)} then {gate} {rng.choice(qubits)};")
    outputs = rng.sample(qubits, rng.randint(1, len(qubits)))
    lines = decls + [f"cbit {c};" for c in cbits] + body + [f"output {', '.join(outputs)};"]
    return "protocol fuzz {\n  " + "\n  ".join(lines) + "\n}\n"


def test_fuzzed_valid_protocols_run_end_to_end():
    # every AST that validates cleanly must fingerprint without blowing up
    from stabcheck import fingerprint

    rng = random.Random(41)
    ran = 0
    for _ in range(40):
        src = _random_valid_source(rng)
        src_lines = src  # declarations precede statements by construction
        ast = parse(src_lines)
        if errors_of(validate(ast)):
            continue
        fp = fingerprint(ast)
        assert all(row[0] == 1 for row in fp.table)
        ran += 1
    assert ran >= 30


# One-character edits for the front-end differential test: line breaks that
# str.splitlines honours besides \n, an arrow half, a comment start,
# punctuation, a non-ASCII space, a digit and a letter.
CORRUPTION_POOL = ("-", ">", "#", ";", ",", "{", "\f", "\r", "\r\n", "\v", "\x1c", "\xa0", "7", "q")


def _corrupt(rng: random.Random, source: str) -> str:
    """Insert, delete or replace one character, or truncate the source."""
    pos = rng.randrange(len(source))
    edit = rng.choice(("insert", "delete", "replace", "truncate"))
    if edit == "truncate":
        return source[:pos]
    inserted = "" if edit == "delete" else rng.choice(CORRUPTION_POOL)
    return source[:pos] + inserted + source[pos + (edit != "insert"):]


def _with_spans(node):
    """The node as nested tuples, its span fields included (they take no part in ==)."""
    if dataclasses.is_dataclass(node):
        return (type(node).__name__,) + tuple(_with_spans(getattr(node, f.name)) for f in dataclasses.fields(node))
    if isinstance(node, tuple):
        return tuple(_with_spans(item) for item in node)
    return node


def _outcome(parser, source):
    try:
        return _with_spans(parser(source))
    except ParseError as exc:
        return ("ParseError", exc.diagnostic.message, exc.diagnostic.span, str(exc))


def test_front_end_matches_reference_parser():
    rng = random.Random(707)
    bases = [load(name) for name in CORPUS] + [teleport_source(n) for n in range(1, 5)]
    bases += [random_protocol_source(rng, shuffle=i % 2 == 1) for i in range(200)]
    bases += [pretty_print(parse(source)) for source in bases]
    corrupted = [_corrupt(rng, bases[i % len(bases)]) for i in range(3000)]
    errors = 0
    for source in bases + corrupted:
        want = _outcome(reference_parse, source)
        assert _outcome(parse, source) == want, repr(source)
        errors += want[0] == "ParseError"
    # Both paths are exercised: most corruptions break the syntax, some do not.
    assert 1000 < errors < len(corrupted)
