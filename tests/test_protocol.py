"""Parser, validator and pretty-printer for the .qpr format."""

import dataclasses
import inspect
import pickle
import random
from copy import deepcopy
from itertools import groupby

import pytest

from stabcheck import ParseError, builtin_identity, check_equivalence, cli, parse, pretty_print, validate
from stabcheck.checker import lower
from stabcheck.cli import corpus_path
from stabcheck.protocol import (
    CbitDecl,
    Diagnostic,
    GateStmt,
    Ident,
    IfGateStmt,
    MeasureStmt,
    ProtocolAST,
    QubitDecl,
    SourceSpan,
    _checked,
    _CompactBody,
    _nodes,
    _stored_body,
    _tokenize,
    errors_of,
)
from stabcheck.tableau import GATE_NAMES

from helpers import _tokenize as reference_tokenize
from helpers import assert_checked_as_reference, random_protocol_source, reference_parse, teleport_source

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

    def test_caller_built_declarations_are_checked(self):
        # parse rejects each of these; an AST built by a caller reaches validate.
        ast = parse("protocol p { qubit a: input; qubit b: zero; H b; output a; }")
        a, b = ast.qubits
        span = SourceSpan(9, 1, 2)
        for qubits, cbits, message in (
            ((a, b, QubitDecl("a", "zero", span)), (), "duplicate declaration of 'a'"),
            ((a, b), (CbitDecl("b", span),), "duplicate declaration of 'b'"),
            ((a, QubitDecl("b", "one", span)), (), "qubit initializer must be 'input' or 'zero'"),
        ):
            built = dataclasses.replace(ast, qubits=qubits, cbits=cbits)
            assert Diagnostic("error", message, span) in validate(built)
            with pytest.raises(ValueError, match=message):
                lower(built)
            with pytest.raises(ValueError, match=message):
                check_equivalence(built, builtin_identity(1))

    def test_caller_built_names_are_checked(self):
        # parse rejects a keyword or a non-name, so pretty_print could not round-trip either.
        ast = parse("protocol p { qubit a: input; output a; }")
        span = ast.qubits[0].span
        for name, message in (
            ("output", "'output' is a reserved word"),
            ("a b", "'a b' is not a name"),
            ("é", "'é' is not a name"),
            ("1a", "'1a' is not a name"),
        ):
            built = dataclasses.replace(ast, qubits=(QubitDecl(name, "input", span),), outputs=(Ident(name, span),))
            assert validate(built) == [Diagnostic("error", message, span)]
            with pytest.raises(ValueError, match=message):
                lower(built)
            with pytest.raises(ValueError, match=message):
                check_equivalence(built, builtin_identity(1))
        built = dataclasses.replace(ast, cbits=(CbitDecl("then", span),))
        assert Diagnostic("error", "'then' is a reserved word", span) in validate(built)
        with pytest.raises(ParseError, match="'output' is a reserved word"):
            parse(pretty_print(dataclasses.replace(ast, qubits=(QubitDecl("output", "input", span),))))

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

    def test_one_ast_per_n_is_shared(self):
        assert builtin_identity(2) is builtin_identity(2)
        assert builtin_identity(2) is not builtin_identity(3)

    def test_reading_the_body_leaves_it_a_fresh_parse(self):
        source = "protocol identity_2 {\n  qubit q0: input;\n  qubit q1: input;\n  output q0, q1;\n}\n"
        builtin_identity(2).body
        assert builtin_identity(2) == parse(source)
        assert _with_spans(builtin_identity(2)) == _with_spans(parse(source))

    def test_every_call_below_one_raises(self):
        for n in (0, 0, -1, 0):
            with pytest.raises(ValueError, match="at least one qubit"):
                builtin_identity(n)


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


# Layouts a parser with an inline gate path could get wrong; each must parse,
# or fail, exactly as the reference front end does.
_HEAD = "protocol p {\n  qubit a: input;\n  qubit b: zero;\n  cbit m;\n"
FIXED_LAYOUTS = [
    # Two or more statements on one line.
    _HEAD + "  H a; CNOT a, b;\n  measure b -> m; if m then X a;\n  output a;\n}\n",
    "protocol p { qubit a: input; qubit b: input; H a; CNOT a, b; output a, b; }",
    # A gate's tokens over several lines.
    _HEAD + "  CNOT a,\n b;\n  output a;\n}\n",
    _HEAD + "  H\na;\n  output a;\n}\n",
    _HEAD + "  CNOT\n  a\n  ,\n  b\n  ;\n  output a;\n}\n",
    # A comment between a gate's tokens.
    _HEAD + "  CNOT a, # control first\n b;\n  H # then\n a # the target\n ;\n  output a;\n}\n",
    # No spaces at all where none are needed.
    _HEAD + "  CNOT a,b;H b;\n  output a;\n}\n",
    "protocol p{qubit a:input;qubit b:zero;cbit m;CNOT a,b;H b;measure b->m;if m then Z a;output a;}",
    # A keyword as an argument.
    _HEAD + "  H output;\n  output a;\n}\n",
    _HEAD + "  CNOT a, measure;\n  output a;\n}\n",
    _HEAD + "  measure b -> m;\n  if m then H then;\n  output a;\n}\n",
    # A missing ";" before output, after one and after two arguments.
    _HEAD + "  H a\n  output a;\n}\n",
    _HEAD + "  CNOT a, b output a;\n}\n",
    # Three arguments, and a missing argument.
    _HEAD + "  CNOT a, b, a;\n  output a;\n}\n",
    _HEAD + "  H a, b, a;\n  output a;\n}\n",
    _HEAD + "  CNOT a, ;\n  output a;\n}\n",
    _HEAD + "  H ;\n  output a;\n}\n",
    _HEAD + "  H",
    # Qubits named like gates.
    "protocol p {\n  qubit H: input;\n  qubit X: zero;\n  H H;\n  CNOT H, X;\n  X X;\n  output H, X;\n}\n",
    # A gate line where no statement may start: after "then", "output a,",
    # "output a;", "}" and a declaration name.
    _HEAD + "  measure b -> m;\n  if m then\n  X a;\n  output a;\n}\n",
    _HEAD + "  H a;\n  output a,\n  H b;\n}\n",
    _HEAD + "  H a;\n  output a;\n  H b;\n}\n",
    _HEAD + "  output a;\n}\n  H a;\n",
    "protocol p {\n  qubit\n  H a;\n  output a;\n}\n",
    # A keyword argument on a line of its own, also after a gate line.
    _HEAD + "  H a;\n  H output;\n  output a;\n}\n",
    _HEAD + "  H a;\n  CNOT a, then;\n  output a;\n}\n",
    # Trailing comments, tabs and no blanks around a gate line.
    _HEAD + "  H a;  # flip\n  CNOT a, b;# no space\n  output a;\n}\n",
    _HEAD + "\tCNOT\ta\t,\tb\t;\t\n\tH\ta;\t# tab\n  output a;\n}\n",
    _HEAD + "H a;\nCNOT a,b;\n  output a;\n}\n",
    # A gate line among the declarations.
    "protocol p {\n  qubit a: input;\n  H a;\n  qubit c: zero;\n  output a;\n}\n",
    # A gate line first, and right after "{" on the line before.
    "H a;\nprotocol p {\n  qubit a: input;\n  output a;\n}\n",
    "protocol p {\n  H a;\n  output a;\n}\n",
    "protocol {\n  H a;\n}\n",
    # A gate line after a line of several statements ending in a gate.
    _HEAD + "  measure b -> m; H a;\n  CNOT a, b;\n  output a;\n}\n",
    # A run of gate lines broken by a blank line, a comment-only line and a
    # measure line.
    _HEAD + "  H a;\n  X b;\n\n  CNOT a, b;\n  Z a;\n  output a;\n}\n",
    _HEAD + "  H a;\n  X b;\n  # between\n  CNOT a, b;\n  Z a;\n  output a;\n}\n",
    _HEAD + "  H a;\n  X b;\n  measure b -> m;\n  CNOT a, b;\n  if m then X a;\n  output a;\n}\n",
    # A keyword inside a run.
    _HEAD + "  H a;\n  H output;\n  H b;\n  output a;\n}\n",
    # A run whose lines are split by \r, \v and \u2028.
    _HEAD + "  H a;\r  X b;\v  CNOT a, b;\u2028  Z a;\n  output a;\n}\n",
    # A run starting at a gate line after "then".
    _HEAD + "  measure b -> m;\n  if m then\n  X a;\n  H a;\n  Y b;\n  output a;\n}\n",
    # Whole measure and if lines: no blanks around "->", a CNOT under if,
    # tabs and trailing comments.
    _HEAD + "  measure b->m;\n  if m then X a;\n  output a;\n}\n",
    _HEAD + "  measure b -> m;\n  if m then CNOT a, b;\n  if m then CNOT b,a;\n  output a;\n}\n",
    _HEAD + "\tmeasure\tb\t->\tm\t;\t# tab\n\tif\tm\tthen\tX\ta\t;# no space\n  if m then Z a ; # c\n  output a;\n}\n",
    "protocol p {\n\tqubit\ta\t:\tinput\t; # in\n  qubit b:zero;# anc\n\tcbit\tm ;\t\n  measure b -> m;\n  output a;\n}\n",
    # Keywords in name positions of whole lines.
    _HEAD + "  measure then -> m;\n  output a;\n}\n",
    _HEAD + "  measure b -> output;\n  output a;\n}\n",
    _HEAD + "  measure b -> m;\n  if then then X a;\n  output a;\n}\n",
    _HEAD + "  measure b -> m;\n  if m then X output;\n  output a;\n}\n",
    _HEAD + "  measure b -> m;\n  if m then CNOT a, zero;\n  output a;\n}\n",
    "protocol p {\n  qubit output: input;\n  output output;\n}\n",
    "protocol p {\n  qubit a: input;\n  cbit zero;\n  output a;\n}\n",
    "protocol p {\n  qubit a: input;\n  qubit b: a;\n  output a;\n}\n",
    # A bad initializer, a missing ":" and a duplicate on whole-looking lines.
    "protocol p {\n  qubit a: one;\n  output a;\n}\n",
    "protocol p {\n  qubit a input;\n  output a;\n}\n",
    "protocol p {\n  qubit a: input;\n  cbit b;\n  qubit b: zero;\n  output a;\n}\n",
    "protocol p {\n  qubit a: input; qubit b: zero;\n  cbit a;\n  output a;\n}\n",
    # A gate or if word that is not a statement's: an if on a non-gate, a
    # measure without an arrow, a gate named like a keyword.
    _HEAD + "  measure b -> m;\n  if m then T a;\n  output a;\n}\n",
    _HEAD + "  measure b m;\n  output a;\n}\n",
    _HEAD + "  measure b -> m, a;\n  output a;\n}\n",
    _HEAD + "  measure b, a -> m;\n  output a;\n}\n",
    # A declaration line in the body, and body lines among the declarations.
    _HEAD + "  H a;\n  qubit c: zero;\n  output a;\n}\n",
    _HEAD + "  measure b -> m;\n  cbit k;\n  output a;\n}\n",
    "protocol p {\n  qubit a: input;\n  cbit m;\n  measure a -> m;\n  qubit c: zero;\n  output a;\n}\n",
    "protocol p {\n  qubit a: input;\n  cbit m;\n  measure a -> m;\n  if m then X a;\n  cbit k;\n  output a;\n}\n",
    # Whole lines where no statement may start: first, after "output a;",
    # after "}" and after "then".
    "qubit a: input;\nprotocol p {\n  output a;\n}\n",
    "measure a -> m;\nprotocol p {\n  qubit a: input;\n  output a;\n}\n",
    _HEAD + "  output a;\n  measure b -> m;\n}\n",
    _HEAD + "  output a;\n  cbit k;\n}\n",
    _HEAD + "  output a;\n}\n  if m then X a;\n",
    "protocol p {\n  qubit a: input;\n  cbit m;\n  measure a -> m;\n  if m then\n  if m then X a;\n  output a;\n}\n",
    # A byte-order mark, which parse rejects anywhere (the CLI drops one at
    # the start of a file).
    "\ufeff" + _HEAD + "  output a;\n}\n",
    _HEAD + "\ufeff  measure b -> m;\n  output a;\n}\n",
    # An if split across two lines, in three places.
    _HEAD + "  measure b -> m;\n  if m\n  then X a;\n  output a;\n}\n",
    _HEAD + "  measure b -> m;\n  if m then X\n  a;\n  output a;\n}\n",
    _HEAD + "  measure b\n  -> m;\n  if m then X a;\n  output a;\n}\n",
    # Two declarations on one line, then whole ones.
    "protocol p {\n  qubit a: input;\n  cbit m; cbit k;\n  cbit j;\n  measure a -> m;\n  measure a -> k;\n"
    "  measure a -> j;\n  if m then X a;\n  if k then Z a;\n  if j then Y a;\n  output a;\n}\n",
    # Whole declaration and output lines: no blanks around ":" or before ",",
    # tabs and trailing comments, and CRLF line ends.
    "protocol p {\n  qubit a:input;\n  qubit b:zero;\n  output a ,b ;\n}\n",
    "protocol p {\n\tqubit\ta\t:\tinput\t;\t# in\n\tcbit\tm ;# bit\n  measure a -> m;\n\toutput\ta\t,\ta\t; # twice\n}\n",
    "protocol p {\r\n  qubit a: input;\r\n  cbit m;\r\n  measure a -> m;\r\n  if m then X a;\r\n  output a;\r\n}\r\n",
    # Keywords in name positions of declaration and output lines.
    "protocol p {\n  qubit then: input;\n  output then;\n}\n",
    "protocol p {\n  qubit a: input;\n  cbit if;\n  output a;\n}\n",
    "protocol p {\n  qubit a: input;\n  output a, zero;\n}\n",
    # A duplicate between a whole line and a line of two declarations, both ways.
    "protocol p {\n  qubit a: input;\n  cbit m; qubit a: zero;\n  output a;\n}\n",
    "protocol p {\n  qubit a: input; cbit m;\n  cbit m;\n  output a;\n}\n",
    # A declaration line right after a run of measure and if lines, and an
    # output line right after a gate run and at the end of the source.
    _HEAD + "  measure b -> m;\n  if m then X a;\n  qubit c: zero;  # late\n  output a;\n}\n",
    _HEAD + "  H a;\n  output a, b;\n}\n",
    _HEAD + "  H a;\n  output a, b;",
    # The output line with "}" on it, before any declaration, and after "}".
    _HEAD + "  H a;\n  output a; }\n",
    "protocol p {\n  output a;\n  qubit a: input;\n}\n",
    _HEAD + "  output a;\n}\n  qubit c: zero;\n",
    _HEAD + "  output a;\n}\n  output a;\n",
    # Runs of measure and if lines split by \r, \v and \u2028.
    _HEAD + "  cbit k;\r  measure b -> m;\v  if m then X a;\u2028  measure a -> k;\r\n  if k then Z b;\n  output a;\n}\n",
    # Whole lines that validate must build and check one by one: an undeclared
    # qubit and bit, a bit read before it is written, a bit written twice and,
    # a warning only, a qubit measured again.
    _HEAD + "  measure c -> m;\n  measure b -> k;\n  if k then X a;\n  if m then X c;\n  output a;\n}\n",
    _HEAD + "  if m then X a;\n  measure b -> m;\n  if m then Z a;\n  output a;\n}\n",
    _HEAD + "  measure b -> m;\n  measure a -> m;\n  if m then X a;\n  output a;\n}\n",
    _HEAD + "  cbit k;\n  measure b -> m;\n  H b;\n  measure b -> k;\n  if m then X a;\n  if k then CNOT a, b;\n  output a;\n}\n",
    _HEAD + "  measure b -> m;\n  if m then CNOT a, a;\n  if m then H a, b;\n  if m then CNOT b;\n  output a;\n}\n",
    # A run that validate must build and check gate by gate.
    _HEAD + "  H a;\n  H c;\n  CNOT a, a;\n  X a, b;\n  CNOT a;\n  output a;\n}\n",
]


def _circuit_source(rng: random.Random, name: str, gates: int | None = None) -> str:
    """A random circuit of the given gates, else 100-200, on three wires,
    pretty-printed, like the sources a compiler-rewrite check reads."""
    wires = ["a", "b", "c"]
    body = []
    for _ in range(rng.randint(100, 200) if gates is None else gates):
        gate = rng.choice(("H", "P", "X", "Y", "Z", "CNOT"))
        body.append(f"{gate} {', '.join(rng.sample(wires, 2) if gate == 'CNOT' else [rng.choice(wires)])};")
    decls = " ".join(f"qubit {w}: input;" for w in wires)
    return pretty_print(parse(f"protocol {name} {{ {decls} {' '.join(body)} output a, b, c; }}"))


def test_front_end_matches_reference_parser_on_two_edits():
    rng = random.Random(1414)
    bases = [load(name) for name in CORPUS] + [teleport_source(n) for n in range(1, 4)]
    bases += [random_protocol_source(rng, shuffle=i % 2 == 1) for i in range(40)]
    bases += [_circuit_source(rng, f"circuit_{i}") for i in range(8)]
    corrupted = [_corrupt(rng, bases[i % len(bases)]) for i in range(2000)]
    corrupted = [_corrupt(rng, source) if source else source for source in corrupted]
    errors = 0
    for source in bases + corrupted:
        want = _outcome(reference_parse, source)
        assert _outcome(parse, source) == want, repr(source)
        errors += want[0] == "ParseError"
    assert 1000 < errors < len(corrupted)


def _whole_lines(source: str, words: tuple[str, ...]) -> list[int]:
    """The line numbers of the lines that hold one statement starting with
    one of words, in a source whose lines hold at most one statement or
    several declarations."""
    lines = enumerate(source.splitlines(), start=1)
    return [lineno for lineno, text in lines if text.count(";") == 1 and text.split()[0] in words]


def _body_line_runs(source: str) -> list[list[int]]:
    """The line numbers of each maximal run of whole body lines."""
    runs = groupby(enumerate(_whole_lines(source, (*GATE_NAMES, "measure", "if"))), lambda item: item[1] - item[0])
    return [[n for _, n in run] for _, run in runs]


_DECL_WORDS = ("qubit", "cbit", "output")


class TestGateLineToken:
    """A maximal run of lines each holding one whole gate, measure or if
    statement, starting where a statement may start, is lexed to one token
    carrying its compact entry.  So is each whole declaration or output line
    there, carrying its QubitDecl or CbitDecl, or its output Idents."""

    def test_a_pretty_printed_gate_line_is_one_token(self):
        for ast in (parse(teleport_source(3)), parse(_circuit_source(random.Random(5), "c"))):
            source = pretty_print(ast)
            want = reference_parse(source)
            tokens = _tokenize(source)
            runs = [tok for tok in tokens if len(tok) == 5 and tok[1] not in _DECL_WORDS]
            # The whole body is one run: one token at its first line, one item per line.
            body_lines = _body_line_runs(source)
            assert len(body_lines) == 1 and len(body_lines[0]) == len(want.body) > 0
            assert [(tok[2], len(tok[4][2])) for tok in runs] == [(body_lines[0][0], len(want.body))]
            assert len(_stored_body(parse(source))) == 1
            # Its payload, once built, is the body, spans included.
            assert tuple(_with_spans(node) for node in _nodes(runs[0][4])) == _with_spans(want.body)
            # Each declaration line and the output line is one token, whose
            # payload is its node or the outputs, spans included.
            lines = [tok for tok in tokens if len(tok) == 5 and tok[1] in _DECL_WORDS]
            assert [tok[2] for tok in lines] == _whole_lines(source, _DECL_WORDS)
            assert [_with_spans(tok[4]) for tok in lines] == [*map(_with_spans, want.qubits + want.cbits), _with_spans(want.outputs)]
            # Only the first and the last line, "}", are lexed token by token.
            assert {tok[2] for tok in tokens if len(tok) == 4} == {1, len(source.splitlines())}

    def test_the_token_count_is_one_per_run_plus_the_tokens_outside_runs(self):
        # Counted, not timed: a lexer that expanded runs or whole declaration
        # or output lines again fails here.
        sources = (_circuit_source(random.Random(150), "c", gates=150), teleport_source(3), FIXED_LAYOUTS[-2])
        for source in sources + (pretty_print(parse(teleport_source(3))),):
            runs = _body_line_runs(source)
            lines = _whole_lines(source, _DECL_WORDS)
            outside = [tok for tok in reference_tokenize(source) if tok.span.line not in set().union(lines, *runs)]
            assert len(_tokenize(source)) == len(outside) + len(runs) + len(lines)
            assert runs and lines and len(outside) < len(reference_tokenize(source)) / 4

    def test_a_gate_line_after_then_is_lexed_token_by_token(self):
        tokens = _tokenize("  measure b -> m;\n  if m then\n  X a;\n  H a;\n")
        plain = [("name", "X", 3, 3), ("name", "a", 3, 5), ("punct", ";", 3, 6)]
        assert [tok for tok in tokens if tok[2] == 3] == plain
        # The first line may start a statement, so it is one token, and so is
        # the last, which follows a ";".
        assert tokens[0][:4] == ("name", "measure", 1, 3) and len(tokens[0]) == 5
        assert tokens[-2][:4] == ("name", "H", 4, 3) and len(tokens[-2]) == 5 and tokens[-1][0] == "eof"

    def test_a_run_ends_at_any_other_line(self):
        source = "  H a;\n  measure a -> m;\n\n  if m then X a;\n  cbit k;\n  H a; H b;\n  X a;\n  H b;"
        tokens = [(tok[1], tok[2], tok[3], len(tok)) for tok in _tokenize(source)]
        # A blank line, a declaration and a line of two statements end a run.
        # The declaration line that ends one is a token of its own, carrying its node.
        assert [tok for tok in tokens if tok[3] == 5] == [("H", 1, 3, 5), ("if", 4, 3, 5), ("cbit", 5, 3, 5), ("X", 7, 3, 5)]
        assert [_with_spans(tok[4]) for tok in _tokenize(source) if tok[2] == 5] == [_with_spans(CbitDecl("k", SourceSpan(5, 8, 9)))]
        assert [tok[:3] for tok in tokens if tok[1] == 6] == [("H", 6, 3), ("a", 6, 5), (";", 6, 6), ("H", 6, 8), ("b", 6, 10), (";", 6, 11)]
        assert len(_tokenize(source)[-2][4][2]) == 2 and tokens[-1][0] == ""


_SPAN = SourceSpan(1, 2, 3)
_SPAN_REPR = "SourceSpan(line=1, col_start=2, col_end=3)"
_WHOLE_LINES = "protocol p {\n  qubit a: input;\n  cbit m;\n  measure a -> m;\n  output a;\n}\n"
# Each hot node, its field names, a change for dataclasses.replace, its repr.
_HOT_NODES = [
    (_SPAN, ("line", "col_start", "col_end"), {"col_end": 9}, _SPAN_REPR),
    (Ident("a", _SPAN), ("name", "span"), {"name": "b"}, f"Ident(name='a', span={_SPAN_REPR})"),
    (
        GateStmt("H", (Ident("a", _SPAN),), _SPAN),
        ("gate", "args", "span"),
        {"gate": "X"},
        f"GateStmt(gate='H', args=(Ident(name='a', span={_SPAN_REPR}),), span={_SPAN_REPR})",
    ),
    # Built from compact gate, measure and if lines when the body is read.
    (
        parse("protocol p {\n  qubit a: input;\n  qubit b: input;\n  CNOT a, b;\n  output a, b;\n}\n").body[0],
        ("gate", "args", "span"),
        {"gate": "X"},
        "GateStmt(gate='CNOT', args=(Ident(name='a', span=SourceSpan(line=4, col_start=8, col_end=9)), "
        "Ident(name='b', span=SourceSpan(line=4, col_start=11, col_end=12))), "
        "span=SourceSpan(line=4, col_start=3, col_end=7))",
    ),
    (
        parse(_HEAD + "  measure b -> m;\n  if m then CNOT a, b;\n  output a;\n}\n").body[0],
        ("qubit", "cbit", "span"),
        {"cbit": Ident("k", _SPAN)},
        "MeasureStmt(qubit=Ident(name='b', span=SourceSpan(line=5, col_start=11, col_end=12)), "
        "cbit=Ident(name='m', span=SourceSpan(line=5, col_start=16, col_end=17)), "
        "span=SourceSpan(line=5, col_start=3, col_end=10))",
    ),
    (
        parse(_HEAD + "  measure b -> m;\n  if m then CNOT a, b;\n  output a;\n}\n").body[1],
        ("cbit", "gate", "args", "span"),
        {"gate": "X"},
        "IfGateStmt(cbit=Ident(name='m', span=SourceSpan(line=6, col_start=6, col_end=7)), gate='CNOT', "
        "args=(Ident(name='a', span=SourceSpan(line=6, col_start=18, col_end=19)), "
        "Ident(name='b', span=SourceSpan(line=6, col_start=21, col_end=22))), "
        "span=SourceSpan(line=6, col_start=3, col_end=5))",
    ),
    (QubitDecl("a", "input", _SPAN), ("name", "init", "span"), {"init": "zero"}, f"QubitDecl(name='a', init='input', span={_SPAN_REPR})"),
    (CbitDecl("m", _SPAN), ("name", "span"), {"name": "k"}, f"CbitDecl(name='m', span={_SPAN_REPR})"),
    # Built by the lexer from whole declaration and output lines.
    (
        parse(_WHOLE_LINES).qubits[0],
        ("name", "init", "span"),
        {"name": "b"},
        "QubitDecl(name='a', init='input', span=SourceSpan(line=2, col_start=9, col_end=10))",
    ),
    (parse(_WHOLE_LINES).cbits[0], ("name", "span"), {"name": "k"}, "CbitDecl(name='m', span=SourceSpan(line=3, col_start=8, col_end=9))"),
    (parse(_WHOLE_LINES).outputs[0], ("name", "span"), {"name": "b"}, "Ident(name='a', span=SourceSpan(line=5, col_start=10, col_end=11))"),
]


class TestHotNodes:
    """SourceSpan, Ident, QubitDecl and CbitDecl keep every dataclass
    behaviour under their hand-written __init__, as built by hand and by the
    lexer, and so does each statement node and its Idents as built from a
    compact line."""

    @pytest.mark.parametrize("node, names, change, text", _HOT_NODES)
    def test_dataclass_contract(self, node, names, change, text):
        cls = type(node)
        # Copied before the checks below read the node.
        copies = (pickle.loads(pickle.dumps(node)), deepcopy(node))
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        assert tuple(inspect.signature(cls).parameters) == names
        assert cls(**{name: getattr(node, name) for name in names}) == node
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, getattr(node, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.extra = 1
        changed = dataclasses.replace(node, **change)
        assert changed != node and all(getattr(changed, k) == v for k, v in change.items())
        assert _with_spans(dataclasses.replace(node)) == _with_spans(node)
        assert repr(node) == text
        for copy in copies:
            assert type(copy) is cls and copy == node and hash(copy) == hash(node)
            assert _with_spans(copy) == _with_spans(node)

    def test_equality_and_hash_ignore_spans(self):
        other = SourceSpan(2, 3, 4)
        ident, moved = Ident("a", _SPAN), Ident("a", other)
        assert ident == moved and hash(ident) == hash(moved) and ident != Ident("b", other)
        stmt = GateStmt("CNOT", (ident, Ident("b", other)), SourceSpan(1, 1, 5))
        assert stmt == GateStmt("CNOT", (moved, Ident("b", SourceSpan(7, 7, 8))), other)
        assert hash(stmt) == hash(GateStmt("CNOT", (moved, Ident("b", _SPAN)), other))
        assert stmt != GateStmt("CNOT", (moved, moved), other)
        assert _SPAN != other and hash(SourceSpan(2, 3, 4)) == hash(other)


def test_front_end_matches_reference_parser():
    rng = random.Random(707)
    bases = [load(name) for name in CORPUS] + [teleport_source(n) for n in range(1, 5)]
    bases += [random_protocol_source(rng, shuffle=i % 2 == 1) for i in range(200)]
    bases += [pretty_print(parse(source)) for source in bases]
    corrupted = [_corrupt(rng, bases[i % len(bases)]) for i in range(3000)]
    errors = invalid = 0
    for source in FIXED_LAYOUTS + bases + corrupted:
        want = _outcome(reference_parse, source)
        assert _outcome(parse, source) == want, repr(source)
        errors += want[0] == "ParseError"
        if want[0] != "ParseError":
            # Diagnostics compare their spans, which validate reads only for them.
            # validate reads a compact body as it is stored, and a read one node by node.
            diagnostics = validate(reference_parse(source))
            assert validate(parse(source)) == diagnostics, repr(source)
            read = parse(source)
            read.body
            assert validate(read) == diagnostics, repr(source)
            invalid += bool(errors_of(diagnostics))
    # Both paths are exercised: most corruptions break the syntax, some do not.
    assert 1000 < errors < len(corrupted)
    assert invalid > 50


def test_validate_matches_reference_on_fixed_layouts():
    checked = 0
    for source in FIXED_LAYOUTS:
        try:
            ast = parse(source)
        except ParseError:
            continue
        assert _unread(ast)
        assert_checked_as_reference(ast)
        read = parse(source)
        read.body
        assert_checked_as_reference(read)
        checked += 1
    # The invalid run is among them.
    assert errors_of(validate(parse(FIXED_LAYOUTS[-1]))) and checked > 20


def test_compact_lines_lower_as_their_nodes_on_fixed_layouts():
    # Diagnostics and Program, from the body as parse stored it and as read.
    lowered = diagnosed = 0
    for source in FIXED_LAYOUTS:
        try:
            ast = parse(source)
        except ParseError:
            continue
        read = parse(source)
        read.body
        assert _checked(ast) == _checked(read) and _unread(ast), repr(source)
        lowered += _checked(ast)[1] is not None
        diagnosed += any(d.span.line > 4 for d in validate(ast))
    assert lowered > 15 and diagnosed > 5
    # A warning on a whole line leaves the Program.
    remeasured = parse(next(source for source in FIXED_LAYOUTS if "  H b;\n  measure b -> k;" in source))
    assert _checked(remeasured)[1] is not None and "measured again" in validate(remeasured)[0].message


def test_validate_matches_reference_on_caller_built_asts():
    ast = parse(load("teleport.qpr"))
    psi, a, b = (Ident(q.name, q.span) for q in ast.qubits)
    m0, m1 = (Ident(c.name, c.span) for c in ast.cbits)
    span, c, m2 = SourceSpan(30, 3, 4), Ident("c", SourceSpan(30, 5, 6)), Ident("m2", SourceSpan(31, 9, 11))
    body = ast.body
    cases = [
        # An unknown gate, plain and controlled.
        {"body": body + (GateStmt("T", (b,), span), IfGateStmt(m0, "S", (b,), span))},
        # Wrong arities.
        {"body": body + (GateStmt("H", (a, b), span), GateStmt("CNOT", (a,), span), GateStmt("X", (), span))},
        {"body": body + (IfGateStmt(m1, "CNOT", (b,), span), IfGateStmt(m1, "Z", (a, b), span))},
        # An undeclared qubit and bit.
        {"body": body + (GateStmt("H", (c,), span), MeasureStmt(c, m2, span), IfGateStmt(m2, "X", (c,), span))},
        # A CNOT on one wire.
        {"body": body + (GateStmt("CNOT", (a, a), span), IfGateStmt(m0, "CNOT", (b, b), span))},
        # A bit read before it is written, and one written twice.
        {"body": (IfGateStmt(m0, "X", (b,), span),) + body},
        {"body": body + (MeasureStmt(b, m0, span), MeasureStmt(a, m1, span))},
        # Duplicate, keyword and non-name declarations, and a bad initializer.
        {"qubits": ast.qubits + (QubitDecl("a", "zero", span),), "cbits": ast.cbits + (CbitDecl("psi", span),)},
        {"qubits": ast.qubits + (QubitDecl("then", "zero", span), QubitDecl("2b", "zero", span))},
        {"qubits": (ast.qubits[0], QubitDecl("a", "plus", span), ast.qubits[2])},
        # Undeclared and repeated outputs, and none.
        {"outputs": (b, c, b, c)},
        {"outputs": ()},
        # No inputs.
        {"qubits": tuple(dataclasses.replace(q, init="zero") for q in ast.qubits)},
    ]
    for change in cases:
        assert errors_of(assert_checked_as_reference(dataclasses.replace(ast, **change))), change
    # A compact body whose gate runs name an undeclared qubit.
    compact = parse(load("teleport.qpr"))
    built = ProtocolAST(compact.name, compact.qubits[:2], compact.cbits, _stored_body(compact), compact.outputs, compact.span)
    assert _unread(built)
    assert errors_of(assert_checked_as_reference(built))


def _unread(ast: ProtocolAST) -> bool:
    return type(_stored_body(ast)) is _CompactBody


class TestLazyBody:
    """A parsed body keeps its gate lines compact until ast.body is read;
    an AST whose body was never read behaves as one whose body was."""

    SOURCES = [load(name) for name in CORPUS] + [teleport_source(3), _circuit_source(random.Random(9), "c")]

    @pytest.mark.parametrize("source", SOURCES)
    def test_equal_and_hash_as_the_reference_parse(self, source):
        want = reference_parse(source)
        ast = parse(source)
        assert _unread(ast) and ast == want and not _unread(ast)
        ast = parse(source)
        assert hash(ast) == hash(want) and not _unread(ast)
        assert _with_spans(ast) == _with_spans(want)

    @pytest.mark.parametrize("source", SOURCES)
    def test_copies_replace_and_repr_match_the_read_ast(self, source):
        ast, read = parse(source), parse(source)
        read.body
        copies = [pickle.loads(pickle.dumps(ast, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies.append(deepcopy(ast))
        assert _unread(ast) and all(map(_unread, copies))
        for copy in copies:
            assert type(copy) is ProtocolAST and copy == read and hash(copy) == hash(read)
            assert _with_spans(copy) == _with_spans(read)
        replaced = dataclasses.replace(parse(source))
        assert _with_spans(replaced) == _with_spans(read)
        assert repr(parse(source)) == repr(read)

    def test_a_given_body_comes_back_as_given(self):
        ast = parse(load("teleport.qpr"))
        for body in (tuple(ast.body), list(ast.body), (), []):
            given = ProtocolAST(ast.name, ast.qubits, ast.cbits, body, ast.outputs, ast.span)
            assert given.body is body
            assert dataclasses.replace(ast, body=body).body is body
            with pytest.raises(dataclasses.FrozenInstanceError):
                given.body = ast.body
            assert given.body is body

    def test_lowering_a_compact_body_matches_lowering_the_read_one(self):
        rng = random.Random(31)
        sources = self.SOURCES + [random_protocol_source(rng, shuffle=i % 2 == 1) for i in range(100)]
        for source in sources:
            ast, read = parse(source), parse(source)
            read.body
            assert lower(ast) == lower(read) and _unread(ast), source


def test_a_check_builds_no_gate_node(monkeypatch, tmp_path, capsys):
    """Parse, check and lower read each whole gate, measure and if line in
    its compact form: none of them builds a GateStmt, MeasureStmt or IfGateStmt."""
    built = []
    for cls in (GateStmt, MeasureStmt, IfGateStmt):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__, **kwargs: built.append(type(self)) or init(self, *args, **kwargs))
    rng = random.Random(19)
    a, b = _circuit_source(rng, "a"), _circuit_source(rng, "b")
    t, t_no_x = (pretty_print(parse(teleport_source(2, drop))) for drop in (None, "X1"))
    built.clear()
    for lhs, rhs in ((a, a), (a, b), (t, t), (t, t_no_x), (t, None)):
        asts = parse(lhs), parse(rhs) if rhs else builtin_identity(2)
        check_equivalence(*asts)
        lower(asts[0])
        assert all(map(_unread, asts[: 1 + bool(rhs)]))
    paths = [tmp_path / f"{name}.qpr" for name in ("a", "b", "t", "t_no_x")]
    for path, source in zip(paths, (a, b, t, t_no_x)):
        path.write_text(source, encoding="utf-8")
    assert cli.main(["check", "--json", *map(str, paths[:2])]) == 1
    assert cli.main(["check", "--json", *map(str, paths[2:])]) == 1
    assert cli.main(["check", "--json", str(paths[2]), "--identity", "2"]) == 0
    capsys.readouterr()
    assert built == []
    # The counter sees a read body build its nodes.
    assert len(parse(a).body) == len(built) > 100
    built.clear()
    body = parse(t).body
    assert built == list(map(type, body)) and set(built) == {GateStmt, MeasureStmt, IfGateStmt}


def test_a_parse_builds_an_ident_per_name_outside_gate_lines(monkeypatch):
    """Whole body and declaration lines build no Ident: only a name lexed
    token by token, or an output, builds one.  The lexer builds a whole
    output line's Idents, so before the parser builds any other."""
    built = []
    init = Ident.__init__
    monkeypatch.setattr(Ident, "__init__", lambda self, *args, **kwargs: init(self, *args, **kwargs) or built.append(self.name))
    parse(load("teleport.qpr"))
    assert built == ["b"]
    sources = [teleport_source(3), pretty_print(parse(teleport_source(3))), _circuit_source(random.Random(23), "c")]
    for source in sources:
        built.clear()
        ast = parse(source)
        assert built == [o.name for o in ast.outputs]
    # A line of several statements is lexed token by token; its output line is whole.
    names = ["a"] + [name for stmt in reference_parse(FIXED_LAYOUTS[0]).body for name in _names(stmt)]
    built.clear()
    parse(FIXED_LAYOUTS[0])
    assert built == names and len(names) == 8
    # The counter sees a read body build the Idents of its lines.
    for source in sources[1:]:
        ast = parse(source)
        built.clear()
        body = ast.body
        assert sorted(built) == sorted(name for stmt in body for name in _names(stmt))
    assert len(built) > 100


def _names(stmt):
    if isinstance(stmt, MeasureStmt):
        return [stmt.qubit.name, stmt.cbit.name]
    cbit = [stmt.cbit.name] if isinstance(stmt, IfGateStmt) else []
    return cbit + [arg.name for arg in stmt.args]
