"""Parser, validator and lowering for the .qpr protocol format.

A protocol declares qubits (input wires or |0> ancillas) and classical bits,
then runs Clifford gates, Z measurements into classical bits, and classically
controlled single corrections, and finally names its output wires:

    protocol teleport {
      qubit psi: input;
      qubit a: zero;
      qubit b: zero;
      cbit m0;
      cbit m1;
      H a;
      CNOT a, b;
      CNOT psi, a;
      H psi;
      measure psi -> m0;
      measure a -> m1;
      if m1 then X b;
      if m0 then Z b;
      output b;
    }

'#' starts a line comment.  Only H, P, X, Y, Z and CNOT are accepted, which
keeps every expressible protocol inside the efficiently checkable fragment.

Each line is lexed by one regex, except where a statement may start.  There a
run of whole body lines (each one gate, measure or if statement) is matched a
line at a time by a second regex, to one token, and a whole declaration or
output line by a third, to one token carrying its QubitDecl or CbitDecl, or
its output Idents.  The run stays one compact entry in the parsed body until
ProtocolAST.body is first read, which builds its nodes.
_checked, the one pass behind validate and lower, lowers a compact entry from
its names and builds a line's node only when that line has a diagnostic, so a
parse-check-lower path builds no statement node for it.  That pass runs once
per AST: the AST is frozen, so _checked keeps its diagnostics and Program in
the AST's __dict__, as the body property keeps the built body there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .tableau import GATE_NAMES

KEYWORDS = frozenset({"protocol", "qubit", "cbit", "input", "zero", "measure", "if", "then", "output"})

# Whitespace matches nothing, so finditer steps over it without a match;
# comments match unnamed and are skipped.  Any other character no part
# accepts is "bad".
_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(r"#.*|(?P<arrow>->)|(?P<punct>[{}:;,])|(?P<name>" + _NAME + r")|(?P<bad>[^ \t\r])")
# A whole body line holds one gate, measure or if statement, with no keyword in
# a name position, blanks and a comment.  Its groups are its item (cbit, gate,
# first, second, qubit, into): an if line is a gate line after "if cbit then",
# and a measure line fills only qubit and into.
_ARG = rf"(?!(?:{'|'.join(sorted(KEYWORDS))})(?![A-Za-z0-9_])){_NAME}"
# (X|) in place of (X)? matches the same and runs faster in the re module.
_BODY_LINE_RE = re.compile(
    rf"[ \t]*(?:(?:if[ \t]+({_ARG})[ \t]+then[ \t]+|)({'|'.join(GATE_NAMES)})[ \t]+({_ARG})[ \t]*(?:,[ \t]*({_ARG})[ \t]*|)"
    rf"|measure[ \t]+({_ARG})[ \t]*->[ \t]*({_ARG})[ \t]*);[ \t]*(?:#.*|)"
)
# A whole declaration or output line, with the same blanks and comment.  Its
# groups are a qubit's name and initializer, a cbit's name, or the output names.
_DECL_LINE_RE = re.compile(
    rf"[ \t]*(?:qubit[ \t]+({_ARG})[ \t]*:[ \t]*(input|zero)|cbit[ \t]+({_ARG})"
    rf"|output[ \t]+({_ARG}(?:[ \t]*,[ \t]*{_ARG})*))[ \t]*;[ \t]*(?:#.*|)"
)
_NAME_RE = re.compile(_NAME)


# A SourceSpan is built for each name lexed token by token, so its
# __init__ fills __dict__ directly, not by the frozen one's
# object.__setattr__ per field.
@dataclass(frozen=True, init=False)
class SourceSpan:
    line: int
    col_start: int
    col_end: int

    def __init__(self, line: int, col_start: int, col_end: int) -> None:
        d = self.__dict__
        d["line"], d["col_start"], d["col_end"] = line, col_start, col_end

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col_start}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan

    def render(self, filename: str | None = None) -> str:
        prefix = f"{filename}:" if filename else ""
        return f"{prefix}{self.span.line}:{self.span.col_start}: {self.severity}: {self.message}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.diagnostic = Diagnostic("error", message, span)


# The lexer builds one of these per whole declaration line and per output
# name, so each fills __dict__ directly, as SourceSpan does.
@dataclass(frozen=True, init=False)
class Ident:
    name: str
    span: SourceSpan = field(compare=False)

    def __init__(self, name: str, span: SourceSpan) -> None:
        d = self.__dict__
        d["name"], d["span"] = name, span


@dataclass(frozen=True, init=False)
class QubitDecl:
    name: str
    init: str  # "input" | "zero"
    span: SourceSpan = field(compare=False)

    def __init__(self, name: str, init: str, span: SourceSpan) -> None:
        d = self.__dict__
        d["name"], d["init"], d["span"] = name, init, span


@dataclass(frozen=True, init=False)
class CbitDecl:
    name: str
    span: SourceSpan = field(compare=False)

    def __init__(self, name: str, span: SourceSpan) -> None:
        d = self.__dict__
        d["name"], d["span"] = name, span


@dataclass(frozen=True)
class GateStmt:
    gate: str
    args: tuple[Ident, ...]
    span: SourceSpan = field(compare=False)


@dataclass(frozen=True)
class MeasureStmt:
    qubit: Ident
    cbit: Ident
    span: SourceSpan = field(compare=False)


@dataclass(frozen=True)
class IfGateStmt:
    cbit: Ident
    gate: str
    args: tuple[Ident, ...]
    span: SourceSpan = field(compare=False)


Statement = GateStmt | MeasureStmt | IfGateStmt


class _CompactBody(tuple):
    """A parsed body: each run of whole body lines is still one compact entry
    (line, texts, items): its first line number, its line texts and each
    line's _BODY_LINE_RE item; every other statement is its node."""


def _node(lineno: int, text: str) -> Statement:
    """A whole body line's node, with the spans parse gives it, found again
    by matching the line."""
    match = _BODY_LINE_RE.fullmatch(text)
    regs = match.regs  # (-1, -1) for a group that took no part
    col = len(text) - len(text.lstrip(" \t")) + 1  # of the line's first word

    def ident(group: int) -> Ident:
        return Ident(match[group], SourceSpan(lineno, regs[group][0] + 1, regs[group][1] + 1))

    if match[2] is None:
        return MeasureStmt(ident(5), ident(6), SourceSpan(lineno, col, col + len("measure")))
    args = tuple(ident(g) for g in (3, 4) if regs[g][0] >= 0)
    if match[1] is not None:
        return IfGateStmt(ident(1), match[2], args, SourceSpan(lineno, col, col + len("if")))
    return GateStmt(match[2], args, SourceSpan(lineno, col, col + len(match[2])))


def _nodes(run: tuple) -> list[Statement]:
    """A compact run's statements."""
    line, texts, _ = run
    return [_node(lineno, text) for lineno, text in enumerate(texts, line)]


class _LazyBody:
    """The body property of ProtocolAST: a compact body becomes its tuple of
    statements when first read.  A body of any other type is returned as it
    is, so a caller gets back what it passed."""

    @property
    def body(self) -> tuple[Statement, ...]:
        d = self.__dict__
        body = d["body"]
        if type(body) is _CompactBody:
            body = d["body"] = tuple(node for s in body for node in (_nodes(s) if type(s) is tuple else (s,)))
        return body

    @body.setter
    def body(self, body: tuple[Statement, ...]) -> None:
        # Reached only by the frozen dataclass's __init__, through object.__setattr__.
        self.__dict__["body"] = body


@dataclass(frozen=True)
class ProtocolAST(_LazyBody):
    name: str
    qubits: tuple[QubitDecl, ...]
    cbits: tuple[CbitDecl, ...]
    body: tuple[Statement, ...] = field()  # so _LazyBody's property is not its default
    outputs: tuple[Ident, ...]
    span: SourceSpan = field(compare=False)

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(q.name for q in self.qubits if q.init == "input")

    @property
    def n_in(self) -> int:
        return len(self.input_names)

    @property
    def n_out(self) -> int:
        return len(self.outputs)


# A token is a plain (kind, text, line, col) tuple; kind is "name", "punct",
# "arrow" or, for the last token only, "eof".  A run of whole body lines
# becomes one 5-tuple: its first word's token plus the run's compact entry.
# So does a whole declaration or output line, carrying its QubitDecl or
# CbitDecl, or its tuple of output Idents; its word, "qubit", "cbit" or
# "output", tells it from a run.
_Token = tuple[str, str, int, int] | tuple[str, str, int, int, tuple]


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    append = tokens.append
    # splitlines also breaks at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029.
    lines = source.splitlines() or [""]
    body_line = _BODY_LINE_RE.fullmatch
    decl_line = _DECL_LINE_RE.fullmatch
    numbered = enumerate(lines, start=1)
    for lineno, line in numbered:
        # Only where a statement may start, so the parser never meets a line
        # token where it takes a plain name; elsewhere it raises its first
        # word's own error.
        if not tokens or tokens[-1][1] in (";", "{") or len(tokens[-1]) == 5:
            decl = decl_line(line)
            whole = not decl and body_line(line)
            if whole:
                cbit, gate = whole.group(1, 2)
                start, col, items = lineno, len(line) - len(line.lstrip(" \t")) + 1, [whole.groups()]
                # The run takes the body lines after it; the line that ends it
                # may be a declaration or output line, else it is lexed below.
                for lineno, line in numbered:
                    whole = body_line(line)
                    if not whole:
                        break
                    items.append(whole.groups())
                word = "measure" if gate is None else "if" if cbit else gate
                append(("name", word, start, col, (start, lines[start - 1 : start - 1 + len(items)], items)))
                if whole:  # the run ends the source
                    break
                decl = decl_line(line)
            if decl:
                qubit, init, cbit, names = decl.groups()
                col = len(line) - len(line.lstrip(" \t")) + 1
                if names is not None:
                    outputs = _NAME_RE.finditer(line, *decl.regs[4])
                    outputs = tuple([Ident(m[0], SourceSpan(lineno, m.start() + 1, m.end() + 1)) for m in outputs])
                    append(("name", "output", lineno, col, outputs))
                elif qubit is not None:
                    span = SourceSpan(lineno, decl.regs[1][0] + 1, decl.regs[1][1] + 1)
                    append(("name", "qubit", lineno, col, QubitDecl(qubit, init, span)))
                else:
                    span = SourceSpan(lineno, decl.regs[3][0] + 1, decl.regs[3][1] + 1)
                    append(("name", "cbit", lineno, col, CbitDecl(cbit, span)))
                continue
        for match in _TOKEN_RE.finditer(line):
            kind = match.lastgroup
            if kind is None:
                continue
            col = match.start() + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {match.group()!r}", SourceSpan(lineno, col, col + 1))
            append((kind, match.group(), lineno, col))
    append(("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens


def _span(tok: _Token) -> SourceSpan:
    # The eof token has no text but a one-column span.
    return SourceSpan(tok[2], tok[3], tok[3] + (len(tok[1]) or 1))


def _expect(tok: _Token, kind: str, text: str | None = None, what: str | None = None) -> None:
    """Raise unless tok is of kind (and is text, if given); what names it in the error."""
    if tok[0] != kind or (text is not None and tok[1] != text):
        raise ParseError(f"expected {what or repr(text)}, found {tok[1] or 'end of input'!r}", _span(tok))


def _name(tok: _Token, what: str) -> str:
    """A fresh name's text: any name but a keyword; what names it in the error."""
    if tok[0] != "name" or tok[1] in KEYWORDS:
        _expect(tok, "name", what=what)
        raise ParseError(f"{tok[1]!r} is a reserved word", _span(tok))
    return tok[1]


def _ident(tok: _Token, what: str) -> Ident:
    return Ident(_name(tok, what), _span(tok))


def parse(source: str) -> ProtocolAST:
    """Parse a protocol; raises ParseError with a source span on failure.

    One index walks the tokens.  A token is stepped past only once its kind
    is known, and the eof token never is, so tokens[i + 1] exists whenever
    it is read.
    """
    tokens = _tokenize(source)
    _expect(tokens[0], "name", "protocol")
    name_tok = tokens[1]
    _expect(name_tok, "name", what="a protocol name")
    _expect(tokens[2], "punct", "{")
    i = 3

    declared: set[str] = set()
    qubits: list[QubitDecl] = []
    cbits: list[CbitDecl] = []
    while tokens[i][1] in ("qubit", "cbit"):
        if len(tokens[i]) == 5:  # a whole declaration line, its node built by _tokenize
            node = tokens[i][4]
            if node.name in declared:
                raise ParseError(f"duplicate declaration of {node.name!r}", node.span)
            declared.add(node.name)
            (qubits if tokens[i][1] == "qubit" else cbits).append(node)
            i += 1
            continue
        decl = tokens[i + 1]
        name = _name(decl, "a declaration name")
        if name in declared:
            raise ParseError(f"duplicate declaration of {name!r}", _span(decl))
        declared.add(name)
        if tokens[i][1] == "qubit":
            _expect(tokens[i + 2], "punct", ":")
            init = tokens[i + 3]
            _expect(init, "name", what="'input' or 'zero'")
            if init[1] not in ("input", "zero"):
                raise ParseError("qubit initializer must be 'input' or 'zero'", _span(init))
            qubits.append(QubitDecl(name, init[1], _span(decl)))
            i += 2
        else:
            cbits.append(CbitDecl(name, _span(decl)))
        _expect(tokens[i + 2], "punct", ";")
        i += 3

    body: list[Statement | tuple] = []
    while True:
        tok = tokens[i]
        text = tok[1]
        if len(tok) == 5 and text not in ("qubit", "cbit", "output"):  # a run of whole body lines
            body.append(tok[4])
            i += 1
            continue
        if text in GATE_NAMES:
            cbit = None
            i += 1
        elif text == "if":
            cbit = _ident(tokens[i + 1], "a classical bit name")
            _expect(tokens[i + 2], "name", "then")
            gate_tok = tokens[i + 3]
            _expect(gate_tok, "name", what="a gate name")
            if gate_tok[1] not in GATE_NAMES:
                raise ParseError(
                    f"{gate_tok[1]!r} is not a Clifford gate (allowed: {', '.join(GATE_NAMES)})",
                    _span(gate_tok),
                )
            i += 4
        elif text == "measure":
            qubit = _ident(tokens[i + 1], "a qubit name")
            if tokens[i + 2][0] != "arrow":
                raise ParseError("expected '->' in measure statement", _span(tokens[i + 2]))
            cbit = _ident(tokens[i + 3], "a classical bit name")
            _expect(tokens[i + 4], "punct", ";")
            body.append(MeasureStmt(qubit, cbit, _span(tok)))
            i += 5
            continue
        elif text == "output":
            break
        elif tok[0] != "name":
            raise ParseError(f"expected a statement or 'output', found {text or 'end of input'!r}", _span(tok))
        elif text in KEYWORDS:
            raise ParseError(f"{text!r} not allowed here", _span(tok))
        else:
            raise ParseError(f"{text!r} is not a Clifford gate (allowed: {', '.join(GATE_NAMES)})", _span(tok))
        # A gate's one or two qubit arguments, then ";".
        args = (_ident(tokens[i], "a qubit name"),)
        if tokens[i + 1][1] == ",":
            args += (_ident(tokens[i + 2], "a qubit name"),)
            i += 2
        _expect(tokens[i + 1], "punct", ";")
        i += 2
        if cbit is None:
            body.append(GateStmt(text, args, _span(tok)))
        else:
            body.append(IfGateStmt(cbit, gate_tok[1], args, _span(tok)))

    if len(tok) == 5:  # a whole output line, its Idents built by _tokenize
        outputs = tok[4]
    else:
        outputs = [_ident(tokens[i + 1], "an output qubit name")]
        i += 2
        while tokens[i][1] == ",":
            outputs.append(_ident(tokens[i + 1], "an output qubit name"))
            i += 2
        _expect(tokens[i], "punct", ";")
    _expect(tokens[i + 1], "punct", "}")
    trailing = tokens[i + 2]
    if trailing[0] != "eof":
        raise ParseError(f"unexpected {trailing[1]!r} after protocol body", _span(trailing))
    return ProtocolAST(
        name=name_tok[1],
        qubits=tuple(qubits),
        cbits=tuple(cbits),
        body=_CompactBody(body),
        outputs=tuple(outputs),
        span=_span(name_tok),
    )


def _stored_body(ast: ProtocolAST) -> tuple[Statement | tuple, ...]:
    """The body as stored, without building it: a parsed body's runs of
    whole body lines are still the compact entries that _CompactBody describes."""
    return ast.__dict__["body"]


@dataclass(frozen=True)
class Program:
    """A validated protocol lowered to integer wire and classical-bit indices.

    ops holds ("u", gates), ("if", bit, gate, wires) and ("m", wire, bit).
    gates is one maximal run of plain gates, each (gate, *wires).  A
    branch's probability is an integer weight over denominator, 2 to the
    number of measurements.
    """

    n_wires: int
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    cbits: tuple[str, ...]
    ops: tuple[tuple, ...]
    denominator: int


def _checked(ast: ProtocolAST) -> tuple[list[Diagnostic], Program | None]:
    """validate's diagnostics, and the lowered Program when none is an error.

    The AST is frozen, so its pass runs once and is kept in its __dict__;
    each call returns a fresh diagnostics list, which the caller may edit.
    """
    memo = ast.__dict__.get("_checked")
    if memo is None:
        memo = ast.__dict__["_checked"] = _pass(ast)
    return list(memo[0]), memo[1]


def _pass(ast: ProtocolAST) -> tuple[tuple[Diagnostic, ...], Program | None]:
    """One forward pass checks each statement and lowers it, with one wire and
    one bit table; a name missing from them lowers to None, which an error
    discards with the rest.  A compact run lowers each clean line from its
    names; a line with a diagnostic builds its node, whose diagnostics are its own.
    """
    diags: list[Diagnostic] = []
    wire = {q.name: i for i, q in enumerate(ast.qubits)}
    bit = {c.name: i for i, c in enumerate(ast.cbits)}

    def error(message: str, span: SourceSpan) -> None:
        diags.append(Diagnostic("error", message, span))

    def warning(message: str, span: SourceSpan) -> None:
        diags.append(Diagnostic("warning", message, span))

    if ast.n_in == 0:
        error("protocol declares no input qubits", ast.span)
    if not ast.outputs:
        error("empty output set", ast.span)

    # parse rejects these, but a caller may build the declarations.
    declared: set[str] = set()
    for decl in (*ast.qubits, *ast.cbits):
        if decl.name in declared:
            error(f"duplicate declaration of {decl.name!r}", decl.span)
        declared.add(decl.name)
        if decl.name in KEYWORDS:
            error(f"{decl.name!r} is a reserved word", decl.span)
        elif not (decl.name.isascii() and decl.name.isidentifier()):
            error(f"{decl.name!r} is not a name", decl.span)
        if isinstance(decl, QubitDecl) and decl.init not in ("input", "zero"):
            error("qubit initializer must be 'input' or 'zero'", decl.span)

    def check_gate_args(stmt: GateStmt | IfGateStmt) -> None:
        gate, args = stmt.gate, stmt.args
        if gate not in GATE_NAMES:
            error(f"{gate!r} is not a Clifford gate", stmt.span)
            return
        expected = 2 if gate == "CNOT" else 1
        if len(args) != expected:
            error(f"{gate} takes {expected} qubit argument(s), got {len(args)}", stmt.span)
        for arg in args:
            if arg.name not in wire:
                error(f"{arg.name!r} is not a declared qubit", arg.span)
        if gate == "CNOT" and len(args) == 2 and args[0].name == args[1].name:
            error("CNOT control and target must differ", stmt.span)

    ops: list[tuple] = []
    run = None  # the gates of the open ("u", gates) op
    written: set[str] = set()
    measured: set[str] = set()
    read: set[str] = set()

    def statement(stmt: Statement) -> None:
        nonlocal run
        if isinstance(stmt, GateStmt):
            check_gate_args(stmt)
            if run is None:
                run = []
                ops.append(("u", run))
            run.append((stmt.gate, *(wire.get(arg.name) for arg in stmt.args)))
            return
        run = None
        if isinstance(stmt, MeasureStmt):
            if stmt.qubit.name not in wire:
                error(f"{stmt.qubit.name!r} is not a declared qubit", stmt.qubit.span)
            elif stmt.qubit.name in measured:
                warning(f"qubit {stmt.qubit.name!r} is measured again", stmt.qubit.span)
            if stmt.cbit.name not in bit:
                error(f"{stmt.cbit.name!r} is not a declared classical bit", stmt.cbit.span)
            elif stmt.cbit.name in written:
                error(f"classical bit {stmt.cbit.name!r} is written more than once", stmt.cbit.span)
            else:
                written.add(stmt.cbit.name)
            if stmt.qubit.name in wire:
                measured.add(stmt.qubit.name)
            ops.append(("m", wire.get(stmt.qubit.name), bit.get(stmt.cbit.name)))
        else:
            if stmt.cbit.name not in bit:
                error(f"{stmt.cbit.name!r} is not a declared classical bit", stmt.cbit.span)
            elif stmt.cbit.name not in written:
                error(f"classical bit {stmt.cbit.name!r} is read before it is written", stmt.cbit.span)
            read.add(stmt.cbit.name)
            check_gate_args(stmt)
            ops.append(("if", bit.get(stmt.cbit.name), stmt.gate, tuple(wire.get(arg.name) for arg in stmt.args)))

    for stmt in _stored_body(ast):
        if type(stmt) is not tuple:
            statement(stmt)
            continue
        line, texts, items = stmt
        for k, (cbit, gate, first, second, qubit, into) in enumerate(items):
            if gate is None:  # measure qubit -> into
                if qubit in wire and into in bit and qubit not in measured and into not in written:
                    measured.add(qubit)
                    written.add(into)
                    run = None
                    ops.append(("m", wire[qubit], bit[into]))
                    continue
            elif first in wire and (gate != "CNOT" if second is None else gate == "CNOT" and second in wire and second != first):
                if cbit is None:
                    if run is None:
                        run = []
                        ops.append(("u", run))
                    run.append((gate, wire[first]) if second is None else (gate, wire[first], wire[second]))
                    continue
                if cbit in written:
                    read.add(cbit)
                    run = None
                    ops.append(("if", bit[cbit], gate, (wire[first],) if second is None else (wire[first], wire[second])))
                    continue
            statement(_node(line + k, texts[k]))

    for cb in ast.cbits:
        if cb.name not in written:
            error(f"classical bit {cb.name!r} is never written by a measurement", cb.span)
        elif cb.name not in read:
            warning(f"classical bit {cb.name!r} is never read", cb.span)

    seen_out: set[str] = set()
    for out in ast.outputs:
        if out.name not in wire:
            error(f"output qubit {out.name!r} was never declared", out.span)
        if out.name in seen_out:
            error(f"output qubit {out.name!r} listed twice", out.span)
        seen_out.add(out.name)

    if any(d.severity == "error" for d in diags):
        return tuple(diags), None
    return tuple(diags), Program(
        n_wires=len(wire),
        inputs=tuple(wire[name] for name in ast.input_names),
        outputs=tuple(wire[out.name] for out in ast.outputs),
        cbits=tuple(bit),
        ops=tuple(("u", tuple(op[1])) if op[0] == "u" else op for op in ops),
        denominator=1 << sum(op[0] == "m" for op in ops),
    )


def validate(ast: ProtocolAST) -> list[Diagnostic]:
    """Collect every rule violation; an empty error list means runnable.

    Errors guarantee the equivalence engine cannot hit a gate, arity or
    classical-bit failure at run time.  Warnings flag legal but suspicious
    constructs (re-measuring a qubit, a classical bit nobody reads).
    """
    return _checked(ast)[0]


def lower(ast: ProtocolAST) -> Program:
    """Validate and lower in one pass; raises ValueError listing every error."""
    diags, program = _checked(ast)
    if program is None:
        listing = "; ".join(d.message for d in errors_of(diags))
        raise ValueError(f"protocol {ast.name!r} failed validation: {listing}")
    return program


def errors_of(diags: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diags if d.severity == "error"]


def pretty_print(ast: ProtocolAST) -> str:
    """Canonical source text; parsing it reproduces the same AST."""
    lines = [f"protocol {ast.name} {{"]
    for q in ast.qubits:
        lines.append(f"  qubit {q.name}: {q.init};")
    for c in ast.cbits:
        lines.append(f"  cbit {c.name};")
    for stmt in ast.body:
        if isinstance(stmt, GateStmt):
            lines.append(f"  {stmt.gate} {', '.join(a.name for a in stmt.args)};")
        elif isinstance(stmt, MeasureStmt):
            lines.append(f"  measure {stmt.qubit.name} -> {stmt.cbit.name};")
        else:
            lines.append(f"  if {stmt.cbit.name} then {stmt.gate} {', '.join(a.name for a in stmt.args)};")
    lines.append(f"  output {', '.join(o.name for o in ast.outputs)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# The AST is frozen, so one per n is shared; a process checks few arities.
@lru_cache(maxsize=16)
def builtin_identity(n: int) -> ProtocolAST:
    """The n-wire protocol that does nothing: every input is an output."""
    if n < 1:
        raise ValueError("identity needs at least one qubit")
    names = [f"q{i}" for i in range(n)]
    decls = "\n".join(f"  qubit {name}: input;" for name in names)
    source = f"protocol identity_{n} {{\n{decls}\n  output {', '.join(names)};\n}}\n"
    return parse(source)
