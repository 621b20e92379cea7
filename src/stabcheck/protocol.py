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
line at a time by a second regex, to one token, and so is a run of whole
qubit and cbit lines by a third; a whole output line is one token carrying
its output Idents.  A run stays one compact entry in the parsed AST until
ProtocolAST.body, .qubits or .cbits is first read, which builds its nodes;
so does a declaration lexed token by token, kept as its name token and init.
parse checks a declaration run for duplicates by its names alone.
_checked, the one pass behind validate and lower, lowers a compact entry from
its names and builds a line's node only when that line has a diagnostic, so a
parse-check-lower path builds no statement or declaration node for it.  That
pass runs once per AST: the AST is frozen, so _checked keeps its diagnostics
and Program in the AST's __dict__, as the lazy fields keep their nodes there.
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


# The lexer builds one of these per output name, so it fills __dict__
# directly, as SourceSpan does.
@dataclass(frozen=True, init=False)
class Ident:
    name: str
    span: SourceSpan = field(compare=False)

    def __init__(self, name: str, span: SourceSpan) -> None:
        d = self.__dict__
        d["name"], d["span"] = name, span


@dataclass(frozen=True)
class QubitDecl:
    name: str
    init: str  # "input" | "zero"
    span: SourceSpan = field(compare=False)


@dataclass(frozen=True)
class CbitDecl:
    name: str
    span: SourceSpan = field(compare=False)


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


class _Compact(tuple):
    """A ProtocolAST field as parse stores it, until it is first read."""


class _CompactBody(_Compact):
    """A parsed body: each run of whole body lines is still one compact entry
    (line, texts, items): its first line number, its line texts and each
    line's _BODY_LINE_RE item; every other statement is its node."""

    def built(self, field: str) -> tuple[Statement, ...]:
        return tuple(node for s in self for node in (_nodes(s) if type(s) is tuple else (s,)))


class _CompactDecls(_Compact):
    """Parsed declarations, one value for both fields, qubits and cbits, in
    source order: each run of whole qubit and cbit lines is one compact entry
    (line, texts, items), each item the line's _DECL_LINE_RE groups (qubit,
    init, cbit, None); a declaration lexed token by token is (its name
    token, its init, or None for a cbit)."""

    def built(self, field: str) -> tuple[QubitDecl, ...] | tuple[CbitDecl, ...]:
        qubit = field == "qubits"
        nodes = []
        for entry in self:
            if len(entry) == 2:
                tok, init = entry
                if (init is not None) is qubit:
                    nodes.append(QubitDecl(tok[1], init, _span(tok)) if qubit else CbitDecl(tok[1], _span(tok)))
            else:
                line, texts, items = entry
                nodes += [_decl(line + k, texts[k]) for k, item in enumerate(items) if (item[1] is not None) is qubit]
        return tuple(nodes)


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


def _decl(lineno: int, text: str) -> QubitDecl | CbitDecl:
    """A whole qubit or cbit line's node, with the span parse gives it, found
    again by matching the line."""
    match = _DECL_LINE_RE.fullmatch(text)
    if match[1] is None:
        return CbitDecl(match[3], SourceSpan(lineno, match.start(3) + 1, match.end(3) + 1))
    return QubitDecl(match[1], match[2], SourceSpan(lineno, match.start(1) + 1, match.end(1) + 1))


def _declared(ast: ProtocolAST, field: str) -> list[tuple[str, str | None]]:
    """The (name, init) of each of the AST's qubits or cbits (field), init
    None for a cbit, read from compact entries without building a node."""
    stored = ast.__dict__[field]
    qubit = field == "qubits"
    if type(stored) is not _CompactDecls:
        return [(decl.name, decl.init if qubit else None) for decl in stored]
    pairs = []
    for entry in stored:
        if len(entry) == 2:
            if (entry[1] is not None) is qubit:
                pairs.append((entry[0][1], entry[1]))
        else:
            pairs += [(q or c, init) for q, init, c, _ in entry[2] if (init is not None) is qubit]
    return pairs


def _lazy(field: str) -> property:
    """A field of ProtocolAST that parse stores compact: read, it becomes its
    tuple of nodes, kept in the AST's __dict__.  A value of any other type is
    returned as it is, so a caller gets back what it passed."""

    def read(self) -> tuple:
        d = self.__dict__
        value = d[field]
        if isinstance(value, _Compact):
            value = d[field] = value.built(field)
        return value

    def write(self, value: tuple) -> None:
        # Reached only by the frozen dataclass's __init__, through object.__setattr__.
        self.__dict__[field] = value

    return property(read, write)


class _LazyFields:
    qubits, cbits, body = map(_lazy, ("qubits", "cbits", "body"))


@dataclass(frozen=True)
class ProtocolAST(_LazyFields):
    # field() on each lazy field, so _LazyFields' property is not its default.
    name: str
    qubits: tuple[QubitDecl, ...] = field()
    cbits: tuple[CbitDecl, ...] = field()
    body: tuple[Statement, ...] = field()
    outputs: tuple[Ident, ...]
    span: SourceSpan = field(compare=False)

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(name for name, init in _declared(self, "qubits") if init == "input")

    @property
    def n_in(self) -> int:
        return len(self.input_names)

    @property
    def n_out(self) -> int:
        return len(self.outputs)


# A token is a plain (kind, text, line, col) tuple; kind is "name", "punct",
# "arrow" or, for the last token only, "eof".  A run of whole body lines, or
# of whole qubit and cbit lines, becomes one 5-tuple: its first word's token
# plus the run's compact entry.  So does a whole output line, carrying its
# tuple of output Idents.  Its word, "qubit", "cbit" or "output", tells a
# declaration token from a body run.
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
            # A run takes the lines of its kind after it.  The line that ends
            # it may start the next run or be an output line, else it is
            # lexed below; line is None once it is taken.
            decl = decl_line(line)
            while line is not None:
                if not decl and not (whole := body_line(line)):
                    break
                start, col = lineno, len(line) - len(line.lstrip(" \t")) + 1
                if decl and decl[4] is not None:  # a whole output line
                    outputs = _NAME_RE.finditer(line, *decl.regs[4])
                    outputs = tuple([Ident(m[0], SourceSpan(lineno, m.start() + 1, m.end() + 1)) for m in outputs])
                    append(("name", "output", lineno, col, outputs))
                    line = None
                    continue
                if decl:
                    word, items = "qubit" if decl[2] else "cbit", [decl.groups()]
                    for lineno, line in numbered:
                        decl = decl_line(line)
                        if not decl or decl[4] is not None:
                            break
                        items.append(decl.groups())
                    else:  # the run ends the source
                        line = None
                else:
                    cbit, gate = whole.group(1, 2)
                    word, items = "measure" if gate is None else "if" if cbit else gate, [whole.groups()]
                    for lineno, line in numbered:
                        whole = body_line(line)
                        if not whole:
                            decl = decl_line(line)
                            break
                        items.append(whole.groups())
                    else:
                        line = None
                append(("name", word, start, col, (start, lines[start - 1 : start - 1 + len(items)], items)))
            if line is None:
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
    decls: list[tuple] = []
    while tokens[i][1] in ("qubit", "cbit"):
        if len(tokens[i]) == 5:  # a run of whole qubit and cbit lines
            run = tokens[i][4]
            names = [qubit or cbit for qubit, _, cbit, _ in run[2]]
            if len(set(names)) < len(names) or not declared.isdisjoint(names):
                k = next(k for k, name in enumerate(names) if name in declared or name in names[:k])
                raise ParseError(f"duplicate declaration of {names[k]!r}", _decl(run[0] + k, run[1][k]).span)
            declared.update(names)
            decls.append(run)
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
            decls.append((decl, init[1]))
            i += 2
        else:
            decls.append((decl, None))
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
    decls = _CompactDecls(decls)
    return ProtocolAST(
        name=name_tok[1],
        qubits=decls,
        cbits=decls,
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
    Declarations parse stored compact are read by name and init alone.
    """
    diags: list[Diagnostic] = []
    qubits = _declared(ast, "qubits")
    wire = {name: i for i, (name, _) in enumerate(qubits)}
    bit = {name: i for i, (name, _) in enumerate(_declared(ast, "cbits"))}

    def error(message: str, span: SourceSpan) -> None:
        diags.append(Diagnostic("error", message, span))

    def warning(message: str, span: SourceSpan) -> None:
        diags.append(Diagnostic("warning", message, span))

    inputs = [wire.get(name) for name, init in qubits if init == "input"]
    if not inputs:
        error("protocol declares no input qubits", ast.span)
    if not ast.outputs:
        error("empty output set", ast.span)

    # parse rejects these, so only declarations it did not store are checked.
    d = ast.__dict__
    if type(d["qubits"]) is not _CompactDecls or type(d["cbits"]) is not _CompactDecls:
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

    # A cbit's node only for its diagnostic.
    for cb in () if written.issuperset(bit) and read.issuperset(bit) else ast.cbits:
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
        inputs=tuple(inputs),
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
