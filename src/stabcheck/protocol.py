"""Parser and validator for the .qpr protocol format.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .tableau import GATE_NAMES

KEYWORDS = frozenset({"protocol", "qubit", "cbit", "input", "zero", "measure", "if", "then", "output"})

# Whitespace matches nothing, so finditer steps over it without a match;
# comments match unnamed and are skipped.  Any other character no part
# accepts is "bad".
_TOKEN_RE = re.compile(r"#.*|(?P<arrow>->)|(?P<punct>[{}:;,])|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>[^ \t\r])")


@dataclass(frozen=True)
class SourceSpan:
    line: int
    col_start: int
    col_end: int

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


@dataclass(frozen=True)
class Ident:
    name: str
    span: SourceSpan = field(compare=False)


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


@dataclass(frozen=True)
class ProtocolAST:
    name: str
    qubits: tuple[QubitDecl, ...]
    cbits: tuple[CbitDecl, ...]
    body: tuple[Statement, ...]
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
# "arrow" or, for the last token only, "eof".
_Token = tuple[str, str, int, int]


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    append = tokens.append
    # splitlines also breaks at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029.
    lines = source.splitlines() or [""]
    for lineno, line in enumerate(lines, start=1):
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


def _ident(tok: _Token, what: str) -> Ident:
    """A fresh name: any name but a keyword; what names it in the error."""
    kind, text, line, col = tok
    if kind != "name" or text in KEYWORDS:
        _expect(tok, "name", what=what)
        raise ParseError(f"{text!r} is a reserved word", _span(tok))
    return Ident(text, SourceSpan(line, col, col + len(text)))


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
        ident = _ident(tokens[i + 1], "a declaration name")
        if ident.name in declared:
            raise ParseError(f"duplicate declaration of {ident.name!r}", ident.span)
        declared.add(ident.name)
        if tokens[i][1] == "qubit":
            _expect(tokens[i + 2], "punct", ":")
            init = tokens[i + 3]
            _expect(init, "name", what="'input' or 'zero'")
            if init[1] not in ("input", "zero"):
                raise ParseError("qubit initializer must be 'input' or 'zero'", _span(init))
            qubits.append(QubitDecl(ident.name, init[1], ident.span))
            i += 2
        else:
            cbits.append(CbitDecl(ident.name, ident.span))
        _expect(tokens[i + 2], "punct", ";")
        i += 3

    body: list[Statement] = []
    while True:
        tok = tokens[i]
        text = tok[1]
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
        body=tuple(body),
        outputs=tuple(outputs),
        span=_span(name_tok),
    )


def validate(ast: ProtocolAST) -> list[Diagnostic]:
    """Collect every rule violation; an empty error list means runnable.

    Errors guarantee the equivalence engine cannot hit a gate, arity or
    classical-bit failure at run time.  Warnings flag legal but suspicious
    constructs (re-measuring a qubit, a classical bit nobody reads).
    """
    diags: list[Diagnostic] = []
    qubit_names = {q.name for q in ast.qubits}
    cbit_names = {c.name for c in ast.cbits}

    def error(message: str, span: SourceSpan) -> None:
        diags.append(Diagnostic("error", message, span))

    def warning(message: str, span: SourceSpan) -> None:
        diags.append(Diagnostic("warning", message, span))

    if ast.n_in == 0:
        error("protocol declares no input qubits", ast.span)
    if not ast.outputs:
        error("empty output set", ast.span)

    def check_gate_args(gate: str, args: tuple[Ident, ...], span: SourceSpan) -> None:
        if gate not in GATE_NAMES:
            error(f"{gate!r} is not a Clifford gate", span)
            return
        expected = 2 if gate == "CNOT" else 1
        if len(args) != expected:
            error(f"{gate} takes {expected} qubit argument(s), got {len(args)}", span)
        for arg in args:
            if arg.name not in qubit_names:
                error(f"{arg.name!r} is not a declared qubit", arg.span)
        if gate == "CNOT" and len(args) == 2 and args[0].name == args[1].name:
            error("CNOT control and target must differ", span)

    written: dict[str, int] = {}
    measured: set[str] = set()
    read: set[str] = set()
    for stmt in ast.body:
        if isinstance(stmt, GateStmt):
            check_gate_args(stmt.gate, stmt.args, stmt.span)
        elif isinstance(stmt, MeasureStmt):
            if stmt.qubit.name not in qubit_names:
                error(f"{stmt.qubit.name!r} is not a declared qubit", stmt.qubit.span)
            elif stmt.qubit.name in measured:
                warning(f"qubit {stmt.qubit.name!r} is measured again", stmt.qubit.span)
            if stmt.cbit.name not in cbit_names:
                error(f"{stmt.cbit.name!r} is not a declared classical bit", stmt.cbit.span)
            elif stmt.cbit.name in written:
                error(f"classical bit {stmt.cbit.name!r} is written more than once", stmt.cbit.span)
            else:
                written[stmt.cbit.name] = 1
            if stmt.qubit.name in qubit_names:
                measured.add(stmt.qubit.name)
        else:
            if stmt.cbit.name not in cbit_names:
                error(f"{stmt.cbit.name!r} is not a declared classical bit", stmt.cbit.span)
            elif stmt.cbit.name not in written:
                error(f"classical bit {stmt.cbit.name!r} is read before it is written", stmt.cbit.span)
            read.add(stmt.cbit.name)
            check_gate_args(stmt.gate, stmt.args, stmt.span)

    for cb in ast.cbits:
        if cb.name not in written:
            error(f"classical bit {cb.name!r} is never written by a measurement", cb.span)
        elif cb.name not in read:
            warning(f"classical bit {cb.name!r} is never read", cb.span)

    seen_out: set[str] = set()
    for out in ast.outputs:
        if out.name not in qubit_names:
            error(f"output qubit {out.name!r} was never declared", out.span)
        if out.name in seen_out:
            error(f"output qubit {out.name!r} listed twice", out.span)
        seen_out.add(out.name)

    return diags


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


def builtin_identity(n: int) -> ProtocolAST:
    """The n-wire protocol that does nothing: every input is an output."""
    if n < 1:
        raise ValueError("identity needs at least one qubit")
    names = [f"q{i}" for i in range(n)]
    decls = "\n".join(f"  qubit {name}: input;" for name in names)
    source = f"protocol identity_{n} {{\n{decls}\n  output {', '.join(names)};\n}}\n"
    return parse(source)
