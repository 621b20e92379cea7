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
from typing import NamedTuple

from .tableau import GATE_NAMES

KEYWORDS = frozenset({"protocol", "qubit", "cbit", "input", "zero", "measure", "if", "then", "output"})

# Whitespace and comments match unnamed and are skipped; any character no
# other part accepts is "bad".
_TOKEN_RE = re.compile(r"[ \t\r]+|#.*|(?P<arrow>->)|(?P<punct>[{}:;,])|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>.)")


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


class Token(NamedTuple):
    kind: str  # "name" | "punct" | "arrow" | "eof"
    text: str
    line: int
    col: int

    @property
    def span(self) -> SourceSpan:
        # The eof token has no text but a one-column span.
        return SourceSpan(self.line, self.col, self.col + max(len(self.text), 1))


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
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
            tokens.append(Token(kind, match.group(), lineno, col))
    tokens.append(Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        """The next token, which must be of kind (and be text, if given); what names it in the error."""
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ParseError(f"expected {what or repr(text)}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    def fresh_ident(self, what: str) -> Ident:
        tok = self.expect("name", what=what)
        if tok.text in KEYWORDS:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.span)
        return Ident(tok.text, tok.span)


def parse(source: str) -> ProtocolAST:
    """Parse a protocol; raises ParseError with a source span on failure."""
    p = _Parser(_tokenize(source))
    p.expect("name", "protocol")
    name_tok = p.expect("name", what="a protocol name")
    p.expect("punct", "{")

    declared: dict[str, SourceSpan] = {}
    qubits: list[QubitDecl] = []
    cbits: list[CbitDecl] = []

    def declare(ident: Ident) -> None:
        if ident.name in declared:
            raise ParseError(f"duplicate declaration of {ident.name!r}", ident.span)
        declared[ident.name] = ident.span

    while p.peek().kind == "name" and p.peek().text in ("qubit", "cbit"):
        kw = p.advance()
        ident = p.fresh_ident("a declaration name")
        declare(ident)
        if kw.text == "qubit":
            p.expect("punct", ":")
            init = p.expect("name", what="'input' or 'zero'")
            if init.text not in ("input", "zero"):
                raise ParseError("qubit initializer must be 'input' or 'zero'", init.span)
            qubits.append(QubitDecl(ident.name, init.text, ident.span))
        else:
            cbits.append(CbitDecl(ident.name, ident.span))
        p.expect("punct", ";")

    body: list[Statement] = []
    while not (p.peek().kind == "name" and p.peek().text == "output"):
        tok = p.peek()
        if tok.kind != "name":
            raise ParseError(f"expected a statement or 'output', found {tok.text or 'end of input'!r}", tok.span)
        if tok.text == "measure":
            p.advance()
            qubit = p.fresh_ident("a qubit name")
            p_arrow = p.peek()
            if p_arrow.kind != "arrow":
                raise ParseError("expected '->' in measure statement", p_arrow.span)
            p.advance()
            cbit = p.fresh_ident("a classical bit name")
            p.expect("punct", ";")
            body.append(MeasureStmt(qubit, cbit, tok.span))
        elif tok.text == "if":
            p.advance()
            cbit = p.fresh_ident("a classical bit name")
            p.expect("name", "then")
            gate_tok = p.expect("name", what="a gate name")
            if gate_tok.text not in GATE_NAMES:
                raise ParseError(
                    f"{gate_tok.text!r} is not a Clifford gate (allowed: {', '.join(GATE_NAMES)})",
                    gate_tok.span,
                )
            args = _parse_args(p)
            p.expect("punct", ";")
            body.append(IfGateStmt(cbit, gate_tok.text, args, tok.span))
        elif tok.text in GATE_NAMES:
            p.advance()
            args = _parse_args(p)
            p.expect("punct", ";")
            body.append(GateStmt(tok.text, args, tok.span))
        elif tok.text in KEYWORDS:
            raise ParseError(f"{tok.text!r} not allowed here", tok.span)
        else:
            raise ParseError(
                f"{tok.text!r} is not a Clifford gate (allowed: {', '.join(GATE_NAMES)})",
                tok.span,
            )

    p.expect("name", "output")
    outputs = [p.fresh_ident("an output qubit name")]
    while p.peek().kind == "punct" and p.peek().text == ",":
        p.advance()
        outputs.append(p.fresh_ident("an output qubit name"))
    p.expect("punct", ";")
    p.expect("punct", "}")
    trailing = p.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected {trailing.text!r} after protocol body", trailing.span)
    return ProtocolAST(
        name=name_tok.text,
        qubits=tuple(qubits),
        cbits=tuple(cbits),
        body=tuple(body),
        outputs=tuple(outputs),
        span=name_tok.span,
    )


def _parse_args(p: _Parser) -> tuple[Ident, ...]:
    args = [p.fresh_ident("a qubit name")]
    if p.peek().kind == "punct" and p.peek().text == ",":
        p.advance()
        args.append(p.fresh_ident("a qubit name"))
    return tuple(args)


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
