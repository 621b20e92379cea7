"""Shared test utilities: random circuits, branch walkers, exact matrices."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from stabcheck import PauliString, SuperopFingerprint, apply_gate, enumerate_basis, expectation, measure_z, run_protocol
from stabcheck.basis import BASIS_ORDER_TAG, ExactComplex
from stabcheck.checker import local_observable
from stabcheck.protocol import (
    KEYWORDS,
    CbitDecl,
    GateStmt,
    Ident,
    IfGateStmt,
    MeasureStmt,
    ParseError,
    ProtocolAST,
    QubitDecl,
    SourceSpan,
    Statement,
)
from stabcheck.tableau import GATE_NAMES

GATE_POOL = ("H", "P", "X", "Y", "Z", "CNOT")


def random_circuit(rng: random.Random, n: int, n_gates: int, n_measurements: int = 0) -> list[tuple]:
    """A random Clifford op list, measurements sprinkled at random positions."""
    ops: list[tuple] = []
    for _ in range(n_gates):
        gate = rng.choice(GATE_POOL)
        if gate == "CNOT":
            if n < 2:
                gate = rng.choice(("H", "P", "X", "Y", "Z"))
                ops.append((gate, rng.randrange(n)))
                continue
            c, t = rng.sample(range(n), 2)
            ops.append(("CNOT", c, t))
        else:
            ops.append((gate, rng.randrange(n)))
    for _ in range(n_measurements):
        pos = rng.randrange(len(ops) + 1)
        ops.insert(pos, ("M", rng.randrange(n)))
    return ops


def enumerate_circuit_branches(tableau, ops):
    """Run a raw op list, forking random measurements; returns a list of
    (tableau, probability Fraction, outcome bits)."""
    branches = []

    def walk(t, index, halvings, outcomes):
        for i in range(index, len(ops)):
            op = ops[i]
            if op[0] == "M":
                resolution, collapse = measure_z(t, op[1])
                if resolution.deterministic:
                    t = collapse(resolution.outcome)
                    outcomes = outcomes + (resolution.outcome,)
                else:
                    for bit in (0, 1):
                        walk(collapse(bit), i + 1, halvings + 1, outcomes + (bit,))
                    return
            else:
                apply_gate(t, op[0], *op[1:])
        branches.append((t, Fraction(1, 2 ** halvings), outcomes))

    walk(tableau, 0, 0, ())
    return branches


def hermitian_paulis(n: int) -> list[PauliString]:
    """All 4^n sign-positive Hermitian Paulis on n qubits."""
    out = []
    for x in range(1 << n):
        for z in range(1 << n):
            out.append(PauliString(n, x, z, (x & z).bit_count() % 4))
    return out


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    return abs(abs(np.vdot(a, b)) - 1.0) < tol


def random_rational_hermitian(rng: random.Random, dim: int) -> list[list[ExactComplex]]:
    """Hermitian matrix with small dyadic-rational entries (not PSD)."""
    def frac() -> Fraction:
        return Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))

    m = [[ExactComplex() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        m[i][i] = ExactComplex(frac())
        for j in range(i + 1, dim):
            entry = ExactComplex(frac(), frac())
            m[i][j] = entry
            m[j][i] = entry.conjugate()
    return m


def exact_to_numpy(matrix) -> np.ndarray:
    return np.array([[v.to_complex() for v in row] for row in matrix])


# ---------------------------------------------------------------------------
# The reference tabulation: every branch of run_protocol times expectation
# on every one of the 4^n_out output Paulis lifted onto the full wire set.
# fingerprint and check_equivalence must reproduce it exactly.


def output_observable(ast, pauli_index: int) -> PauliString:
    """Output-Pauli number pauli_index (base 4, first output most significant) on all wires."""
    positions = {q.name: i for i, q in enumerate(ast.qubits)}
    x = z = phase = 0
    for j, out in enumerate(ast.outputs):
        letter = "IXYZ"[(pauli_index // 4 ** (ast.n_out - 1 - j)) % 4]
        xb = 1 if letter in ("X", "Y") else 0
        zb = 1 if letter in ("Z", "Y") else 0
        x |= xb << positions[out.name]
        z |= zb << positions[out.name]
        phase += xb & zb
    return PauliString(len(ast.qubits), x, z, phase % 4)


def reference_fingerprint(ast) -> SuperopFingerprint:
    observables = [output_observable(ast, q) for q in range(4 ** ast.n_out)]
    table = []
    for circ in enumerate_basis(ast.n_in):
        branches = run_protocol(ast, circ)
        row = []
        for obs in observables:
            total = Fraction(0)
            for br in branches:
                total += br.probability * expectation(br.state, obs)
            row.append(total)
        table.append(tuple(row))
    return SuperopFingerprint(ast.n_in, ast.n_out, BASIS_ORDER_TAG, tuple(table))


def reference_counterexample(fp_l: SuperopFingerprint, fp_r: SuperopFingerprint):
    """(basis element, output observable, lhs value, rhs value) at the first differing entry, or None."""
    elements = [c.element for c in enumerate_basis(fp_l.n_in)]
    for k, (row_l, row_r) in enumerate(zip(fp_l.table, fp_r.table)):
        for q, (a, b) in enumerate(zip(row_l, row_r)):
            if a != b:
                return elements[k], local_observable(fp_l.n_out, q), a, b
    return None


def teleport_source(n: int, drop: str | None = None) -> str:
    """teleport_n: each input wire teleported through its own Bell pair.

    drop names one correction to leave out, such as "X0" or "Z2".
    """
    decls = [f"qubit psi{k}: input;" for k in range(n)]
    decls += [f"qubit a{k}: zero;" for k in range(n)] + [f"qubit b{k}: zero;" for k in range(n)]
    decls += [f"cbit m{k}; cbit f{k};" for k in range(n)]
    body = []
    for k in range(n):
        body += [f"H a{k};", f"CNOT a{k}, b{k};", f"CNOT psi{k}, a{k};", f"H psi{k};",
                 f"measure psi{k} -> m{k};", f"measure a{k} -> f{k};"]
        if drop != f"X{k}":
            body.append(f"if f{k} then X b{k};")
        if drop != f"Z{k}":
            body.append(f"if m{k} then Z b{k};")
    outputs = ", ".join(f"b{k}" for k in range(n))
    return f"protocol teleport_{n} {{\n  " + "\n  ".join(decls + body) + f"\n  output {outputs};\n}}\n"


def random_protocol_source(rng: random.Random, name: str = "rand", shuffle: bool = False) -> str:
    """A valid random protocol: 1-2 inputs, 0-2 ancillas, up to 3 measurements
    into fresh classical bits, conditional X/Y/Z on bits already written, and
    outputs a random non-empty subset of the wires in random order.

    With shuffle the qubit declarations come in random order, so the inputs
    sit anywhere among the wires; without it the inputs come first, in order.
    """
    n_in = rng.randint(1, 2)
    wires = [f"q{i}" for i in range(n_in + rng.randint(0, 2))]
    decls = [f"qubit {w}: {'input' if i < n_in else 'zero'};" for i, w in enumerate(wires)]
    written: list[str] = []
    body: list[str] = []
    for _ in range(rng.randint(2, 12)):
        roll = rng.random()
        if roll < 0.2 and len(written) < 3:
            written.append(f"c{len(written)}")
            body.append(f"measure {rng.choice(wires)} -> {written[-1]};")
        elif roll < 0.4 and written:
            body.append(f"if {rng.choice(written)} then {rng.choice('XYZ')} {rng.choice(wires)};")
        else:
            gate = rng.choice(GATE_POOL if len(wires) > 1 else GATE_POOL[:-1])
            args = rng.sample(wires, 2) if gate == "CNOT" else [rng.choice(wires)]
            body.append(f"{gate} {', '.join(args)};")
    outputs = rng.sample(wires, rng.randint(1, min(3, len(wires))))
    if shuffle:
        rng.shuffle(decls)
    decls += [f"cbit {c};" for c in written]
    return f"protocol {name} {{\n  " + "\n  ".join(decls + body) + f"\n  output {', '.join(outputs)};\n}}\n"


# ---------------------------------------------------------------------------
# The reference front end: the per-character tokenizer and the parser with
# one expect method per token kind, kept as they were before the lexer became
# one master regex.  reference_parse must agree with protocol.parse on every
# AST, span, ParseError message and error span.

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "punct" | "arrow" | "eof"
    text: str
    span: SourceSpan


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    lines = source.splitlines() or [""]
    for lineno, line in enumerate(lines, start=1):
        col = 0
        while col < len(line):
            ch = line[col]
            if ch in " \t\r":
                col += 1
                continue
            if ch == "#":
                break
            if line.startswith("->", col):
                tokens.append(Token("arrow", "->", SourceSpan(lineno, col + 1, col + 3)))
                col += 2
                continue
            if ch in "{}:;,":
                tokens.append(Token("punct", ch, SourceSpan(lineno, col + 1, col + 2)))
                col += 1
                continue
            match = _NAME_RE.match(line, col)
            if match:
                tokens.append(Token("name", match.group(), SourceSpan(lineno, col + 1, match.end() + 1)))
                col = match.end()
                continue
            raise ParseError(f"unexpected character {ch!r}", SourceSpan(lineno, col + 1, col + 2))
    end = SourceSpan(len(lines), len(lines[-1]) + 1, len(lines[-1]) + 2)
    tokens.append(Token("eof", "", end))
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

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != ch:
            raise ParseError(f"expected {ch!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    def expect_name(self, what: str = "a name") -> Token:
        tok = self.peek()
        if tok.kind != "name":
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "name" or tok.text != word:
            raise ParseError(f"expected {word!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    def fresh_ident(self, what: str) -> Ident:
        tok = self.expect_name(what)
        if tok.text in KEYWORDS:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.span)
        return Ident(tok.text, tok.span)


def reference_parse(source: str) -> ProtocolAST:
    """Parse a protocol; raises ParseError with a source span on failure."""
    p = _Parser(_tokenize(source))
    p.expect_keyword("protocol")
    name_tok = p.expect_name("a protocol name")
    p.expect_punct("{")

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
            p.expect_punct(":")
            init = p.expect_name("'input' or 'zero'")
            if init.text not in ("input", "zero"):
                raise ParseError("qubit initializer must be 'input' or 'zero'", init.span)
            qubits.append(QubitDecl(ident.name, init.text, ident.span))
        else:
            cbits.append(CbitDecl(ident.name, ident.span))
        p.expect_punct(";")

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
            p.expect_punct(";")
            body.append(MeasureStmt(qubit, cbit, tok.span))
        elif tok.text == "if":
            p.advance()
            cbit = p.fresh_ident("a classical bit name")
            p.expect_keyword("then")
            gate_tok = p.expect_name("a gate name")
            if gate_tok.text not in GATE_NAMES:
                raise ParseError(
                    f"{gate_tok.text!r} is not a Clifford gate (allowed: {', '.join(GATE_NAMES)})",
                    gate_tok.span,
                )
            args = _parse_args(p)
            p.expect_punct(";")
            body.append(IfGateStmt(cbit, gate_tok.text, args, tok.span))
        elif tok.text in GATE_NAMES:
            p.advance()
            args = _parse_args(p)
            p.expect_punct(";")
            body.append(GateStmt(tok.text, args, tok.span))
        elif tok.text in KEYWORDS:
            raise ParseError(f"{tok.text!r} not allowed here", tok.span)
        else:
            raise ParseError(
                f"{tok.text!r} is not a Clifford gate (allowed: {', '.join(GATE_NAMES)})",
                tok.span,
            )

    out_tok = p.expect_keyword("output")
    outputs = [p.fresh_ident("an output qubit name")]
    while p.peek().kind == "punct" and p.peek().text == ",":
        p.advance()
        outputs.append(p.fresh_ident("an output qubit name"))
    p.expect_punct(";")
    p.expect_punct("}")
    trailing = p.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected {trailing.text!r} after protocol body", trailing.span)
    del out_tok
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
