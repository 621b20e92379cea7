"""Shared test utilities: random circuits, branch walkers, exact matrices,
and frozen reference copies of the front end, the lowering, the branch walk,
the GF(2) kernels and the dense oracle."""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from stabcheck import PauliString, SuperopFingerprint, apply_gate, enumerate_basis, expectation, measure_z, run_protocol
from stabcheck import dense
from stabcheck.basis import BASIS_ORDER_TAG, BasisCircuit, ExactComplex
from stabcheck.checker import (
    BRANCH_LIMIT,
    BranchLimitError,
    BranchOutcome,
    BudgetExceededError,
    Program,
    local_observable,
)
from stabcheck.protocol import (
    KEYWORDS,
    CbitDecl,
    Diagnostic,
    GateStmt,
    Ident,
    IfGateStmt,
    MeasureStmt,
    ParseError,
    ProtocolAST,
    QubitDecl,
    SourceSpan,
    Statement,
    errors_of,
    lower,
    validate,
)
from stabcheck.tableau import GATE_NAMES, MeasurementResolution, Tableau, _check_gate, _product, new_zero_state, run_circuit

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


def cluster_wire_source(k: int, drop: int | None = None) -> str:
    """A 1D cluster-state wire of k X-measured sites, corrections deferred.

    Site w0 holds the input and w1..wk start in |+>; CZ (H t; CNOT c, t;
    H t) joins each pair of neighbours.  Site j is then measured in the X
    basis into s_j, which leaves X^s_j H of the state on site j + 1.  The
    corrections all come at the end: s_j controls an X on the output wk
    for odd j and a Z for even j, since H^(k-1-j) turns the X byproduct of
    step j into X or Z.  With even k the wire is the identity channel.
    drop names the index j of one correction to leave out.
    """
    decls = ["qubit w0: input;"] + [f"qubit w{i}: zero;" for i in range(1, k + 1)]
    decls += [f"cbit s{j};" for j in range(k)]
    body = [f"H w{i};" for i in range(1, k + 1)]
    body += [stmt for i in range(k) for stmt in (f"H w{i + 1};", f"CNOT w{i}, w{i + 1};", f"H w{i + 1};")]
    body += [stmt for j in range(k) for stmt in (f"H w{j};", f"measure w{j} -> s{j};")]
    body += [f"if s{j} then {'X' if j % 2 else 'Z'} w{k};" for j in range(k) if j != drop]
    return f"protocol cluster_{k} {{\n  " + "\n  ".join(decls + body) + f"\n  output w{k};\n}}\n"


def h_controlled_cluster_wire_source(k: int, drop: int | None = None, controls: int = 1) -> str:
    """cluster_wire_source(k, drop) with more corrections, if s_j then H w0
    for j = 1..controls, on the discarded first site: the channel is the
    same, but those bits now control H, so deferred measurement enumerates
    their values."""
    guarded = "".join(f"\n  if s{j} then H w0;" for j in range(1, controls + 1))
    return cluster_wire_source(k, drop).replace("\n  output", guarded + "\n  output")


def repetition_code_source(d: int, drop: str | None = None) -> str:
    """corpus/repetition_code.qpr at distance d >= 2: the identity channel.

    q is encoded into q and r1..r(d-1); a discarded ancilla e in |+> flips
    q alone through a CNOT, the syndrome Z_q Z_r1 is read through the
    ancilla s, and if syndrome then X q undoes the flip.  Each r_i is then
    measured in the X basis into m_i, and if m_i then Z q fixes its sign.
    drop names one correction to leave out: "X", or "Zi" for m_i's.
    """
    rs = [f"r{i}" for i in range(1, d)]
    decls = ["qubit q: input;"] + [f"qubit {r}: zero;" for r in rs] + ["qubit e: zero;", "qubit s: zero;"]
    decls += ["cbit syndrome;"] + [f"cbit m{i};" for i in range(1, d)]
    body = [f"CNOT q, {r};" for r in rs] + ["H e;", "CNOT e, q;", "CNOT q, s;", "CNOT r1, s;", "measure s -> syndrome;"]
    if drop != "X":
        body.append("if syndrome then X q;")
    for i, r in enumerate(rs, 1):
        body += [f"H {r};", f"measure {r} -> m{i};"]
        if drop != f"Z{i}":
            body.append(f"if m{i} then Z q;")
    return f"protocol repetition_code_{d} {{\n  " + "\n  ".join(decls + body) + "\n  output q;\n}\n"


def with_h_control(source: str) -> str:
    """A one-statement-per-line source with a bit that controls H: wire q0,
    which every random_protocol_source has, is measured into a new bit hc
    at the end, and hc controls an H on q0."""
    source = source.replace("{\n", "{\n  cbit hc;\n", 1)
    return source.replace("\n  output", "\n  measure q0 -> hc;\n  if hc then H q0;\n  output")


def with_classical_controls(rng: random.Random, source: str) -> str:
    """random_protocol_source's source with each if rewritten, at even odds,
    to control H or P on its wire, or a CNOT from it onto another wire."""
    wires = re.findall(r"qubit (\w+):", source)

    def rewrite(match: re.Match) -> str:
        bit, wire = match.groups()
        gate = rng.choice(("H", "P", "CNOT") if len(wires) > 1 else ("H", "P"))
        if gate == "CNOT":
            return f"if {bit} then CNOT {wire}, {rng.choice([w for w in wires if w != wire])};"
        return f"if {bit} then {gate} {wire};"

    return re.sub(r"if (\w+) then [XYZ] (\w+);", lambda m: rewrite(m) if rng.random() < 0.5 else m.group(), source)


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


def tensor_source(sources: list[str], name: str = "tensor") -> str:
    """The tensor product of protocols as one source, one statement a line.

    Block k's names get the prefix b<k>_, and its declarations and outputs
    follow those of block k - 1, so its inputs and outputs are the next
    ones in order.  The blocks' statements are interleaved round-robin,
    each block's in its own order, so a block is not a run of adjacent
    statements.  Each source is read by reference_parse.
    """
    decls, bodies, outputs = [], [], []
    for k, ast in enumerate(map(reference_parse, sources)):
        p = f"b{k}_"
        decls += [f"qubit {p}{q.name}: {q.init};" for q in ast.qubits] + [f"cbit {p}{c.name};" for c in ast.cbits]
        outputs += [p + o.name for o in ast.outputs]
        body = []
        for stmt in ast.body:
            if isinstance(stmt, MeasureStmt):
                body.append(f"measure {p}{stmt.qubit.name} -> {p}{stmt.cbit.name};")
                continue
            gate = f"{stmt.gate} {', '.join(p + arg.name for arg in stmt.args)};"
            body.append(f"if {p}{stmt.cbit.name} then {gate}" if isinstance(stmt, IfGateStmt) else gate)
        bodies.append(body)
    body = [stmts[i] for i in range(max(map(len, bodies))) for stmts in bodies if i < len(stmts)]
    return f"protocol {name} {{\n  " + "\n  ".join(decls + body) + f"\n  output {', '.join(outputs)};\n}}\n"


def teleported(source: str, rng: random.Random, count: int) -> str:
    """A one-statement-per-line source with count wire-teleport gadgets at
    random statement boundaries, the one before the output line included.

    Gadget k moves a random qubit w onto a fresh wire tp<k>_b: a Bell pair
    on tp<k>_a and tp<k>_b, a Bell measurement of w and tp<k>_a into tp<k>_m
    and tp<k>_f, and the corrections if tp<k>_f then X and if tp<k>_m then Z
    on tp<k>_b.  Later statements and the output line use tp<k>_b in place
    of w.  The channel is unchanged (Bennett et al., Phys. Rev. Lett. 70,
    1895, 1993); dropping one correction leaves a Pauli error on the wire
    with probability 1/2.
    """
    lines = source.split("\n")
    first = next(i for i, line in enumerate(lines) if i and not line.lstrip().startswith(("qubit ", "cbit ")))
    last = next(i for i, line in enumerate(lines) if line.lstrip().startswith("output "))
    current = {w: w for w in re.findall(r"qubit (\w+):", source)}
    at = [rng.randrange(first, last + 1) for _ in range(count)]
    decls, body, k = lines[:first], [], 0
    for i in range(first, last + 1):
        for _ in range(at.count(i)):
            wire = rng.choice(list(current))
            w, (a, b, m, f) = current[wire], (f"tp{k}_{part}" for part in "abmf")
            decls += [f"  qubit {a}: zero;", f"  qubit {b}: zero;", f"  cbit {m};", f"  cbit {f};"]
            body += [f"  H {a};", f"  CNOT {a}, {b};", f"  CNOT {w}, {a};", f"  H {w};", f"  measure {w} -> {m};",
                     f"  measure {a} -> {f};", f"  if {f} then X {b};", f"  if {m} then Z {b};"]
            current[wire], k = b, k + 1
        body.append(re.sub(r"\w+", lambda name: current.get(name.group(), name.group()), lines[i]))
    return "\n".join(decls + body + lines[last + 1:])


def frame_pushed(source: str) -> str:
    """source, read by reference_parse, with every if moved to the end, one
    statement a line; each if must apply X, Y or Z.

    The ifs of a bit c multiply into c's Pauli frame, which the later gates
    conjugate.  Frames are kept by column: xs[w] and zs[w] hold, as bits of
    one int, the bits whose frame has X or Z on wire w, so each gate, if
    and measurement updates one or two ints.  A measurement of w reads a
    flipped value wherever a frame has X on w, so the bit it writes stands
    for its value XOR those frames' bits, and each later if of it adds to
    all of their frames; Z on the measured wire is then a phase and is
    dropped.  At the end each bit gets an if for each output wire its frame
    touches; frames off the outputs act on discarded wires and are dropped.
    This is the standardisation of the measurement calculus (Danos, Kashefi
    & Panangaden, arXiv:0704.1263) and the Pauli frame of Stim (Gidney,
    arXiv:2103.02202).
    """
    ast = reference_parse(source)
    wire = {q.name: i for i, q in enumerate(ast.qubits)}
    bit = {c.name: i for i, c in enumerate(ast.cbits)}
    xs, zs = [0] * len(wire), [0] * len(wire)
    # The bits whose XOR is each measured bit's value, as bits of one int.
    flips: dict[int, int] = {}
    body = []
    for stmt in ast.body:
        names = [arg.name for arg in getattr(stmt, "args", ())]
        if isinstance(stmt, MeasureStmt):
            w, c = wire[stmt.qubit.name], bit[stmt.cbit.name]
            flips[c], zs[w] = xs[w] | 1 << c, 0
            body.append(f"measure {stmt.qubit.name} -> {stmt.cbit.name};")
            continue
        q = [wire[name] for name in names]
        if isinstance(stmt, IfGateStmt):
            assert stmt.gate in "XYZ", stmt.gate
            flip = flips[bit[stmt.cbit.name]]
            if stmt.gate != "Z":
                xs[q[0]] ^= flip
            if stmt.gate != "X":
                zs[q[0]] ^= flip
            continue
        if stmt.gate == "H":
            xs[q[0]], zs[q[0]] = zs[q[0]], xs[q[0]]
        elif stmt.gate == "P":
            zs[q[0]] ^= xs[q[0]]
        elif stmt.gate == "CNOT":
            xs[q[1]] ^= xs[q[0]]
            zs[q[0]] ^= zs[q[1]]
        body.append(f"{stmt.gate} {', '.join(names)};")
    for c, cbit in enumerate(ast.cbits):
        for out in ast.outputs:
            w = wire[out.name]
            pauli = "IXZY"[(xs[w] >> c & 1) | (zs[w] >> c & 1) << 1]
            if pauli != "I":
                body.append(f"if {cbit.name} then {pauli} {out.name};")
    decls = [f"qubit {q.name}: {q.init};" for q in ast.qubits] + [f"cbit {c.name};" for c in ast.cbits]
    outputs = ", ".join(out.name for out in ast.outputs)
    return f"protocol {ast.name} {{\n  " + "\n  ".join(decls + body) + f"\n  output {outputs};\n}}\n"


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


# ---------------------------------------------------------------------------
# The reference validator: protocol.validate as it was when it ran as a pass
# of its own, before lowering, reading the body node by node.
# protocol.validate must agree with it on every diagnostic, in order, with
# its message and span.


def reference_validate(ast: ProtocolAST) -> list[Diagnostic]:
    """Collect every rule violation; an empty error list means runnable."""
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
            if arg.name not in qubit_names:
                error(f"{arg.name!r} is not a declared qubit", arg.span)
        if gate == "CNOT" and len(args) == 2 and args[0].name == args[1].name:
            error("CNOT control and target must differ", stmt.span)

    written: dict[str, int] = {}
    measured: set[str] = set()
    read: set[str] = set()
    for stmt in ast.body:
        if isinstance(stmt, GateStmt):
            check_gate_args(stmt)
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
            check_gate_args(stmt)

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


def assert_checked_as_reference(ast: ProtocolAST) -> list[Diagnostic]:
    """Assert that validate(ast) equals reference_validate(ast), and that
    lower raises, listing the errors, exactly when that list holds one;
    return the list.  ast is validated and lowered before the reference
    reads its body, so a compact body is checked as parse stored it."""
    got = validate(ast)
    try:
        program, raised = lower(ast), None
    except ValueError as exc:
        program, raised = None, str(exc)
    want = reference_validate(ast)
    assert got == want
    errs = errors_of(want)
    if errs:
        assert raised == f"protocol {ast.name!r} failed validation: {'; '.join(d.message for d in errs)}"
    else:
        assert raised is None and isinstance(program, Program)
    return want


# ---------------------------------------------------------------------------
# The reference walk: checker._walk, _merged, _choi and run_protocol, and the
# tableau functions they called, kept as they were when the walk still ran
# on PauliString rows and Tableau copies, and check still walked the Choi
# state and merged its branches, each renamed with a reference_ prefix.
# Row products go through reference_product, a copy of the
# PauliString.__mul__ of that time, so no kernel of the engine takes part.
# The walk reads reference_lower's programs: checker.lower and Program as
# they were when each gate run was a Tableau from run_circuit and the Choi
# walk had a lowering of its own, with the Bell pairs put in its first run.
# reference_run_protocol must agree exactly with run_protocol, and
# reference_choi, over 2^measurements, must hold the same exact values as
# the parts of checker._channel on the deferred states, over
# checker._DENOMINATOR.  reference_choi expands each group with reference_group, a copy of
# checker._group of that time, and numbers output Paulis with
# REFERENCE_DIGIT, a copy of tableau._DIGIT, so it shares no engine code.


@dataclass(frozen=True)
class ReferenceProgram:
    """A validated protocol lowered to integer wire and classical-bit indices.

    ops holds ("u", circuit), ("if", bit, gate, wires) and
    ("m", wire, bit, reset).  circuit is the Tableau of one maximal run of
    plain gates, composed once by run_circuit; its trace lists the run's
    gates.  reset is set when the measurement is the last statement
    touching a wire that is not an output, so the wire is a discarded Z
    eigenstate from then on.  drops[i] lists the bits that no statement
    after ops[i] reads.  A branch's probability is an integer weight over
    denominator, 2 to the number of measurements.

    refs, empty unless lowered with choi, lists one reference wire per
    input after the protocol's wires; the first run then starts with
    H refs[j]; CNOT refs[j], inputs[j], so a walk from |0...0> runs on the
    channel's Choi state.  n_wires counts the references too: it is the
    width every run is composed at.
    """

    n_wires: int
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    cbits: tuple[str, ...]
    ops: tuple[tuple, ...]
    drops: tuple[tuple[int, ...], ...]
    denominator: int
    refs: tuple[int, ...] = ()


def reference_lower(ast: ProtocolAST, choi: bool = False) -> ReferenceProgram:
    """Validate once and lower; raises ValueError listing every error."""
    errs = errors_of(reference_validate(ast))
    if errs:
        listing = "; ".join(d.message for d in errs)
        raise ValueError(f"protocol {ast.name!r} failed validation: {listing}")
    wire = {q.name: i for i, q in enumerate(ast.qubits)}
    bit = {c.name: i for i, c in enumerate(ast.cbits)}
    inputs = tuple(wire[name] for name in ast.input_names)
    refs = tuple(range(len(wire), len(wire) + len(inputs))) if choi else ()
    # A run of plain gates is ("u", gates, touched) until the backward pass:
    # its gate tuples and the set of wires they touch.  gates is None while
    # no run is open.
    ops: list[tuple] = []
    gates = None
    if choi:
        gates = [g for r, q in zip(refs, inputs) for g in (("H", r), ("CNOT", r, q))]
        touched = {*refs, *inputs}
        ops.append(("u", gates, touched))
    for stmt in ast.body:
        if isinstance(stmt, GateStmt):
            args = stmt.args
            q = wire[args[0].name]
            if gates is None:
                gates, touched = [], set()
                ops.append(("u", gates, touched))
            touched.add(q)
            if len(args) == 1:
                gates.append((stmt.gate, q))
            else:
                t = wire[args[1].name]
                touched.add(t)
                gates.append((stmt.gate, q, t))
            continue
        gates = None
        if isinstance(stmt, IfGateStmt):
            ops.append(("if", bit[stmt.cbit.name], stmt.gate, tuple(wire[a.name] for a in stmt.args)))
        else:
            ops.append(("m", wire[stmt.qubit.name], bit[stmt.cbit.name], False))
    outputs = tuple(wire[o.name] for o in ast.outputs)

    # Backward pass: the first use met is the last use.  Outputs count as
    # used at the end, so they are never reset.
    n_wires = len(wire) + len(refs)
    used_wires, used_bits = set(outputs), set()
    drops: list[tuple[int, ...]] = []
    measurements = 0
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        if op[0] == "u":
            used_wires |= op[2]
            ops[i] = ("u", run_circuit(n_wires, op[1]))
            drops.append(())
            continue
        if op[0] == "m":
            _, q, c, _ = op
            ops[i] = ("m", q, c, q not in used_wires)
            used_wires.add(q)
            measurements += 1
        else:
            used_wires.update(op[-1])
            c = op[1]
        drops.append(() if c in used_bits else (c,))
        used_bits.add(c)
    return ReferenceProgram(
        n_wires=n_wires,
        inputs=inputs,
        outputs=outputs,
        cbits=tuple(c.name for c in ast.cbits),
        ops=tuple(ops),
        drops=tuple(reversed(drops)),
        denominator=1 << measurements,
        refs=refs,
    )


def reference_product(a: PauliString, b: PauliString) -> PauliString:
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    # Moving b's X block left past a's Z block gives (-1) per overlap.
    phase = a.phase_exp + b.phase_exp + 2 * (a.z_bits & b.x_bits).bit_count()
    return PauliString(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits, phase % 4)


def reference_conjugate(row: PauliString, gate: str, qubits: tuple[int, ...]) -> PauliString:
    x, z, ph = row.x_bits, row.z_bits, row.phase_exp
    if gate == "H":
        q = 1 << qubits[0]
        if x & z & q:
            ph += 2
        xq, zq = x & q, z & q
        x = (x & ~q) | zq
        z = (z & ~q) | xq
    elif gate == "P":
        q = 1 << qubits[0]
        if x & q:
            ph += 1
            z ^= q
    elif gate == "X":
        if z & (1 << qubits[0]):
            ph += 2
    elif gate == "Y":
        if (x ^ z) & (1 << qubits[0]):
            ph += 2
    elif gate == "Z":
        if x & (1 << qubits[0]):
            ph += 2
    elif gate == "CNOT":
        c, t = 1 << qubits[0], 1 << qubits[1]
        if x & c:
            x ^= t
        if z & t:
            z ^= c
    return PauliString(row.n, x, z, ph % 4)


def reference_apply_gate(t: Tableau, gate: str, *qubits: int) -> Tableau:
    """Conjugate every row by the gate, in place; returns the same tableau."""
    g = (gate, *qubits)
    _check_gate(t.n, g)
    t.rows = [reference_conjugate(r, gate, qubits) for r in t.rows]
    t.trace.append(g)
    return t


def reference_apply_tableau(t: Tableau, u: Tableau) -> Tableau:
    """Conjugate every row by the circuit u = run_circuit(n, gates), in place.

    A row i^ph X^x Z^z becomes i^ph * prod_{x_q} u.rows[q] * prod_{z_q}
    u.rows[n+q], the X block before the Z block as in the encoding; the
    result equals applying u's gates one by one, phase included.  The trace
    is extended by u's gates.
    """
    n = t.n
    if u.n != n:
        raise ValueError(f"circuit on {u.n} qubit(s) applied to a tableau on {n}")
    images = [(1 << (q % n), img.x_bits, img.z_bits, img.phase_exp) for q, img in enumerate(u.rows)]
    x_images, z_images = images[:n], images[n:]
    rows = []
    for row in t.rows:
        x = z = 0
        ph = row.phase_exp
        for bits, block in ((row.x_bits, x_images), (row.z_bits, z_images)):
            for bit, ix, iz, iph in block:
                if bits & bit:
                    ph += iph + 2 * (z & ix).bit_count()
                    x ^= ix
                    z ^= iz
        rows.append(PauliString(n, x, z, ph % 4))
    t.rows = rows
    t.trace.extend(u.trace)
    return t


def reference_measure_z(t: Tableau, q: int) -> tuple[MeasurementResolution, Callable[[int], Tableau]]:
    """Resolve a Z measurement of qubit q without mutating t.

    Returns the resolution and a collapse function mapping an outcome bit to
    a fresh post-measurement tableau.  Deterministic measurements accept only
    the forced bit; random ones accept either, each branch has weight 1/2.
    """
    if not 0 <= q < t.n:
        raise ValueError(f"qubit {q} out of range for n={t.n}")
    qmask = 1 << q
    pivot = next((i for i in range(t.n, 2 * t.n) if t.rows[i].x_bits & qmask), None)

    if pivot is None:
        # Z_q is in +-(stabilizer group), so <Z_q> = +-1 gives the outcome.
        forced = (1 - reference_expectation(t, PauliString(t.n, 0, qmask))) // 2

        def collapse_det(outcome: int) -> Tableau:
            if outcome != forced:
                raise ValueError(f"outcome {outcome} has probability zero")
            out = t.copy()
            out.trace.append(("M", q))
            return out

        return MeasurementResolution("deterministic", forced), collapse_det

    def collapse_rand(outcome: int) -> Tableau:
        if outcome not in (0, 1):
            raise ValueError("outcome bit must be 0 or 1")
        out = t.copy()
        anchor = out.rows[pivot]
        for i in range(2 * out.n):
            if i == pivot or i == pivot - out.n:
                continue
            if out.rows[i].x_bits & qmask:
                out.rows[i] = reference_product(out.rows[i], anchor)
        out.rows[pivot - out.n] = anchor
        out.rows[pivot] = PauliString(out.n, 0, qmask, 2 * outcome)
        out.trace.append(("M", q))
        return out

    return MeasurementResolution("random"), collapse_rand


def reference_expectation(t: Tableau, obs: PauliString) -> int:
    """Exact <obs> for a stabilizer state: always -1, 0 or +1."""
    if obs.n != t.n:
        raise ValueError("observable width mismatch")
    if not obs.is_hermitian:
        raise ValueError("observable must be Hermitian")
    for row in t.stabilizers:
        if not obs.commutes(row):
            return 0
    # obs commutes with a maximal group, so its bit pattern lies in the row
    # span; destabilizer anticommutation picks out the exact combination.
    acc = PauliString.identity(t.n)
    for i in range(t.n):
        if not obs.commutes(t.rows[i]):
            acc = reference_product(acc, t.rows[t.n + i])
    if acc.x_bits != obs.x_bits or acc.z_bits != obs.z_bits:
        raise AssertionError("stabilizer span reconstruction failed")
    d = (obs.phase_exp - acc.phase_exp) % 4
    if d == 0:
        return 1
    if d == 2:
        return -1
    raise AssertionError("phase mismatch between Hermitian Paulis")


def reference_supported_subgroup(t: Tableau, wires: int) -> list[PauliString]:
    """Generators of the stabilizer elements that act as I off a wire mask.

    The rows are reduced by GF(2) elimination on the columns outside wires,
    each kept row pivoting on its highest bit there; the rows left with no
    support there generate the subgroup, signs included.  It
    has at most 2^popcount(wires) elements.
    """
    off = ((1 << t.n) - 1) & ~wires
    pivots: list[tuple[int, PauliString]] = []
    generators: list[PauliString] = []
    for row in t.stabilizers:
        key = ((row.x_bits & off) << t.n) | (row.z_bits & off)
        for pivot_key, pivot in pivots:
            if key ^ pivot_key < key:
                key ^= pivot_key
                row = reference_product(row, pivot)
        if key:
            pivots.append((key, row))
        else:
            generators.append(row)
    return generators


def reference_canonical_form(t: Tableau) -> tuple[PauliString, ...]:
    """Deterministic reduced echelon basis of the stabilizer group.

    Equal states produce identical tuples (signs included); the trace and
    the destabilizers play no part.
    """
    n = t.n
    rows = list(t.stabilizers)
    # Column col of the elimination (X of each qubit, then Z) is bit col of a key.
    keys = [r.x_bits | r.z_bits << n for r in rows]
    rank = 0
    for col in range(2 * n):
        if rank == n:
            break
        bit = 1 << col
        for pivot in range(rank, n):
            if keys[pivot] & bit:
                break
        else:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        keys[rank], keys[pivot] = keys[pivot], keys[rank]
        for i in range(n):
            if i != rank and keys[i] & bit:
                keys[i] ^= keys[rank]
                rows[i] = reference_product(rows[i], rows[rank])
        rank += 1
    return tuple(rows)


def reference_walk(program: ReferenceProgram, input_prep: BasisCircuit | None, merge: bool) -> list[tuple[int, Tableau, tuple, dict]]:
    """Branches as (weight, state, outcomes, bits), weight over program.denominator.

    input_prep prepares the inputs; with None they start in |0>, as a
    program lowered with choi needs.  The walk is breadth first and expands
    outcome 0 before 1, which lists the branches in depth-first order.  With
    merge, a wire is reset to |0> after a measurement marked reset, bits in
    drops are forgotten, and branches that then agree on canonical form and
    remaining bits are combined by adding their weights; outcomes stay
    empty.  Without merge, more than BRANCH_LIMIT branches raise
    BranchLimitError before they are built.
    """
    t = new_zero_state(program.n_wires)
    if input_prep is not None:
        if input_prep.element.n != len(program.inputs):
            raise ValueError(
                f"input preparation is for {input_prep.element.n} qubit(s), protocol takes {len(program.inputs)}"
            )
        for op in input_prep.gates:
            reference_apply_gate(t, op[0], *(program.inputs[q] for q in op[1:]))

    live = [(program.denominator, t, (), {})]
    for op, drop in zip(program.ops, program.drops):
        if op[0] == "u":
            for _, state, _, _ in live:
                reference_apply_tableau(state, op[1])
            continue
        if op[0] == "if":
            for _, state, _, bits in live:
                if bits[op[1]]:
                    reference_apply_gate(state, op[2], *op[3])
            reset = False
        else:
            _, q, c, reset = op
            reset = reset and merge
            forked = []
            for weight, state, outcomes, bits in live:
                resolution, collapse = reference_measure_z(state, q)
                if resolution.deterministic:
                    choices = (resolution.outcome,)
                else:
                    choices, weight = (0, 1), weight >> 1
                if not merge and len(forked) + len(choices) > BRANCH_LIMIT:
                    raise BranchLimitError()
                for b in choices:
                    after = collapse(b)
                    if reset and b:
                        reference_apply_gate(after, "X", q)
                    forked.append((weight, after, outcomes if merge else outcomes + (b,), {**bits, c: b}))
            live = forked
        if merge and (reset or drop):
            live = reference_merged(live, drop)
    return live


def reference_merged(live: list[tuple[int, Tableau, tuple, dict]], drop: tuple[int, ...]) -> list[tuple[int, Tableau, tuple, dict]]:
    """Forget the dropped bits, then combine branches equal in bits and state.

    Branches are grouped by their bits first, so only a group of two or
    more needs canonical forms.
    """
    by_bits: dict[tuple, list] = {}
    for weight, state, outcomes, bits in live:
        bits = {c: b for c, b in bits.items() if c not in drop}
        by_bits.setdefault(tuple(bits.items()), []).append([weight, state, outcomes, bits])
    merged = []
    for group in by_bits.values():
        if len(group) > 1:
            by_state: dict[tuple, list] = {}
            for branch in group:
                key = reference_canonical_form(branch[1])
                if key in by_state:
                    by_state[key][0] += branch[0]
                else:
                    by_state[key] = branch
            group = by_state.values()
        merged += map(tuple, group)
    return merged


def reference_run_protocol(ast: ProtocolAST, input_prep: BasisCircuit) -> list[BranchOutcome]:
    """Execute on one basis input, forking every random measurement.

    Branches come back depth first with outcome 0 explored before 1, so the
    order is deterministic.  Probabilities are exact powers of 1/2 and sum
    to exactly 1.
    """
    program = reference_lower(ast)
    return [
        BranchOutcome(Fraction(weight, program.denominator), state, outcomes, {program.cbits[c]: b for c, b in bits.items()})
        for weight, state, outcomes, bits in reference_walk(program, input_prep, merge=False)
    ]


# Pauli digit (I, X, Y, Z = 0..3) of one qubit's bits (x << 1) | z.
REFERENCE_DIGIT = (0, 3, 1, 2)


def reference_group(generators) -> list[tuple[int, int, int]]:
    """Every element of the group that commuting (x, z, phase_exp) generators
    generate, as (x, z, sign): sign is +-1, the Hermitian Pauli's sign."""
    group = [(0, 0, 0)]
    for gx, gz, gph in generators:
        group += [(x ^ gx, z ^ gz, ph + gph + 2 * (z & gx).bit_count()) for x, z, ph in group]
    return [(x, z, 1 - ((ph - (x & z).bit_count()) & 3)) for x, z, ph in group]


def reference_choi(ast: ProtocolAST, budget: int | None) -> tuple[int, int, int, dict[int, dict[int, int]]]:
    """The channel's Choi state as (n_in, n_out, denominator, choi).

    The protocol runs once on its Choi state J: reference wire j starts in
    a Bell pair with input j (lower with choi).  choi[A][q] times
    denominator is (-1)^#Y(A) Tr((A x P_q) J), for A a Pauli on the
    references keyed as its x bits over its z bits, and P_q output Pauli
    number q.  Tr((A x P) J) adds, over the merged branches, weight x the
    sign of +-(A x P) in the branch's stabilizer group, where it lies in
    the subgroup supported on outputs and references, and 0 elsewhere.
    """
    program = reference_lower(ast, choi=True)
    n_in, n_out = ast.n_in, ast.n_out
    work = 4 ** n_in * 4 ** n_out
    if budget is not None and work > budget:
        raise BudgetExceededError(work, budget)

    base = program.refs[0]
    out_mask = sum(1 << w for w in program.outputs)
    ref_mask = sum(1 << r for r in program.refs)
    shifts = [(w, 2 * (n_out - 1 - j)) for j, w in enumerate(program.outputs)]
    choi: dict[int, dict[int, int]] = {}
    for weight, state, _, _ in reference_walk(program, None, merge=True):
        gens = [(g.x_bits, g.z_bits, g.phase_exp) for g in reference_supported_subgroup(state, out_mask | ref_mask)]
        for x, z, sign in reference_group(gens):
            index = 0
            for w, shift in shifts:
                index |= REFERENCE_DIGIT[((x >> w) & 1) << 1 | ((z >> w) & 1)] << shift
            ax, az = x >> base, z >> base
            coeffs = choi.setdefault(ax << n_in | az, {})
            coeffs[index] = coeffs.get(index, 0) + (-sign if (ax & az).bit_count() & 1 else sign) * weight
    return n_in, n_out, program.denominator, choi


# ---------------------------------------------------------------------------
# The reference kernels: tableau._echelon and _supported as they were when
# each ran a dense elimination loop of its own, on the engine's (x, z, ph)
# rows.  On rows that generate a group without -I, _echelon must equal
# reference_echelon exactly, and _supported must generate the same group as
# reference_supported.


def reference_echelon(stabs: list, n: int) -> tuple:
    """The reduced echelon basis of the group the n rows stabs generate.

    Column col of the elimination (X of each qubit, then Z) is bit col of a
    row's key x | z << n; each pivot is the lowest column any remaining row
    has.  Rows are multiplied as _product does, on the keys.
    """
    mask = (1 << n) - 1
    keys = [x | z << n for x, z, _ in stabs]
    phases = [ph for _, _, ph in stabs]
    for rank in range(n):
        rest = 0
        for key in keys[rank:]:
            rest |= key
        if not rest:
            break
        bit = rest & -rest
        pivot = rank
        while not keys[pivot] & bit:
            pivot += 1
        key, ph = keys[pivot], phases[pivot]
        keys[pivot], phases[pivot] = keys[rank], phases[rank]
        keys[rank], phases[rank] = key, ph
        x = key & mask
        for i in range(n):
            if keys[i] & bit and i != rank:
                phases[i] = (phases[i] + ph + 2 * (keys[i] >> n & x).bit_count()) & 3
                keys[i] ^= key
    return tuple((key & mask, key >> n, ph) for key, ph in zip(keys, phases))


def reference_supported(stabs: list, n: int, wires: int) -> list:
    """Generators of the elements of the group stabs generate that act as I
    off the wire mask wires.

    The rows are reduced by GF(2) elimination on the columns outside wires,
    each kept row pivoting on its highest bit there; the rows left with no
    support there generate the subgroup, signs included.
    """
    off = ((1 << n) - 1) & ~wires
    pivots: list[tuple[int, tuple]] = []
    generators = []
    for row in stabs:
        key = ((row[0] & off) << n) | (row[1] & off)
        for pivot_key, pivot in pivots:
            if key ^ pivot_key < key:
                key ^= pivot_key
                row = _product(row, pivot)
        if key:
            pivots.append((key, row))
        else:
            generators.append(row)
    return generators


# ---------------------------------------------------------------------------
# The reference dense oracle: the walk of one input at a time, from an
# explicit stack of normalized branches, and the table built from one
# density matrix and one Pauli matrix per entry.  It keeps its own copies of
# the gate kernels, of the partial trace and of the Kronecker-built Pauli
# matrices it was written with.  fingerprint_dense and run_protocol_dense
# must agree with it within 1e-12.


def _reference_gate_dense(state: np.ndarray, n: int, gate: str, *qubits: int) -> np.ndarray:
    if gate == "CNOT":
        c, t = qubits
        idx = np.arange(1 << n)
        return state[idx ^ (((idx >> (n - 1 - c)) & 1) << (n - 1 - t))]
    psi = np.tensordot(dense._GATE_1Q[gate], state.reshape((2,) * n), axes=([1], [qubits[0]]))
    return np.moveaxis(psi, 0, qubits[0]).reshape(-1)


def _reference_density(branches: list[tuple[float, np.ndarray]], n: int, keep: list[int]) -> np.ndarray:
    rest = [q for q in range(n) if q not in keep]
    acc = np.zeros((1 << len(keep), 1 << len(keep)), dtype=complex)
    for prob, state in branches:
        block = np.transpose(state.reshape((2,) * n), axes=keep + rest).reshape(1 << len(keep), -1)
        acc += prob * (block @ block.conj().T)
    total = sum(prob for prob, _ in branches)
    if abs(total - 1.0) > dense.TOL:
        raise ValueError(f"branch probabilities sum to {total}, not 1")
    return acc


# Bounded, and large enough for every Pauli on up to three qubits.
@functools.lru_cache(maxsize=256)
def _reference_pauli_matrix(obs: PauliString) -> np.ndarray:
    """Dense matrix of a PauliString (qubit 0 is the first kron factor)."""
    mat = np.array([[1]], dtype=complex)
    for q in range(obs.n):
        factor = np.eye(2, dtype=complex)
        if (obs.x_bits >> q) & 1:
            factor = factor @ dense._GATE_1Q["X"]
        if (obs.z_bits >> q) & 1:
            factor = factor @ dense._GATE_1Q["Z"]
        mat = np.kron(mat, factor)
    return (1j ** obs.phase_exp) * mat


def reference_pauli_expect(dm: np.ndarray, obs: PauliString) -> float:
    """trace(obs . dm) through obs's dense matrix."""
    if not obs.is_hermitian:
        raise ValueError("observable must be Hermitian")
    if dm.shape != (1 << obs.n, 1 << obs.n):
        raise ValueError("density matrix dimension mismatch")
    val = complex(np.trace(_reference_pauli_matrix(obs) @ dm))
    if abs(val.imag) >= dense.TOL:
        raise ValueError("expectation has a non-negligible imaginary part")
    return val.real


def reference_run_dense(program: Program, input_state: np.ndarray) -> list[tuple[float, np.ndarray]]:
    n_total = program.n_wires
    if program.denominator << n_total > dense.DENSE_LIMIT:
        raise dense.DenseLimitError(n_total + program.denominator.bit_length() - 1)
    n_in = len(program.inputs)
    input_state = np.asarray(input_state, dtype=complex)
    if input_state.shape != (1 << n_in,):
        raise ValueError("input state dimension does not match the input arity")

    full = np.zeros(1 << n_total, dtype=complex)
    for part in range(1 << n_in):
        idx = 0
        for j, pos in enumerate(program.inputs):
            if (part >> (n_in - 1 - j)) & 1:
                idx |= 1 << (n_total - 1 - pos)
        full[idx] = input_state[part]

    # Depth first with outcome 0 before 1, from an explicit stack of
    # (next op, state, probability, bits).
    results: list[tuple[float, np.ndarray]] = []
    stack = [(0, full, 1.0, {})]
    while stack:
        i, state, prob, env = stack.pop()
        while i < len(program.ops):
            op = program.ops[i]
            i += 1
            if op[0] == "u":
                for gate in op[1]:
                    state = _reference_gate_dense(state, n_total, *gate)
            elif op[0] == "if":
                if env[op[1]]:
                    state = _reference_gate_dense(state, n_total, op[2], *op[3])
            else:
                forks = []
                for bit in (0, 1):
                    try:
                        nxt, p = dense.project_z(state, n_total, op[1], bit)
                    except dense.ZeroProbabilityError:
                        continue
                    forks.append((i, nxt, prob * p, {**env, op[2]: bit}))
                stack += reversed(forks)
                break
        else:
            results.append((prob, state))
    return results


def reference_basis_state(circ: BasisCircuit) -> np.ndarray:
    """The state that a basis circuit prepares from |0...0>."""
    n = circ.element.n
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for gate in circ.gates:
        state = _reference_gate_dense(state, n, *gate)
    return state


def reference_fingerprint_dense(program: Program) -> np.ndarray:
    n_in, n_out = len(program.inputs), len(program.outputs)
    table = np.zeros((4 ** n_in, 4 ** n_out))
    for k, circ in enumerate(enumerate_basis(n_in)):
        branches = reference_run_dense(program, reference_basis_state(circ))
        rho = _reference_density(branches, program.n_wires, list(program.outputs))
        for q in range(4 ** n_out):
            table[k, q] = reference_pauli_expect(rho, local_observable(n_out, q))
    return table
