"""Shared test utilities: random circuits, branch walkers, exact matrices."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from stabcheck import PauliString, SuperopFingerprint, apply_gate, enumerate_basis, expectation, measure_z, run_protocol
from stabcheck.basis import BASIS_ORDER_TAG, ExactComplex
from stabcheck.checker import local_observable

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


def random_protocol_source(rng: random.Random, name: str = "rand") -> str:
    """A valid random protocol: 1-2 inputs, 0-2 ancillas, up to 3 measurements
    into fresh classical bits, conditional X/Y/Z on bits already written, and
    outputs a random non-empty subset of the wires in random order."""
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
    decls += [f"cbit {c};" for c in written]
    outputs = rng.sample(wires, rng.randint(1, min(3, len(wires))))
    return f"protocol {name} {{\n  " + "\n  ".join(decls + body) + f"\n  output {', '.join(outputs)};\n}}\n"
