"""Superoperator equality by exact fingerprinting over the stabilizer basis.

A protocol is validated and lowered once, then run on every basis input.
Measurements fork the run into branches of exact dyadic probability; a
measured wire nobody touches again is reset to |0>, and branches that then
agree on state and on the classical bits still to be read are merged.
Discarded wires never need a density matrix: a branch's nonzero output-Pauli
expectations are exactly the elements of its stabilizer group supported on
the output wires.  Two protocols are equivalent exactly when their
fingerprint tables match entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dense
from .basis import BASIS_ORDER_TAG, BasisCircuit, BasisElement, enumerate_basis
from .protocol import GateStmt, IfGateStmt, ProtocolAST, errors_of, validate
from .tableau import (
    PauliString,
    Tableau,
    apply_gate,
    canonical_form,
    expectation,  # no longer called here; perfbench/spans.py still wraps this name
    measure_z,
    new_zero_state,
    supported_subgroup,
)

DEFAULT_BUDGET = 4 ** 10

_LETTERS = "IXYZ"
# Output-Pauli digit (I, X, Y, Z = 0..3) of a wire's bits (x << 1) | z.  The
# digits of a product of Paulis are the XOR of the factors' digits.
_DIGIT = (0, 3, 1, 2)


class ArityMismatchError(ValueError):
    """The two protocols differ in input or output arity."""


class BudgetExceededError(ValueError):
    def __init__(self, work: int, budget: int):
        super().__init__(f"fingerprint needs {work} exact entries, over the budget of {budget}")
        self.work = work
        self.budget = budget


@dataclass(frozen=True)
class BranchOutcome:
    probability: Fraction
    state: Tableau
    outcomes: tuple[int, ...]
    cbits: dict[str, int]


@dataclass(frozen=True)
class SuperopFingerprint:
    n_in: int
    n_out: int
    basis_order: str
    table: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Counterexample:
    basis_element: BasisElement
    observable: PauliString  # on the output wires only
    value_lhs: Fraction
    value_rhs: Fraction


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    counterexample: Counterexample | None = None
    # The (lhs, rhs) tables that were compared, for callers that reuse them.
    fingerprints: tuple[SuperopFingerprint, SuperopFingerprint] | None = None


@dataclass(frozen=True)
class Program:
    """A validated protocol lowered to integer wire and classical-bit indices.

    ops holds ("g", gate, wires), ("if", bit, gate, wires) and
    ("m", wire, bit, reset).  reset is set when the measurement is the last
    statement touching a wire that is not an output, so the wire is a
    discarded Z eigenstate from then on.  drops[i] lists the bits that no
    statement after ops[i] reads.  A branch's probability is an integer
    weight over denominator, 2 to the number of measurements.
    """

    n_wires: int
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    cbits: tuple[str, ...]
    ops: tuple[tuple, ...]
    drops: tuple[tuple[int, ...], ...]
    denominator: int


def lower(ast: ProtocolAST) -> Program:
    """Validate once and lower; raises ValueError listing every error."""
    errs = errors_of(validate(ast))
    if errs:
        listing = "; ".join(d.message for d in errs)
        raise ValueError(f"protocol {ast.name!r} failed validation: {listing}")
    wire = {q.name: i for i, q in enumerate(ast.qubits)}
    bit = {c.name: i for i, c in enumerate(ast.cbits)}
    ops: list[tuple] = []
    for stmt in ast.body:
        if isinstance(stmt, GateStmt):
            ops.append(("g", stmt.gate, tuple(wire[a.name] for a in stmt.args)))
        elif isinstance(stmt, IfGateStmt):
            ops.append(("if", bit[stmt.cbit.name], stmt.gate, tuple(wire[a.name] for a in stmt.args)))
        else:
            ops.append(("m", wire[stmt.qubit.name], bit[stmt.cbit.name], False))
    outputs = tuple(wire[o.name] for o in ast.outputs)

    # Backward pass: the first use met is the last use.  Outputs count as
    # used at the end, so they are never reset.
    used_wires, used_bits = set(outputs), set()
    drops: list[tuple[int, ...]] = []
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        if op[0] == "m":
            _, q, c, _ = op
            ops[i] = ("m", q, c, q not in used_wires)
            used_wires.add(q)
        else:
            used_wires.update(op[-1])
            if op[0] == "g":
                drops.append(())
                continue
            c = op[1]
        drops.append(() if c in used_bits else (c,))
        used_bits.add(c)
    return Program(
        n_wires=len(ast.qubits),
        inputs=tuple(wire[name] for name in ast.input_names),
        outputs=outputs,
        cbits=tuple(c.name for c in ast.cbits),
        ops=tuple(ops),
        drops=tuple(reversed(drops)),
        denominator=1 << sum(op[0] == "m" for op in ops),
    )


def _walk(program: Program, input_prep: BasisCircuit, merge: bool) -> list[tuple[int, Tableau, tuple, dict]]:
    """Branches as (weight, state, outcomes, bits), weight over program.denominator.

    The walk is breadth first and expands outcome 0 before 1, which lists
    the branches in depth-first order.  With merge, a wire is reset to |0>
    after a measurement marked reset, bits in drops are forgotten, and
    branches that then agree on canonical form and remaining bits are
    combined by adding their weights; outcomes stay empty.
    """
    if input_prep.element.n != len(program.inputs):
        raise ValueError(
            f"input preparation is for {input_prep.element.n} qubit(s), protocol takes {len(program.inputs)}"
        )
    t = new_zero_state(program.n_wires)
    for op in input_prep.gates:
        apply_gate(t, op[0], *(program.inputs[q] for q in op[1:]))

    live = [(program.denominator, t, (), {})]
    for op, drop in zip(program.ops, program.drops):
        if op[0] == "g":
            for _, state, _, _ in live:
                apply_gate(state, op[1], *op[2])
            continue
        if op[0] == "if":
            for _, state, _, bits in live:
                if bits[op[1]]:
                    apply_gate(state, op[2], *op[3])
            reset = False
        else:
            _, q, c, reset = op
            reset = reset and merge
            forked = []
            for weight, state, outcomes, bits in live:
                resolution, collapse = measure_z(state, q)
                if resolution.deterministic:
                    choices = (resolution.outcome,)
                else:
                    choices, weight = (0, 1), weight >> 1
                for b in choices:
                    after = collapse(b)
                    if reset and b:
                        apply_gate(after, "X", q)
                    forked.append((weight, after, outcomes if merge else outcomes + (b,), {**bits, c: b}))
            live = forked
        if merge and (reset or drop):
            live = _merged(live, drop)
    return live


def _merged(live: list[tuple[int, Tableau, tuple, dict]], drop: tuple[int, ...]) -> list[tuple[int, Tableau, tuple, dict]]:
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
                key = canonical_form(branch[1])
                if key in by_state:
                    by_state[key][0] += branch[0]
                else:
                    by_state[key] = branch
            group = by_state.values()
        merged += map(tuple, group)
    return merged


def run_protocol(ast: ProtocolAST, input_prep: BasisCircuit) -> list[BranchOutcome]:
    """Execute on one basis input, forking every random measurement.

    Branches come back depth first with outcome 0 explored before 1, so the
    order is deterministic.  Probabilities are exact powers of 1/2 and sum
    to exactly 1.
    """
    program = lower(ast)
    return [
        BranchOutcome(Fraction(weight, program.denominator), state, outcomes, {program.cbits[c]: b for c, b in bits.items()})
        for weight, state, outcomes, bits in _walk(program, input_prep, merge=False)
    ]


def local_observable(n_out: int, pauli_index: int) -> PauliString:
    """The same Pauli expressed on the output wires alone."""
    x = z = phase = 0
    for j in range(n_out):
        digit = (pauli_index // 4 ** (n_out - 1 - j)) % 4
        letter = _LETTERS[digit]
        xb = 1 if letter in ("X", "Y") else 0
        zb = 1 if letter in ("Z", "Y") else 0
        x |= xb << j
        z |= zb << j
        phase += xb & zb
    return PauliString(n_out, x, z, phase % 4)


def fingerprint(ast: ProtocolAST, budget: int | None = DEFAULT_BUDGET) -> SuperopFingerprint:
    """Exact table of output-Pauli expectations for every basis input.

    Each merged branch adds sign x probability at the index of every element
    of its stabilizer group supported on the outputs; every other entry of
    the branch is 0.
    """
    program = lower(ast)
    n_in, n_out = ast.n_in, ast.n_out
    work = 4 ** n_in * 4 ** n_out
    if budget is not None and work > budget:
        raise BudgetExceededError(work, budget)

    out_mask = sum(1 << w for w in program.outputs)
    shifts = [(w, 2 * (n_out - 1 - j)) for j, w in enumerate(program.outputs)]
    identity = PauliString.identity(program.n_wires)
    table = []
    for circ in enumerate_basis(n_in):
        sums = [0] * 4 ** n_out
        for weight, state, _, _ in _walk(program, circ, merge=True):
            group = [(0, identity)]
            for g in supported_subgroup(state, out_mask):
                index = 0
                for w, shift in shifts:
                    index |= _DIGIT[((g.x_bits >> w) & 1) << 1 | ((g.z_bits >> w) & 1)] << shift
                group += [(i ^ index, p * g) for i, p in group]
            for i, p in group:
                sums[i] += weight * p.sign
        table.append(tuple(Fraction(s, program.denominator) for s in sums))
    return SuperopFingerprint(n_in, n_out, BASIS_ORDER_TAG, tuple(table))


def check_equivalence(
    lhs: ProtocolAST,
    rhs: ProtocolAST,
    budget: int | None = DEFAULT_BUDGET,
) -> Verdict:
    """Compare two protocols entry for entry; exact, no tolerance anywhere."""
    if lhs.n_in != rhs.n_in or lhs.n_out != rhs.n_out:
        raise ArityMismatchError(
            f"arity mismatch: {lhs.name} is {lhs.n_in}->{lhs.n_out}, {rhs.name} is {rhs.n_in}->{rhs.n_out}"
        )
    fp_l = fingerprint(lhs, budget=budget)
    fp_r = fingerprint(rhs, budget=budget)
    if fp_l == fp_r:
        return Verdict(True, None, (fp_l, fp_r))
    elements = [c.element for c in enumerate_basis(lhs.n_in)]
    for k, (row_l, row_r) in enumerate(zip(fp_l.table, fp_r.table)):
        for q, (a, b) in enumerate(zip(row_l, row_r)):
            if a != b:
                ce = Counterexample(elements[k], local_observable(lhs.n_out, q), a, b)
                return Verdict(False, ce, (fp_l, fp_r))
    raise AssertionError("fingerprints differ but no entry does")


# ---------------------------------------------------------------------------
# Dense cross-checks.  These mirror the exact pipeline with floating point
# and arbitrary input states; they validate, never decide.


def _run_dense(program: Program, input_state: np.ndarray) -> list[tuple[float, np.ndarray]]:
    n_total = program.n_wires
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

    results: list[tuple[float, np.ndarray]] = []

    def walk(state: np.ndarray, index: int, prob: float, env: dict[int, int]) -> None:
        for i in range(index, len(program.ops)):
            op = program.ops[i]
            if op[0] == "g":
                state = dense.apply_gate_dense(state, n_total, op[1], *op[2])
            elif op[0] == "if":
                if env[op[1]]:
                    state = dense.apply_gate_dense(state, n_total, op[2], *op[3])
            else:
                for bit in (0, 1):
                    try:
                        nxt, p = dense.project_z(state, n_total, op[1], bit)
                    except dense.ZeroProbabilityError:
                        continue
                    walk(nxt, i + 1, prob * p, {**env, op[2]: bit})
                return
        results.append((prob, state))

    walk(full, 0, 1.0, {})
    return results


def run_protocol_dense(ast: ProtocolAST, input_state: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Branch-complete dense execution from an arbitrary input-wire state."""
    return _run_dense(lower(ast), input_state)


def fingerprint_dense(ast: ProtocolAST) -> np.ndarray:
    """Floating-point fingerprint via full density matrices; oracle only."""
    program = lower(ast)
    n_in, n_out = ast.n_in, ast.n_out
    table = np.zeros((4 ** n_in, 4 ** n_out))
    for k, circ in enumerate(enumerate_basis(n_in)):
        prep, _ = dense.run_dense(n_in, circ.gates)
        rho = dense.density_from_branches(_run_dense(program, prep), program.outputs)
        for q in range(4 ** n_out):
            table[k, q] = dense.pauli_expect_dense(rho, local_observable(n_out, q))
    return table
