"""Superoperator equality by exact fingerprinting over the stabilizer basis.

A protocol is validated and lowered once, then run once on its Choi state:
every input wire starts in a Bell pair with a reference wire of its own.
Measurements fork the run into branches of exact dyadic probability; a
measured wire nobody touches again is reset to |0>, and branches that then
agree on state and on the classical bits still to be read are merged.
Discarded wires never need a density matrix: the elements of a branch's
stabilizer group supported on the outputs and references fix the channel's
Choi state as exact Pauli coefficients.  The fingerprint row of each basis
input follows from those and the input's own stabilizer group, so the table
is an invertible linear image of the coefficients.  Two protocols are
therefore equivalent exactly when their coefficients are equal, and tables
are built only to name the first differing entry, or when asked for.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial

import numpy as np

from . import dense
from .basis import BASIS_ORDER_TAG, BasisCircuit, BasisElement, basis_element, enumerate_basis
from .protocol import GateStmt, IfGateStmt, ProtocolAST, errors_of, validate
from .tableau import (
    PauliString,
    Tableau,
    apply_gate,
    apply_tableau,
    canonical_form,
    measure_z,
    new_zero_state,
    run_circuit,
    supported_subgroup,
)

DEFAULT_BUDGET = 4 ** 10
# The dense oracle holds every branch's state vector: up to 2^(wires +
# measurements) amplitudes, 16 MB at this limit.
DENSE_LIMIT = 2 ** 20
# run_protocol, and so sim, lists every branch without merging; past this
# many it stops.
BRANCH_LIMIT = 2 ** 12

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


class DenseLimitError(ValueError):
    def __init__(self, log_work: int):
        super().__init__(
            f"the dense oracle needs 2^(wires + measurements) = 2^{log_work} amplitudes, "
            f"over its limit of 2^{DENSE_LIMIT.bit_length() - 1}"
        )


class BranchLimitError(ValueError):
    def __init__(self):
        super().__init__(
            f"the run forks into more than 2^{BRANCH_LIMIT.bit_length() - 1} branches, "
            "over the limit for listing every branch"
        )


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
    # The (lhs, rhs) channels that were compared, as _choi returns them.
    _channels: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def fingerprints(self) -> tuple[SuperopFingerprint, SuperopFingerprint] | None:
        """Both sides' tables, built from the compared channels when read."""
        if self._channels is None:
            return None
        return tuple(map(_table, self._channels))


@dataclass(frozen=True)
class Program:
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


def lower(ast: ProtocolAST, choi: bool = False) -> Program:
    """Validate once and lower; raises ValueError listing every error."""
    errs = errors_of(validate(ast))
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
    return Program(
        n_wires=n_wires,
        inputs=inputs,
        outputs=outputs,
        cbits=tuple(c.name for c in ast.cbits),
        ops=tuple(ops),
        drops=tuple(reversed(drops)),
        denominator=1 << measurements,
        refs=refs,
    )


def _walk(program: Program, input_prep: BasisCircuit | None, merge: bool) -> list[tuple[int, Tableau, tuple, dict]]:
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
            apply_gate(t, op[0], *(program.inputs[q] for q in op[1:]))

    live = [(program.denominator, t, (), {})]
    for op, drop in zip(program.ops, program.drops):
        if op[0] == "u":
            for _, state, _, _ in live:
                apply_tableau(state, op[1])
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
                if not merge and len(forked) + len(choices) > BRANCH_LIMIT:
                    raise BranchLimitError()
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


def _group(generators) -> list[tuple[int, int, int]]:
    """Every element of the group that commuting (x, z, phase_exp) generators
    generate, as (x, z, sign): sign is +-1, the Hermitian Pauli's sign."""
    group = [(0, 0, 0)]
    for gx, gz, gph in generators:
        group += [(x ^ gx, z ^ gz, ph + gph + 2 * (z & gx).bit_count()) for x, z, ph in group]
    return [(x, z, 1 - ((ph - (x & z).bit_count()) & 3)) for x, z, ph in group]


@cache
def _input_generators(n_in: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Each basis input's stabilizer generators as (x, z, phase_exp), in
    enumerate_basis order.  The cache lives as long as the process, so it
    keeps n_in generators per input, not the 2^n_in-element groups."""
    return tuple(
        tuple((g.x_bits, g.z_bits, g.phase_exp) for g in circ.prepare().stabilizers) for circ in enumerate_basis(n_in)
    )


def _choi(ast: ProtocolAST, budget: int | None) -> tuple[int, int, int, dict[int, dict[int, int]]]:
    """The channel's Choi state as (n_in, n_out, denominator, choi).

    The protocol runs once on its Choi state J: reference wire j starts in
    a Bell pair with input j (lower with choi).  choi[A][q] times
    denominator is (-1)^#Y(A) Tr((A x P_q) J), for A a Pauli on the
    references keyed as its x bits over its z bits, and P_q output Pauli
    number q.  Tr((A x P) J) adds, over the merged branches, weight x the
    sign of +-(A x P) in the branch's stabilizer group, where it lies in
    the subgroup supported on outputs and references, and 0 elsewhere.
    """
    program = lower(ast, choi=True)
    n_in, n_out = ast.n_in, ast.n_out
    work = 4 ** n_in * 4 ** n_out
    if budget is not None and work > budget:
        raise BudgetExceededError(work, budget)

    base = program.refs[0]
    out_mask = sum(1 << w for w in program.outputs)
    ref_mask = sum(1 << r for r in program.refs)
    shifts = [(w, 2 * (n_out - 1 - j)) for j, w in enumerate(program.outputs)]
    choi: dict[int, dict[int, int]] = {}
    for weight, state, _, _ in _walk(program, None, merge=True):
        gens = [(g.x_bits, g.z_bits, g.phase_exp) for g in supported_subgroup(state, out_mask | ref_mask)]
        for x, z, sign in _group(gens):
            index = 0
            for w, shift in shifts:
                index |= _DIGIT[((x >> w) & 1) << 1 | ((z >> w) & 1)] << shift
            ax, az = x >> base, z >> base
            coeffs = choi.setdefault(ax << n_in | az, {})
            coeffs[index] = coeffs.get(index, 0) + (-sign if (ax & az).bit_count() & 1 else sign) * weight
    return n_in, n_out, program.denominator, choi


def _rows(channel) -> Iterator[list[int]]:
    """Each basis input's fingerprint row, in enumerate_basis order, as
    integers over the channel's denominator.

    Since rho^T has A^T = (-1)^#Y(A) A,

        Tr(P E(rho)) = sum_A <A>_rho (-1)^#Y(A) Tr((A x P) J),

    and <A>_rho of a basis input is the sign of +-A in its stabilizer
    group, or 0, so the row sums choi over that group's 2^n_in elements.
    """
    n_in, n_out, _, choi = channel
    for gens in _input_generators(n_in):
        sums = [0] * 4 ** n_out
        for x, z, sign in _group(gens):
            for q, c in choi.get(x << n_in | z, {}).items():
                sums[q] += sign * c
        yield sums


def _table(channel) -> SuperopFingerprint:
    n_in, n_out, denominator, _ = channel
    # Tables hold few distinct values, so each Fraction is built once.
    value = cache(partial(Fraction, denominator=denominator))
    table = tuple(tuple(map(value, sums)) for sums in _rows(channel))
    return SuperopFingerprint(n_in, n_out, BASIS_ORDER_TAG, table)


def fingerprint(ast: ProtocolAST, budget: int | None = DEFAULT_BUDGET) -> SuperopFingerprint:
    """Exact table of output-Pauli expectations for every basis input.

    The rows come from one walk over the protocol's Choi state (_choi); no
    basis input is run on its own.
    """
    return _table(_choi(ast, budget))


def _scaled(channel, denominator: int) -> dict[tuple[int, int], int]:
    _, _, d, choi = channel
    scale = denominator // d
    return {(a, q): c * scale for a, coeffs in choi.items() for q, c in coeffs.items() if c}


def check_equivalence(
    lhs: ProtocolAST,
    rhs: ProtocolAST,
    budget: int | None = DEFAULT_BUDGET,
) -> Verdict:
    """Decide on the Choi states; exact, no tolerance anywhere.

    The fingerprint table is an invertible linear image of the Choi
    coefficients, so the two sides are equivalent exactly when their
    nonzero coefficients agree once both are put over the larger
    denominator (both are powers of two); no table is built then.
    Otherwise the rows of both tables are built a pair at a time, and the
    counterexample is the first entry, in table order, where they differ.
    """
    if lhs.n_in != rhs.n_in or lhs.n_out != rhs.n_out:
        raise ArityMismatchError(
            f"arity mismatch: {lhs.name} is {lhs.n_in}->{lhs.n_out}, {rhs.name} is {rhs.n_in}->{rhs.n_out}"
        )
    ch_l = _choi(lhs, budget)
    ch_r = _choi(rhs, budget)
    d_l, d_r = ch_l[2], ch_r[2]
    denominator = max(d_l, d_r)
    if _scaled(ch_l, denominator) == _scaled(ch_r, denominator):
        return Verdict(True, None, (ch_l, ch_r))
    s_l, s_r = denominator // d_l, denominator // d_r
    for k, (row_l, row_r) in enumerate(zip(_rows(ch_l), _rows(ch_r))):
        for q, (a, b) in enumerate(zip(row_l, row_r)):
            if a * s_l != b * s_r:
                element = basis_element(lhs.n_in, k)
                ce = Counterexample(element, local_observable(lhs.n_out, q), Fraction(a, d_l), Fraction(b, d_r))
                return Verdict(False, ce, (ch_l, ch_r))
    raise AssertionError("Choi states differ but no table entry does")


# ---------------------------------------------------------------------------
# Dense cross-checks.  These mirror the exact pipeline with floating point
# and arbitrary input states; they validate, never decide.


def _run_dense(program: Program, input_state: np.ndarray) -> list[tuple[float, np.ndarray]]:
    n_total = program.n_wires
    if program.denominator << n_total > DENSE_LIMIT:
        raise DenseLimitError(n_total + program.denominator.bit_length() - 1)
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
                for gate in op[1].trace:
                    state = dense.apply_gate_dense(state, n_total, *gate)
            elif op[0] == "if":
                if env[op[1]]:
                    state = dense.apply_gate_dense(state, n_total, op[2], *op[3])
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
