"""Superoperator equality by exact fingerprinting over the stabilizer basis.

A protocol is validated and lowered once, to one Program, then run once on
its Choi state: every input wire starts in a Bell pair with a reference
wire of its own.  Discarded wires never need a density matrix: the
elements of the state's stabilizer group supported on the outputs and
references fix the channel's Choi state as exact Pauli coefficients.  The
fingerprint row of each basis input follows from those and the input's own
stabilizer group, so the table is an invertible linear image of the
coefficients.  Two protocols are therefore equivalent exactly when their
Choi states are equal, and tables are built only to name the first
differing entry, or when asked for.

Two deciders compare the Choi states.  When every classical bit controls
only X, Y or Z, deferred measurement (Nielsen & Chuang 4.4) turns the
protocol into one Clifford circuit on one pure state, with no branches
(_deferred).  Its Choi state is the reduced state on the references and
outputs, which the signed subgroup supported there fixes (Fattal et al.,
quant-ph/0406168), so the verdict compares the canonical forms of the two
subgroups (_reduced).  When a bit controls H, P or CNOT, the controlled
gate is not Clifford, and the Choi state is walked instead: measurements
fork the run into branches of exact dyadic probability, a measured wire
nobody touches again is reset to |0>, and branches that then agree on
state and on the classical bits still to be read are merged.  The verdict
then compares the Choi coefficients.

The walk keeps each branch's state as the tableau module's engine rows, a
list of (x, z, ph) int triples, and calls its kernels, each of which
returns a new list.  PauliString and Tableau objects appear only where the
public API hands them out: run_protocol's branches and counterexamples.
numpy is imported only by the dense oracle at the end of the module.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import TYPE_CHECKING

from .basis import BASIS_ORDER_TAG, BasisCircuit, BasisElement, basis_element, enumerate_basis
from .protocol import GateStmt, IfGateStmt, ProtocolAST, errors_of, validate
from .tableau import (
    PauliString,
    Tableau,
    _boxed,
    _circuit,
    _collapsed,
    _composed,
    _echelon,
    _gated,
    _images,
    _supported,
    _triples,
    _z_pivot,
    run_circuit,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 4 ** 10
# The dense oracle holds every branch's state vector: up to 2^(wires +
# measurements) amplitudes, 16 MB at this limit.
DENSE_LIMIT = 2 ** 20
# run_protocol, and so sim, lists every branch without merging; past this
# many it stops.
BRANCH_LIMIT = 2 ** 12
# The merged walk of check and fingerprint holds at most this many live
# branches; a 16-site cluster-state wire with deferred corrections needs all
# of them, and about 500 MB.
MERGED_BRANCH_LIMIT = 2 ** 16

_LETTERS = "IXYZ"
# Output-Pauli digit (I, X, Y, Z = 0..3) of a wire's bits (x << 1) | z.  The
# digits of a product of Paulis are the XOR of the factors' digits.
_DIGIT = (0, 3, 1, 2)


class ArityMismatchError(ValueError):
    """The two protocols differ in input or output arity."""


class BudgetExceededError(ValueError):
    def __init__(self, work: int, budget: int, differ: bool = False):
        if differ:
            super().__init__(
                f"the two sides differ; naming a counterexample needs a budget of {work} exact entries, "
                f"over the budget of {budget}"
            )
        else:
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
    def __init__(self, merged: bool = False):
        if merged:
            super().__init__(
                f"the merged walk would hold more than 2^{MERGED_BRANCH_LIMIT.bit_length() - 1} live branches, "
                "over its limit of MERGED_BRANCH_LIMIT"
            )
        else:
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
    # Returns the (lhs, rhs) channels, as _choi returns them, of the states
    # that were compared.
    _channels: Callable[[], tuple] | None = field(default=None, compare=False, repr=False)
    # DEFERRED, or "branch walk: " and why the walk was needed.
    decider: str | None = field(default=None, compare=False)

    @property
    def fingerprints(self) -> tuple[SuperopFingerprint, SuperopFingerprint] | None:
        """Both sides' tables, built from the compared states when read; a
        table over the budget the verdict was asked with raises
        BudgetExceededError."""
        if self._channels is None:
            return None
        return tuple(map(_table, self._channels()))


@dataclass(frozen=True)
class Program:
    """A validated protocol lowered to integer wire and classical-bit indices.

    ops holds ("u", images, gates), ("if", bit, gate, wires) and
    ("m", wire, bit, reset).  gates is one maximal run of plain gates and
    images the run's Clifford as tableau._images gives it, composed once at
    lowering.  Images touch only the wires the run moves, so they hold at
    any width from n_wires up, as the Choi walk's reference wires need.
    reset is set when the measurement is the last statement touching a wire
    that is not an output, so the wire is a discarded Z eigenstate from then
    on: the branch walk resets it to |0>, and deferred measurement uses the
    wire itself as the control of the bit's corrections, where any other
    measurement needs an ancilla.  drops[i] lists the bits that no
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
    return _lower(ast)


def _lower(ast: ProtocolAST) -> Program:
    """Lower a protocol that validate has passed; nothing is checked again.

    One backward pass, in which the first use met is the last use.  Outputs
    count as used at the end, so they are never reset.  A run of plain gates
    is gathered as ("u", its gates in reverse) and composed at the end.
    """
    wire = {q.name: i for i, q in enumerate(ast.qubits)}
    bit = {c.name: i for i, c in enumerate(ast.cbits)}
    outputs = tuple(wire[o.name] for o in ast.outputs)
    used_wires, used_bits = set(outputs), set()
    ops: list[tuple] = []
    drops: list[tuple[int, ...]] = []
    run = None
    for stmt in reversed(ast.body):
        if isinstance(stmt, GateStmt):
            args = stmt.args
            q = wire[args[0].name]
            used_wires.add(q)
            if len(args) == 1:
                gate = (stmt.gate, q)
            else:
                t = wire[args[1].name]
                used_wires.add(t)
                gate = (stmt.gate, q, t)
            if run is None:
                run = []
                ops.append(("u", run))
                drops.append(())
            run.append(gate)
            continue
        run = None
        c = bit[stmt.cbit.name]
        if isinstance(stmt, IfGateStmt):
            wires = tuple(wire[a.name] for a in stmt.args)
            ops.append(("if", c, stmt.gate, wires))
            used_wires.update(wires)
        else:
            q = wire[stmt.qubit.name]
            ops.append(("m", q, c, q not in used_wires))
            used_wires.add(q)
        drops.append(() if c in used_bits else (c,))
        used_bits.add(c)
    n_wires = len(wire)
    for i, op in enumerate(ops):
        if op[0] == "u":
            gates = tuple(reversed(op[1]))
            ops[i] = ("u", _images(_circuit(n_wires, gates), n_wires), gates)
    return Program(
        n_wires=n_wires,
        inputs=tuple(wire[name] for name in ast.input_names),
        outputs=outputs,
        cbits=tuple(c.name for c in ast.cbits),
        ops=tuple(reversed(ops)),
        drops=tuple(reversed(drops)),
        denominator=1 << sum(op[0] == "m" for op in ops),
    )


def _prep_gates(program: Program, input_prep: BasisCircuit) -> list[tuple]:
    """input_prep's gates moved onto the program's input wires."""
    if input_prep.element.n != len(program.inputs):
        raise ValueError(
            f"input preparation is for {input_prep.element.n} qubit(s), protocol takes {len(program.inputs)}"
        )
    return [(g[0], *(program.inputs[q] for q in g[1:])) for g in input_prep.gates]


def _bell(program: Program) -> list[tuple]:
    """Reference wire n_wires + j into a Bell pair with input j."""
    w = program.n_wires
    return [g for j, q in enumerate(program.inputs) for g in (("H", w + j), ("CNOT", w + j, q))]


def _walk(program: Program, input_prep: BasisCircuit | None, merge: bool) -> list[tuple[int, list, tuple, dict]]:
    """Branches as (weight, rows, outcomes, bits), weight over program.denominator.

    rows is the branch's state as engine rows.  input_prep prepares the
    inputs; with None, reference wire n_wires + j starts in a Bell pair
    with input j (H ref; CNOT ref, input), so the walk runs on the Choi
    state, n_wires + n_in wires wide.  The walk is breadth first and
    expands outcome 0 before 1, which lists the branches in depth-first
    order.  With merge, a wire is reset to |0> after a measurement marked
    reset, bits in drops are forgotten, and branches that then agree on
    canonical form and remaining bits are combined by adding their weights;
    outcomes stay empty.  More than BRANCH_LIMIT branches, or
    MERGED_BRANCH_LIMIT with merge, raise BranchLimitError before they are
    built.
    """
    w = program.n_wires
    if input_prep is None:
        rows = _circuit(w + len(program.inputs), _bell(program))
    else:
        # run_circuit checks the gates, which come from outside the program.
        rows = _triples(run_circuit(w, _prep_gates(program, input_prep)).rows)
    n = len(rows) >> 1
    limit = MERGED_BRANCH_LIMIT if merge else BRANCH_LIMIT

    live = [(program.denominator, rows, (), {})]
    for op, drop in zip(program.ops, program.drops):
        if op[0] == "u":
            live = [(weight, _composed(rows, op[1]), outcomes, bits) for weight, rows, outcomes, bits in live]
            continue
        if op[0] == "if":
            c, g = op[1], (op[2], *op[3])
            live = [
                (weight, _gated(rows, g) if bits[c] else rows, outcomes, bits) for weight, rows, outcomes, bits in live
            ]
            reset = False
        else:
            _, q, c, reset = op
            reset = reset and merge
            forked = []
            for weight, rows, outcomes, bits in live:
                pivot, forced = _z_pivot(rows, n, q)
                if pivot is None:
                    choices = (forced,)
                else:
                    choices, weight = (0, 1), weight >> 1
                if len(forked) + len(choices) > limit:
                    raise BranchLimitError(merge)
                for b in choices:
                    after = rows if pivot is None else _collapsed(rows, n, q, pivot, b)
                    if reset and b:
                        after = _gated(after, ("X", q))
                    forked.append((weight, after, outcomes if merge else outcomes + (b,), {**bits, c: b}))
            live = forked
        if merge and (reset or drop):
            live = _merged(live, drop, n)
    return live


def _merged(live: list[tuple[int, list, tuple, dict]], drop: tuple[int, ...], n: int) -> list[tuple[int, list, tuple, dict]]:
    """Forget the dropped bits, then combine branches equal in bits and state.

    Branches are grouped by their bits first, so only a group of two or
    more needs canonical forms: the echelon rows of the n-wire states.
    """
    by_bits: dict[tuple, list] = {}
    for weight, rows, outcomes, bits in live:
        bits = {c: b for c, b in bits.items() if c not in drop}
        by_bits.setdefault(tuple(bits.items()), []).append([weight, rows, outcomes, bits])
    merged = []
    for group in by_bits.values():
        if len(group) > 1:
            by_state: dict[tuple, list] = {}
            for branch in group:
                key = _echelon(branch[1][n:], n)
                if key in by_state:
                    by_state[key][0] += branch[0]
                else:
                    by_state[key] = branch
            group = by_state.values()
        merged += map(tuple, group)
    return merged


def _walk_reason(program: Program) -> str | None:
    """Why the program needs the branch walk, as "bit c controls G" for
    the first if that applies H, P or CNOT; None when _deferred can run it."""
    for op in program.ops:
        if op[0] == "if" and op[2] in ("H", "P", "CNOT"):
            return f"bit {program.cbits[op[1]]} controls {op[2]}"
    return None


def _deferred(program: Program) -> list:
    """The rows of one pure state whose reduced state on the references and
    outputs is the Choi state, for a program no _walk_reason stops.

    Deferred measurement: the Bell pairs of _bell, then every op as gates
    in time order, composed once.  A measurement marked reset leaves its
    wire as the control of its bit, since nothing touches the wire again;
    any other copies the wire onto a fresh ancilla after the references
    (CNOT wire, ancilla), which dephases the wire as the measurement does,
    and the ancilla is the control.  if c then X, Z or Y b becomes that
    Pauli controlled by c's wire: CNOT; H b, CNOT, H b; or P^3 b, CNOT, P b.
    Controls are only ever read in the Z basis, so measuring them all at
    the end, as tracing them out does, gives the protocol's channel.
    """
    gates = _bell(program)
    width = program.n_wires + len(program.inputs)
    control: dict[int, int] = {}
    for op in program.ops:
        if op[0] == "u":
            gates += op[2]
        elif op[0] == "m":
            _, q, c, reset = op
            if reset:
                control[c] = q
            else:
                gates.append(("CNOT", q, width))
                control[c] = width
                width += 1
        else:
            _, c, gate, (b,) = op
            cnot = ("CNOT", control[c], b)
            if gate == "X":
                gates.append(cnot)
            elif gate == "Z":
                gates += (("H", b), cnot, ("H", b))
            else:
                gates += (("P", b),) * 3 + (cnot, ("P", b))
    return _circuit(width, gates)


def _reduced(program: Program, rows: list) -> tuple:
    """The canonical form of the Choi state the _deferred rows purify.

    It is the _echelon basis of the subgroup supported on the references
    and outputs, renumbered as (references, outputs in order) and padded
    with identity rows to that many, so two programs' forms are equal
    exactly when their Choi states are.
    """
    n = len(rows) >> 1
    base = program.n_wires
    order = [*range(base, base + len(program.inputs)), *program.outputs]
    position = {1 << w: 1 << i for i, w in enumerate(order)}
    generators = []
    for x, z, ph in _supported(rows[n:], n, sum(position)):
        mapped = []
        for bits in (x, z):
            out = 0
            while bits:
                low = bits & -bits
                out |= position[low]
                bits ^= low
            mapped.append(out)
        generators.append((*mapped, ph))
    m = len(order)
    return _echelon(generators + [(0, 0, 0)] * (m - len(generators)), m)


def _trace(program: Program, prep: list[tuple], outcomes: tuple[int, ...]) -> list[tuple]:
    """The gates and measurements a branch went through, as apply_gate,
    apply_tableau and measure_z would have recorded them: prep, then the
    ops with each measurement's bit taken from outcomes in turn."""
    trace = list(prep)
    bits: dict[int, int] = {}
    measured = iter(outcomes)
    for op in program.ops:
        if op[0] == "u":
            trace += op[2]
        elif op[0] == "if":
            if bits[op[1]]:
                trace.append((op[2], *op[3]))
        else:
            bits[op[2]] = next(measured)
            trace.append(("M", op[1]))
    return trace


def run_protocol(ast: ProtocolAST, input_prep: BasisCircuit) -> list[BranchOutcome]:
    """Execute on one basis input, forking every random measurement.

    Branches come back depth first with outcome 0 explored before 1, so the
    order is deterministic.  Probabilities are exact powers of 1/2 and sum
    to exactly 1.
    """
    return _run(lower(ast), input_prep)


def _run(program: Program, input_prep: BasisCircuit) -> list[BranchOutcome]:
    branches = _walk(program, input_prep, merge=False)
    n, prep = program.n_wires, _prep_gates(program, input_prep)
    return [
        BranchOutcome(
            Fraction(weight, program.denominator),
            Tableau(n, _boxed(n, rows), _trace(program, prep, outcomes)),
            outcomes,
            {program.cbits[c]: b for c, b in bits.items()},
        )
        for weight, rows, outcomes, bits in branches
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
    return tuple(tuple(_circuit(n_in, circ.gates)[n_in:]) for circ in enumerate_basis(n_in))


def _choi(program: Program, budget: int | None, state: list | None = None) -> tuple[int, int, int, dict[int, dict[int, int]]]:
    """The channel's Choi state as (n_in, n_out, denominator, choi).

    The protocol runs once on its Choi state J: reference wire j starts in
    a Bell pair with input j (_walk with no input_prep).  choi[A][q] times
    denominator is (-1)^#Y(A) Tr((A x P_q) J), for A a Pauli on the
    references keyed as its x bits over its z bits, and P_q output Pauli
    number q.  Tr((A x P) J) adds, over the merged branches, weight x the
    sign of +-(A x P) in the branch's stabilizer group, where it lies in
    the subgroup supported on outputs and references, and 0 elsewhere.
    Given the _deferred rows as state, that is the one branch, of weight 1
    over denominator 1, and nothing is walked.
    """
    n_in, n_out = len(program.inputs), len(program.outputs)
    work = 4 ** n_in * 4 ** n_out
    if budget is not None and work > budget:
        raise BudgetExceededError(work, budget)

    if state is None:
        branches, denominator = _walk(program, None, merge=True), program.denominator
    else:
        branches, denominator = [(1, state, (), {})], 1
    base = program.n_wires  # reference wire j is base + j
    wires = sum(1 << w for w in program.outputs) | ((1 << n_in) - 1) << base
    shifts = [(w, 2 * (n_out - 1 - j)) for j, w in enumerate(program.outputs)]
    choi: dict[int, dict[int, int]] = {}
    for weight, rows, _, _ in branches:
        n = len(rows) >> 1
        for x, z, sign in _group(_supported(rows[n:], n, wires)):
            index = 0
            for w, shift in shifts:
                index |= _DIGIT[((x >> w) & 1) << 1 | ((z >> w) & 1)] << shift
            ax, az = x >> base, z >> base
            coeffs = choi.setdefault(ax << n_in | az, {})
            coeffs[index] = coeffs.get(index, 0) + (-sign if (ax & az).bit_count() & 1 else sign) * weight
    return n_in, n_out, denominator, choi


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

    The rows come from the protocol's Choi state (_choi), on its _deferred
    state or, when a bit controls H, P or CNOT, from the merged walk; no
    basis input is run on its own.
    """
    program = lower(ast)
    return _table(_choi(program, budget, None if _walk_reason(program) else _deferred(program)))


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

    When no bit on either side controls H, P or CNOT, the sides are
    equivalent exactly when the _reduced forms of their _deferred states
    are equal, which needs no budget.  Otherwise both sides are walked, and
    they are equivalent exactly when their nonzero Choi coefficients agree
    once both are put over the larger denominator (both are powers of two).
    No table is built for an equivalent pair.  Otherwise the rows of both
    tables are built a pair at a time, and the counterexample is the first
    entry, in table order, where they differ; past the budget, that raises
    BudgetExceededError saying that the sides differ.
    """
    if lhs.n_in != rhs.n_in or lhs.n_out != rhs.n_out:
        raise ArityMismatchError(
            f"arity mismatch: {lhs.name} is {lhs.n_in}->{lhs.n_out}, {rhs.name} is {rhs.n_in}->{rhs.n_out}"
        )
    return _verdict(lower(lhs), lower(rhs), budget)


# The decider that Verdict.decider names when no bit controls H, P or CNOT.
DEFERRED = "deferred measurement"


def _verdict(lhs: Program, rhs: Program, budget: int | None) -> Verdict:
    reason = _walk_reason(lhs) or _walk_reason(rhs)
    if reason is not None:
        return _compared(_choi(lhs, budget), _choi(rhs, budget), f"branch walk: {reason}")
    states = _deferred(lhs), _deferred(rhs)
    if _reduced(lhs, states[0]) == _reduced(rhs, states[1]):
        return Verdict(True, None, lambda: (_choi(lhs, budget, states[0]), _choi(rhs, budget, states[1])), DEFERRED)
    try:
        channels = _choi(lhs, budget, states[0]), _choi(rhs, budget, states[1])
    except BudgetExceededError as exc:
        raise BudgetExceededError(exc.work, exc.budget, differ=True) from None
    return _compared(*channels, DEFERRED)


def _compared(ch_l: tuple, ch_r: tuple, decider: str) -> Verdict:
    """The verdict on two channels as _choi returns them: equivalent when
    their nonzero coefficients agree over the larger denominator, else the
    first entry, in table order, where their tables differ."""
    d_l, d_r = ch_l[2], ch_r[2]
    denominator = max(d_l, d_r)
    if _scaled(ch_l, denominator) == _scaled(ch_r, denominator):
        return Verdict(True, None, lambda: (ch_l, ch_r), decider)
    s_l, s_r = denominator // d_l, denominator // d_r
    for k, (row_l, row_r) in enumerate(zip(_rows(ch_l), _rows(ch_r))):
        for q, (a, b) in enumerate(zip(row_l, row_r)):
            if a * s_l != b * s_r:
                element = basis_element(ch_l[0], k)
                ce = Counterexample(element, local_observable(ch_l[1], q), Fraction(a, d_l), Fraction(b, d_r))
                return Verdict(False, ce, lambda: (ch_l, ch_r), decider)
    raise AssertionError("Choi states differ but no table entry does")


# ---------------------------------------------------------------------------
# Dense cross-checks.  These mirror the exact pipeline with floating point
# and arbitrary input states; they validate, never decide.


def _run_dense(program: Program, input_state: np.ndarray) -> list[tuple[float, np.ndarray]]:
    import numpy as np

    from . import dense

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
                for gate in op[2]:
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
    return _fingerprint_dense(lower(ast))


def _fingerprint_dense(program: Program) -> np.ndarray:
    import numpy as np

    from . import dense

    n_in, n_out = len(program.inputs), len(program.outputs)
    table = np.zeros((4 ** n_in, 4 ** n_out))
    for k, circ in enumerate(enumerate_basis(n_in)):
        prep, _ = dense.run_dense(n_in, circ.gates)
        rho = dense.density_from_branches(_run_dense(program, prep), program.outputs)
        for q in range(4 ** n_out):
            table[k, q] = dense.pauli_expect_dense(rho, local_observable(n_out, q))
    return table
