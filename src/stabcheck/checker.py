"""Superoperator equality by exact fingerprinting over the stabilizer basis.

A protocol is validated and lowered in one pass, to one Program
(protocol.lower), then run once on its Choi state: every input wire starts
in a Bell pair with a reference wire of its own.  Discarded wires never
need a density matrix: the elements of the state's stabilizer group
supported on the outputs and references fix the channel's Choi state as
exact Pauli coefficients, each keyed by its table cell.  The fingerprint
row of each basis input sums them over the stabilizer group of the input's
transpose, so the table is an invertible linear image of the coefficients.
Two protocols are therefore equivalent exactly when their Choi states are
equal.  An input's group holds Paulis of X-part 0 and one X-part d only,
so the table is block lower-triangular (_x_part), and the first differing
entry is read only from the blocks that differ.  Tables are built only
when asked for.

Deferred measurement (Nielsen & Chuang 4.4) turns the protocol into one
Clifford circuit, with no branches (_deferred).  A bit that controls H, P
or CNOT cannot become a control wire, since the controlled gate is not
Clifford; the circuit is then composed once for each assignment of those
bits, with their ifs applied classically, and each assignment's control
wires are measured for its values at the end, which gives it its exact
dyadic weight.  The Choi state is the weighted sum of the reduced states
on the references and outputs.  One state on each side is fixed by its
signed subgroup supported there (Fattal et al., quant-ph/0406168), so the
verdict compares the canonical forms of the two subgroups (_reduced), and
a differing pair is refuted from the two forms' blocks (_refuted);
otherwise it compares the Choi coefficients (_compared).  A Program is
frozen, so it keeps its forms, and its Choi coefficients and blocks when
the table has at most DEFAULT_BUDGET entries, in its __dict__: a spec
checked against many candidates is deferred, reduced and expanded once.

run_protocol, and so sim, walks one basis input's branches instead.  States
are the tableau module's engine rows, lists of (x, z, ph) int triples, and
the kernels each return a new list.  PauliString and Tableau objects appear
only where the public API hands them out: run_protocol's branches and
counterexamples.  fingerprint_dense, run_protocol_dense and _cross_check
(--verify) import the dense oracle, stabcheck.dense, on first use.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial

from .basis import BASIS_ORDER_TAG, BasisCircuit, BasisElement, basis_element, circuit_for
from .protocol import Program, ProtocolAST, lower
from .tableau import (
    PauliString,
    Tableau,
    _DIGIT,
    _boxed,
    _check_gate,
    _circuit,
    _collapsed,
    _composed,
    _echelon,
    _gated,
    _images,
    _product,
    _supported,
    _z_pivot,
)

DEFAULT_BUDGET = 4 ** 10
# run_protocol, and so sim, lists every branch; past this many it stops.
# Deferred measurement composes one state per assignment of the bits that
# control H, P or CNOT, at most this many.
BRANCH_LIMIT = 2 ** 12


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


class BranchLimitError(ValueError):
    def __init__(self, controls: int | None = None):
        if controls is not None:
            super().__init__(
                f"{controls} bits control H, P or CNOT, so deferred measurement needs 2^{controls} runs, "
                f"over its limit of 2^{BRANCH_LIMIT.bit_length() - 1}"
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
    # Returns the (lhs, rhs) channels, as _choi returns them (maps from a
    # table cell to its coefficient), of the states that were compared.
    _channels: Callable[[], tuple] | None = field(default=None, compare=False, repr=False)
    # DEFERRED, or DEFERRED + " over 2^k assignments: bit c controls G" for
    # the k bits that control H, P or CNOT, whose values _deferred enumerates.
    decider: str | None = field(default=None, compare=False)

    @property
    def fingerprints(self) -> tuple[SuperopFingerprint, SuperopFingerprint] | None:
        """Both sides' tables, built from the compared states when read; a
        table over the budget the verdict was asked with raises
        BudgetExceededError."""
        if self._channels is None:
            return None
        return tuple(map(_table, self._channels()))


def _prep_gates(program: Program, input_prep: BasisCircuit) -> list[tuple]:
    """input_prep's gates, each checked as run_circuit checks it on the
    inputs, moved onto the program's input wires."""
    n_in = len(program.inputs)
    if input_prep.element.n != n_in:
        raise ValueError(f"input preparation is for {input_prep.element.n} qubit(s), protocol takes {n_in}")
    for g in input_prep.gates:
        _check_gate(n_in, g)
    return [(g[0], *(program.inputs[q] for q in g[1:])) for g in input_prep.gates]


def _walk(program: Program, prep: list[tuple]) -> list[tuple[int, list, tuple, dict]]:
    """Branches as (weight, rows, outcomes, bits), weight over program.denominator.

    rows is the branch's state as engine rows, from prep, the _prep_gates of
    the input.  Each gate run is composed once per walk, into the images that
    _composed maps every branch through.  The walk is breadth first and
    expands outcome 0 before 1, which lists the branches in depth-first
    order.  More than BRANCH_LIMIT branches raise BranchLimitError before
    they are built.
    """
    n = program.n_wires
    rows = _circuit(n, prep)
    live = [(program.denominator, rows, (), {})]
    for op in program.ops:
        if op[0] == "u":
            images = _images(_circuit(n, op[1]), n)
            live = [(weight, _composed(rows, images), outcomes, bits) for weight, rows, outcomes, bits in live]
        elif op[0] == "if":
            c, g = op[1], (op[2], *op[3])
            live = [
                (weight, _gated(rows, g) if bits[c] else rows, outcomes, bits) for weight, rows, outcomes, bits in live
            ]
        else:
            _, q, c = op
            forked = []
            for weight, rows, outcomes, bits in live:
                pivot, forced = _z_pivot(rows, n, q)
                if pivot is None:
                    choices = (forced,)
                else:
                    choices, weight = (0, 1), weight >> 1
                if len(forked) + len(choices) > BRANCH_LIMIT:
                    raise BranchLimitError()
                for b in choices:
                    after = rows if pivot is None else _collapsed(rows, n, q, pivot, b)
                    forked.append((weight, after, outcomes + (b,), {**bits, c: b}))
            live = forked
    return live


def _assignments(program: Program) -> str | None:
    """Why _deferred enumerates values, as "2^k assignments: bit c controls G"
    (k bits control H, P or CNOT; c is the first); None if it composes one."""
    guarded = [op for op in program.ops if op[0] == "if" and op[2] in ("H", "P", "CNOT")]
    if not guarded:
        return None
    return f"2^{len({op[1] for op in guarded})} assignments: bit {program.cbits[guarded[0][1]]} controls {guarded[0][2]}"


def _deferred(program: Program) -> list[tuple[int, list]]:
    """States (weight, rows) whose weighted reduced states on the references
    and outputs sum to the Choi state; the weights sum to its denominator.

    Deferred measurement: the Bell pairs (H ref; CNOT ref, input for
    reference wire n_wires + j and input j), then every op as gates in
    time order.  A measurement of a wire that is not an output and that no
    later op touches leaves the wire as the control of its bit, since the
    wire is a discarded Z eigenstate from then on; one backward scan over
    the ops finds these.  Any other measurement copies the wire onto a
    fresh ancilla after the references (CNOT wire, ancilla), which
    dephases the wire as the measurement does, and the ancilla is the
    control.  if c then X, Z or Y b becomes that Pauli controlled by c's
    wire: CNOT; H b, CNOT, H b; or P^3 b, CNOT, P b.  Controls are only
    ever read in the Z basis, so measuring them all at the end, as tracing
    them out does, gives the protocol's channel.

    Row bit column[w] holds wire w, in the form's column order: reference
    j at j, output i at n_in + i, then the other wires and the ancillas.

    The bits G that control H, P or CNOT stay classical.  For each of the
    2^|G| assignments, the gates are composed once, with each if of a bit
    in G kept only where the bit is 1, and the controls of G are measured
    at the end for the assigned values: a random outcome halves the weight
    (which starts at 2^|G|) and a forced wrong one drops the assignment.
    More than BRANCH_LIMIT assignments raise BranchLimitError first.
    """
    base = program.n_wires
    refs = range(base, base + len(program.inputs))
    gates = [g for r, q in zip(refs, program.inputs) for g in (("H", r), ("CNOT", r, q))]
    width = refs.stop
    classical = sorted({op[1] for op in program.ops if op[0] == "if" and op[2] in ("H", "P", "CNOT")})
    if 1 << len(classical) > BRANCH_LIMIT:
        raise BranchLimitError(len(classical))
    # The ops index of each measurement whose wire is its bit's control.
    reset: set[int] = set()
    if program.denominator > 1:
        used = set(program.outputs)
        for i in reversed(range(len(program.ops))):
            op = program.ops[i]
            if op[0] == "u":
                used.update(w for g in op[1] for w in g[1:])
            elif op[0] == "if":
                used.update(op[3])
            elif op[1] not in used:
                reset.add(i)
                used.add(op[1])
    control: dict[int, int] = {}
    # (position in gates, bit, gate) of each if of a bit in classical.
    guarded: list[tuple[int, int, tuple]] = []
    for i, op in enumerate(program.ops):
        if op[0] == "u":
            gates += op[1]
        elif op[0] == "m":
            _, q, c = op
            if i in reset:
                control[c] = q
            else:
                gates.append(("CNOT", q, width))
                control[c] = width
                width += 1
        elif op[1] in classical:
            guarded.append((len(gates), op[1], (op[2], *op[3])))
        else:
            _, c, gate, (b,) = op
            cnot = ("CNOT", control[c], b)
            if gate == "X":
                gates.append(cnot)
            elif gate == "Z":
                gates += (("H", b), cnot, ("H", b))
            else:
                gates += (("P", b),) * 3 + (cnot, ("P", b))

    outputs = set(program.outputs)
    order = [*refs, *program.outputs, *(w for w in range(base) if w not in outputs), *range(refs.stop, width)]
    column = sorted(range(width), key=order.__getitem__)  # the inverse of order
    states = []
    for assignment in range(1 << len(classical)):
        value = {c: assignment >> i & 1 for i, c in enumerate(classical)}
        run, done = [], 0
        for at, c, g in guarded:
            run += gates[done:at]
            done = at
            if value[c]:
                run.append(g)
        rows, weight = _circuit(width, run + gates[done:], column), 1 << len(classical)
        for c in classical:
            pivot, forced = _z_pivot(rows, width, column[control[c]])
            if pivot is not None:
                rows, weight = _collapsed(rows, width, column[control[c]], pivot, value[c]), weight >> 1
            elif forced != value[c]:
                break
        else:
            states.append((weight, rows))
    return states


def _reduced(rows: list, m: int) -> tuple:
    """The canonical form of the Choi state that one _deferred state's rows
    purify: the _echelon basis, with no identity row, of the subgroup on
    the m low columns, the references and then the outputs.  Two programs'
    forms are equal exactly when their Choi states are."""
    n = len(rows) >> 1
    return _echelon(_supported(rows[n:], n, (1 << m) - 1), m)


def _trace(program: Program, prep: list[tuple], outcomes: tuple[int, ...]) -> list[tuple]:
    """The gates and measurements a branch went through, as apply_gate,
    apply_tableau and measure_z would have recorded them: prep, then the
    ops with each measurement's bit taken from outcomes in turn."""
    trace = list(prep)
    bits: dict[int, int] = {}
    measured = iter(outcomes)
    for op in program.ops:
        if op[0] == "u":
            trace += op[1]
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
    n, prep = program.n_wires, _prep_gates(program, input_prep)
    return [
        BranchOutcome(
            Fraction(weight, program.denominator),
            Tableau(n, _boxed(n, rows), _trace(program, prep, outcomes)),
            outcomes,
            {program.cbits[c]: b for c, b in bits.items()},
        )
        for weight, rows, outcomes, bits in _walk(program, prep)
    ]


def local_observable(n_out: int, pauli_index: int) -> PauliString:
    """Output Pauli number pauli_index on the output wires alone: its base-4
    digits, first output most significant, are I, X, Y, Z = 0..3."""
    letters = "".join("IXYZ"[pauli_index >> 2 * j & 3] for j in reversed(range(n_out)))
    return PauliString.from_label(letters)


def _group(generators) -> list[tuple[int, int]]:
    """Every element of the group that commuting (x, z, phase_exp, key)
    generators generate, as (key, sign): keys are XORed along, so a key may
    be any GF(2)-linear image of the Pauli's bits, and sign is +-1, the
    Hermitian Pauli's sign."""
    group = [(0, 0, 0, 0)]
    for gx, gz, gph, gkey in generators:
        group += [(x ^ gx, z ^ gz, ph + gph + 2 * (z & gx).bit_count(), key ^ gkey) for x, z, ph, key in group]
    return [(key, 1 - ((ph - (x & z).bit_count()) & 3)) for x, z, ph, key in group]


@lru_cache(maxsize=4 ** 6)
def _input_generators(n_in: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """The stabilizer generators of rho^T, for basis input rho number k in
    enumerate_basis order, as (x, z, phase_exp, A's key x << n_in | z).

    A Pauli A with bits x, z has A^T = (-1)^#Y(A) A, #Y(A) the popcount of
    x & z, so a generator with an odd number of Y takes phase +2, and the
    sign of +-A in the group is Tr(A rho^T).  Each input is built when a row
    first reads it, so a scan that stops at an early row builds only the
    inputs before it.  The cache keeps the last 4^6 inputs built, so every
    table up to n_in = 6 stays cached in full; an entry holds n_in
    generators, not the 2^n_in-element group.
    """
    rows = _circuit(n_in, circuit_for(basis_element(n_in, k)).gates)[n_in:]
    return tuple((x, z, ph + 2 * (x & z).bit_count() & 3, x << n_in | z) for x, z, ph in rows)


def _forms(program: Program) -> tuple[tuple[int, tuple], ...]:
    """The program's _deferred states as (weight, _reduced form), kept in
    the frozen Program's __dict__ once built."""
    forms = program.__dict__.get("_forms")
    if forms is None:
        m = len(program.inputs) + len(program.outputs)
        forms = program.__dict__["_forms"] = tuple((weight, _reduced(rows, m)) for weight, rows in _deferred(program))
    return forms


def _choi(program: Program, budget: int | None) -> tuple[int, int, int, dict[int, int]]:
    """The channel's Choi state J as (n_in, n_out, denominator, choi), from the program's _forms.

    _forms runs first, so BranchLimitError comes before BudgetExceededError,
    and the budget is checked before a kept map is read, so a kept map never
    passes a smaller budget.  A map of at most DEFAULT_BUDGET entries is kept
    in the frozen Program's __dict__ once built; a larger one is built on
    each call, so what a Program holds stays bounded.

    Reference wire j starts in a Bell pair with input j.  choi[cell] times
    denominator is Tr((A x P_q) J), keyed by its table cell (_cell).
    Tr((A x P) J) adds, over the states, weight x the sign of +-(A x P) in
    the state's stabilizer group, where it lies in the subgroup supported
    on outputs and references, whose independent generators the form
    holds, and 0 elsewhere; the denominator is the sum of the weights.  A
    cell is GF(2)-linear in the Pauli's bits, so each form generator's cell
    is computed once and the group expansion XORs the cells along.
    """
    forms = _forms(program)
    n_in, n_out = len(program.inputs), len(program.outputs)
    work = 4 ** n_in * 4 ** n_out
    if budget is not None and work > budget:
        raise BudgetExceededError(work, budget)
    channel = program.__dict__.get("_choi")
    if channel is not None:
        return channel

    choi: dict[int, int] = {}
    for weight, form in forms:
        generators = [(x, z, ph, _cell(x, z, n_in, n_out)) for x, z, ph in form]
        for cell, sign in _group(generators):
            choi[cell] = choi.get(cell, 0) + sign * weight
    channel = n_in, n_out, sum(weight for weight, _ in forms), choi
    if work <= DEFAULT_BUDGET:
        program.__dict__["_choi"] = channel
    return channel


def _cell(x: int, z: int, n_in: int, n_out: int) -> int:
    """The table cell (A's key ax << n_in | az) << 2 * n_out | q of the Pauli
    A x P with a _reduced form's bits x, z, A on the references below wire
    n_in and P on the outputs above.  q is P's column as local_observable
    numbers it: its _DIGITs, first output most significant.  A's key and q
    are both GF(2)-linear in x and z, and so is the cell."""
    mask = (1 << n_in) - 1
    cell = (x & mask) << n_in | z & mask
    for w in range(n_in, n_in + n_out):
        cell = cell << 2 | _DIGIT[(x >> w & 1) << 1 | (z >> w & 1)]
    return cell


def _rows(channel) -> Iterator[list[int]]:
    """Each basis input's fingerprint row, in enumerate_basis order, as
    integers over the channel's denominator.

        Tr(P_q E(rho)) = sum_A Tr(A rho^T) Tr((A x P_q) J),

    and Tr(A rho^T) is the sign of +-A in the group of _input_generators,
    or 0, so the row sums choi, grouped by A's key once per table, over
    that group's 2^n_in elements.  A row for which choi has no A of X-part
    0 or of the input's _x_part can only be zero, and it is not summed.
    """
    n_in, n_out, _, choi = channel
    by_reference = _by_reference(choi.items(), n_out)
    x_parts = {a >> n_in for a in by_reference}
    for k in range(4 ** n_in):
        group = _group(_input_generators(n_in, k)) if 0 in x_parts or _x_part(n_in, k) in x_parts else ()
        yield _summed(group, by_reference, 4 ** n_out)


def _by_reference(items, n_out: int) -> dict[int, list[tuple[int, int]]]:
    """Coefficients (cell, c) grouped by A's key, the cell's high bits, as
    a: [(q, c), ...]."""
    shift, mask = 2 * n_out, 4 ** n_out - 1
    by_reference: dict[int, list[tuple[int, int]]] = {}
    for cell, c in items:
        by_reference.setdefault(cell >> shift, []).append((cell & mask, c))
    return by_reference


def _summed(group, by_reference: dict, width: int) -> list[int]:
    """A basis input's row of width entries: for each element (a, sign) of
    its group, sign times every (q, c) by_reference holds for a, added at q."""
    sums = [0] * width
    for a, sign in group:
        for q, c in by_reference.get(a, ()):
            sums[q] += sign * c
    return sums


def _x_part(n_in: int, k: int) -> int:
    """Basis input k's X-part d_k, the OR of its generators' X-parts.  Its
    group holds Paulis of X-part 0 and d_k only, and d_k = 0 exactly for
    the diag inputs, so the table is block lower-triangular: the rows of
    block d read only the coefficients whose A has X-part 0 or d."""
    x_part = 0
    for x, _, _, _ in _input_generators(n_in, k):
        x_part |= x
    return x_part


def _table(channel) -> SuperopFingerprint:
    n_in, n_out, denominator, _ = channel
    # Tables hold few distinct values, so each Fraction is built once.
    value = cache(partial(Fraction, denominator=denominator))
    table = tuple(tuple(map(value, sums)) for sums in _rows(channel))
    return SuperopFingerprint(n_in, n_out, BASIS_ORDER_TAG, table)


def _check_budget(budget: int | None) -> None:
    """A budget is None, for no limit, or an entry count from 0 up; a negative count raises ValueError."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget takes None or a non-negative entry count, not {budget}")


def fingerprint(ast: ProtocolAST, budget: int | None = DEFAULT_BUDGET) -> SuperopFingerprint:
    """Exact table of output-Pauli expectations for every basis input.

    The rows come from the protocol's Choi state (_choi) on its _forms; no
    basis input is run on its own.
    """
    _check_budget(budget)
    return _table(_choi(lower(ast), budget))


def check_equivalence(
    lhs: ProtocolAST,
    rhs: ProtocolAST,
    budget: int | None = DEFAULT_BUDGET,
) -> Verdict:
    """Decide on the Choi states; exact, no tolerance anywhere.

    When each side has one _deferred state, the sides are equivalent
    exactly when the _reduced forms of those states are equal, which needs
    no budget, and a pair that differs is refuted from the forms' blocks
    (_refuted).  Otherwise they are equivalent exactly when their Choi
    coefficients agree once both are put over the larger denominator (both
    are powers of two), and a pair that differs is refuted from the rows of
    the coefficients' differences (_compared).  No table is built, and the
    counterexample is the first entry, in table order, where the tables
    differ; past the budget, naming it raises BudgetExceededError, saying
    that the sides differ when each has one state.
    """
    _check_budget(budget)
    if lhs.n_in != rhs.n_in or lhs.n_out != rhs.n_out:
        raise ArityMismatchError(
            f"arity mismatch: {lhs.name} is {lhs.n_in}->{lhs.n_out}, {rhs.name} is {rhs.n_in}->{rhs.n_out}"
        )
    return _verdict(lower(lhs), lower(rhs), budget)


# The decider that Verdict.decider names when no bit controls H, P or CNOT.
DEFERRED = "deferred measurement"


def _verdict(lhs: Program, rhs: Program, budget: int | None) -> Verdict:
    reason = _assignments(lhs) or _assignments(rhs)
    decider = DEFERRED if reason is None else f"{DEFERRED} over {reason}"
    forms = _forms(lhs), _forms(rhs)
    channels = lambda: (_choi(lhs, budget), _choi(rhs, budget))  # noqa: E731
    if len(forms[0]) != 1 or len(forms[1]) != 1:
        return _compared(*channels(), decider)
    if forms[0][0][1] == forms[1][0][1]:
        return Verdict(True, None, channels, decider)
    work = 4 ** len(lhs.inputs) * 4 ** len(lhs.outputs)
    if budget is not None and work > budget:
        raise BudgetExceededError(work, budget, differ=True)
    return Verdict(False, _refuted(lhs, rhs), channels, decider)


def _blocks(program: Program) -> tuple[tuple, tuple, dict]:
    """A one-state program's _reduced form as (head, tail, the _block maps
    built so far).  _echelon orders pivots by column, X bits first, so the
    head is the rows pivoted on a reference's X bit, and the tail is the
    reduced echelon form of the subgroup of X-part 0.  Kept in the frozen
    Program's __dict__ under _choi's rule: 4^(n_in + n_out) <= DEFAULT_BUDGET.
    """
    blocks = program.__dict__.get("_blocks")
    if blocks is None:
        ((_, form),) = _forms(program)
        n_in = len(program.inputs)
        head = tuple(row for row in form if row[0] & (1 << n_in) - 1)
        blocks = head, form[len(head):], {}
        if 4 ** (n_in + len(program.outputs)) <= DEFAULT_BUDGET:
            program.__dict__["_blocks"] = blocks
    return blocks


def _coset(blocks: tuple, d: int, n_in: int, m: int) -> tuple:
    """Generators of the group's elements of X-part 0 and d: the tail, then
    h_d, the product of the head rows whose pivot bit lies in d, when its
    X-part on the references is d (else X-part d has no element), reduced
    by the tail's pivot rows.  So two sides' coefficients of X-part 0 and
    d agree exactly when their _cosets are equal."""
    head, tail, _ = blocks
    h = (0, 0, 0)
    for row in head:
        if row[0] & -row[0] & d:
            h = _product(h, row)
    if not d or h[0] & (1 << n_in) - 1 != d:
        return tail
    for row in tail:
        pivot = row[0] | row[1] << m
        if (h[0] | h[1] << m) & pivot & -pivot:
            h = _product(h, row)
    return (*tail, h)


def _block(blocks: tuple, d: int, n_in: int, n_out: int) -> dict:
    """The Choi coefficients of X-part 0 and d, _by_reference: the _coset
    group expanded, each +-1, since one state's weight cancels its
    denominator."""
    maps = blocks[2]
    if d not in maps:
        rows = _coset(blocks, d, n_in, n_in + n_out)
        maps[d] = _by_reference(_group([(x, z, ph, _cell(x, z, n_in, n_out)) for x, z, ph in rows]), n_out)
    return maps[d]


def _refuted(lhs: Program, rhs: Program) -> Counterexample:
    """The first entry, in table order, where two one-state programs with
    different forms differ, read block by block (_x_part): only the rows
    of a block whose _cosets differ are summed."""
    n_in, n_out = len(lhs.inputs), len(lhs.outputs)
    sides, differs = (_blocks(lhs), _blocks(rhs)), {}
    for k in range(4 ** n_in):
        d = _x_part(n_in, k)
        if d not in differs:
            differs[d] = _coset(sides[0], d, n_in, n_in + n_out) != _coset(sides[1], d, n_in, n_in + n_out)
        if differs[d]:
            group = _group(_input_generators(n_in, k))
            row_l, row_r = (_summed(group, _block(blocks, d, n_in, n_out), 4 ** n_out) for blocks in sides)
            if row_l != row_r:
                q = next(q for q in range(4 ** n_out) if row_l[q] != row_r[q])
                return Counterexample(basis_element(n_in, k), local_observable(n_out, q), Fraction(row_l[q]), Fraction(row_r[q]))
    raise AssertionError("the forms differ but no table entry does")


def _compared(ch_l: tuple, ch_r: tuple, decider: str) -> Verdict:
    """The verdict on two channels as _choi returns them, for sides with
    more than one state; the tests' reference for _refuted.

    Only changed cells are read: with equal denominators, the cells of the
    items the two maps do not share, else every cell, both sides put over
    the larger denominator.  Their nonzero differences make a difference
    map: none means equivalent.  Otherwise the counterexample is the first
    nonzero entry, in table order, of the map's _rows, which skip the
    blocks the map has no X-part of, with each side's value summed at that
    cell from its own map.
    """
    n_in, n_out, d_l, choi_l = ch_l
    d_r, choi_r = ch_r[2], ch_r[3]
    s_l, s_r = max(d_l, d_r) // d_l, max(d_l, d_r) // d_r
    changed = {cell for cell, _ in choi_l.items() ^ choi_r.items()} if d_l == d_r else choi_l.keys() | choi_r.keys()
    diff = {cell: c for cell in changed if (c := choi_l.get(cell, 0) * s_l - choi_r.get(cell, 0) * s_r)}
    if not diff:
        return Verdict(True, None, lambda: (ch_l, ch_r), decider)
    for k, sums in enumerate(_rows((n_in, n_out, 1, diff))):
        if any(sums):
            break
    else:
        raise AssertionError("Choi states differ but no table entry does")
    q = next(q for q, c in enumerate(sums) if c)
    group = _group(_input_generators(n_in, k))
    cells = [(a, a << 2 * n_out | q) for a, _ in group]
    value_l, value_r = (_summed(group, {a: [(q, choi.get(cell, 0))] for a, cell in cells}, len(sums))[q] for choi in (choi_l, choi_r))
    ce = Counterexample(basis_element(n_in, k), local_observable(n_out, q), Fraction(value_l, d_l), Fraction(value_r, d_r))
    return Verdict(False, ce, lambda: (ch_l, ch_r), decider)


def fingerprint_dense(ast: ProtocolAST):
    """Floating-point fingerprint via full density matrices; oracle only."""
    from . import dense

    return dense._fingerprint_dense(lower(ast))


def run_protocol_dense(ast: ProtocolAST, input_state) -> list[tuple]:
    """Branch-complete dense execution from an arbitrary input-wire state.

    Branches come back as (probability, normalized state), depth first with
    outcome 0 before 1; those of probability below 1e-12 are dropped.
    """
    from . import dense

    return dense._branches(lower(ast), input_state)


def _cross_check(name: str, program: Program, channel: tuple) -> None:
    """Compare the table of the program's channel, as _choi returns it, with
    the dense oracle's: RuntimeError naming the side past dense.TOL, and
    dense.DenseLimitError past dense.DENSE_LIMIT."""
    from . import dense

    err = dense._deviation(program, _rows(channel), channel[2])
    if err > dense.TOL:
        raise RuntimeError(f"oracle cross-check failed for {name}: max deviation {err}")
