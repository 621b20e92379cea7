"""Superoperator equality by exact fingerprinting over the stabilizer basis.

A protocol is lowered to one Program (protocol.lower) and run once on its
Choi state: every input wire starts in a Bell pair with a reference wire of
its own.  Deferred measurement (Nielsen & Chuang 4.4) makes it one Clifford
circuit with no branches (_deferred).  A bit that controls H, P or CNOT
cannot become a control wire, as the controlled gate is not Clifford: the
circuit is composed once for each assignment of those bits, their ifs
applied classically, and the control wires are measured for the assigned
values at the end, which gives the assignment its exact dyadic weight.  The
Choi state is the weighted sum of the reduced states on the references and
outputs, each fixed by its signed subgroup supported there (Fattal et al.,
quant-ph/0406168), so by its canonical form (_reduced): no density matrix
is built, and sides of one state each are equivalent exactly when their
forms are equal.

The forms also give the Choi state's Pauli coefficients, one part for each
X-part d of the reference Pauli (_Channel).  The fingerprint row of each
basis input sums them over the stabilizer group of the input's transpose,
which holds Paulis of X-part 0 and one d only (basis.block): the table is a
block lower-triangular, invertible image of the parts, so the first
differing entry is read from the blocks whose parts differ alone
(_refuted, which compares the two sides' parts block by block for every
pair), and tables are built only when asked for.  A Program is frozen,
so it keeps its forms, and its channel when the table has at most
DEFAULT_BUDGET entries, in its __dict__: a spec checked against many
candidates is deferred, reduced and expanded once.

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

from .basis import BASIS_ORDER_TAG, BasisCircuit, BasisElement, basis_element, block, circuit_for
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
# _Channel keeps Choi coefficients over this: every sum of weights divides it.
_DENOMINATOR = BRANCH_LIMIT


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
    # Returns the (lhs, rhs) _Channels of the two sides that were compared.
    _channels: Callable[[], tuple] | None = field(default=None, compare=False, repr=False)
    # DEFERRED, or DEFERRED + " over 2^k assignments: bit c controls G" for
    # the k bits that control H, P or CNOT, whose values _deferred enumerates.
    decider: str | None = field(default=None, compare=False)

    @property
    def fingerprints(self) -> tuple[SuperopFingerprint, SuperopFingerprint] | None:
        """Both sides' tables, built from their channels when read; a table
        over the budget the verdict was asked with raises BudgetExceededError."""
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


def _trace(program: Program, prep: list[tuple], bits: dict[int, int]) -> list[tuple]:
    """The gates and measurements a branch went through, as apply_gate,
    apply_tableau and measure_z would have recorded them: prep, then the
    ops, each if's gate where the branch's bits, as _walk returns them,
    hold 1 (a bit is written once, before any if reads it)."""
    trace = list(prep)
    for op in program.ops:
        if op[0] == "u":
            trace += op[1]
        elif op[0] == "if":
            if bits[op[1]]:
                trace.append((op[2], *op[3]))
        else:
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
            Tableau(n, _boxed(n, rows), _trace(program, prep, bits)),
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


def _elements(generators) -> list[tuple[int, int, int, int]]:
    """Every element of the group that commuting (x, z, phase_exp, key)
    generators generate, in the same form: keys are XORed along, so a key
    may be any GF(2)-linear image of the Pauli's bits."""
    group = [(0, 0, 0, 0)]
    for gx, gz, gph, gkey in generators:
        group += [(x ^ gx, z ^ gz, ph + gph + 2 * (z & gx).bit_count(), key ^ gkey) for x, z, ph, key in group]
    return group


def _group(generators) -> list[tuple[int, int]]:
    """The _elements as (key, sign), sign +-1 the Hermitian Pauli's sign."""
    return [(key, 1 - ((ph - (x & z).bit_count()) & 3)) for x, z, ph, key in _elements(generators)]


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


class _Channel(dict):
    """A program's Choi state J, one part for each X-part d of a Pauli A on
    the references, built when first read: channel[d] maps A's key
    ax << n_in | az to {q: c}, c = _DENOMINATOR x Tr((A x P_q) J) for each
    output Pauli P_q where it is nonzero.

    Tr((A x P) J) sums weight x the sign of +-(A x P) in each form's group,
    over the sum of the weights, 2^k for the k bits _deferred enumerates,
    which divides _DENOMINATOR: so each c is an integer.  One pass over the
    forms adds each element's term into its cell and drops a c that cancels
    to 0, so a part holds no zero and no order, and two channels' parts
    compare with ==.  A form is its head, the rows pivoted on a reference's
    X bit, which _echelon puts first, then its tail, whose group, expanded
    once and keyed by table cell (_cell), holds the elements of X-part 0;
    those of X-part d are the _coset of d times them."""

    __slots__ = ("n_in", "n_out", "splits")

    def __init__(self, forms: tuple, n_in: int, n_out: int):
        self.n_in, self.n_out = n_in, n_out
        scale = _DENOMINATOR // sum(weight for weight, _ in forms)
        # (weight over _DENOMINATOR, head, the tail's group) of each form.
        self.splits = []
        for weight, form in forms:
            head = [row for row in form if row[0] & (1 << n_in) - 1]
            tail = [(x, z, ph, _cell(x, z, n_in, n_out)) for x, z, ph in form[len(head):]]
            self.splits.append((weight * scale, head, _elements(tail)))

    def __missing__(self, d: int) -> dict[int, dict[int, int]]:
        n_in, n_out = self.n_in, self.n_out
        shift, mask = 2 * n_out, 4 ** n_out - 1
        part: dict[int, dict[int, int]] = {}
        for weight, head, group in self.splits:
            if d:
                if (h := _coset(head, d, n_in)) is None:
                    continue
                # The tail's elements times h_d, as _elements multiplies them.
                hx, hz, hph, hcell = *h, _cell(h[0], h[1], n_in, n_out)
                group = [(x ^ hx, z ^ hz, ph + hph + 2 * (z & hx).bit_count(), cell ^ hcell) for x, z, ph, cell in group]
            for x, z, ph, cell in group:
                a, q = cell >> shift, cell & mask
                row = part.setdefault(a, {})
                # weight x the element's sign, as _group signs it: never 0, so
                # a sum of 0 cancels a coefficient that row holds.
                if c := row.get(q, 0) + (1 - ((ph - (x & z).bit_count()) & 3)) * weight:
                    row[q] = c
                elif len(row) > 1:
                    del row[q]
                else:
                    del part[a]
        self[d] = part
        return part


def _coset(head: list, d: int, n_in: int) -> tuple | None:
    """h_d, the product of the head rows pivoted in d, if its X-part on the
    references is d, else None (no element has X-part d).  _echelon reduces
    each row by the others' pivots, so forms with equal tails have equal
    elements of X-part d exactly when their h_d are equal."""
    h = (0, 0, 0)
    for row in head:
        if row[0] & -row[0] & d:
            h = _product(h, row)
    return h if h[0] & (1 << n_in) - 1 == d else None


def _channel(program: Program, budget: int | None, differ: bool = False) -> _Channel:
    """The program's _Channel, kept in the frozen Program's __dict__ if the
    table has at most DEFAULT_BUDGET entries, so what it holds is bounded.
    _forms runs first, so BranchLimitError comes before BudgetExceededError
    (saying that the sides differ, if differ), and the budget before a kept
    channel, so a kept part never passes a smaller budget."""
    forms = _forms(program)
    n_in, n_out = len(program.inputs), len(program.outputs)
    work = 4 ** n_in * 4 ** n_out
    if budget is not None and work > budget:
        raise BudgetExceededError(work, budget, differ)
    channel = program.__dict__.get("_parts")
    if channel is None:
        channel = _Channel(forms, n_in, n_out)
        if work <= DEFAULT_BUDGET:
            program.__dict__["_parts"] = channel
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


def _summed(group: list, parts: dict, width: int) -> list[int]:
    """A basis input's row of width entries, from the group of its
    _input_generators and the parts it reads, merged: Tr(P_q E(rho)) is the
    sum over A of Tr(A rho^T) Tr((A x P_q) J), and Tr(A rho^T) is the sign
    of +-A in the group, or 0."""
    sums = [0] * width
    for a, sign in group:
        if row := parts.get(a):
            for q, c in row.items():
                sums[q] += sign * c
    return sums


def _rows(channel: _Channel) -> Iterator[list[int]]:
    """Each basis input's row over _DENOMINATOR, in enumerate_basis order,
    from every part."""
    n_in, parts = channel.n_in, {}
    for d in range(1 << n_in):
        parts.update(channel[d])
    for k in range(4 ** n_in):
        yield _summed(_group(_input_generators(n_in, k)), parts, 4 ** channel.n_out)


def _table(channel: _Channel) -> SuperopFingerprint:
    # Tables hold few distinct values, so each Fraction is built once.
    value = cache(partial(Fraction, denominator=_DENOMINATOR))
    table = tuple(tuple(map(value, sums)) for sums in _rows(channel))
    return SuperopFingerprint(channel.n_in, channel.n_out, BASIS_ORDER_TAG, table)


def _check_budget(budget: int | None) -> None:
    """A budget is None, for no limit, or an entry count from 0 up; a negative count raises ValueError."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget takes None or a non-negative entry count, not {budget}")


def fingerprint(ast: ProtocolAST, budget: int | None = DEFAULT_BUDGET) -> SuperopFingerprint:
    """Exact table of output-Pauli expectations for every basis input, read
    from the protocol's _channel: no basis input is run on its own."""
    _check_budget(budget)
    return _table(_channel(lower(ast), budget))


def check_equivalence(
    lhs: ProtocolAST,
    rhs: ProtocolAST,
    budget: int | None = DEFAULT_BUDGET,
) -> Verdict:
    """Decide on the Choi states; exact, no tolerance anywhere.

    Sides of one _deferred state each with equal _reduced forms are
    equivalent, which needs no budget.  Otherwise the counterexample is the
    first entry, in table order, where the two sides' tables differ, read
    from their _channels part by part with no table built (_refuted), and
    with none the sides are equivalent.  Past the budget, that raises
    BudgetExceededError, saying that the sides differ when each has one
    state."""
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
    channels = lambda: (_channel(lhs, budget), _channel(rhs, budget))  # noqa: E731
    one = len(forms[0]) == len(forms[1]) == 1
    if one and forms[0][0][1] == forms[1][0][1]:
        return Verdict(True, None, channels, decider)
    ce = _refuted(_channel(lhs, budget, one), _channel(rhs, budget, one))
    return Verdict(ce is None, ce, channels, decider)


def _refuted(lhs: _Channel, rhs: _Channel) -> Counterexample | None:
    """The first entry, in table order, where the two channels' tables
    differ, or None.  Row k reads parts 0 and block(n_in, k) alone, each
    block's rows are invertible on them, and the diag rows, block 0, come
    first: so each block is tested once, by its parts at its first row,
    and only the rows of a block whose part differs are summed."""
    n_in, width = lhs.n_in, 4 ** lhs.n_out
    # Each block's rows' merged parts, one per side, or False while it is equal.
    lookups: dict[int, list | bool] = {}
    for k in range(4 ** n_in):
        d = block(n_in, k)
        if d not in lookups:
            lookups[d] = lhs[d] != rhs[d] and [{**side[0], **side[d]} if d else side[0] for side in (lhs, rhs)]
        if lookups[d]:
            group = _group(_input_generators(n_in, k))
            row_l, row_r = _summed(group, lookups[d][0], width), _summed(group, lookups[d][1], width)
            if row_l != row_r:
                q = next(q for q, c in enumerate(row_l) if c != row_r[q])
                values = Fraction(row_l[q], _DENOMINATOR), Fraction(row_r[q], _DENOMINATOR)
                return Counterexample(basis_element(n_in, k), local_observable(lhs.n_out, q), *values)
    return None


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


def _cross_check(name: str, program: Program, channel: _Channel) -> None:
    """Compare the table of the program's _Channel with the dense oracle's:
    RuntimeError naming the side past dense.TOL, and dense.DenseLimitError
    past dense.DENSE_LIMIT."""
    from . import dense

    err = dense._deviation(program, _rows(channel), _DENOMINATOR)
    if err > dense.TOL:
        raise RuntimeError(f"oracle cross-check failed for {name}: max deviation {err}")
