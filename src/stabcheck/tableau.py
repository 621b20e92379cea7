"""Bit-packed stabilizer tableau simulator for the Clifford gate set.

State is tracked as 2n Pauli generators (n destabilizers followed by n
stabilizers) in the Aaronson-Gottesman pairing.  Inside the engine each
generator is a plain (x, z, ph) triple of ints: X and Z supports as bit
masks (bit q of a mask is qubit q) and the phase exponent mod 4, so gate
conjugation and row multiplication are bitwise operations on
arbitrary-precision ints.  The private kernels below take and return lists
of such triples laid out as Tableau.rows, and the canonical form and the
supported subgroup share one GF(2) elimination on them; PauliString and
Tableau objects are built only at the boundary, by the public functions,
which unpack a tableau's rows, call one kernel and box the result.

Conventions shared by the whole package:

* qubit 0 is the leftmost, most significant bit of a basis-state label x
  in |x>; a Pauli string prints with qubit 0 first;
* a Pauli operator is encoded as i^phase_exp * prod_j X_j^{x_j} Z_j^{z_j}
  with phase_exp taken mod 4.  Under this encoding the letter Y carries an
  implicit i (Y = i X Z), multiplication needs no lookup table, and CNOT
  conjugation never touches the phase;
* global phase is never tracked: states are compared as density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

GATE_NAMES = ("H", "P", "X", "Y", "Z", "CNOT")

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}
# Pauli digit (I, X, Y, Z = 0..3) of one qubit's bits (x << 1) | z.  The
# digits of a product of Paulis are the XOR of the factors' digits.
_DIGIT = (0, 3, 1, 2)


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator i^phase_exp * prod_j X_j^{x_j} Z_j^{z_j}."""

    n: int
    x_bits: int = 0
    z_bits: int = 0
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("PauliString needs at least one qubit")
        full = (1 << self.n) - 1
        if not 0 <= self.x_bits <= full or not 0 <= self.z_bits <= full:
            raise ValueError("bit mask outside qubit range")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliString":
        """The Hermitian one-letter Pauli (I, X, Y or Z) on one qubit."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        x, z = _LETTER_BITS[letter]
        # Y = i X Z, so the Hermitian letter carries one unit of phase.
        return cls(n, x << qubit, z << qubit, x & z)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse '+XZ', '-Y', 'XX' etc.; qubit 0 is the leftmost letter."""
        sign = 0
        if label and label[0] in "+-":
            sign = 2 if label[0] == "-" else 0
            label = label[1:]
        if not label:
            raise ValueError("empty Pauli label")
        n = len(label)
        x = z = phase = 0
        for q, letter in enumerate(label):
            if letter not in _LETTER_BITS:
                raise ValueError(f"bad Pauli letter {letter!r}")
            xb, zb = _LETTER_BITS[letter]
            x |= xb << q
            z |= zb << q
            phase += xb & zb
        return cls(n, x, z, (phase + sign) % 4)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        a = (self.x_bits, self.z_bits, self.phase_exp)
        return PauliString(self.n, *_product(a, (other.x_bits, other.z_bits, other.phase_exp)))

    def commutes(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        overlap = (self.x_bits & other.z_bits).bit_count() + (self.z_bits & other.x_bits).bit_count()
        return overlap % 2 == 0

    @property
    def is_hermitian(self) -> bool:
        return (self.phase_exp - (self.x_bits & self.z_bits).bit_count()) % 2 == 0

    @property
    def sign(self) -> int:
        """+1 or -1 for a Hermitian Pauli with that sign; error otherwise."""
        d = (self.phase_exp - (self.x_bits & self.z_bits).bit_count()) % 4
        if d == 0:
            return 1
        if d == 2:
            return -1
        raise ValueError("Pauli has an imaginary scalar, no real sign")

    def letter(self, qubit: int) -> str:
        return _BITS_LETTER[((self.x_bits >> qubit) & 1, (self.z_bits >> qubit) & 1)]

    def __str__(self) -> str:
        d = (self.phase_exp - (self.x_bits & self.z_bits).bit_count()) % 4
        return _PHASE_PREFIX[d] + "".join(self.letter(q) for q in range(self.n))


@dataclass(frozen=True)
class MeasurementResolution:
    """How a Z measurement resolves: a forced bit, or a fair coin."""

    kind: str  # "deterministic" | "random"
    outcome: int | None = None  # the forced bit when deterministic

    @property
    def deterministic(self) -> bool:
        return self.kind == "deterministic"


class Tableau:
    """Destabilizer/stabilizer generator matrix for one pure stabilizer state.

    rows[0:n] are destabilizers, rows[n:2n] stabilizers.  trace records every
    gate and measurement applied since preparation, as tuples like
    ("H", 0), ("CNOT", 0, 1), ("M", 2), so a dense simulator can replay it.
    """

    __slots__ = ("n", "rows", "trace")

    def __init__(self, n: int, rows: list[PauliString], trace: list[tuple]):
        self.n = n
        self.rows = rows
        self.trace = trace

    def copy(self) -> "Tableau":
        return Tableau(self.n, list(self.rows), list(self.trace))

    @property
    def destabilizers(self) -> list[PauliString]:
        return self.rows[: self.n]

    @property
    def stabilizers(self) -> list[PauliString]:
        return self.rows[self.n :]

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.stabilizers)

    def assert_valid(self) -> None:
        """Raise ValueError if any structural invariant is broken."""
        n = self.n
        if len(self.rows) != 2 * n:
            raise ValueError("tableau must hold 2n rows")
        for row in self.rows:
            if row.n != n:
                raise ValueError("row width mismatch")
            d = (row.phase_exp - (row.x_bits & row.z_bits).bit_count()) % 4
            if d not in (0, 2):
                raise ValueError(f"row {row} is not a signed Hermitian Pauli")
        stabs = self.stabilizers
        for i in range(n):
            for j in range(i + 1, n):
                if not stabs[i].commutes(stabs[j]):
                    raise ValueError(f"stabilizer rows {i} and {j} anticommute")
        # A dependent set leaves an all-identity row in its echelon form.  It
        # breaks the pairing below too, so it is named first.
        if any(not (x | z) for x, z, _ in _echelon(_triples(stabs), n)):
            raise ValueError("stabilizer rows are GF(2) dependent")
        for i in range(n):
            for j in range(n):
                anti = not self.rows[i].commutes(stabs[j])
                if anti != (i == j):
                    raise ValueError(f"symplectic pairing broken at ({i}, {j})")
        for i in range(n):
            for j in range(i + 1, n):
                if not self.rows[i].commutes(self.rows[j]):
                    raise ValueError(f"destabilizer rows {i} and {j} anticommute")


def new_zero_state(n: int) -> Tableau:
    """The state |0...0>: stabilizers +Z_i, destabilizers +X_i."""
    return run_circuit(n, ())


def _check_gate(n: int, g: tuple) -> None:
    """Raise ValueError unless g = (gate, qubits...) is a gate on qubits of an n-qubit state."""
    gate = g[0]
    if gate not in GATE_NAMES:
        raise ValueError(f"unknown gate {gate!r}; only Clifford gates {GATE_NAMES} are supported")
    expected = 2 if gate == "CNOT" else 1
    if len(g) != expected + 1:
        raise ValueError(f"{gate} takes {expected} qubit(s), got {len(g) - 1}")
    for q in g[1:]:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
    if expected == 2 and g[1] == g[2]:
        raise ValueError("CNOT control and target must differ")


# ---------------------------------------------------------------------------
# Kernels.  A row is an (x, z, ph) triple of ints with 0 <= ph < 4, and a
# state is a list of 2n rows laid out as Tableau.rows.  A kernel never
# changes the list it is given, so branches may share rows.  _echelon and
# _supported are both _eliminated, the one GF(2) elimination.


def _triples(rows: list[PauliString]) -> list[tuple[int, int, int]]:
    return [(r.x_bits, r.z_bits, r.phase_exp) for r in rows]


def _boxed(n: int, rows) -> list[PauliString]:
    return [PauliString(n, x, z, ph) for x, z, ph in rows]


def _product(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """The row product a * b."""
    x1, z1, p1 = a
    x2, z2, p2 = b
    # Moving b's X block left past a's Z block gives (-1) per overlap.
    return x1 ^ x2, z1 ^ z2, (p1 + p2 + 2 * (z1 & x2).bit_count()) & 3


def _gated(rows: list, g: tuple) -> list:
    """Every row conjugated by the gate g = (gate, qubits...)."""
    gate, b = g[0], 1 << g[1]
    if gate == "H":
        out = []
        for x, z, ph in rows:
            d = (x ^ z) & b
            out.append((x ^ d, z ^ d, ph ^ 2 if x & z & b else ph))
        return out
    if gate == "P":
        return [(x, z ^ b, (ph + 1) & 3) if x & b else (x, z, ph) for x, z, ph in rows]
    if gate == "CNOT":
        t = 1 << g[2]
        return [(x ^ t if x & b else x, z ^ b if z & t else z, ph) for x, z, ph in rows]
    # X, Y and Z flip the sign of the rows that anticommute with them.
    if gate == "X":
        return [(x, z, ph ^ 2) if z & b else (x, z, ph) for x, z, ph in rows]
    if gate == "Y":
        return [(x, z, ph ^ 2) if (x ^ z) & b else (x, z, ph) for x, z, ph in rows]
    return [(x, z, ph ^ 2) if x & b else (x, z, ph) for x, z, ph in rows]


def _images(rows: list, n: int) -> tuple[int, list, list]:
    """A circuit's rows (the images of X_q, then Z_q) in the form _composed
    takes: the mask of the wires it moves, and (bit, x, z, ph) for the X
    and the Z image of each of them.  A Clifford that fixes X_q and Z_q
    acts as I on wire q, so the other images have no support there."""
    moved = 0
    x_images, z_images = [], []
    for q in range(n):
        bit = 1 << q
        ix, iz = rows[q], rows[n + q]
        if ix != (bit, 0, 0) or iz != (0, bit, 0):
            moved |= bit
            x_images.append((bit, *ix))
            z_images.append((bit, *iz))
    return moved, x_images, z_images


def _composed(rows: list, images: tuple[int, list, list]) -> list:
    """Every row conjugated by the circuit whose _images these are.

    A row i^ph X^x Z^z becomes i^ph * prod_{x_q} image(X_q) *
    prod_{z_q} image(Z_q), the X block before the Z block as in the
    encoding; its part on wires the circuit does not move stays as it is.
    """
    moved, x_images, z_images = images
    out = []
    for row in rows:
        x, z, ph = row
        if not (x | z) & moved:
            out.append(row)
            continue
        # Start from the unmoved part: it shares no wire with any image.
        ax, az = x & ~moved, z & ~moved
        for bits, block in ((x, x_images), (z, z_images)):
            if bits & moved:
                for bit, ix, iz, iph in block:
                    if bits & bit:
                        ph += iph + 2 * (az & ix).bit_count()
                        ax ^= ix
                        az ^= iz
        out.append((ax, az, ph & 3))
    return out


def _circuit(n: int, gates, column=None) -> list:
    """The rows of |0...0> after the gates, none of which is checked.

    The circuit runs on bit-sliced columns, as in Aaronson and Gottesman's
    CHP: bit r of xs[q] (zs[q]) is row r's X (Z) bit on qubit q, and bit r
    of lo and hi are the low and high bits of row r's phase.  A gate
    updates a few of these ints for all 2n rows at once, and the columns
    are transposed into rows once, at the end: rows start as those of
    |0...0>, and only the columns the gates changed are transposed.  The
    transpose puts qubit q's bits at bit column[q] (q by default) of each
    row; the rows stay in qubit order.
    """
    xs = [1 << q for q in range(n)]
    zs = [1 << (n + q) for q in range(n)]
    lo = hi = 0
    for g in gates:
        gate, q = g[0], g[1]
        if gate == "H":
            hi ^= xs[q] & zs[q]
            xs[q], zs[q] = zs[q], xs[q]
        elif gate == "P":
            # Add 1 to the phase of the rows in xs[q], carrying into hi.
            hi ^= lo & xs[q]
            lo ^= xs[q]
            zs[q] ^= xs[q]
        elif gate == "X":
            hi ^= zs[q]
        elif gate == "Y":
            hi ^= xs[q] ^ zs[q]
        elif gate == "Z":
            hi ^= xs[q]
        else:
            t = g[2]
            xs[t] ^= xs[q]
            zs[q] ^= zs[t]

    bits = [1 << c for c in column or range(n)]
    x_rows = bits + [0] * n
    z_rows = [0] * n + bits
    for by_row, columns, first in ((x_rows, xs, 0), (z_rows, zs, n)):
        for q, rows in enumerate(columns):
            if rows == 1 << (first + q):
                continue
            bit = bits[q]
            by_row[first + q] ^= bit
            while rows:
                low = rows & -rows
                by_row[low.bit_length() - 1] |= bit
                rows ^= low
    return [(x_rows[r], z_rows[r], (lo >> r & 1) | (hi >> r & 1) << 1) for r in range(2 * n)]


def _sign(rows: list, n: int, x: int, z: int, ph: int) -> int:
    """Exact <P> for the Hermitian P = i^ph X^x Z^z: -1, 0 or +1."""
    for sx, sz, _ in rows[n:]:
        if ((x & sz).bit_count() + (z & sx).bit_count()) & 1:
            return 0
    # P commutes with a maximal group, so its bit pattern lies in the row
    # span; destabilizer anticommutation picks out the exact combination.
    acc = (0, 0, 0)
    for i in range(n):
        dx, dz, _ = rows[i]
        if ((x & dz).bit_count() + (z & dx).bit_count()) & 1:
            acc = _product(acc, rows[n + i])
    if acc[0] != x or acc[1] != z:
        raise AssertionError("stabilizer span reconstruction failed")
    d = (ph - acc[2]) & 3
    if d == 0:
        return 1
    if d == 2:
        return -1
    raise AssertionError("phase mismatch between Hermitian Paulis")


def _z_pivot(rows: list, n: int, q: int) -> tuple[int | None, int | None]:
    """(pivot, forced) for a Z measurement of qubit q.

    pivot is the first stabilizer row with X on q, and the outcome is a fair
    coin; with no such row Z_q is in +-(the stabilizer group), pivot is None
    and forced is the outcome bit.
    """
    b = 1 << q
    for i in range(n, 2 * n):
        if rows[i][0] & b:
            return i, None
    return None, (1 - _sign(rows, n, 0, b, 0)) >> 1


def _collapsed(rows: list, n: int, q: int, pivot: int, outcome: int) -> list:
    """The rows after a random Z measurement of qubit q gave outcome."""
    b = 1 << q
    anchor = rows[pivot]
    out = [
        _product(row, anchor) if row[0] & b and i != pivot and i != pivot - n else row for i, row in enumerate(rows)
    ]
    out[pivot - n] = anchor
    out[pivot] = (0, b, 2 * outcome)
    return out


def _eliminated(rows, n: int, columns: int) -> tuple[dict, list]:
    """GF(2) elimination of rows on the column mask columns, column c being
    bit c of a row's key x | z << n.  Each row is multiplied, as
    _product(row, pivot), by the pivot row of its lowest column until it
    becomes the pivot of a new column or has none left.  Returns the pivot
    rows, keyed by their column's bit, and the rows left over."""
    pivots: dict[int, tuple] = {}
    rest = []
    for row in rows:
        while key := (row[0] | row[1] << n) & columns:
            bit = key & -key
            if bit not in pivots:
                pivots[bit] = row
                break
            row = _product(row, pivots[bit])
        else:
            rest.append(row)
    return pivots, rest


def _echelon(stabs: list, n: int) -> tuple:
    """The reduced echelon basis of the group stabs generate on n qubits: its
    pivot rows in column order (X of each qubit, then Z), then the identity
    rows left over.  From the highest down, each pivot row is multiplied by
    the reduced pivot rows of the pivot columns it holds above its own."""
    pivots, rest = _eliminated(stabs, n, (1 << 2 * n) - 1)
    taken, order = sum(pivots), sorted(pivots)
    for bit in reversed(order):
        row = pivots[bit]
        above = (row[0] | row[1] << n) & taken & -(bit << 1)
        while above:
            low = above & -above
            row = _product(row, pivots[low])
            above ^= low
        pivots[bit] = row
    return (*map(pivots.get, order), *rest)


def _supported(stabs: list, n: int, wires: int) -> list:
    """Generators, signs included, of the elements of the group stabs
    generate that act as I off the wire mask wires: the rows _eliminated
    leaves over on the columns off wires."""
    off = ((1 << n) - 1) & ~wires
    return _eliminated(stabs, n, off | off << n)[1]


# ---------------------------------------------------------------------------
# The boundary: each function unpacks a tableau's rows, runs one kernel and
# boxes the result.


def apply_gate(t: Tableau, gate: str, *qubits: int) -> Tableau:
    """Conjugate every row by the gate, in place; returns the same tableau."""
    g = (gate, *qubits)
    _check_gate(t.n, g)
    t.rows = _boxed(t.n, _gated(_triples(t.rows), g))
    t.trace.append(g)
    return t


def run_circuit(n: int, gates) -> Tableau:
    """Prepare |0...0> and apply a sequence of ("gate", qubits...) tuples.

    The rows are then the images of X_0..X_{n-1}, Z_0..Z_{n-1} under the
    circuit, which is all apply_tableau needs to apply it in one step.
    Rows, phases and trace are those of applying the gates one by one with
    apply_gate; the trace holds the given tuples themselves, each checked as
    apply_gate checks it, and the rows come from the _circuit kernel.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    trace = list(gates)
    for g in trace:
        _check_gate(n, g)
    return Tableau(n, _boxed(n, _circuit(n, trace)), trace)


def apply_tableau(t: Tableau, u: Tableau) -> Tableau:
    """Conjugate every row by the circuit u = run_circuit(n, gates), in place.

    The result equals applying u's gates one by one, phase included; the
    trace is extended by u's gates.
    """
    n = t.n
    if u.n != n:
        raise ValueError(f"circuit on {u.n} qubit(s) applied to a tableau on {n}")
    t.rows = _boxed(n, _composed(_triples(t.rows), _images(_triples(u.rows), n)))
    t.trace.extend(u.trace)
    return t


def tensor(a: Tableau, b: Tableau) -> Tableau:
    """Product state; a's qubits become the leftmost (lowest-index) wires."""
    n = a.n + b.n

    def widen_a(row: PauliString) -> PauliString:
        return PauliString(n, row.x_bits, row.z_bits, row.phase_exp)

    def widen_b(row: PauliString) -> PauliString:
        return PauliString(n, row.x_bits << a.n, row.z_bits << a.n, row.phase_exp)

    rows = [widen_a(r) for r in a.destabilizers] + [widen_b(r) for r in b.destabilizers]
    rows += [widen_a(r) for r in a.stabilizers] + [widen_b(r) for r in b.stabilizers]
    trace = list(a.trace) + [(op[0], *(q + a.n for q in op[1:])) for op in b.trace]
    return Tableau(n, rows, trace)


def measure_z(t: Tableau, q: int) -> tuple[MeasurementResolution, Callable[[int], Tableau]]:
    """Resolve a Z measurement of qubit q without mutating t.

    Returns the resolution and a collapse function mapping an outcome bit to
    a fresh post-measurement tableau.  Deterministic measurements accept only
    the forced bit; random ones accept either, each branch has weight 1/2.
    """
    if not 0 <= q < t.n:
        raise ValueError(f"qubit {q} out of range for n={t.n}")
    pivot, forced = _z_pivot(_triples(t.rows), t.n, q)

    def collapse(outcome: int) -> Tableau:
        if outcome not in (0, 1):
            raise ValueError("outcome bit must be 0 or 1")
        if pivot is None:
            if outcome != forced:
                raise ValueError(f"outcome {outcome} has probability zero")
            return Tableau(t.n, list(t.rows), t.trace + [("M", q)])
        rows = _collapsed(_triples(t.rows), t.n, q, pivot, outcome)
        return Tableau(t.n, _boxed(t.n, rows), t.trace + [("M", q)])

    if pivot is None:
        return MeasurementResolution("deterministic", forced), collapse
    return MeasurementResolution("random"), collapse


def expectation(t: Tableau, obs: PauliString) -> int:
    """Exact <obs> for a stabilizer state: always -1, 0 or +1."""
    if obs.n != t.n:
        raise ValueError("observable width mismatch")
    if not obs.is_hermitian:
        raise ValueError("observable must be Hermitian")
    return _sign(_triples(t.rows), t.n, obs.x_bits, obs.z_bits, obs.phase_exp)


def supported_subgroup(t: Tableau, wires: int) -> list[PauliString]:
    """Generators of the stabilizer elements that act as I off a wire mask.

    It has at most 2^popcount(wires) elements.
    """
    return _boxed(t.n, _supported(_triples(t.stabilizers), t.n, wires))


def canonical_form(t: Tableau) -> tuple[PauliString, ...]:
    """Deterministic reduced echelon basis of the stabilizer group.

    Equal states produce identical tuples (signs included); the trace and
    the destabilizers play no part.
    """
    return tuple(_boxed(t.n, _echelon(_triples(t.stabilizers), t.n)))
