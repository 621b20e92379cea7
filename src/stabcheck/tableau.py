"""Bit-packed stabilizer tableau simulator for the Clifford gate set.

State is tracked as 2n Pauli generators (n destabilizers followed by n
stabilizers) in the Aaronson-Gottesman pairing.  X and Z supports are kept
as integer bit masks (bit q of a mask is qubit q), so gate conjugation and
row multiplication are plain bitwise operations on arbitrary-precision ints.

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
        # Moving other's X block left past our Z block gives (-1) per overlap.
        phase = self.phase_exp + other.phase_exp + 2 * (self.z_bits & other.x_bits).bit_count()
        return PauliString(self.n, self.x_bits ^ other.x_bits, self.z_bits ^ other.z_bits, phase % 4)

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
        for i in range(n):
            for j in range(n):
                anti = not self.rows[i].commutes(stabs[j])
                if anti != (i == j):
                    raise ValueError(f"symplectic pairing broken at ({i}, {j})")
        if _gf2_rank([(r.x_bits << n) | r.z_bits for r in stabs]) != n:
            raise ValueError("stabilizer rows are GF(2) dependent")


def _gf2_rank(vectors: list[int]) -> int:
    rank = 0
    pivots: list[int] = []
    for v in vectors:
        for p in pivots:
            v = min(v, v ^ p)
        if v:
            pivots.append(v)
            rank += 1
    return rank


def new_zero_state(n: int) -> Tableau:
    """The state |0...0>: stabilizers +Z_i, destabilizers +X_i."""
    return run_circuit(n, ())


def _check_gate(n: int, gate: str, qubits: tuple[int, ...]) -> None:
    if gate not in GATE_NAMES:
        raise ValueError(f"unknown gate {gate!r}; only Clifford gates {GATE_NAMES} are supported")
    expected = 2 if gate == "CNOT" else 1
    if len(qubits) != expected:
        raise ValueError(f"{gate} takes {expected} qubit(s), got {len(qubits)}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
    if gate == "CNOT" and qubits[0] == qubits[1]:
        raise ValueError("CNOT control and target must differ")


def _conjugate(row: PauliString, gate: str, qubits: tuple[int, ...]) -> PauliString:
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


def apply_gate(t: Tableau, gate: str, *qubits: int) -> Tableau:
    """Conjugate every row by the gate, in place; returns the same tableau."""
    _check_gate(t.n, gate, qubits)
    t.rows = [_conjugate(r, gate, qubits) for r in t.rows]
    t.trace.append((gate, *qubits))
    return t


def run_circuit(n: int, gates) -> Tableau:
    """Prepare |0...0> and apply a sequence of ("gate", qubits...) tuples.

    The rows are then the images of X_0..X_{n-1}, Z_0..Z_{n-1} under the
    circuit, which is all apply_tableau needs to apply it in one step.  The
    circuit runs on bit-sliced columns, as in Aaronson and Gottesman's CHP:
    bit r of xs[q] (zs[q]) is row r's X (Z) bit on qubit q, and bit r of
    lo and hi are the low and high bits of row r's phase_exp.  A gate
    updates a few of these ints for all 2n rows at once, and the columns
    are transposed into rows once, at the end.  Rows, phases and trace are
    those of applying the gates one by one with apply_gate.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    xs = [1 << q for q in range(n)]
    zs = [1 << (n + q) for q in range(n)]
    lo = hi = 0
    trace = []
    for g in gates:
        gate, qubits = g[0], tuple(g[1:])
        _check_gate(n, gate, qubits)
        q = qubits[0]
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
            t = qubits[1]
            xs[t] ^= xs[q]
            zs[q] ^= zs[t]
        trace.append((gate, *qubits))

    x_rows = [0] * (2 * n)
    z_rows = [0] * (2 * n)
    for by_row, columns in ((x_rows, xs), (z_rows, zs)):
        for q, column in enumerate(columns):
            while column:
                low = column & -column
                by_row[low.bit_length() - 1] |= 1 << q
                column ^= low
    rows = [PauliString(n, x_rows[r], z_rows[r], (lo >> r & 1) | (hi >> r & 1) << 1) for r in range(2 * n)]
    return Tableau(n, rows, trace)


def apply_tableau(t: Tableau, u: Tableau) -> Tableau:
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
    qmask = 1 << q
    pivot = next((i for i in range(t.n, 2 * t.n) if t.rows[i].x_bits & qmask), None)

    if pivot is None:
        # Z_q is in +-(stabilizer group), so <Z_q> = +-1 gives the outcome.
        forced = (1 - expectation(t, PauliString(t.n, 0, qmask))) // 2

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
                out.rows[i] = out.rows[i] * anchor
        out.rows[pivot - out.n] = anchor
        out.rows[pivot] = PauliString(out.n, 0, qmask, 2 * outcome)
        out.trace.append(("M", q))
        return out

    return MeasurementResolution("random"), collapse_rand


def expectation(t: Tableau, obs: PauliString) -> int:
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
            acc = acc * t.rows[t.n + i]
    if acc.x_bits != obs.x_bits or acc.z_bits != obs.z_bits:
        raise AssertionError("stabilizer span reconstruction failed")
    d = (obs.phase_exp - acc.phase_exp) % 4
    if d == 0:
        return 1
    if d == 2:
        return -1
    raise AssertionError("phase mismatch between Hermitian Paulis")


def supported_subgroup(t: Tableau, wires: int) -> list[PauliString]:
    """Generators of the stabilizer elements that act as I off a wire mask.

    The rows are reduced by GF(2) elimination on the columns outside wires,
    pivoting on each reduced row's highest bit as _gf2_rank does; the rows
    left with no support there generate the subgroup, signs included.  It
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
                row = row * pivot
        if key:
            pivots.append((key, row))
        else:
            generators.append(row)
    return generators


def canonical_form(t: Tableau) -> tuple[PauliString, ...]:
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
                rows[i] = rows[i] * rows[rank]
        rank += 1
    return tuple(rows)
