"""The 4^n basis of stabilizer density matrices and exact tools around it.

Three families span the real vector space of Hermitian 2^n x 2^n matrices:

* diag(x):    |x><x|
* plus(x,y):  (|x>+|y>)(<x|+<y|) / 2          for x < y
* iplus(x,y): (|x>+i|y>)(<x|-i<y|) / 2        for x < y

Every family member is a pure stabilizer state with a short preparation
circuit (one H, optionally one P, a CNOT fan-out, an X layer), which is what
lets the equivalence checker feed them to the tableau simulator.  All matrix
work here is exact: Fractions for scalars, ExactComplex for entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .tableau import Tableau, canonical_form, new_zero_state, apply_gate, run_circuit

BASIS_ORDER_TAG = "diag,plus,iplus:lex:trace1"

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def coerce(cls, value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        return cls(Fraction(value), Fraction(0))

    def __add__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactComplex(self.re * other, self.im * other)
        other = ExactComplex.coerce(other)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


ZERO = ExactComplex()


@dataclass(frozen=True)
class BasisElement:
    """One member of the basis: kind is 'diag', 'plus' or 'iplus'."""

    n: int
    kind: str
    x: int
    y: int | None = None

    def __post_init__(self) -> None:
        dim = 1 << self.n
        if self.kind not in ("diag", "plus", "iplus"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "diag":
            if self.y is not None:
                raise ValueError("diag takes a single label")
            if not 0 <= self.x < dim:
                raise ValueError("label out of range")
        else:
            if self.y is None or not 0 <= self.x < self.y < dim:
                raise ValueError("two-label kinds need 0 <= x < y < 2^n")

    def label(self) -> str:
        if self.kind == "diag":
            return f"diag:{self.x}"
        return f"{self.kind}:{self.x},{self.y}"


@dataclass(frozen=True)
class BasisCircuit:
    """A basis element plus a Clifford preparation circuit from |0...0>."""

    element: BasisElement
    gates: tuple[tuple, ...]

    def prepare(self) -> Tableau:
        return run_circuit(self.element.n, self.gates)


def parse_element_spec(spec: str, n: int) -> BasisElement:
    """Parse CLI-style element descriptors like 'diag:0' or 'plus:0,3'."""
    try:
        kind, _, labels = spec.partition(":")
        if kind == "diag":
            return BasisElement(n, "diag", int(labels))
        x_str, y_str = labels.split(",")
        return BasisElement(n, kind, int(x_str), int(y_str))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad basis element spec {spec!r}: {exc}") from None


def _label_bit(label: int, qubit: int, n: int) -> int:
    # qubit 0 is the most significant bit of the state label
    return (label >> (n - 1 - qubit)) & 1


def ghz_circuit(n: int, with_i: bool = False) -> BasisCircuit:
    """Prepare |0...0> + |1...1| (or the +i variant) with an H and a CNOT chain."""
    if n < 1:
        raise ValueError("need at least one qubit")
    gates: list[tuple] = [("H", 0)]
    if with_i:
        gates.append(("P", 0))
    gates += [("CNOT", k - 1, k) for k in range(1, n)]
    kind = "iplus" if with_i else "plus"
    return BasisCircuit(BasisElement(n, kind, 0, (1 << n) - 1), tuple(gates))


def sum_state_circuit(x: int, y: int, phase: str, n: int) -> BasisCircuit:
    """Prepare |x> + |y> (phase='plus') or |x> + i|y> (phase='i') exactly.

    The pivot is the most significant qubit where x has 0 and y has 1; it
    exists because x < y.  Putting the H (and P) there keeps the |0...>
    branch mapped onto |x| by the final X layer, so the i stays on |y>.
    """
    if phase not in ("plus", "i"):
        raise ValueError("phase must be 'plus' or 'i'")
    if not 0 <= x < y < (1 << n):
        raise ValueError("labels must satisfy 0 <= x < y < 2^n")
    diff = x ^ y
    pivot = next(q for q in range(n) if _label_bit(x, q, n) == 0 and _label_bit(y, q, n) == 1)
    gates: list[tuple] = [("H", pivot)]
    if phase == "i":
        gates.append(("P", pivot))
    gates += [("CNOT", pivot, q) for q in range(n) if q != pivot and _label_bit(diff, q, n)]
    gates += [("X", q) for q in range(n) if _label_bit(x, q, n)]
    kind = "iplus" if phase == "i" else "plus"
    return BasisCircuit(BasisElement(n, kind, x, y), tuple(gates))


def diag_circuit(x: int, n: int) -> BasisCircuit:
    gates = tuple(("X", q) for q in range(n) if _label_bit(x, q, n))
    return BasisCircuit(BasisElement(n, "diag", x), gates)


def enumerate_basis(n: int) -> list[BasisCircuit]:
    """All 4^n basis circuits: diag by x, then plus and iplus by (x, y)."""
    if n < 1:
        raise ValueError("need at least one qubit")
    dim = 1 << n
    circuits = [diag_circuit(x, n) for x in range(dim)]
    pairs = list(itertools.combinations(range(dim), 2))
    circuits += [sum_state_circuit(x, y, "plus", n) for x, y in pairs]
    circuits += [sum_state_circuit(x, y, "i", n) for x, y in pairs]
    return circuits


def circuit_for(element: BasisElement) -> BasisCircuit:
    if element.kind == "diag":
        return diag_circuit(element.x, element.n)
    phase = "i" if element.kind == "iplus" else "plus"
    return sum_state_circuit(element.x, element.y, phase, element.n)


def basis_index(element: BasisElement) -> int:
    """Position of an element in enumerate_basis order."""
    dim = 1 << element.n
    if element.kind == "diag":
        return element.x
    x, y = element.x, element.y
    # Pairs (x, y) in lexicographic order: dim - 1 - x of them start with x.
    pair_rank = x * (2 * dim - x - 1) // 2 + y - x - 1
    npairs = dim * (dim - 1) // 2
    offset = dim if element.kind == "plus" else dim + npairs
    return offset + pair_rank


def basis_element(n: int, index: int) -> BasisElement:
    """The element at index in enumerate_basis(n) order; basis_index inverted."""
    dim = 1 << n
    if not 0 <= index < dim * dim:
        raise ValueError(f"basis index {index} out of range for n={n}")
    if index < dim:
        return BasisElement(n, "diag", index)
    rank = index - dim
    npairs = dim * (dim - 1) // 2
    kind = "plus" if rank < npairs else "iplus"
    rank %= npairs
    # Undo basis_index's pair rank: dim - 1 - x pairs start with x.
    x = 0
    while rank >= dim - 1 - x:
        rank -= dim - 1 - x
        x += 1
    return BasisElement(n, kind, x, x + 1 + rank)


def element_matrix(e: BasisElement) -> list[list[ExactComplex]]:
    """Exact trace-one density matrix of a basis element."""
    dim = 1 << e.n
    m = [[ZERO for _ in range(dim)] for _ in range(dim)]
    one = ExactComplex(Fraction(1))
    if e.kind == "diag":
        m[e.x][e.x] = one
        return m
    half = ExactComplex(HALF)
    m[e.x][e.x] = half
    m[e.y][e.y] = half
    if e.kind == "plus":
        m[e.x][e.y] = half
        m[e.y][e.x] = half
    else:
        m[e.x][e.y] = ExactComplex(Fraction(0), -HALF)
        m[e.y][e.x] = ExactComplex(Fraction(0), HALF)
    return m


def coerce_matrix(matrix) -> list[list[ExactComplex]]:
    rows = [[ExactComplex.coerce(v) for v in row] for row in matrix]
    dim = len(rows)
    if dim == 0 or any(len(r) != dim for r in rows):
        raise ValueError("matrix must be square")
    if dim & (dim - 1):
        raise ValueError("matrix dimension must be a power of 2")
    return rows


def _require_hermitian(m: list[list[ExactComplex]]) -> None:
    dim = len(m)
    for i in range(dim):
        for j in range(i, dim):
            if m[i][j] != m[j][i].conjugate():
                raise ValueError("matrix is not Hermitian")


def hermitian_coords(matrix) -> list[Fraction]:
    """Coordinates over the obvious Hermitian basis.

    Order: diagonal entries, then Re M[x,y] for x < y, then -Im M[x,y]
    for x < y, both pair families in lexicographic order.
    """
    m = coerce_matrix(matrix)
    _require_hermitian(m)
    dim = len(m)
    coords = [m[x][x].re for x in range(dim)]
    pairs = list(itertools.combinations(range(dim), 2))
    coords += [m[x][y].re for x, y in pairs]
    coords += [-m[x][y].im for x, y in pairs]
    return coords


def decompose(matrix) -> list[Fraction]:
    """Exact coefficients over enumerate_basis order, computed analytically.

    Each off-diagonal entry is carried by one plus and one iplus element;
    the diag coefficients then absorb the diagonal residue those two leave
    behind.  decompose_by_solve is the independent cross-check.
    """
    m = coerce_matrix(matrix)
    _require_hermitian(m)
    dim = len(m)
    pairs = list(itertools.combinations(range(dim), 2))
    c_plus = {p: 2 * m[p[0]][p[1]].re for p in pairs}
    c_iplus = {p: -2 * m[p[0]][p[1]].im for p in pairs}
    c_diag = []
    for x in range(dim):
        residue = Fraction(0)
        for p in pairs:
            if x in p:
                residue += (c_plus[p] + c_iplus[p]) * HALF
        c_diag.append(m[x][x].re - residue)
    return c_diag + [c_plus[p] for p in pairs] + [c_iplus[p] for p in pairs]


def decompose_by_solve(matrix) -> list[Fraction]:
    """Same coefficients via an exact dense linear solve (independent path)."""
    m = coerce_matrix(matrix)
    _require_hermitian(m)
    dim = len(m)
    n = dim.bit_length() - 1
    columns = [hermitian_coords(element_matrix(c.element)) for c in enumerate_basis(n)]
    rhs = hermitian_coords(m)
    size = dim * dim
    aug = [[columns[k][r] for k in range(size)] + [rhs[r]] for r in range(size)]
    return _solve_exact(aug, size)


def _solve_exact(aug: list[list[Fraction]], size: int) -> list[Fraction]:
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular basis matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def recompose(coefficients, n: int) -> list[list[ExactComplex]]:
    """Sum coefficient * element_matrix over the basis; exact."""
    dim = 1 << n
    acc = [[ZERO for _ in range(dim)] for _ in range(dim)]
    circuits = enumerate_basis(n)
    if len(coefficients) != len(circuits):
        raise ValueError("coefficient count must be 4^n")
    for coeff, circ in zip(coefficients, circuits):
        if coeff == 0:
            continue
        em = element_matrix(circ.element)
        for i in range(dim):
            for j in range(dim):
                acc[i][j] = acc[i][j] + em[i][j] * Fraction(coeff)
    return acc


def span_rank(n: int) -> int:
    """Exact rank over the rationals of the 4^n basis-coordinate matrix."""
    if not 1 <= n <= 3:
        raise ValueError("span_rank supports n from 1 to 3")
    circuits = enumerate_basis(n)
    # Entries doubled so everything is an integer; scaling keeps the rank.
    mat = []
    for circ in circuits:
        mat.append([int(2 * v) for v in hermitian_coords(element_matrix(circ.element))])
    return _rank_fraction_free(mat)


def _rank_fraction_free(mat: list[list[int]]) -> int:
    """Bareiss elimination rank of an integer matrix."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    prev = 1
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, rows):
            for c in range(cols):
                if c == col:
                    continue
                m[r][c] = (m[r][c] * m[rank][col] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank


def count_stabilizer_states(n: int) -> int:
    """Orbit size of |0...0> under H, P and CNOT words, by BFS to closure."""
    if not 1 <= n <= 3:
        raise ValueError("census by orbit enumeration supports n from 1 to 3")
    moves: list[tuple] = [("H", q) for q in range(n)]
    moves += [("P", q) for q in range(n)]
    moves += [("CNOT", c, t) for c in range(n) for t in range(n) if c != t]
    start = new_zero_state(n)
    seen = {canonical_form(start)}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for move in moves:
                succ = apply_gate(state.copy(), move[0], *move[1:])
                key = canonical_form(succ)
                if key not in seen:
                    seen.add(key)
                    succ.trace.clear()
                    nxt.append(succ)
        frontier = nxt
    return len(seen)
