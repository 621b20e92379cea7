"""Brute-force state-vector and density-matrix backend: the dense oracle.

Only used to validate the exact engine at desk scale (n up to about 10);
verdicts never come from here.  Indexing matches the package convention:
qubit 0 is the most significant bit of an amplitude index (_bit).

Every mixture of branches, one input's or a stack of inputs', is one
mixed_density, and every Pauli expectation, one or all 4^k of them, is one
per-qubit contraction (_contract) with the rows of _PAULI_PAIRS; no Pauli
matrix is ever built.  Only this module imports numpy; checker and cli
import it on first use, for the oracle on a Program and for --verify.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import basis_element
from .protocol import Program
from .tableau import _DIGIT, PauliString

TOL = 1e-9
# The dense oracle holds every branch's state vector for a chunk of inputs:
# 2^(wires + measurements) amplitudes per input, at most this many in all,
# 16 MB at this limit.
DENSE_LIMIT = 2 ** 20

_GATE_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "P": np.array([[1, 0], [0, 1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class ZeroProbabilityError(ValueError):
    """A measurement outcome with probability zero was requested."""


class DenseLimitError(ValueError):
    def __init__(self, log_work: int):
        super().__init__(
            f"the dense oracle needs 2^(wires + measurements) = 2^{log_work} amplitudes, "
            f"over its limit of 2^{DENSE_LIMIT.bit_length() - 1}"
        )


def _bit(n: int, q: int) -> np.ndarray:
    """Qubit q's bit of each amplitude index 0 .. 2^n - 1."""
    return (np.arange(1 << n) >> (n - 1 - q)) & 1


def zero_state(n: int) -> np.ndarray:
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    return state


def _apply_1q(state: np.ndarray, n: int, q: int, mat: np.ndarray) -> np.ndarray:
    # Axis 1 is qubit q; the leading axes and the qubits before q fold into
    # axis 0.  Elementwise, since a stacked 2x2 matmul is slower on the
    # dense oracle's stacks of many short rows.
    psi = state.reshape(-1, 2, 1 << (n - 1 - q))
    a, b = psi[:, 0], psi[:, 1]
    return np.stack((mat[0, 0] * a + mat[0, 1] * b, mat[1, 0] * a + mat[1, 1] * b), axis=1).reshape(state.shape)


def _apply_cnot(state: np.ndarray, n: int, c: int, t: int) -> np.ndarray:
    return state[..., np.arange(1 << n) ^ (_bit(n, c) << (n - 1 - t))]


def apply_gate_dense(state: np.ndarray, n: int, gate: str, *qubits: int) -> np.ndarray:
    """The gate on the last axis of state, (..., 2^n): a state or a stack of them."""
    if gate == "CNOT":
        if qubits[0] == qubits[1]:
            raise ValueError("CNOT control and target must differ")
        return _apply_cnot(state, n, *qubits)
    if gate not in _GATE_1Q:
        raise ValueError(f"unknown gate {gate!r}")
    return _apply_1q(state, n, qubits[0], _GATE_1Q[gate])


def project_z(state: np.ndarray, n: int, q: int, outcome: int) -> tuple[np.ndarray, float]:
    """Project qubit q onto |outcome> and renormalize; returns (state, prob)."""
    if outcome not in (0, 1):
        raise ValueError("outcome bit must be 0 or 1")
    picked = np.where(_bit(n, q) == outcome, state, 0.0)
    prob = float(np.vdot(picked, picked).real)
    if prob < 1e-12:
        raise ZeroProbabilityError(f"outcome {outcome} on qubit {q} has probability zero")
    return picked / math.sqrt(prob), prob


def element_states(elements) -> np.ndarray:
    """The state vectors of basis elements of one qubit count n, as a stack
    (len(elements), 2^n): |x>, (|x> + |y>)/sqrt 2 or (|x> + i|y>)/sqrt 2."""
    states = np.zeros((len(elements), 1 << elements[0].n), dtype=complex)
    for state, element in zip(states, elements):
        if element.kind == "diag":
            state[element.x] = 1.0
        else:
            state[element.x] = 1 / math.sqrt(2)
            state[element.y] = (1j if element.kind == "iplus" else 1) / math.sqrt(2)
    return states


def run_dense(n: int, trace, outcomes=(), initial_state: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Replay a tableau trace on dense amplitudes.

    outcomes supplies one bit per ("M", q) entry, in trace order.  Returns
    the final state and the probability of the chosen branch.
    """
    if initial_state is None:
        state = zero_state(n)
    else:
        state = np.asarray(initial_state, dtype=complex).copy()
        if state.shape != (1 << n,):
            raise ValueError("initial state has the wrong dimension")
    prob = 1.0
    next_outcome = 0
    for op in trace:
        if op[0] == "M":
            if next_outcome >= len(outcomes):
                raise ValueError("outcome choices must cover every measurement")
            state, p = project_z(state, n, op[1], outcomes[next_outcome])
            prob *= p
            next_outcome += 1
        else:
            state = apply_gate_dense(state, n, op[0], *op[1:])
    if next_outcome != len(outcomes):
        raise ValueError("more outcome choices than measurements")
    return state, prob


def reduced_density(state: np.ndarray, keep) -> np.ndarray:
    """Partial trace of |state><state| keeping the given qubits, in order."""
    return mixed_density(np.asarray(state)[None, None], keep)[0]


def mixed_density(branches: np.ndarray, keep) -> np.ndarray:
    """Each input's density matrix on the kept qubits, in order, summed over
    branches: branches is (branches, inputs, 2^n), with each state's squared
    norm its weight; the result is (inputs, 2^k, 2^k)."""
    n_branches, n_inputs, dim = branches.shape
    n = dim.bit_length() - 1
    keep = list(keep)
    rest = [q for q in range(n) if q not in keep]
    psi = branches.reshape((n_branches, n_inputs) + (2,) * n)
    psi = psi.transpose(1, *(2 + q for q in keep), 0, *(2 + q for q in rest)).reshape(n_inputs, 1 << len(keep), -1)
    return psi @ psi.conj().transpose(0, 2, 1)


def density_from_branches(branches, keep) -> np.ndarray:
    """Mix per-branch pure states and trace out everything not kept.

    branches is an iterable of (probability, state); probabilities must sum
    to 1 within tolerance and all states must share one qubit count.
    """
    branches = list(branches)
    if not branches:
        raise ValueError("no branches supplied")
    dim = len(branches[0][1])
    if any(len(state) != dim for _, state in branches):
        raise ValueError("branch states disagree on qubit count")
    total = sum((prob for prob, _ in branches), 0.0)
    if abs(total - 1.0) > TOL:
        raise ValueError(f"branch probabilities sum to {total}, not 1")
    # Each branch is its own input to mixed_density, so any real weights work.
    states = np.array([state for _, state in branches], dtype=complex)
    probs = np.array([prob for prob, _ in branches], dtype=float)
    return np.tensordot(probs, mixed_density(states[None], keep), axes=1)


# Row p, for p = I, X, Y, Z, holds P_p[b, a] at column 2a + b, so contracting
# it with one qubit's (row a, column b) axes of a density matrix gives Tr(P_p rho).
_PAULI_PAIRS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])


def _contract(dms: np.ndarray, rows) -> np.ndarray:
    """Tr(P dm) for each of a stack of k-qubit density matrices (B, 2^k, 2^k)
    and each P_0 x ... x P_(k-1), P_j among the _PAULI_PAIRS rows in rows[j]:
    a complex (B, number of Ps) array, qubit 0's index the most significant."""
    n_dms, k = len(dms), len(rows)
    pairs = dms.reshape((n_dms,) + (2,) * (2 * k))
    pairs = pairs.transpose(0, *(ax for j in range(1, k + 1) for ax in (j, k + j)))
    for row in reversed(rows):
        # Each step contracts the last qubit left, as one 2-D matmul, and
        # moves its Pauli axis in front of the axes after the stack's.
        pairs = (pairs.reshape(-1, 4) @ row.T).reshape(n_dms, -1, len(row)).transpose(0, 2, 1)
    return pairs.reshape(n_dms, -1)


def pauli_expect_dense(dm: np.ndarray, obs: PauliString) -> float:
    """trace(obs . dm); the imaginary part must vanish within tolerance."""
    if not obs.is_hermitian:
        raise ValueError("observable must be Hermitian")
    if dm.shape != (1 << obs.n, 1 << obs.n):
        raise ValueError("density matrix dimension mismatch")
    digits = (_DIGIT[((obs.x_bits >> q) & 1) << 1 | ((obs.z_bits >> q) & 1)] for q in range(obs.n))
    val = obs.sign * complex(_contract(dm[None], [_PAULI_PAIRS[d : d + 1] for d in digits])[0, 0])
    if abs(val.imag) >= TOL:
        raise ValueError("expectation has a non-negligible imaginary part")
    return val.real


def pauli_expectations(dms: np.ndarray) -> np.ndarray:
    """Tr(P dm) for each of a stack of k-qubit density matrices (B, 2^k, 2^k)
    and each of the 4^k Hermitian Paulis P with sign +1, as a real (B, 4^k)
    array.  The index of P is base four, I, X, Y, Z = 0..3, with qubit 0 the
    most significant digit, as in checker.local_observable.  The imaginary
    parts must vanish within tolerance."""
    values = _contract(dms, [_PAULI_PAIRS] * (dms.shape[1].bit_length() - 1))
    if np.abs(values.imag).max() >= TOL:
        raise ValueError("expectation has a non-negligible imaginary part")
    return values.real


def pauli_expect_state(state: np.ndarray, obs: PauliString) -> float:
    """<state|obs|state> for a pure state."""
    state = np.asarray(state)
    return pauli_expect_dense(np.outer(state, state.conj()), obs)


# ---------------------------------------------------------------------------
# The oracle.  It mirrors the exact pipeline with floating point and
# arbitrary input states; it validates, never decides.


def _run_dense(program: Program, states: np.ndarray) -> np.ndarray:
    """Every branch of every input-wire state in a stack (B, 2^n_in), put on
    all wires with the others |0>, as one array (branches, B, 2^n_wires).

    One walk serves the whole stack: each gate is one call on the last axis.
    A measurement forks each branch into its projections on outcomes 0 and
    1, in that order, with no renormalization, so a branch's squared norm is
    its probability and a branch of probability zero is all zeros.  Breadth
    first, branch i's outcomes are the binary digits of i, which lists the
    branches in depth-first order.  An if acts on the branches whose bit is
    set.
    """
    n = program.n_wires
    _dense_log_size(program)
    live = np.zeros((1, len(states), 1 << n), dtype=complex)
    # Input j's bit of a column of states is wire inputs[j]'s bit of the amplitude.
    live[0][:, sum(_bit(len(program.inputs), j) << (n - 1 - w) for j, w in enumerate(program.inputs))] = states
    bits = np.zeros((1, len(program.cbits)), dtype=bool)
    for op in program.ops:
        if op[0] == "u":
            for gate in op[1]:
                live = apply_gate_dense(live, n, *gate)
        elif op[0] == "if":
            # live is the walk's own array here: a measurement wrote the bit.
            chosen = bits[:, op[1]]
            live[chosen] = apply_gate_dense(live[chosen], n, op[2], *op[3])
        else:
            outcome = _bit(n, op[1]) == np.array([[0], [1]])
            live = (live[:, None] * outcome[:, None]).reshape((-1,) + live.shape[1:])
            bits = np.repeat(bits, 2, axis=0)
            bits[1::2, op[2]] = True
    return live


def _dense_log_size(program: Program) -> int:
    """log2 of the amplitudes one input's branches take, 2^(wires +
    measurements); past DENSE_LIMIT, DenseLimitError."""
    log_size = program.n_wires + program.denominator.bit_length() - 1
    if 1 << log_size > DENSE_LIMIT:
        raise DenseLimitError(log_size)
    return log_size


def _branches(program: Program, input_state) -> list[tuple[float, np.ndarray]]:
    """checker.run_protocol_dense on a lowered program."""
    input_state = np.asarray(input_state, dtype=complex)
    if input_state.shape != (1 << len(program.inputs),):
        raise ValueError("input state dimension does not match the input arity")
    branches = _run_dense(program, input_state[None])[:, 0]
    probs = np.sum(np.abs(branches) ** 2, axis=1)
    return [(float(p), state / np.sqrt(p)) for p, state in zip(probs, branches) if p >= 1e-12]


def _fingerprint_dense(program: Program) -> np.ndarray:
    """The table in floating point.  The basis inputs, as state vectors,
    go through _run_dense in chunks that keep their branches within
    DENSE_LIMIT amplitudes, and each input's density matrix on the outputs
    gives its row of expectations."""
    # At least 1, since _dense_log_size checks that one input fits.
    chunk = DENSE_LIMIT >> _dense_log_size(program)
    n_in = len(program.inputs)
    rows = []
    for start in range(0, 4 ** n_in, chunk):
        elements = [basis_element(n_in, k) for k in range(start, min(start + chunk, 4 ** n_in))]
        rows.append(pauli_expectations(mixed_density(_run_dense(program, element_states(elements)), program.outputs)))
    table = np.concatenate(rows)
    # Column 0 is the expectation of the identity: each input's total probability.
    worst = table[np.abs(table[:, 0] - 1.0).argmax(), 0]
    if abs(worst - 1.0) > TOL:
        raise ValueError(f"branch probabilities sum to {worst}, not 1")
    return table


def _deviation(program: Program, rows, denominator: int) -> float:
    """The largest gap between the program's oracle table, built first, and
    exact rows of integers over a power-of-two denominator (exact as floats)."""
    oracle = _fingerprint_dense(program)
    return float(np.max(np.abs(np.array(list(rows), dtype=float) / denominator - oracle)))


def _prepares(n: int, gates, matrix) -> bool:
    """Whether the gates, run from |0...0>, prepare the density matrix with
    these rows of ExactComplex entries (basis.element_matrix) within TOL."""
    state, _ = run_dense(n, gates)
    want = np.array([[v.to_complex() for v in row] for row in matrix])
    return np.max(np.abs(np.outer(state, state.conj()) - want)) <= TOL
