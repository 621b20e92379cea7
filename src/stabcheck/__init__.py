"""Exact equivalence checking for Clifford quantum protocols.

The package decides whether two measurement-and-feedforward Clifford
protocols implement the same superoperator, by simulating both on a basis
of 4^n stabilizer density matrices and comparing complete tables of
output-Pauli expectations with exact dyadic arithmetic.  Importing the
package loads neither numpy nor the command line: only stabcheck.dense, the
dense oracle behind the *_dense functions and --verify, imports numpy, and
it and stabcheck.cli, with argparse and json, load on first use.
"""

from .basis import (
    BASIS_ORDER_TAG,
    BasisCircuit,
    BasisElement,
    ExactComplex,
    count_stabilizer_states,
    decompose,
    decompose_by_solve,
    element_matrix,
    enumerate_basis,
    ghz_circuit,
    hermitian_coords,
    recompose,
    span_rank,
    sum_state_circuit,
)
from .checker import (
    ArityMismatchError,
    BranchOutcome,
    BudgetExceededError,
    Counterexample,
    SuperopFingerprint,
    Verdict,
    check_equivalence,
    fingerprint,
    fingerprint_dense,
    run_protocol,
    run_protocol_dense,
)
from .protocol import (
    Diagnostic,
    ParseError,
    ProtocolAST,
    SourceSpan,
    builtin_identity,
    parse,
    pretty_print,
    validate,
)
from .tableau import (
    MeasurementResolution,
    PauliString,
    Tableau,
    apply_gate,
    canonical_form,
    expectation,
    measure_z,
    new_zero_state,
    run_circuit,
    tensor,
)

__version__ = "0.1.0"

# The dense oracle needs numpy, and the command line argparse and json, so
# their names are imported on first use.
_LAZY_NAMES = {
    "ZeroProbabilityError": "dense",
    "corpus_path": "cli",
    "density_from_branches": "dense",
    "main": "cli",
    "pauli_expect_dense": "dense",
    "run_dense": "dense",
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BASIS_ORDER_TAG",
    "ArityMismatchError",
    "BasisCircuit",
    "BasisElement",
    "BranchOutcome",
    "BudgetExceededError",
    "Counterexample",
    "Diagnostic",
    "ExactComplex",
    "MeasurementResolution",
    "ParseError",
    "PauliString",
    "ProtocolAST",
    "SourceSpan",
    "SuperopFingerprint",
    "Tableau",
    "Verdict",
    "ZeroProbabilityError",
    "apply_gate",
    "builtin_identity",
    "canonical_form",
    "check_equivalence",
    "corpus_path",
    "count_stabilizer_states",
    "decompose",
    "decompose_by_solve",
    "density_from_branches",
    "element_matrix",
    "enumerate_basis",
    "expectation",
    "fingerprint",
    "fingerprint_dense",
    "ghz_circuit",
    "hermitian_coords",
    "main",
    "measure_z",
    "new_zero_state",
    "parse",
    "pauli_expect_dense",
    "pretty_print",
    "recompose",
    "run_circuit",
    "run_dense",
    "run_protocol",
    "run_protocol_dense",
    "span_rank",
    "sum_state_circuit",
    "tensor",
    "validate",
]
