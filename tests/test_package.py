"""The package's public surface: every exported name, and which load
lazily; the oldest Python the package declares it runs on; and the code
names README.md gives."""

import importlib
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import stabcheck

# Frozen on purpose: a change that drops or renames a public name fails here.
PUBLIC_NAMES = [
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

# The dense oracle's names, which need numpy and so are imported on first use.
DENSE_NAMES = ["ZeroProbabilityError", "density_from_branches", "pauli_expect_dense", "run_dense"]


def test_all_is_the_frozen_list():
    assert stabcheck.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves_and_the_dense_ones_lazily():
    assert [name for name in PUBLIC_NAMES if name not in vars(stabcheck)] == DENSE_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(stabcheck, name), name
    from stabcheck import dense

    for name in DENSE_NAMES:
        assert getattr(stabcheck, name) is getattr(dense, name)
        # Resolved through the module's __getattr__ each time, never cached.
        assert name not in vars(stabcheck)


def test_only_protocol_knows_the_compact_body():
    """The parsed body's compact gate runs are read by protocol.py alone."""
    from stabcheck import checker

    assert {"GateStmt", "IfGateStmt", "MeasureStmt", "_stored_body"}.isdisjoint(vars(checker))
    for path in sorted(Path(stabcheck.__file__).parent.glob("*.py")):
        if path.name != "protocol.py":
            text = path.read_text(encoding="utf-8")
            assert [name for name in ("_stored_body", "_CompactBody", "_nodes", '__dict__["body"]') if name in text] == [], path.name


def test_only_their_owners_write_the_kept_results():
    """An AST keeps its checked pass, written by protocol.py alone; a Program
    keeps its forms and its channel's parts, written by checker.py alone."""
    owners = {
        '__dict__["_checked"]': "protocol.py",
        '__dict__["_forms"]': "checker.py",
        '__dict__["_parts"]': "checker.py",
    }
    for path in sorted(Path(stabcheck.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert [key for key, owner in owners.items() if (key in text) != (path.name == owner)] == [], path.name


def test_only_dense_imports_numpy():
    """The dense oracle is the one module that needs numpy; checker and cli
    import it on first use."""
    for path in sorted(Path(stabcheck.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert ("import numpy" in text or "from numpy" in text) == (path.name == "dense.py"), path.name


def test_the_readme_names_only_code_that_exists():
    """Every backticked checker., tableau., protocol., basis., dense. or
    cli. name in README.md, with or without a stabcheck. prefix, is an
    attribute of that module, and every backticked _name of one of
    stabcheck's modules; file names such as dense.py are not names."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    modules = {name: importlib.import_module(f"stabcheck.{name}") for name in ("checker", "tableau", "protocol", "basis", "dense", "cli")}
    spans = re.findall(r"`([^`\n]+)`", readme)
    qualified = [m.groups() for m in map(re.compile(r"(?:stabcheck\.)?(\w+)\.(\w+)").fullmatch, spans) if m]
    assert [f"{module}.{name}" for module, name in qualified if module in modules and name != "py" and not hasattr(modules[module], name)] == []
    private = [span for span in spans if re.fullmatch(r"_\w+", span)]
    assert len(private) > 10 and [name for name in private if not any(hasattr(m, name) for m in modules.values())] == []


def _python_3_10() -> str | None:
    """A Python 3.10 interpreter that runs: python3.10 on PATH or, since
    pyenv's python3.10 shim runs only while a 3.10 is selected, one that
    pyenv installed."""
    found = [shutil.which("python3.10")]
    if os.environ.get("PYENV_ROOT"):
        found += sorted(Path(os.environ["PYENV_ROOT"]).glob("versions/3.10*/bin/python3.10"))
    for exe in filter(None, found):
        probe = subprocess.run([exe, "-c", "import sys; sys.exit(sys.version_info[:2] != (3, 10))"], capture_output=True)
        if probe.returncode == 0:
            return str(exe)
    return None


# Parses every corpus file, decides teleport.qpr and teleport_noZ.qpr against
# identity:1 (the second refuted, with a counterexample), builds the refuted
# pair's two tables and reads the counterexample's cell in each (they differ
# there, and hold its values), and counts the two-qubit stabilizer states,
# with no numpy, which the 3.10 interpreter need not have.
_ON_3_10 = """
import sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from stabcheck import builtin_identity, check_equivalence, corpus_path, count_stabilizer_states, parse
from stabcheck.basis import basis_index
from stabcheck.checker import local_observable
paths = sorted(Path(corpus_path("teleport.qpr")).parent.glob("*.qpr"))
asts = {path.name: parse(path.read_text(encoding="utf-8")) for path in paths}
refuted = check_equivalence(asts["teleport_noZ.qpr"], builtin_identity(1))
ce = refuted.counterexample
k, q = basis_index(ce.basis_element), [local_observable(1, q) for q in range(4)].index(ce.observable)
lhs, rhs = (fp.table[k][q] for fp in refuted.fingerprints)
print(len(asts), check_equivalence(asts["teleport.qpr"], builtin_identity(1)).equivalent, refuted.equivalent,
      ce is not None, lhs != rhs, (lhs, rhs) == (ce.value_lhs, ce.value_rhs), count_stabilizer_states(2),
      "numpy" in sys.modules)
"""


def test_the_package_runs_on_the_oldest_python_it_declares():
    root = Path(__file__).resolve().parent.parent
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text(encoding="utf-8")
    exe = _python_3_10()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter found")
    # -I ignores the caller's environment and user site, -B writes no bytecode into src/.
    done = subprocess.run([exe, "-I", "-B", "-c", _ON_3_10, str(root / "src")], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    corpus = len(list(Path(stabcheck.corpus_path("teleport.qpr")).parent.glob("*.qpr")))
    assert done.stdout.split() == [str(corpus), "True", "False", "True", "True", "True", "60", "False"]
