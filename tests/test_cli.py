"""Command-line behavior: exit codes, reports, JSON stability."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stabcheck
from stabcheck import ArityMismatchError, builtin_identity, check_equivalence, parse
from stabcheck.cli import corpus_path, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


def deep_protocol(tmp_path, rounds=1100):
    """Rounds of H and a measurement on one ancilla beside the input."""
    decls = "".join(f"  cbit c{k};\n" for k in range(rounds))
    body = "".join(f"  H a;\n  measure a -> c{k};\n" for k in range(rounds))
    deep = tmp_path / "deep.qpr"
    deep.write_text("protocol deep {\n  qubit psi: input;\n  qubit a: zero;\n" + decls + body + "  output psi;\n}\n")
    return str(deep)


def run_fresh(*argv):
    """Exit code, stdout and stderr of the command in a new interpreter."""
    src = str(Path(stabcheck.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    command = [sys.executable, "-c", "from stabcheck.cli import entry; entry()", *argv]
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


TELEPORT = str(corpus_path("teleport.qpr"))
NO_X = str(corpus_path("teleport_noX.qpr"))
NO_Z = str(corpus_path("teleport_noZ.qpr"))


class TestCheck:
    def test_teleport_is_identity(self, capsys):
        code, out, _ = run_cli(capsys, "check", TELEPORT, "--identity", "1")
        assert code == 0
        assert "EQUIVALENT" in out

    def test_mutants_fail_with_counterexample(self, capsys):
        for path in (NO_X, NO_Z):
            code, report, _ = run_json(capsys, "check", path, "--identity", "1")
            assert code == 1
            assert report["verdict"] == "counterexample"
            ce = report["counterexample"]
            assert ce["basis"] == "plus:0,1"
            assert ce["observable"] == "+X"
            assert (ce["lhs_value"], ce["rhs_value"]) == ("0", "1")

    def test_text_names_what_decided(self, capsys):
        _, out, _ = run_cli(capsys, "check", TELEPORT, "--identity", "1")
        assert "decided on the Choi states: every exact Pauli coefficient agrees" in out
        _, out, _ = run_cli(capsys, "check", NO_Z, "--identity", "1")
        assert "first at this entry of the 16-entry fingerprint tables" in out
        assert "compared" not in out
        _, report, _ = run_json(capsys, "check", NO_Z, "--identity", "1")
        assert report["entries"] == 16

    def test_two_files(self, capsys):
        code, _, _ = run_cli(capsys, "check", str(corpus_path("swap_cnot.qpr")), str(corpus_path("swap_wires.qpr")))
        assert code == 0

    def test_verify_flag(self, capsys):
        code, _, _ = run_cli(capsys, "check", TELEPORT, "--identity", "1", "--verify")
        assert code == 0

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad_syntax.qpr"
        bad.write_text("protocol p { qubit a: input output a; }")
        code, _, err = run_cli(capsys, "check", str(bad), "--identity", "1")
        assert code == 2
        assert "error" in err
        assert ":1:" in err  # file:line:col diagnostic

    def test_non_clifford_gate_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "toffoli.qpr"
        bad.write_text("protocol p { qubit a: input; T a; output a; }")
        code, _, err = run_cli(capsys, "check", str(bad), "--identity", "1")
        assert code == 2
        assert "Clifford" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "nope.qpr", "--identity", "1")
        assert code == 2
        assert "cannot read" in err

    def test_arity_mismatch_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", TELEPORT, "--identity", "2")
        assert code == 2
        assert "arity" in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.qpr"
        bad.write_bytes(b"protocol p { qubit a: input; output a; }\n\xff\n")
        code, _, err = run_cli(capsys, "check", str(bad), "--identity", "1")
        assert code == 2
        assert err.startswith(f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff")

    def test_identity_arity_is_checked_before_it_is_built(self, capsys):
        # Building a 200,000-wire identity first took seconds and hundreds of MB.
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "check", TELEPORT, "--identity", "200000")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == "arity mismatch: teleport is 1->1, identity_200000 is 200000->200000\n"
        # The same text as check_equivalence's ArityMismatchError.
        with pytest.raises(ArityMismatchError) as exc:
            check_equivalence(parse(corpus_path("teleport.qpr").read_text()), builtin_identity(2))
        _, _, err = run_cli(capsys, "check", TELEPORT, "--identity", "2")
        assert err == f"{exc.value}\n"

    def test_budget_exceeded_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", TELEPORT, "--identity", "1", "--budget", "4")
        assert code == 2
        assert "budget" in err

    def test_deep_measurement_chain(self, capsys, tmp_path):
        # 1,100 random measurements of one ancilla: the branch walk once
        # recursed per measurement and exited 3 past the recursion limit.
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "check", deep_protocol(tmp_path), "--identity", "1")
        assert time.perf_counter() - start < 5.0
        assert code == 0 and "EQUIVALENT" in out

    def test_verify_refuses_an_oversized_oracle(self, capsys, tmp_path):
        # The dense oracle would hold 2^(2 wires + 1,100 measurements) amplitudes.
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "check", deep_protocol(tmp_path), "--identity", "1", "--verify")
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert "2^1102" in err and "limit of 2^20" in err

    def test_usage_error_exits_2(self, capsys):
        assert main(["check"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "first,second",
        [
            (("check", TELEPORT, "--identity", "1", "--verify"), ("check", NO_Z, "--identity", "1")),
            (("check", TELEPORT, "--identity", "1"), ("check", NO_Z, TELEPORT)),
            (("check",), ("check", TELEPORT, str(corpus_path("identity.qpr")))),
        ],
        ids=["verify-then-plain", "identity-then-file", "usage-error-then-success"],
    )
    def test_consecutive_calls_match_fresh_processes(self, capsys, first, second):
        # The text reports carry no timing, so a leak from one call into the
        # next is the only way the two runs can differ.
        assert [run_cli(capsys, *first), run_cli(capsys, *second)] == [run_fresh(*first), run_fresh(*second)]

    def test_json_deterministic(self, capsys):
        _, r1, _ = run_json(capsys, "check", NO_Z, "--identity", "1")
        _, r2, _ = run_json(capsys, "check", NO_Z, "--identity", "1")
        r1.pop("timing_ms")
        r2.pop("timing_ms")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


class TestSim:
    def test_teleport_diag(self, capsys):
        code, report, _ = run_json(capsys, "sim", TELEPORT, "--input", "diag:0")
        assert code == 0
        assert len(report["branches"]) == 4
        assert all(b["probability"] == "1/4" for b in report["branches"])

    def test_identity_plus_single_branch(self, capsys):
        code, report, _ = run_json(capsys, "sim", str(corpus_path("identity.qpr")), "--input", "plus:0,1")
        assert code == 0
        assert len(report["branches"]) == 1
        assert report["branches"][0]["generators"] == ["+X"]

    def test_teleport_iplus_output_is_y(self, capsys):
        code, report, _ = run_json(capsys, "sim", TELEPORT, "--input", "iplus:0,1")
        assert code == 0
        for branch in report["branches"]:
            assert "+IIY" in branch["generators"]

    def test_bad_element_spec(self, capsys):
        code, _, err = run_cli(capsys, "sim", TELEPORT, "--input", "diag:9")
        assert code == 2
        assert "spec" in err or "label" in err

    def test_refuses_too_many_branches(self, capsys, tmp_path):
        # 20 random measurements would list 2^20 branches; the walk stops at 2^12.
        code, _, err = run_cli(capsys, "sim", deep_protocol(tmp_path, rounds=20), "--input", "diag:0")
        assert code == 2
        assert "2^12" in err


class TestBasis:
    def test_single_qubit_export(self, capsys):
        code, report, _ = run_json(capsys, "basis", "1")
        assert code == 0
        assert report["count"] == 4
        assert report["elements"][0] == {"kind": "diag", "x": 0, "y": None, "gates": []}
        assert report["elements"][2]["gates"] == [["H", 0]]

    def test_two_qubits_count(self, capsys):
        code, report, _ = run_json(capsys, "basis", "2")
        assert code == 0 and report["count"] == 16

    def test_three_qubits_verified(self, capsys):
        code, report, _ = run_json(capsys, "basis", "3", "--verify")
        assert code == 0 and report["count"] == 64 and report["verified"]

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "basis", "9")
        assert code == 2

    def test_verify_needs_small_n(self, capsys):
        code, _, _ = run_cli(capsys, "basis", "5", "--verify")
        assert code == 2


class TestSpanAndCensus:
    @pytest.mark.parametrize("n,rank", [(1, 4), (2, 16), (3, 64)])
    def test_span(self, capsys, n, rank):
        code, report, _ = run_json(capsys, "span", str(n))
        assert code == 0
        assert report["rank"] == rank and report["full_rank"]

    @pytest.mark.parametrize(
        "n,count,ratio", [(1, 6, "3/2"), (2, 60, "15/4"), (3, 1080, "135/8")]
    )
    def test_census(self, capsys, n, count, ratio):
        code, report, _ = run_json(capsys, "census", str(n))
        assert code == 0
        assert report["stabilizer_states"] == count
        assert report["basis_size"] == 4 ** n
        assert report["ratio"] == ratio

    def test_census_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "census", "4")
        assert code == 2


class TestWarnings:
    def test_warnings_surface_on_stderr(self, capsys):
        code, _, err = run_cli(capsys, "check", NO_Z, "--identity", "1")
        assert code == 1
        assert "never read" in err  # m0 is measured but unused in the mutant


def test_internal_failures_exit_3(capsys, monkeypatch):
    import stabcheck.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli_mod.checker, "check_equivalence", boom)
    code, _, err = run_cli(capsys, "check", TELEPORT, "--identity", "1")
    assert code == 3
    assert "internal error" in err
