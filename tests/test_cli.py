"""Command-line behavior: exit codes, reports, JSON stability."""

import json
import time

import pytest

from stabcheck.cli import corpus_path, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


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

    def test_budget_exceeded_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", TELEPORT, "--identity", "1", "--budget", "4")
        assert code == 2
        assert "budget" in err

    def test_deep_measurement_chain(self, capsys, tmp_path):
        # 1,100 random measurements of one ancilla: the branch walk once
        # recursed per measurement and exited 3 past the recursion limit.
        decls = "".join(f"  cbit c{k};\n" for k in range(1100))
        body = "".join(f"  H a;\n  measure a -> c{k};\n" for k in range(1100))
        deep = tmp_path / "deep.qpr"
        deep.write_text("protocol deep {\n  qubit psi: input;\n  qubit a: zero;\n" + decls + body + "  output psi;\n}\n")
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "check", str(deep), "--identity", "1")
        assert time.perf_counter() - start < 5.0
        assert code == 0 and "EQUIVALENT" in out

    def test_usage_error_exits_2(self, capsys):
        assert main(["check"]) == 2
        capsys.readouterr()

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
