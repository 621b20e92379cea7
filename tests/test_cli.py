"""Command-line behavior: exit codes, reports, JSON stability."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stabcheck
from stabcheck import ArityMismatchError, builtin_identity, check_equivalence, checker, dense, parse, protocol
from stabcheck import cli as cli_mod
from stabcheck.cli import corpus_path, main

from helpers import h_controlled_cluster_wire_source, repetition_code_source, teleport_source


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


def run_python(*args):
    """Exit code, stdout and stderr of python with these arguments in a new interpreter."""
    src = str(Path(stabcheck.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


def run_fresh(*argv):
    """Exit code, stdout and stderr of the command in a new interpreter."""
    return run_python("-c", "from stabcheck.cli import entry; entry()", *argv)


TELEPORT = str(corpus_path("teleport.qpr"))
NO_X = str(corpus_path("teleport_noX.qpr"))
NO_Z = str(corpus_path("teleport_noZ.qpr"))
IDENTITY = str(corpus_path("identity.qpr"))


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

    def test_report_names_the_decider(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "check", TELEPORT, "--identity", "1")
        assert "decider: deferred measurement" in out
        _, report, _ = run_json(capsys, "check", NO_Z, "--identity", "1")
        assert report["decider"] == "deferred measurement"
        wire = tmp_path / "cluster.qpr"
        wire.write_text(h_controlled_cluster_wire_source(2))
        _, out, _ = run_cli(capsys, "check", str(wire), "--identity", "1")
        assert "decider: deferred measurement over 2^1 assignments: bit s1 controls H" in out
        _, report, _ = run_json(capsys, "check", str(wire), "--identity", "1")
        assert report["decider"] == "deferred measurement over 2^1 assignments: bit s1 controls H"

    def test_two_files(self, capsys):
        code, _, _ = run_cli(capsys, "check", str(corpus_path("swap_cnot.qpr")), str(corpus_path("swap_wires.qpr")))
        assert code == 0

    def test_verify_flag(self, capsys):
        code, _, _ = run_cli(capsys, "check", TELEPORT, "--identity", "1", "--verify")
        assert code == 0

    def test_verify_agrees_on_repetition_codes(self, capsys, tmp_path):
        path = tmp_path / "repetition.qpr"
        for d in (2, 3, 4):
            for drop in (None, "X", *(f"Z{i}" for i in range(1, d))):
                path.write_text(repetition_code_source(d, drop))
                code, _, err = run_cli(capsys, "check", str(path), "--identity", "1", "--verify")
                assert code == (1 if drop else 0), (d, drop, err)

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

    def test_a_byte_order_mark_at_the_start_is_read_past(self, capsys, tmp_path):
        path = tmp_path / "bom.qpr"
        # teleport_noX is refuted, and m0 reads as unused, so the report has a
        # counterexample and a warning to compare.
        source = corpus_path("teleport_noX.qpr").read_text(encoding="utf-8").replace("if m0 then Z b;", "")
        reports = []
        for encoding in ("utf-8-sig", "utf-8"):
            path.write_text(source, encoding=encoding)
            assert path.read_bytes().startswith(b"\xef\xbb\xbf") == (encoding == "utf-8-sig")
            text = run_cli(capsys, "check", str(path), "--identity", "1")
            code, report, err = run_json(capsys, "check", str(path), "--identity", "1")
            del report["timing_ms"]
            reports.append((text, code, report, err))
        assert reports[0] == reports[1]
        assert reports[0][1] == 1 and "never read" in reports[0][3]
        # Anywhere else, it is a character the format does not accept.
        path.write_text(source.replace("\n  output", "\n\ufeff  output"), encoding="utf-8")
        code, _, err = run_cli(capsys, "check", str(path), "--identity", "1")
        assert code == 2
        assert err.startswith(f"{path}:{source.splitlines().index('  output b;') + 1}:1: error: unexpected character '\\ufeff'")

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
        # Deferred measurement decides an equivalent pair with no table, so
        # the pair differs, and naming its counterexample needs 16 entries.
        code, _, err = run_cli(capsys, "check", NO_Z, "--identity", "1", "--budget", "4")
        assert code == 2
        assert "budget" in err

    def test_negative_budget_exits_2(self, capsys):
        # It was taken, and a refuted pair reported "over the budget of -5".
        code, out, err = run_cli(capsys, "check", NO_Z, "--identity", "1", "--budget", "-5")
        assert code == 2 and out == ""
        assert err == "--budget takes a non-negative entry count\n"
        code, _, err = run_cli(capsys, "check", NO_Z, "--identity", "1", "--budget", "0")
        assert code == 2 and "over the budget of 0" in err

    def test_a_side_of_several_states_past_the_budget_exits_2(self, capsys, tmp_path):
        wire = tmp_path / "cluster.qpr"
        wire.write_text(h_controlled_cluster_wire_source(4, controls=2))
        code, out, err = run_cli(capsys, "check", str(wire), str(wire), "--budget", "0")
        assert code == 2 and out == ""
        assert err == "fingerprint needs 16 exact entries, over the budget of 0\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("check", TELEPORT, IDENTITY, "--identity", "1"), "give either a second protocol file or --identity, not both"),
            (("check", TELEPORT, "--identity", "0"), "--identity takes a positive qubit count"),
            (("check", TELEPORT), "need a second protocol file or --identity N"),
            (("span", "4"), "span verification supports n from 1 to 3"),
        ],
        ids=["both-sides", "identity-0", "one-side", "span-4"],
    )
    def test_usage_errors_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", message + "\n")

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

    def test_verify_refuses_teleport_5(self, capsys, tmp_path):
        # 15 wires and 10 measurements: 2^25 amplitudes for one basis input.
        path = tmp_path / "teleport_5.qpr"
        path.write_text(teleport_source(5))
        code, out, err = run_cli(capsys, "check", str(path), "--identity", "5", "--verify")
        assert code == 2 and out == ""
        assert "2^25" in err and "limit of 2^20" in err

    def test_verify_reports_an_oracle_mismatch(self, capsys, monkeypatch):
        oracle = dense._fingerprint_dense

        def perturbed(program):
            table = oracle(program)
            table[1, 2] += 1e-6
            return table

        monkeypatch.setattr(dense, "_fingerprint_dense", perturbed)
        code, out, err = run_cli(capsys, "check", TELEPORT, "--identity", "1", "--verify")
        assert code == 3 and out == ""
        assert "oracle cross-check failed" in err

    def test_classical_control_limit_exits_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(checker, "BRANCH_LIMIT", 16)
        wire = tmp_path / "cluster.qpr"
        wire.write_text(h_controlled_cluster_wire_source(6, controls=5))
        code, out, err = run_cli(capsys, "check", str(wire), "--identity", "1")
        assert code == 2 and out == ""
        assert "5 bits control H, P or CNOT" in err and "limit of 2^4" in err

    @pytest.mark.parametrize(
        "argv,sides",
        [
            (("check", TELEPORT, IDENTITY, "--json"), ["teleport", "identity"]),
            (("check", TELEPORT, IDENTITY, "--json", "--verify"), ["teleport", "identity"]),
            (("check", TELEPORT, "--identity", "1"), ["teleport", "identity_1"]),
            (("sim", TELEPORT, "--input", "plus:0,1"), ["teleport"]),
        ],
        ids=["check", "check-verify", "check-identity", "sim"],
    )
    def test_each_side_is_validated_at_most_once_and_lowered_once(self, capsys, monkeypatch, argv, sides):
        # validate, lower and the CLI's loading all run the one pass, _pass,
        # through _checked, which keeps it on the AST.
        passes = []
        run_pass = protocol._pass

        def counted(ast):
            passes.append(ast.name)
            return run_pass(ast)

        monkeypatch.setattr(protocol, "_pass", counted)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(passes) == len(set(passes)) and set(passes) <= set(sides)
        # A side read from a file is a fresh parse, so its pass runs here;
        # identity_1's AST is kept for the process and may have run it before.
        assert set(sides) - {"identity_1"} <= set(passes)

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

    def test_plain_check_loads_no_numpy(self):
        # Only the dense oracle needs numpy; --verify loads it when it runs.
        code = "\n".join([
            "import sys",
            "import stabcheck",
            "from stabcheck import cli",
            f"plain = cli.main(['check', {TELEPORT!r}, '--identity', '1', '--json'])",
            "loaded = 'numpy' in sys.modules",
            f"verify = cli.main(['check', {TELEPORT!r}, '--identity', '1', '--json', '--verify'])",
            "print(plain, loaded, verify, 'numpy' in sys.modules, file=sys.stderr)",
        ])
        assert run_python("-c", code)[2].split() == ["0", "False", "0", "True"]

    def test_python_m_stabcheck_runs_the_cli(self):
        code, out, err = run_python("-m", "stabcheck", "check", TELEPORT, "--identity", "1")
        assert (code, err) == (0, "")
        assert "EQUIVALENT" in out

    def test_json_deterministic(self, capsys):
        _, r1, _ = run_json(capsys, "check", NO_Z, "--identity", "1")
        _, r2, _ = run_json(capsys, "check", NO_Z, "--identity", "1")
        r1.pop("timing_ms")
        r2.pop("timing_ms")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


# The keys of each command's JSON report; main adds command and timing_ms.
REPORT_KEYS = {
    "check": {"command", "lhs", "rhs", "n_in", "n_out", "entries", "verdict", "counterexample", "decider", "timing_ms"},
    "sim": {"command", "protocol", "input", "branches", "timing_ms"},
    "basis": {"command", "n", "count", "order", "elements", "verified", "timing_ms"},
    "span": {"command", "n", "rank", "expected", "full_rank", "timing_ms"},
    "census": {"command", "n", "stabilizer_states", "basis_size", "ratio", "timing_ms"},
}


class TestReports:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (("check", TELEPORT, "--identity", "1"), 0),
            (("check", NO_X, "--identity", "1", "--verify"), 1),
            (("sim", TELEPORT, "--input", "plus:0,1"), 0),
            (("basis", "1", "--verify"), 0),
            (("span", "2"), 0),
            (("census", "2"), 0),
        ],
        ids=["check", "check-refuted-verify", "sim", "basis-verify", "span", "census"],
    )
    def test_each_command_prints_one_report_with_its_keys(self, capsys, argv, code):
        got, out, _ = run_cli(capsys, *argv, "--json")
        assert got == code
        report = json.loads(out)  # a second report would be extra data
        assert set(report) == REPORT_KEYS[argv[0]]
        assert report["command"] == argv[0]
        assert isinstance(report["timing_ms"], float) and report["timing_ms"] >= 0

    def test_only_checker_reads_a_channel(self):
        source = Path(cli_mod.__file__).read_text(encoding="utf-8")
        for name in ("_rows", "_parts", "_fingerprint_dense", "channel["):
            assert name not in source, name


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

    def test_a_closed_stdout_ends_quietly(self):
        # basis 7 prints 16,385 lines, far past a pipe's buffer, so its
        # writes fail once the reader has gone.
        src = str(Path(stabcheck.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = [sys.executable, "-m", "stabcheck", "basis", "7"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"basis for n=7: 16384 elements\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""


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
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli_mod.checker, "_verdict", boom)
    code, _, err = run_cli(capsys, "check", TELEPORT, "--identity", "1")
    assert code == 3
    assert "internal error" in err
