"""Command-line front end: check, sim, basis, span, census.

Exit codes: 0 success or equivalent, 1 counterexample found, 2 user error
(bad arguments, parse or validation failure, out-of-range sizes), 3 internal
error (including a failed --verify cross-check).  Each command returns its
exit code, report and text lines; main times it, adds "command" and
"timing_ms" to the report and prints one of the two.  Only --verify loads
the dense oracle, stabcheck.dense, and with it numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path

from . import basis as basis_mod
from . import checker
from .protocol import ParseError, Program, ProtocolAST, _checked, builtin_identity, errors_of, lower, parse
from .tableau import canonical_form

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USER_ERROR = 2
EXIT_INTERNAL = 3


class UserError(Exception):
    """Anything the caller can fix: reported on stderr, exit code 2."""


def corpus_path(name: str) -> Path:
    """Path of a bundled .qpr example, e.g. corpus_path("teleport.qpr")."""
    return Path(str(resources.files("stabcheck") / "corpus" / name))


def _load_protocol(path_text: str) -> tuple[ProtocolAST, Program]:
    path = Path(path_text)
    try:
        # utf-8-sig drops a byte-order mark at the start, as editors on Windows write it.
        source = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise UserError(f"cannot read {path}: {exc}") from None
    try:
        ast = parse(source)
    except ParseError as exc:
        raise UserError(exc.diagnostic.render(str(path))) from None
    diags, program = _checked(ast)
    for diag in diags:
        if diag.severity == "warning":
            print(diag.render(str(path)), file=sys.stderr)
    if program is None:
        raise UserError("\n".join(d.render(str(path)) for d in errors_of(diags)))
    return ast, program


def _emit(report: dict, as_json: bool, text_lines: list[str]) -> None:
    try:
        print(json.dumps(report, indent=2, sort_keys=True) if as_json else "\n".join(text_lines))
        # A reader that has gone (basis 7 | head -1) fails this flush, not the
        # one at exit; the rest then goes to devnull and the run ends quietly.
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_check(args) -> tuple[int, dict, list[str]]:
    if args.budget < 0:
        raise UserError("--budget takes a non-negative entry count")
    lhs, lhs_program = _load_protocol(args.lhs)
    if args.identity is not None:
        if args.rhs is not None:
            raise UserError("give either a second protocol file or --identity, not both")
        n = args.identity
        if n < 1:
            raise UserError("--identity takes a positive qubit count")
        rhs_label, rhs_name, rhs_arity = f"identity:{n}", f"identity_{n}", (n, n)
    elif args.rhs is not None:
        rhs, rhs_program = _load_protocol(args.rhs)
        rhs_label, rhs_name, rhs_arity = args.rhs, rhs.name, (rhs.n_in, rhs.n_out)
    else:
        raise UserError("need a second protocol file or --identity N")
    # As in check_equivalence, but before building the identity, which is linear in n.
    if (lhs.n_in, lhs.n_out) != rhs_arity:
        raise UserError(
            f"arity mismatch: {lhs.name} is {lhs.n_in}->{lhs.n_out}, {rhs_name} is {rhs_arity[0]}->{rhs_arity[1]}"
        )
    if args.identity is not None:
        rhs = builtin_identity(n)
        rhs_program = lower(rhs)

    try:
        verdict = checker._verdict(lhs_program, rhs_program, budget=args.budget)
        # Both channels, so a table over the budget fails before the oracle runs.
        channels = verdict._channels() if args.verify else None
    except (checker.BudgetExceededError, checker.BranchLimitError) as exc:
        raise UserError(str(exc)) from None

    if args.verify:
        from . import dense

        for ast, program, channel in zip((lhs, rhs), (lhs_program, rhs_program), channels):
            try:
                checker._cross_check(ast.name, program, channel)
            except dense.DenseLimitError as exc:
                raise UserError(f"--verify on {ast.name}: {exc}") from None

    entries = 4 ** lhs.n_in * 4 ** lhs.n_out
    report = {
        "lhs": args.lhs,
        "rhs": rhs_label,
        "n_in": lhs.n_in,
        "n_out": lhs.n_out,
        "entries": entries,
        "verdict": "equivalent" if verdict.equivalent else "counterexample",
        "counterexample": None,
        "decider": verdict.decider,
    }
    lines = [f"check: {args.lhs} vs {rhs_label}", f"decider: {verdict.decider}"]
    if verdict.equivalent:
        lines += ["decided on the Choi states: every exact Pauli coefficient agrees", "verdict: EQUIVALENT"]
        return EXIT_OK, report, lines
    ce = verdict.counterexample
    report["counterexample"] = {
        "basis": ce.basis_element.label(),
        "basis_index": basis_mod.basis_index(ce.basis_element),
        "observable": str(ce.observable),
        "lhs_value": str(ce.value_lhs),
        "rhs_value": str(ce.value_rhs),
    }
    lines += [
        f"decided on the Choi states: they differ, first at this entry of the {entries}-entry fingerprint tables",
        "verdict: NOT EQUIVALENT",
        f"  basis input: {ce.basis_element.label()}",
        f"  observable:  {ce.observable}",
        f"  lhs value:   {ce.value_lhs}",
        f"  rhs value:   {ce.value_rhs}",
    ]
    return EXIT_COUNTEREXAMPLE, report, lines


def _cmd_sim(args) -> tuple[int, dict, list[str]]:
    ast, program = _load_protocol(args.path)
    try:
        element = basis_mod.parse_element_spec(args.input, ast.n_in)
    except ValueError as exc:
        raise UserError(str(exc)) from None
    circuit = basis_mod.circuit_for(element)
    try:
        branches = checker._run(program, circuit)
    except checker.BranchLimitError as exc:
        raise UserError(f"sim on {ast.name}: {exc}") from None

    payload = []
    for br in branches:
        payload.append(
            {
                "probability": str(br.probability),
                "outcomes": list(br.outcomes),
                "generators": [str(g) for g in canonical_form(br.state)],
            }
        )
    report = {
        "protocol": args.path,
        "input": element.label(),
        "branches": payload,
    }
    lines = [f"sim: {ast.name} on {element.label()} ({len(branches)} branch(es))"]
    for br, entry in zip(branches, payload):
        bits = "".join(str(b) for b in br.outcomes) or "-"
        lines.append(f"  outcomes {bits}  p={entry['probability']}  state: {' '.join(entry['generators'])}")
    return EXIT_OK, report, lines


def _cmd_basis(args) -> tuple[int, dict, list[str]]:
    if not 1 <= args.n <= 8:
        raise UserError("basis export supports n from 1 to 8")
    if args.verify and args.n > 3:
        raise UserError("--verify sweeps dense matrices and needs n <= 3")
    circuits = basis_mod.enumerate_basis(args.n)

    if args.verify:
        from . import dense

        for circ in circuits:
            circ.prepare().assert_valid()
            if not dense._prepares(args.n, circ.gates, basis_mod.element_matrix(circ.element)):
                raise RuntimeError(f"oracle sweep failed for {circ.element.label()}")

    payload = [
        {
            "kind": c.element.kind,
            "x": c.element.x,
            "y": c.element.y,
            "gates": [list(g) for g in c.gates],
        }
        for c in circuits
    ]
    report = {
        "n": args.n,
        "count": len(circuits),
        "order": basis_mod.BASIS_ORDER_TAG,
        "elements": payload,
        "verified": bool(args.verify),
    }
    lines = [f"basis for n={args.n}: {len(circuits)} elements"]
    for c in circuits:
        gate_text = "; ".join(" ".join(str(part) for part in g) for g in c.gates) or "(none)"
        lines.append(f"  {c.element.label()}: {gate_text}")
    if args.verify:
        lines.append("oracle sweep: all elements verified")
    return EXIT_OK, report, lines


def _cmd_span(args) -> tuple[int, dict, list[str]]:
    if not 1 <= args.n <= 3:
        raise UserError("span verification supports n from 1 to 3")
    rank = basis_mod.span_rank(args.n)
    expected = 4 ** args.n
    report = {
        "n": args.n,
        "rank": rank,
        "expected": expected,
        "full_rank": rank == expected,
    }
    status = "PASS" if rank == expected else "FAIL"
    lines = [f"span rank for n={args.n}: {rank} of {expected} expected: {status}"]
    return (EXIT_OK if rank == expected else EXIT_INTERNAL), report, lines


def _cmd_census(args) -> tuple[int, dict, list[str]]:
    if not 1 <= args.n <= 3:
        raise UserError("census by orbit enumeration supports n from 1 to 3")
    count = basis_mod.count_stabilizer_states(args.n)
    basis_size = 4 ** args.n
    ratio = Fraction(count, basis_size)
    report = {
        "n": args.n,
        "stabilizer_states": count,
        "basis_size": basis_size,
        "ratio": str(ratio),
    }
    lines = [
        f"stabilizer states for n={args.n}: {count}",
        f"basis size 4^n: {basis_size}",
        f"ratio: {ratio}",
    ]
    return EXIT_OK, report, lines


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, as each returns a new namespace."""
    parser = argparse.ArgumentParser(prog="stabcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report on stdout")

    p_check = sub.add_parser("check", parents=[common], help="decide equivalence of two protocols")
    p_check.add_argument("lhs", help="protocol file (.qpr)")
    p_check.add_argument("rhs", nargs="?", help="second protocol file")
    p_check.add_argument("--identity", type=int, metavar="N", help="compare against the N-qubit identity")
    p_check.add_argument("--verify", action="store_true", help="cross-check fingerprints against the dense oracle")
    p_check.add_argument("--budget", type=int, default=checker.DEFAULT_BUDGET, metavar="K",
                         help="maximum number of exact table entries and Choi coefficients")
    p_check.set_defaults(func=_cmd_check)

    p_sim = sub.add_parser("sim", parents=[common], help="enumerate the branches of one protocol run")
    p_sim.add_argument("path", help="protocol file (.qpr)")
    p_sim.add_argument("--input", required=True, metavar="SPEC",
                       help="basis input, e.g. diag:0, plus:0,3, iplus:0,1")
    p_sim.set_defaults(func=_cmd_sim)

    p_basis = sub.add_parser("basis", parents=[common], help="export the basis and its circuits")
    p_basis.add_argument("n", type=int)
    p_basis.add_argument("--verify", action="store_true", help="sweep every circuit against the dense oracle")
    p_basis.set_defaults(func=_cmd_basis)

    p_span = sub.add_parser("span", parents=[common], help="verify the basis spans all Hermitian matrices")
    p_span.add_argument("n", type=int)
    p_span.set_defaults(func=_cmd_span)

    p_census = sub.add_parser("census", parents=[common], help="count stabilizer states by orbit enumeration")
    p_census.add_argument("n", type=int)
    p_census.set_defaults(func=_cmd_census)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USER_ERROR
    started = time.perf_counter()
    try:
        code, report, lines = args.func(args)
    except UserError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USER_ERROR
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report.update(command=args.command, timing_ms=round((time.perf_counter() - started) * 1000.0, 3))
    _emit(report, args.json, lines)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
