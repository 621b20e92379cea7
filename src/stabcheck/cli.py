"""Command-line front end: check, sim, basis, span, census.

Exit codes: 0 success or equivalent, 1 counterexample found, 2 user error
(bad arguments, parse or validation failure, out-of-range sizes), 3 internal
error (including a failed --verify cross-check).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

from . import basis as basis_mod
from . import checker, dense
from .protocol import ParseError, ProtocolAST, builtin_identity, errors_of, parse, validate
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


def _load_protocol(path_text: str) -> ProtocolAST:
    path = Path(path_text)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UserError(f"cannot read {path}: {exc}") from None
    try:
        ast = parse(source)
    except ParseError as exc:
        raise UserError(exc.diagnostic.render(str(path))) from None
    diags = validate(ast)
    for diag in diags:
        if diag.severity == "warning":
            print(diag.render(str(path)), file=sys.stderr)
    errs = errors_of(diags)
    if errs:
        raise UserError("\n".join(d.render(str(path)) for d in errs))
    return ast


def _emit(report: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _frac(value: Fraction) -> str:
    return str(value)


def _cmd_check(args) -> int:
    started = time.perf_counter()
    lhs = _load_protocol(args.lhs)
    if args.identity is not None:
        if args.rhs is not None:
            raise UserError("give either a second protocol file or --identity, not both")
        n = args.identity
        if n < 1:
            raise UserError("--identity takes a positive qubit count")
        # Refuse before building the identity, which takes time and memory linear in n.
        if (lhs.n_in, lhs.n_out) != (n, n):
            raise UserError(f"arity mismatch: {lhs.name} is {lhs.n_in}->{lhs.n_out}, identity_{n} is {n}->{n}")
        rhs = builtin_identity(n)
        rhs_label = f"identity:{n}"
    elif args.rhs is not None:
        rhs = _load_protocol(args.rhs)
        rhs_label = args.rhs
    else:
        raise UserError("need a second protocol file or --identity N")

    try:
        verdict = checker.check_equivalence(lhs, rhs, budget=args.budget)
    except checker.ArityMismatchError as exc:
        raise UserError(str(exc)) from None
    except checker.BudgetExceededError as exc:
        raise UserError(str(exc)) from None

    if args.verify:
        for ast, exact in zip((lhs, rhs), verdict.fingerprints):
            try:
                oracle = checker.fingerprint_dense(ast)
            except checker.DenseLimitError as exc:
                raise UserError(f"--verify on {ast.name}: {exc}") from None
            table = np.array([[float(v) for v in row] for row in exact.table])
            err = float(np.max(np.abs(table - oracle)))
            if err > dense.TOL:
                raise RuntimeError(f"oracle cross-check failed for {ast.name}: max deviation {err}")

    entries = 4 ** lhs.n_in * 4 ** lhs.n_out
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "command": "check",
        "lhs": args.lhs,
        "rhs": rhs_label,
        "n_in": lhs.n_in,
        "n_out": lhs.n_out,
        "entries": entries,
        "verdict": "equivalent" if verdict.equivalent else "counterexample",
        "counterexample": None,
        "timing_ms": round(elapsed_ms, 3),
    }
    lines = [f"check: {args.lhs} vs {rhs_label}"]
    if verdict.equivalent:
        lines += ["decided on the Choi states: every exact Pauli coefficient agrees", "verdict: EQUIVALENT"]
        _emit(report, args.json, lines)
        return EXIT_OK
    ce = verdict.counterexample
    report["counterexample"] = {
        "basis": ce.basis_element.label(),
        "basis_index": basis_mod.basis_index(ce.basis_element),
        "observable": str(ce.observable),
        "lhs_value": _frac(ce.value_lhs),
        "rhs_value": _frac(ce.value_rhs),
    }
    lines += [
        f"decided on the Choi states: they differ, first at this entry of the {entries}-entry fingerprint tables",
        "verdict: NOT EQUIVALENT",
        f"  basis input: {ce.basis_element.label()}",
        f"  observable:  {ce.observable}",
        f"  lhs value:   {_frac(ce.value_lhs)}",
        f"  rhs value:   {_frac(ce.value_rhs)}",
    ]
    _emit(report, args.json, lines)
    return EXIT_COUNTEREXAMPLE


def _cmd_sim(args) -> int:
    started = time.perf_counter()
    ast = _load_protocol(args.path)
    try:
        element = basis_mod.parse_element_spec(args.input, ast.n_in)
    except ValueError as exc:
        raise UserError(str(exc)) from None
    circuit = basis_mod.circuit_for(element)
    try:
        branches = checker.run_protocol(ast, circuit)
    except checker.BranchLimitError as exc:
        raise UserError(f"sim on {ast.name}: {exc}") from None

    payload = []
    for br in branches:
        payload.append(
            {
                "probability": _frac(br.probability),
                "outcomes": list(br.outcomes),
                "generators": [str(g) for g in canonical_form(br.state)],
            }
        )
    report = {
        "command": "sim",
        "protocol": args.path,
        "input": element.label(),
        "branches": payload,
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    lines = [f"sim: {ast.name} on {element.label()} ({len(branches)} branch(es))"]
    for br, entry in zip(branches, payload):
        bits = "".join(str(b) for b in br.outcomes) or "-"
        lines.append(f"  outcomes {bits}  p={entry['probability']}  state: {' '.join(entry['generators'])}")
    _emit(report, args.json, lines)
    return EXIT_OK


def _cmd_basis(args) -> int:
    started = time.perf_counter()
    if not 1 <= args.n <= 8:
        raise UserError("basis export supports n from 1 to 8")
    if args.verify and args.n > 3:
        raise UserError("--verify sweeps dense matrices and needs n <= 3")
    circuits = basis_mod.enumerate_basis(args.n)

    if args.verify:
        for circ in circuits:
            circ.prepare().assert_valid()
            state, _ = dense.run_dense(args.n, circ.gates)
            want = np.array(
                [[v.to_complex() for v in row] for row in basis_mod.element_matrix(circ.element)]
            )
            got = np.outer(state, state.conj())
            if np.max(np.abs(got - want)) > dense.TOL:
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
        "command": "basis",
        "n": args.n,
        "count": len(circuits),
        "order": basis_mod.BASIS_ORDER_TAG,
        "elements": payload,
        "verified": bool(args.verify),
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    lines = [f"basis for n={args.n}: {len(circuits)} elements"]
    for c in circuits:
        gate_text = "; ".join(" ".join(str(part) for part in g) for g in c.gates) or "(none)"
        lines.append(f"  {c.element.label()}: {gate_text}")
    if args.verify:
        lines.append("oracle sweep: all elements verified")
    _emit(report, args.json, lines)
    return EXIT_OK


def _cmd_span(args) -> int:
    started = time.perf_counter()
    if not 1 <= args.n <= 3:
        raise UserError("span verification supports n from 1 to 3")
    rank = basis_mod.span_rank(args.n)
    expected = 4 ** args.n
    report = {
        "command": "span",
        "n": args.n,
        "rank": rank,
        "expected": expected,
        "full_rank": rank == expected,
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    status = "PASS" if rank == expected else "FAIL"
    _emit(report, args.json, [f"span rank for n={args.n}: {rank} of {expected} expected: {status}"])
    return EXIT_OK if rank == expected else EXIT_INTERNAL


def _cmd_census(args) -> int:
    started = time.perf_counter()
    if not 1 <= args.n <= 3:
        raise UserError("census by orbit enumeration supports n from 1 to 3")
    count = basis_mod.count_stabilizer_states(args.n)
    basis_size = 4 ** args.n
    ratio = Fraction(count, basis_size)
    report = {
        "command": "census",
        "n": args.n,
        "stabilizer_states": count,
        "basis_size": basis_size,
        "ratio": _frac(ratio),
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    lines = [
        f"stabilizer states for n={args.n}: {count}",
        f"basis size 4^n: {basis_size}",
        f"ratio: {_frac(ratio)}",
    ]
    _emit(report, args.json, lines)
    return EXIT_OK


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
                         help="maximum number of exact fingerprint entries")
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
    try:
        return args.func(args)
    except UserError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USER_ERROR
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
