"""stabcheck benchmark: timed equivalence checks with known answers.

    python3 perfbench/run.py --workload teleport_chain --seed 1 --seconds 35 --trace 0

The load is one process, one thread and a closed loop with one client: the
next check starts when the previous verdict is back, because a user waits for
each verdict.  With --trace 0 the run replays the workload's items for
--seconds and reports the end-to-end metrics, each time rescaled by a
reference task run alongside it (see Yardstick and measure_setup).  With --trace 1 it runs a fixed
list of items twice, plain and then traced from outside the program (see
spans.py), and reports per-layer metrics; that run ignores --seconds so that
every count repeats exactly.  Every verdict is compared with the item's known
answer.  The last line of stdout is the JSON result; the lines before it say
the same for a reader.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from spans import COLLAPSE, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("teleport_chain", "circuit_rewrite", "corpus_cli")
# Items in a traced run: all 7 of teleport_chain; for the others, a few seconds
# of work, enough to make self times readable.
TRACE_ITEMS = {"teleport_chain": 7, "circuit_rewrite": 16, "corpus_cli": 216}
SETUP_SAMPLES = 9
P90_MIN_CHECKS = 100  # so that at least ten samples lie beyond the 90th percentile
# The shared host the benchmark was set up on changes speed by up to a factor
# of two within a second, with no steal time to show for it, and a 35 s run
# does not average that out.  So while a run times checks, a timer runs a
# short fixed reference task every SAMPLE_EVERY seconds, and each time is
# rescaled to a machine on which that task takes REFERENCE_S, by the samples
# taken within NEAR_S of it.  REFERENCE_S is about the task's time in that
# host's fast phases (median 0.6 to 0.7 ms, 5th percentile 0.38 to 0.40 ms,
# over 20,000 back-to-back runs).
REFERENCE_LOOPS = 200
REFERENCE_S = 0.0004
SAMPLE_EVERY = 0.05
NEAR_S = 0.25
# An import runs in a fresh interpreter, and what slows that on the same host
# (starting a process, loading shared libraries, reading files) does not
# follow reference_task.  So each import is rescaled instead by a fresh
# interpreter running SETUP_REFERENCE, timed just before and just after it,
# to a machine on which that takes SETUP_REFERENCE_S: about its time in the
# host's fast phases (0.14 to 0.26 s).  numpy is a dependency, not part of the
# program, so a change to the program moves the import but not the reference.
SETUP_REFERENCE = "import numpy"
SETUP_REFERENCE_S = 0.15


def build_items(workload: str, seed: int) -> list[workloads.Item]:
    if workload == "teleport_chain":
        return workloads.teleport_chain(seed)
    if workload == "circuit_rewrite":
        return workloads.circuit_rewrite(seed)
    from stabcheck import cli

    return workloads.corpus_cli(seed, lambda name: str(cli.corpus_path(name)))


def _call(item: workloads.Item):
    # Names are looked up on the modules at call time, so a traced run sees
    # the wrapped functions.
    import stabcheck.checker
    import stabcheck.cli
    import stabcheck.protocol

    if isinstance(item, workloads.CliItem):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = stabcheck.cli.main(list(item.argv))
        return code, out.getvalue(), err.getvalue()
    parse = stabcheck.protocol.parse
    lhs = parse(item.lhs)
    rhs = stabcheck.protocol.builtin_identity(item.identity) if item.identity else parse(item.rhs)
    return stabcheck.checker.check_equivalence(lhs, rhs)


def _is_known_answer(item: workloads.Item, answer) -> bool:
    if isinstance(item, workloads.CliItem):
        code, stdout, stderr = answer
        if code not in (0, 1):
            print(f"{item.label}: exit {code}: {stderr.strip()}", file=sys.stderr)
            return False
        report = json.loads(stdout)
        verdict = "equivalent" if item.expected else "counterexample"
        return (code == (0 if item.expected else 1) and report["verdict"] == verdict
                and (report["counterexample"] is None) == item.expected)
    ce = answer.counterexample
    if item.expected:
        return answer.equivalent and ce is None
    return not answer.equivalent and ce is not None and ce.value_lhs != ce.value_rhs


def run_item(item: workloads.Item) -> tuple[float, bool]:
    """Seconds from the call to the verdict, and whether it is the known answer."""
    start = time.perf_counter()
    try:
        answer = _call(item)
        elapsed = time.perf_counter() - start
        ok = _is_known_answer(item, answer)
    except Exception as exc:  # noqa: BLE001 - a raising check is a counted failure
        elapsed = time.perf_counter() - start
        print(f"{item.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed, False
    if not ok:
        print(f"{item.label}: verdict differs from the known answer", file=sys.stderr)
    return elapsed, ok


def reference_task() -> tuple[float, float]:
    """Start and seconds of a fixed pure-Python task: Fraction sums and dict stores, as in tabulation."""
    # No collections inside it, so that the program's heap is not charged to it.
    gc.disable()
    try:
        start = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(REFERENCE_LOOPS):
            total += Fraction(i % 7, 3)
            table[i % 97] = [i, total]
        return start, time.perf_counter() - start
    finally:
        gc.enable()


class Yardstick:
    """Samples the machine's speed with reference_task on a timer, and rescales times by it.

    The samples run inside whatever is being timed, as a signal handler
    between two bytecodes, so they see the machine as the timed code does.
    Rescale after leaving the context, so that samples after each time count.
    """

    def __enter__(self) -> "Yardstick":
        start, seconds = reference_task()
        self.starts, self.seconds = [start], [seconds]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start, seconds = reference_task()
        self.starts.append(start)
        self.seconds.append(seconds)

    def own(self, start: float, end: float) -> float:
        """Seconds from start to end, less the samples taken in between."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return end - start - sum(self.seconds[lo:hi])

    def rescale(self, start: float, end: float) -> float:
        """own(start, end) on a machine that runs reference_task in REFERENCE_S."""
        lo = bisect.bisect_left(self.starts, start - NEAR_S)
        hi = bisect.bisect_left(self.starts, end + NEAR_S)
        near = self.seconds[lo:hi] or self.seconds  # none near only if the handler was held off
        return self.own(start, end) * REFERENCE_S * len(near) / sum(near)


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters running `import stabcheck`: rescaled, and as timed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def fresh(code: str) -> float:
        # No timeout: with one, waiting polls in steps of up to 50 ms.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    # The first import writes the bytecode caches, which every later command reuses.
    fresh("import stabcheck")
    scaled, times = [], []
    before = fresh(SETUP_REFERENCE)
    for _ in range(SETUP_SAMPLES):
        times.append(fresh("import stabcheck"))
        after = fresh(SETUP_REFERENCE)
        scaled.append(times[-1] * SETUP_REFERENCE_S * 2 / (before + after))
        before = after
    return scaled, times


def timed_run(items: list[workloads.Item], seconds: float) -> tuple[list[tuple[float, float]], int, float]:
    """Replay items in order until `seconds` have passed (at least one check).

    Returns the start and end of each check, the failures and the wall time.
    """
    intervals: list[tuple[float, float]] = []
    failed = 0
    start = time.perf_counter()
    while True:
        called = time.perf_counter()
        elapsed, ok = run_item(items[len(intervals) % len(items)])
        intervals.append((called, called + elapsed))
        failed += not ok
        wall = time.perf_counter() - start
        if wall >= seconds:
            return intervals, failed, wall


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    setup, setup_timed = measure_setup()
    items = build_items(workload, seed)
    with Yardstick() as yardstick:
        checks, failed, wall = timed_run(items, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [yardstick.rescale(*interval) for interval in checks]
    n = len(checks)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "checks_per_s": (n / sum(scaled), "1/s"),
        "verdict_s_p50": (statistics.median(scaled), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"failed_share: {failed / n} ratio ({failed} of {n} checks)"]
    if n >= P90_MIN_CHECKS:
        p90 = statistics.quantiles(scaled, n=10)[8]
        beyond = sum(x > p90 for x in scaled)
        notes.append(f"verdict_s_p90: {p90} s ({n} checks, {beyond} beyond it)")
    else:
        notes.append(f"verdict_s_p90: not reported ({n} checks, fewer than {P90_MIN_CHECKS})")
    notes.append(f"verdict_s_p50 over {n} checks, setup_s the median of {SETUP_SAMPLES} fresh imports")
    notes.append(f"as timed, before rescaling: setup_s {statistics.median(setup_timed)} s, "
                 f"checks_per_s {n / wall} 1/s over the run's wall time, "
                 f"verdict_s_p50 {statistics.median(yardstick.own(*interval) for interval in checks)} s; "
                 f"{len(yardstick.seconds)} reference samples, median {statistics.median(yardstick.seconds) * 1e3:.3f} ms "
                 f"({REFERENCE_S * 1e3:g} ms after rescaling)")
    return metrics, n, failed, notes


def traced_run(items: list[workloads.Item]) -> tuple[Tracer, float, float, int]:
    """Run items plain, then traced; the tracer, both wall times and failures."""
    failed = 0
    start = time.perf_counter()
    for item in items:
        failed += not run_item(item)[1]
    untraced_s = time.perf_counter() - start
    with Tracer() as tracer:
        traced_item = tracer.wrap(run_item, "bench.check")
        start = time.perf_counter()
        for item in items:
            failed += not traced_item(item)[1]
            tracer.flush()
        traced_s = time.perf_counter() - start
    return tracer, untraced_s, traced_s, failed


def per_layer(workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    items = build_items(workload, seed)
    chosen = [items[i % len(items)] for i in range(TRACE_ITEMS[workload])]
    tracer, untraced_s, traced_s, failed = traced_run(chosen)
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    expectations = calls["tableau.expectation"]
    metrics = {
        "tableau.expectation_calls": (expectations, "count"),
        "tableau.expectation_s": (self_s("tableau.expectation"), "s"),
        "tableau.expectation_nonzero_share": (counts["expectation_nonzero"] / max(expectations, 1), "ratio"),
        "checker.tabulate_s": (self_s("checker.fingerprint"), "s"),
        "checker.entries": (counts["entries"], "count"),
        "checker.fingerprint_calls": (calls["checker.fingerprint"], "count"),
        "checker.branches": (counts["branches"], "count"),
        "tableau.measure_z_calls": (calls["tableau.measure_z"], "count"),
        "tableau.measure_z_s": (self_s("tableau.measure_z") + self_s(COLLAPSE), "s"),
        "checker.run_protocol_s": (self_s("checker.run_protocol"), "s"),
        "tableau.apply_gate_calls": (calls["tableau.apply_gate"], "count"),
        "tableau.apply_gate_s": (self_s("tableau.apply_gate"), "s"),
        "protocol.validate_calls": (calls["protocol.validate"], "count"),
        "protocol.validate_s": (self_s("protocol.validate"), "s"),
        "protocol.parse_calls": (calls["protocol.parse"], "count"),
        "protocol.parse_s": (self_s("protocol.parse"), "s"),
        "basis.enumerate_calls": (calls["basis.enumerate_basis"], "count"),
        "basis.enumerate_s": (self_s("basis.enumerate_basis"), "s"),
        "basis.inputs": (counts["inputs"], "count"),
        "checker.compare_s": (self_s("checker.check_equivalence"), "s"),
        "dense.calls": (tracer.layer_calls("dense"), "count"),
        "dense.s": (tracer.layer_self_s("dense"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace.overhead": (traced_s / untraced_s, "ratio"),
    }
    notes = [f"traced {len(chosen)} checks in {traced_s:.3f} s, the same checks untraced in {untraced_s:.3f} s"]
    if tracer.absent:
        notes.append("absent (reported as zero): " + ", ".join(tracer.absent))
    notes.append("span                              calls      self_s   share")
    for name, ns in sorted(tracer.self_ns.items(), key=lambda kv: -kv[1]):
        notes.append(f"{name:32} {calls[name]:>7} {ns / 1e9:11.4f} {ns / 1e9 / traced_s:7.1%}")
    return metrics, 2 * len(chosen), failed, notes


def _git_head() -> str:
    # Read from the checkout itself; running git could search parent directories.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "stabcheck" / "__init__.py").is_file():
        print(f"stabcheck sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import stabcheck  # noqa: F401 - fail here, before any timing, if the package is broken

    if args.trace:
        metrics, attempted, failed, notes = per_layer(args.workload, args.seed)
    else:
        metrics, attempted, failed, notes = end_to_end(args.workload, args.seed, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"context: git {_git_head()}  python {platform.python_version()}  "
          f"numpy {numpy.__version__}  nproc {len(os.sched_getaffinity(0))}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
