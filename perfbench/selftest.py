"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

It takes about a minute.  The name keeps it out of the repository's own
pytest run, which tests the program, not its benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stabcheck import checker, cli, dense, protocol, tableau  # noqa: E402

SEED = 7
# Traced runs small enough for a test, still covering every layer.
SMALL_TRACE = {"teleport_chain": 1, "circuit_rewrite": 4, "corpus_cli": 72}
# Layers that only the command-line path loads heavily.
FRONT_LAYERS = ("cli", "protocol", "basis", "dense")


def _load(path: str):
    return protocol.parse(Path(path).read_text())


class KnownAnswers(unittest.TestCase):
    def test_every_item_gets_its_known_answer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                items = run.build_items(workload, SEED)
                self.assertEqual([it.label for it in items if not run.run_item(it)[1]], [])

    def test_planted_wrong_answer_counts_as_failed(self):
        for workload in ("circuit_rewrite", "corpus_cli"):
            with self.subTest(workload=workload):
                item = run.build_items(workload, SEED)[0]
                wrong = dataclasses.replace(item, expected=not item.expected)
                checks, failed, _ = run.timed_run([item, wrong], 0.0)
                self.assertEqual((len(checks), failed), (1, 0))
                checks, failed, _ = run.timed_run([wrong], 0.0)
                self.assertEqual((len(checks), failed), (1, 1))

    def test_raising_check_counts_as_failed(self):
        broken = workloads.CheckItem("broken", True, "protocol p { T q; }", identity=1)
        self.assertFalse(run.run_item(broken)[1])

    def test_seed_fixes_the_inputs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.build_items(workload, SEED), run.build_items(workload, SEED))
        self.assertNotEqual(workloads.circuit_rewrite(1), workloads.circuit_rewrite(2))


class Rescaling(unittest.TestCase):
    def test_time_is_rescaled_by_the_samples_near_it(self):
        yardstick = run.Yardstick()
        # Samples at 0.0, 1.0, 1.2 and 5.0 s; a check from 1.1 to 1.5 s holds the third.
        yardstick.starts, yardstick.seconds = [0.0, 1.0, 1.2, 5.0], [0.001, 0.002, 0.004, 0.001]
        self.assertAlmostEqual(yardstick.own(1.1, 1.5), 0.4 - 0.004)
        self.assertAlmostEqual(yardstick.rescale(1.1, 1.5), (0.4 - 0.004) * run.REFERENCE_S / 0.003)

    def test_timer_samples_during_a_timing(self):
        with run.Yardstick() as yardstick:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                pass
            end = time.perf_counter()
        self.assertGreater(len(yardstick.seconds), 3)
        self.assertLess(yardstick.own(start, end), end - start)


class DenseOracle(unittest.TestCase):
    """The known answers agree with fingerprint_dense within dense.TOL."""

    def assertOracleAgrees(self, lhs, rhs, expected: bool, label: str):
        gap = float(np.max(np.abs(checker.fingerprint_dense(lhs) - checker.fingerprint_dense(rhs))))
        self.assertEqual(gap <= dense.TOL, expected, f"{label}: oracle gap {gap}")

    def test_corpus_pairs(self):
        for item in workloads.corpus_cli(SEED, lambda name: str(cli.corpus_path(name))):
            if "--verify" in item.argv:
                continue
            lhs = _load(item.argv[1])
            rhs = protocol.builtin_identity(int(item.argv[3])) if item.argv[2] == "--identity" else _load(item.argv[2])
            self.assertOracleAgrees(lhs, rhs, item.expected, item.label)

    def test_circuit_rewrite_sample(self):
        for item in workloads.circuit_rewrite(SEED)[:6]:
            self.assertOracleAgrees(protocol.parse(item.lhs), protocol.parse(item.rhs), item.expected, item.label)


class Tracing(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        with mock.patch.dict(run.TRACE_ITEMS, SMALL_TRACE):
            for workload in run.WORKLOADS:
                cls.runs[workload] = [run.per_layer(workload, SEED) for _ in range(2)]

    def test_counts_repeat_exactly(self):
        for workload, (first, second) in self.runs.items():
            metrics_a, metrics_b = first[0], second[0]
            counts_a = {k: v for k, (v, unit) in metrics_a.items() if unit == "count"}
            counts_b = {k: v for k, (v, unit) in metrics_b.items() if unit == "count"}
            self.assertEqual(counts_a, counts_b, workload)
            self.assertEqual(metrics_a["tableau.expectation_nonzero_share"], metrics_b["tableau.expectation_nonzero_share"])
            self.assertEqual((first[2], second[2]), (0, 0), workload)

    def test_each_workload_loads_its_layer(self):
        shares = {}
        for workload in run.WORKLOADS:
            items = run.build_items(workload, SEED)[: SMALL_TRACE[workload]]
            tracer = run.traced_run(items)[0]
            total = sum(tracer.self_ns.values())
            shares[workload] = {name: ns / total for name, ns in tracer.self_ns.items()}
            shares[workload]["front"] = sum(tracer.layer_self_s(layer) for layer in FRONT_LAYERS) * 1e9 / total
        teleport = shares["teleport_chain"]
        self.assertGreater(teleport["tableau.expectation"] + teleport["checker.fingerprint"], 0.5)
        rewrite = shares["circuit_rewrite"]
        self.assertGreater(rewrite["tableau.apply_gate"], 0.5)
        self.assertGreater(shares["corpus_cli"]["front"], max(teleport["front"], rewrite["front"]))

    def test_teleport_work_does_not_depend_on_seed(self):
        calls = []
        for seed in (1, 2):
            item = next(it for it in workloads.teleport_chain(seed) if it.expected)
            with spans.Tracer() as tracer:
                self.assertTrue(tracer.wrap(run.run_item, "bench.check")(item)[1])
                tracer.flush()
            calls.append((dict(tracer.calls), dict(tracer.counts)))
        self.assertEqual(calls[0], calls[1])

    def test_absent_target_is_reported_not_fatal(self):
        gone = (("stabcheck.checker", "no_such_function", "checker.gone"),
                ("stabcheck.no_such_module", "f", "gone.f"))
        with spans.Tracer(spans.TARGETS + gone) as tracer:
            item = run.build_items("corpus_cli", SEED)[0]
            self.assertTrue(tracer.wrap(run.run_item, "bench.check")(item)[1])
            tracer.flush()
        self.assertEqual(tracer.absent, ["stabcheck.checker.no_such_function", "stabcheck.no_such_module.f"])
        self.assertGreater(tracer.calls["cli.main"], 0)

    def test_originals_restored(self):
        with spans.Tracer():
            self.assertIsNot(checker.expectation, tableau.expectation)
        self.assertIs(checker.expectation, tableau.expectation)
        self.assertEqual(cli.main.__module__, "stabcheck.cli")


class MetricNames(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = run.end_to_end("corpus_cli", SEED, 0.5)[0]
        with mock.patch.dict(run.TRACE_ITEMS, {"corpus_cli": 2}):
            layers = run.per_layer("corpus_cli", SEED)[0]
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, {k: u for k, (_, u) in e2e.items()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, {k: u for k, (_, u) in layers.items()})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertTrue(all(value > 0 for value, _ in e2e.values()))


if __name__ == "__main__":
    unittest.main()
