"""Self-tests of the benchmark harness.

Usage, from the root of a linlay checkout: python3 bench/selftest.py

Covers the self-time arithmetic, the tracer's span structure, that wrong
outputs count as failed jobs, and that every workload's job list runs and
passes its checks at tiny sizes, traced and untraced.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
from checks import CheckFailed, check  # noqa: E402
from workloads import COMBINED, WORKLOADS, jobs_for  # noqa: E402

ROOT = os.getcwd()


class SelfTimeTest(unittest.TestCase):
    def test_self_time_of_a_synthetic_nested_trace(self):
        # main 10s -> {load 4s -> parse x3 1.5s, solve 2s}; parse also once under main
        spans = [
            [0, None, "main", 1, 10.0],
            [1, 0, "load", 1, 4.0],
            [2, 1, "parse", 3, 1.5],
            [3, 0, "solve", 1, 2.0],
            [4, 0, "parse", 1, 0.5],
        ]
        self.assertEqual(tracer.self_times(spans), [3.5, 2.5, 1.5, 2.0, 0.5])

    def test_summarize_adds_self_time_and_calls_per_function(self):
        record = {
            "import_s": 0.25,
            "spans": [
                [0, None, "cli.main", 1, 3.0],
                [1, 0, "layouts.verify_layout", 1, 2.0],
                [2, 1, "layouts.min_stack_colors_for_order", 4, 0.5],
            ],
            "counters": {"layouts.min_stack_colors_for_order.pruned": 1},
        }
        values = tracer.summarize([record, record])
        self.assertEqual(values["cli.import_s"], 0.5)
        self.assertEqual(values["cli.main.self_s"], 2.0)
        self.assertEqual(values["layouts.verify_layout.self_s"], 3.0)
        self.assertEqual(values["layouts.min_stack_colors_for_order.calls"], 8)
        self.assertEqual(values["layouts.min_stack_colors_for_order.pruned_ratio"], 0.25)
        self.assertEqual(values["poset.classify_pair.calls"], 0)

    def test_tracer_nests_spans_and_merges_repeated_calls(self):
        t = tracer.Tracer()
        leaf = t.wrap(tracer.Target("m", "leaf", merge=True), lambda x: x)
        outer = t.wrap(tracer.Target("m", "outer"), lambda: [leaf(i) for i in range(5)])
        outer()
        outer()
        names = [(span[0], span[1], span[2], span[3]) for span in t.spans]
        self.assertEqual(names, [(0, None, "m.outer", 1), (1, 0, "m.leaf", 5),
                                 (2, None, "m.outer", 1), (3, 2, "m.leaf", 5)])
        self.assertTrue(all(own >= 0 for own in tracer.self_times(t.spans)))


class WorkdirTest(unittest.TestCase):
    def runner(self, workload):
        workdir = os.path.join(ROOT, ".bench_work", f"selftest-{workload}-{os.getpid()}")
        shutil.rmtree(workdir, ignore_errors=True)
        self.addCleanup(shutil.rmtree, workdir, True)
        r = run.Runner(ROOT, workload, 1, "tiny", workdir, None)
        r.setup()
        return r

    def output(self, r, job):
        r.run_job(job)
        with open(os.path.join(r.outputs, f"{job.name}.stdout"), "rb") as handle:
            return handle.read()


class TamperTest(WorkdirTest):
    def test_tampered_layout_fails_its_check(self):
        r = self.runner("exact-small")
        job = next(j for j in jobs_for("exact-small", "tiny") if j.name == "solve-stack-K4")
        stdout = self.output(r, job)
        check(job, r.inputs, stdout, 0)
        _, layout = stdout.decode().splitlines()
        doc = json.loads(layout)
        doc["colors"] = dict.fromkeys(doc["colors"], 0)  # K_4 crosses in every order
        tampered = f"1\n{json.dumps(doc)}\n".encode()
        with self.assertRaisesRegex(CheckFailed, "invalid"):
            check(job, r.inputs, tampered, 0)

    def test_wrong_output_counts_as_a_failed_job(self):
        r = self.runner("exact-small")
        job = next(j for j in jobs_for("exact-small", "tiny") if j.name == "solve-queue-K4")
        wrong = dataclasses.replace(job, argv=("solve", "K5.graph.json", "--kind", "queue"))
        r.run_job(wrong)
        self.assertEqual((r.attempted, r.failed), (1, 1))

    def test_tampered_path_fails_its_check(self):
        r = self.runner("grid-witness")
        job = next(j for j in jobs_for("grid-witness", "tiny") if j.name == "hexpath-shells")
        stdout = self.output(r, job)
        check(job, r.inputs, stdout, 0)
        doc = json.loads(stdout)
        n = doc["n"]
        for tamper in (lambda p: p[:1] + p[2:], lambda p: p[: n - 1], lambda p: p + p[-2:-1]):
            changed = dict(doc, path=tamper(doc["path"]))
            with self.assertRaises(CheckFailed):
                check(job, r.inputs, json.dumps(changed).encode(), 0)


class TinyWorkloadTest(unittest.TestCase):
    def test_every_workload_completes_at_tiny_sizes(self):
        units = tracer.layer_metric_units()
        for workload in WORKLOADS + tuple(COMBINED):
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    outcome, _ = run.run_workload(ROOT, workload, 1, 0, trace, sizes="tiny")
                    self.assertEqual(outcome.failures, [])
                    self.assertEqual(outcome.attempted, len(jobs_for(workload, "tiny")) * (2 if trace else 1))
                    expected = units if trace else run.END_TO_END
                    self.assertLessEqual(set(expected), set(outcome.metrics))


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, {*WORKLOADS, *COMBINED})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracer.layer_metric_units())


if __name__ == "__main__":
    unittest.main()
