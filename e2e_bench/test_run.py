#!/usr/bin/env python3
"""Smoke tests for the end-to-end benchmark.

Run from the root of a source checkout (builds the runner on first use):

    python3 e2e_bench/test_run.py

Each workload runs in --smoke mode (scale capped at 1, one set-up, 1 s), so
the whole suite takes about a minute. The tests check the output contract
against BENCHMARK.json, not the numbers.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, env=None, seed=1):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class OutputContract(unittest.TestCase):
    def check_metrics(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return res

    def test_every_workload_reports_every_end_to_end_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = self.check_metrics(run(w["name"], 0), SPEC["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced_run_reports_every_per_layer_metric_and_writes_spans(self):
        proc = run("serve_live", 1)
        res = self.check_metrics(proc, SPEC["per_layer"])
        self.assertGreater(res["metrics"]["trace.spans"]["value"], 0)
        self.assertGreater(res["metrics"]["stream.publishes"]["value"], 0)
        path = os.path.join(ROOT, ".bench_out", "trace-serve_live-1.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        self.assertEqual(len(events), res["metrics"]["trace.spans"]["value"])
        names = {e["name"] for e in events}
        for span in ("core.fit", "serve.request", "stream.ingest_batch"):
            self.assertIn(span, names)

    def test_same_seed_gives_same_inputs(self):
        # The runner prints a fingerprint of the generated inputs (graph,
        # split, query set): one seed must reproduce it, another must not.
        def fingerprint(seed):
            out = run("train_taobao", 0, seed=seed).stdout
            return [l for l in out.splitlines() if l.startswith("inputs=")]
        first = fingerprint(4)
        self.assertEqual(len(first), 1)
        self.assertEqual(first, fingerprint(4))
        self.assertNotEqual(first, fingerprint(5))

    def test_refuses_overridden_library_knobs(self):
        env = dict(os.environ, HYBRIDGNN_THREADS="4")
        proc = run("train_taobao", 0, env=env)
        self.assertEqual(proc.returncode, 2)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_rejects_unknown_workload(self):
        proc = run("no_such_workload", 0)
        self.assertEqual(proc.returncode, 2)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
