"""Smoke pass over the four workloads' outcome checks and metric sets.

    cd htbench/tests && HTBENCH_RUN=<path to htbench_run> python3 -m unittest -v test_smoke

Runs one repetition of every workload on the pinned default seed (untraced)
and on a held-out seed (traced), so the invariant checks, the pins and the
metric names in BENCHMARK.json are all exercised. Without a built
htbench_run (default: .bench_build/cmake/htbench_run) the tests skip.
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BINARY = os.environ.get("HTBENCH_RUN", os.path.join(ROOT, ".bench_build", "cmake", "htbench_run"))
HELD_OUT_SEED = 977

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, seed, trace):
    proc = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                           "--seconds", "0.1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@unittest.skipUnless(os.path.exists(BINARY), "htbench_run is not built")
class SmokeTest(unittest.TestCase):
    def test_pinned_seed_end_to_end(self):
        names = [m["name"] for m in BENCH["end_to_end"]]
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                code, res = run(w["name"], 1, 0)
                self.assertEqual(code, 0, res["violations"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(list(res["metrics"]), names)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_held_out_seed_traced(self):
        names = [m["name"] for m in BENCH["per_layer"]]
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                code, res = run(w["name"], HELD_OUT_SEED, 1)
                self.assertEqual(code, 0, res["violations"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual(list(res["metrics"]), names)
                m = {k: v["value"] for k, v in res["metrics"].items()}
                linked = w["name"] == "scan_linked"
                for key in ("shard.epochs", "shard.handoffs"):
                    self.assertEqual(m[key] > 0, linked, key)
                self.assertGreater(m["sim.events"], 0)
                self.assertGreater(m["trace.overhead"], 0.0)

    def test_bad_arguments_exit_2(self):
        proc = subprocess.run([BINARY, "--workload", "nope", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
