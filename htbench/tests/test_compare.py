"""Tests of compare.py on synthetic result sets.

    cd htbench/tests && python3 -m unittest -v test_compare
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import compare  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "pkts_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
    ],
    "per_layer": [
        {"name": "sim.events", "unit": "count", "better": "lower"},
        {"name": "ntapi.compile_s", "unit": "s", "better": "lower"},
    ],
}


def record(workload, seed, trace, metrics, outcome=None):
    units = {"pkts_per_s": "1/s", "setup_s": "s", "sim.events": "count", "ntapi.compile_s": "s"}
    return {
        "manifest": {"cpu_model": "test cpu", "nproc": 4, "compiler_version": "c++ 1",
                     "build_type": "RelWithDebInfo", "git_sha": "0" * 40},
        "result": {"workload": workload, "seed": seed, "trace": trace,
                   "outcome": outcome or {"state_digest": 7},
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}},
    }


def write_set(directory, records):
    os.makedirs(directory, exist_ok=True)
    for i, r in enumerate(records):
        with open(os.path.join(directory, "r%d.json" % i), "w") as f:
            json.dump(r, f)


class CompareTest(unittest.TestCase):
    def run_compare(self, base, new):
        with tempfile.TemporaryDirectory() as tmp:
            write_set(os.path.join(tmp, "a"), base)
            write_set(os.path.join(tmp, "b"), new)
            out = io.StringIO()
            flagged, differences = compare.report(compare.load_results(os.path.join(tmp, "a")),
                                                  compare.load_results(os.path.join(tmp, "b")),
                                                  BENCH, out)
            return flagged, differences, out.getvalue()

    def noisy(self, centre, jitter):
        # Ten runs spread by at most +-jitter around centre.
        steps = [-1.0, -0.7, -0.4, -0.2, 0.0, 0.1, 0.3, 0.5, 0.8, 1.0]
        return [centre * (1.0 + jitter * s) for s in steps]

    def test_in_bound_noise_is_not_flagged(self):
        base = [record("line64", 1, 0, {"pkts_per_s": p, "setup_s": 0.1})
                for p in self.noisy(3e6, 0.04)]
        new = [record("line64", 1, 0, {"pkts_per_s": p, "setup_s": 0.1})
               for p in self.noisy(2.9e6, 0.04)]
        flagged, differences, text = self.run_compare(base, new)
        self.assertEqual(flagged, 0, text)
        self.assertEqual(differences, 0, text)
        self.assertNotIn("REGRESSION", text)

    def test_planted_regression_is_flagged(self):
        base = [record("line64", 1, 0, {"pkts_per_s": p, "setup_s": 0.1})
                for p in self.noisy(3e6, 0.04)]
        new = [record("line64", 1, 0, {"pkts_per_s": p, "setup_s": 0.1})
               for p in self.noisy(2.4e6, 0.04)]  # -20% against a 10% bound
        flagged, _, text = self.run_compare(base, new)
        self.assertEqual(flagged, 1, text)
        self.assertIn("REGRESSION", text)

    def test_lower_is_better_direction(self):
        base = [record("l7_cps", 1, 0, {"pkts_per_s": 1e6, "setup_s": 0.10})] * 3
        faster = [record("l7_cps", 1, 0, {"pkts_per_s": 1e6, "setup_s": 0.05})] * 3
        slower = [record("l7_cps", 1, 0, {"pkts_per_s": 1e6, "setup_s": 0.15})] * 3
        self.assertEqual(self.run_compare(base, faster)[0], 0)
        flagged, _, text = self.run_compare(base, slower)
        self.assertEqual(flagged, 1, text)
        self.assertIn("improved", self.run_compare(base, faster)[2])

    def test_wide_spread_is_reported_unresolved(self):
        base = [record("line64", 1, 0, {"pkts_per_s": p, "setup_s": 0.1})
                for p in self.noisy(3e6, 0.5)]
        _, _, text = self.run_compare(base, base)
        self.assertIn("unresolved", text)

    def test_layer_counts_and_outcome_compare_exactly(self):
        base = [record("scan_linked", 1, 1, {"sim.events": 1000, "ntapi.compile_s": 0.2})]
        new = [record("scan_linked", 1, 1, {"sim.events": 1001, "ntapi.compile_s": 0.1},
                      outcome={"state_digest": 8})]
        _, differences, text = self.run_compare(base, new)
        self.assertEqual(differences, 2, text)
        self.assertIn("sim.events", text)
        self.assertIn("state_digest", text)
        # Timings are listed side by side but never counted as differences.
        self.assertIn("ntapi.compile_s", text)

    def test_different_seeds_are_not_compared_exactly(self):
        base = [record("scan_linked", 1, 1, {"sim.events": 1000, "ntapi.compile_s": 0.2})]
        new = [record("scan_linked", 2, 1, {"sim.events": 2000, "ntapi.compile_s": 0.2},
                      outcome={"state_digest": 9})]
        self.assertEqual(self.run_compare(base, new)[1], 0)


if __name__ == "__main__":
    unittest.main()
