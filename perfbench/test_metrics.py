"""Self-tests of the benchmark's own arithmetic and metric registry.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics as M
import run

HERE = os.path.dirname(os.path.abspath(__file__))


class TailRuleTest(unittest.TestCase):
    def test_eleven_samples_reports_the_smallest(self):
        values = list(range(1, 12))  # 1..11
        value, pct, beyond = M.tail(values)
        self.assertEqual(value, 1)
        self.assertEqual(beyond, 10)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_exactly_ten_samples_lie_beyond(self):
        values = [float(v) for v in range(100)]
        value, pct, beyond = M.tail(list(reversed(values)))
        self.assertEqual(value, 89.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(beyond, 10)

    def test_too_few_samples_falls_back_to_max_and_says_so(self):
        value, pct, beyond = M.tail([3.0, 1.0, 2.0])
        self.assertEqual(value, 3.0)
        self.assertEqual(pct, 100.0)
        self.assertEqual(beyond, 0)

    def test_empty(self):
        self.assertEqual(M.tail([]), (0.0, 0.0, 0))

    def test_workloads_take_enough_samples(self):
        self.assertGreaterEqual(run.MIN_TAIL_SAMPLES, M.TAIL_BEYOND + 1)


class RatioTest(unittest.TestCase):
    def test_zero_base_reads_as_zero(self):
        self.assertEqual(M.ratio(0, 0), 0.0)
        self.assertEqual(M.ratio(5, 0), 0.0)
        self.assertEqual(M.ratio(5, 0.0), 0.0)

    def test_nonzero_base(self):
        self.assertAlmostEqual(M.ratio(1, 4), 0.25)
        self.assertAlmostEqual(M.ratio(3.0, 2.0), 1.5)


class RegistryTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_are_well_formed_and_carry_units(self):
        units = dict(M.END_TO_END)
        units.update(M.PER_LAYER)
        self.assertEqual(len(units), len(M.END_TO_END) + len(M.PER_LAYER))
        for name, unit in units.items():
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(name, M.NAME_RE)
            self.assertRegex(unit, M.UNIT_RE, name)

    def test_benchmark_json_matches_the_registry(self):
        e2e = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(e2e, M.END_TO_END)
        self.assertEqual(layer, M.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in self.bench["workloads"]),
                         sorted(run.WORKLOADS))
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(max(m["bound"] for m in self.bench["end_to_end"]),
                         next(m["bound"] for m in self.bench["end_to_end"]
                              if m["name"] == "setup_s"))


class ServeStreamTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        self.assertEqual(run.serve_stream(7, 3), run.serve_stream(7, 3))
        self.assertNotEqual(run.serve_stream(7, 3), run.serve_stream(8, 3))

    def test_seeds_share_the_requests_of_each_block(self):
        a, b = run.serve_stream(7, 3), run.serve_stream(8, 3)
        self.assertEqual({run.request_line(r) for r in a},
                         {run.request_line(r) for r in b})

    def test_mix_covers_every_measure_with_a_quarter_repeats(self):
        stream = run.serve_stream(3, 6)
        keys = [run.request_line(r) for r in stream]
        repeats = len(keys) - len(set(keys))
        self.assertAlmostEqual(repeats / len(keys), 0.25, delta=0.03)
        self.assertEqual({r["measure"] for r in stream},
                         {"vertex-mis", "edge-mis", "mni", "count",
                          "homomorphism", "transaction"})
        self.assertEqual({r["txn_sample"] > 0 for r in stream}, {True, False})
        self.assertEqual({r["seed_count"] for r in stream}, {64, 256, 1024})
        self.assertEqual({r["k"] for r in stream}, {8, 16})


if __name__ == "__main__":
    unittest.main()
