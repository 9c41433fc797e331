"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchmath  # noqa: E402
import catalog  # noqa: E402
import run  # noqa: E402


def span(i, parent, start, end, name="core.x", epoch=1):
    return {"id": i, "parent": parent, "start_us": start, "end_us": end, "name": name,
            "epoch": epoch}


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(benchmath.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchmath.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_sample_is_a_sample(self):
        self.assertEqual(benchmath.median_sample([4, 1, 3, 2]), 2)
        self.assertEqual(benchmath.median_sample([7]), 7)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            benchmath.median([])


class TailTest(unittest.TestCase):
    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(benchmath.tail([1.0] * 10))

    def test_eleven_samples_is_the_minimum(self):
        value, pct, n = benchmath.tail([float(v) for v in range(11, 0, -1)])
        self.assertEqual((value, n), (1.0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_forty_samples_is_p75_with_ten_beyond(self):
        samples = [float(v) for v in range(40)]
        value, pct, n = benchmath.tail(samples)
        self.assertEqual((value, pct, n), (29.0, 75.0, 40))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_hundred_samples_is_p90(self):
        value, pct, n = benchmath.tail([float(v) for v in range(100, 0, -1)])
        self.assertEqual((value, pct, n), (90.0, 90.0, 100))


class SpreadTest(unittest.TestCase):
    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        # quantiles(n=4) exclusive method: Q1 = 2.75, Q3 = 8.25, median 5.5.
        self.assertAlmostEqual(benchmath.quartile_spread(values), 5.5 / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(benchmath.quartile_spread([2.0] * 10), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchmath.self_times([span(0, -1, 0, 10)]), {0: 10})

    def test_nested_children_subtract_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 40, 70),
                 span(3, 2, 45, 60)]
        selfs = benchmath.self_times(spans)
        self.assertEqual(selfs[0], 100 - 20 - 30)
        self.assertEqual(selfs[2], 30 - 15)  # only direct children count
        self.assertEqual(selfs[3], 15)
        self.assertEqual(sum(selfs.values()), 100)

    def test_overlapping_children_are_counted_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 50), span(2, 0, 30, 60)]
        self.assertEqual(benchmath.self_times(spans)[0], 100 - 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, -1, 10, 20), span(1, 0, 0, 15), span(2, 0, 18, 40)]
        self.assertEqual(benchmath.self_times(spans)[0], 10 - 5 - 2)

    def test_contained_and_touching_children(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 90), span(2, 0, 20, 30),
                 span(3, 0, 90, 95)]
        self.assertEqual(benchmath.self_times(spans)[0], 100 - 85)

    def test_layer_totals_group_by_prefix(self):
        spans = [span(0, -1, 0, 100, "bench.epoch"), span(1, 0, 0, 40, "core.forward"),
                 span(2, 1, 0, 30, "core.aggregation"), span(3, 0, 50, 90, "tensor.backward")]
        per_name = benchmath.self_times_by_name(spans)[1]
        self.assertEqual(per_name, {"bench.epoch": 20, "core.forward": 10,
                                    "core.aggregation": 30, "tensor.backward": 40})
        self.assertEqual(benchmath.layer_totals(per_name),
                         {"bench": 20, "core": 40, "tensor": 40})

    def test_attribution_accounts_for_the_traced_epoch_time(self):
        spans = [span(0, -1, 0, 0, "bench.epoch", epoch=0),
                 span(1, -1, 100, 300, "bench.epoch", epoch=1),
                 span(2, 1, 120, 250, "core.forward", epoch=1),
                 span(3, -1, 320, 500, "bench.epoch", epoch=2),
                 span(4, 3, 320, 480, "tensor.backward", epoch=2)]
        traced = {"spans": spans, "layers": [{"epoch": 0}, {"epoch": 1}, {"epoch": 2}],
                  "epoch_s": [250e-6, 210e-6]}
        table, _ = run.attribution(traced)
        self.assertAlmostEqual(table["bookkeeping_s"], 460e-6 - 380e-6)
        self.assertAlmostEqual(sum(table["layers"].values()) + table["bookkeeping_s"],
                               table["epoch_total_s"])


class FailedShareTest(unittest.TestCase):
    @staticmethod
    def make_pass(name, losses, error=""):
        return {"name": name, "loss": losses, "loss_bits": list(range(len(losses))),
                "crc": [], "recovered": [], "error": error}

    def test_thrown_epoch_counts_in_the_denominator(self):
        ledger = run.Ledger([self.make_pass("timed", [3.0, 2.0, 1.0], error="boom")])
        self.assertEqual((ledger.attempted, len(ledger.failed)), (4, 1))
        self.assertEqual(benchmath.failed_share(1, ledger.attempted), 0.25)

    def test_each_failed_epoch_counts_once(self):
        timed = self.make_pass("timed", [3.0, 2.0, 1.0])
        serial = self.make_pass("serial", [3.0, math.nan])
        serial["loss_bits"] = [0, 7]
        ledger = run.Ledger([timed, serial])
        run.check_finite_losses(ledger, serial)
        run.check_trajectory(ledger, timed, serial, "loss_bits", "loss")
        self.assertEqual(ledger.attempted, 5)
        self.assertEqual(ledger.failed, {(1, 1)})
        self.assertEqual(len(ledger.notes), 2)

    def test_failed_share_rejects_bad_counts(self):
        with self.assertRaises(ValueError):
            benchmath.failed_share(0, 0)
        with self.assertRaises(ValueError):
            benchmath.failed_share(3, 2)


class ManifestTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_matches_the_catalog(self):
        committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in committed["workloads"]]
        self.assertEqual(names, catalog.ALL)
        self.assertEqual([d["name"] for d in committed["end_to_end"]],
                         [d["name"] for d in catalog.END_TO_END])
        self.assertEqual([d["name"] for d in committed["per_layer"]],
                         [d["name"] for d in catalog.PER_LAYER])
        self.assertEqual(committed["run_seconds"], catalog.RUN_SECONDS)

    def test_catalog_fits_the_benchmark_json_limits(self):
        metrics = catalog.END_TO_END + catalog.PER_LAYER
        names = [w["name"] for w in catalog.WORKLOADS] + [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for m in metrics:
            self.assertRegex(m["unit"], self.UNIT)
        for w in catalog.WORKLOADS:
            self.assertLessEqual(len(w["why"]), 200)
        for m in catalog.END_TO_END:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in catalog.END_TO_END if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in catalog.END_TO_END))
        self.assertLessEqual(len(catalog.PER_LAYER), 128)


if __name__ == "__main__":
    unittest.main()
