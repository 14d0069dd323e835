"""Self-tests of perfbench/run.py: tail rule, metric names, record round trip.

Run with `python3 perfbench/run.py --selftest`, or alone with
`python3 -m unittest discover -s perfbench/tests`.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


def driver_record(spec, trace, epochs=()):
    """A synthetic driver record carrying every value run.py reads."""
    layers = {}
    if trace:
        derived = set(run.derived_layers({"epoch_s": []}))
        layers = {m["name"]: 0.25 for m in spec["per_layer"] if m["name"] not in derived}
    return {
        "record": {"workload": "grid-kepler-32k", "seed": 3, "threads": 4},
        "correct": True,
        "failure": "",
        "attempted": 750,
        "missed": 2,
        "extra": 1,
        "known_misses": 0,
        "op_s": [12.5, 12.25, 12.75],
        "setup_s": [0.125, 0.0625, 0.25, 0.5, 0.375],
        "epoch_s": list(epochs),
        "peak_rss_mb": 812.5,
        "layers": layers,
        "facts": {},
        "spans": [],
    }


class TailRuleTest(unittest.TestCase):
    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(run.tail([1.0] * 19))

    def test_twenty_samples_give_the_median(self):
        p, value, beyond = run.tail(list(range(1, 21)))
        self.assertEqual((p, value, beyond), (50.0, 10, 10))

    def test_forty_samples_give_p75(self):
        p, value, beyond = run.tail(list(range(1, 41)))
        self.assertEqual((p, value, beyond), (75.0, 30, 10))

    def test_hundred_samples_give_p90(self):
        p, value, beyond = run.tail(list(range(100, 0, -1)))
        self.assertEqual((p, value, beyond), (90.0, 90, 10))

    def test_thousand_samples_give_p99_not_p999(self):
        p, _, beyond = run.tail(range(1000))
        self.assertEqual((p, beyond), (99.0, 10))

    def test_median_of_even_count(self):
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def reject(self, mutate):
        spec = copy.deepcopy(self.spec)
        mutate(spec)
        with self.assertRaises(run.SpecError):
            run.validate_spec(spec)

    def test_committed_spec_is_valid(self):
        run.validate_spec(self.spec)

    def test_name_must_start_with_letter_or_digit(self):
        self.reject(lambda s: s["per_layer"][0].update(name="_core"))

    def test_name_charset(self):
        self.reject(lambda s: s["per_layer"][0].update(name="core pipeline"))

    def test_name_length(self):
        self.reject(lambda s: s["per_layer"][0].update(name="a" * 65))

    def test_names_are_unique_across_lists(self):
        self.reject(lambda s: s["per_layer"][0].update(name="latency_s"))

    def test_unit_charset(self):
        self.reject(lambda s: s["end_to_end"][0].update(unit="sec onds"))

    def test_bound_limit(self):
        self.reject(lambda s: s["end_to_end"][0].update(bound=0.3))

    def test_setup_metric_required(self):
        self.reject(lambda s: s.update(
            end_to_end=[m for m in s["end_to_end"] if m["name"] != "setup_s"]))

    def test_why_is_one_short_line(self):
        self.reject(lambda s: s["workloads"][0].update(why="x" * 201))

    def test_emitted_names_must_match_declared(self):
        driver = driver_record(self.spec, trace=True)
        del driver["layers"]["core.cd_s"]
        with self.assertRaises(run.SpecError):
            run.metrics_from(driver, self.spec, trace=True)
        driver = driver_record(self.spec, trace=True)
        driver["layers"]["core.undeclared"] = 1.0
        with self.assertRaises(run.SpecError):
            run.metrics_from(driver, self.spec, trace=True)


class RecordRoundTripTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def round_trip(self, trace, epochs=()):
        driver = driver_record(self.spec, trace, epochs)
        # The driver's line is parsed from JSON text.
        driver = json.loads(json.dumps(driver))
        line = run.result_line(driver, run.metrics_from(driver, self.spec, trace))
        text = json.dumps(line)
        self.assertEqual(json.loads(text), line)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        return line

    def test_untraced_record(self):
        line = self.round_trip(trace=False)
        self.assertEqual(line["attempted"], 750)
        self.assertEqual(line["failed"], 3)
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in self.spec["end_to_end"]])
        self.assertEqual(line["metrics"]["latency_s"], {"value": 12.5, "unit": "s"})
        self.assertEqual(line["metrics"]["setup_s"]["value"], 0.25)

    def test_traced_record_with_epochs(self):
        epochs = [1.0 + i / 100.0 for i in range(40)]
        line = self.round_trip(trace=True, epochs=epochs)
        metrics = line["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in self.spec["per_layer"]])
        self.assertEqual(metrics["service.epochs"]["value"], 40.0)
        self.assertEqual(metrics["service.epoch_tail_s"]["value"], 1.29)

    def test_values_keep_all_digits(self):
        driver = driver_record(self.spec, trace=False)
        driver["op_s"] = [0.1234567890123456789]
        line = run.result_line(driver, run.metrics_from(driver, self.spec, False))
        self.assertEqual(json.loads(json.dumps(line))["metrics"]["latency_s"]["value"],
                         0.1234567890123456789)


if __name__ == "__main__":
    unittest.main()
