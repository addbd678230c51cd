"""Self-test of the benchmark.

    python3 perfbench/selftest.py            # from the root of a checkout, about 80 s

The span arithmetic is checked on synthetic spans.  Then the traced scalar
workload runs twice with different seeds: its outputs must pass the checks,
and the work counts must repeat exactly, since the seed changes the noise
but not how much work is done.  The 1-d ball grid holds two points, so
scalar must report 2 initial states used although its config asks for 8.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent


def span(sid, name, start, end, parent=None, thread=0, attrs=None):
    return [sid, name, start, end, parent, thread, attrs]


class SpanArithmetic(unittest.TestCase):
    def test_self_time_counts_overlapping_children_once(self):
        spans = [
            span(1, "learnability.estimate_excess_risk", 0.0, 10.0),
            span(2, "systems.simulate_ensemble", 1.0, 5.0, parent=1, thread=1),
            span(3, "systems.simulate_ensemble", 2.0, 6.0, parent=1, thread=2),
            span(4, "systems.simulate_lds_ensemble", 2.5, 5.5, parent=3, thread=2),
        ]
        own = layers.self_times(spans)
        self.assertAlmostEqual(own[1], 10.0 - 5.0)  # children cover [1, 6]
        self.assertAlmostEqual(own[3], 4.0 - 3.0)
        self.assertAlmostEqual(own[4], 3.0)

    def test_invocation_metrics(self):
        doc = {
            "import_s": 0.25,
            "spans": [
                span(1, "learnability.estimate_excess_risk", 0.0, 10.0),
                span(2, "systems.simulate_ensemble", 0.0, 4.0, parent=1, thread=1),
                span(3, "systems.simulate_lds_ensemble", 0.5, 4.0, parent=2, thread=1,
                     attrs={"state_steps": 100, "x0": "1.0"}),
                span(4, "numerics.SeededRng.normals", 0.5, 1.5, parent=3, thread=1,
                     attrs={"repeat": False, "values": 10}),
                span(5, "numerics.SeededRng.normals", 1.5, 2.0, parent=3, thread=1,
                     attrs={"repeat": True, "values": 10}),
                span(6, "systems.simulate_ensemble", 0.0, 4.0, parent=1, thread=2),
                span(7, "systems.simulate_lds_ensemble", 0.0, 4.0, parent=6, thread=2,
                     attrs={"state_steps": 100, "x0": "-1.0"}),
            ],
        }
        m = layers.pass_metrics([doc], workers=2)
        self.assertAlmostEqual(m["systems.simulate_s"], 8.0)  # dispatchers only
        self.assertAlmostEqual(m["systems.simulate_self_s"], 8.0 - 1.5)
        self.assertEqual(m["systems.state_steps"], 200)
        self.assertEqual(m["numerics.draws"], 2)
        self.assertAlmostEqual(m["numerics.draw_reuse"], 0.5)
        self.assertEqual(m["learnability.x0_used"], 2)
        self.assertAlmostEqual(m["learnability.self_s"], 6.0)
        self.assertAlmostEqual(m["learnability.parallel_efficiency"], 8.0 / 20.0)
        self.assertEqual(m["cli.import_s"], 0.25)


def traced_scalar(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "scalar", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TracedRunsRepeat(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        first, second = traced_scalar(1), traced_scalar(2)
        for result in (first, second):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(result["metrics"]["learnability.x0_used"]["value"], 2)
            self.assertEqual(result["metrics"]["cli.csv_changed"]["value"], 0)
        for name in layers.COUNTS:
            self.assertGreater(first["metrics"][name]["value"], 0, name)
            values = [r["metrics"][name]["value"] for r in (first, second)]
            self.assertEqual(values[0], values[1], name)


if __name__ == "__main__":
    unittest.main()
