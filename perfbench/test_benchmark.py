"""Untimed checks of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Covers: the same seed gives byte-identical inputs and another seed gives
inputs of the same shape; each workload's output passes its gate once;
the CLI's output on the shipped data matches the recorded output; and
``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.
"""

from __future__ import annotations

import json
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import shipped  # noqa: E402
import workloads  # noqa: E402


def _serialized(name: str, seed: int) -> str:
    inputs = workloads.WORKLOADS[name].setup(seed)["inputs"]
    if name == "learn":
        return "\n".join(f"{' '.join(s.tokens)}\t{s.gold}" for s in inputs)
    episodes = [inputs] if name == "chain" else inputs
    return "\n\n".join("\n".join(" ".join(t) for t in e) for e in episodes)


def _shape(name: str, seed: int) -> dict:
    inputs = workloads.WORKLOADS[name].setup(seed)["inputs"]
    if name == "learn":
        return {"samples": len(inputs),
                "actions": Counter(s.tokens[1] for s in inputs)}
    episodes = [inputs] if name == "chain" else inputs
    return {"episodes": len(episodes),
            "events": sum(len(e) for e in episodes),
            "actions": Counter(t[1] for e in episodes for t in e),
            "depths": Counter(sum(t[1] == "Hiding" for t in e) for e in episodes)}


class GeneratedInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name in workloads.WORKLOADS:
            for seed in (0, 7):
                with self.subTest(workload=name, seed=seed):
                    self.assertEqual(_serialized(name, seed), _serialized(name, seed))

    def test_other_seed_gives_new_inputs_of_the_same_shape(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(_serialized(name, 1), _serialized(name, 2))
                self.assertEqual(_shape(name, 1), _shape(name, 2))

    def test_stated_sizes(self):
        self.assertEqual(_shape("learn", 3)["samples"], 1200)
        self.assertEqual(_shape("chain", 3)["events"], 29)
        stream = _shape("stream", 3)
        self.assertEqual(stream["episodes"], 300)
        self.assertEqual(stream["events"], 2102)
        self.assertEqual(stream["depths"], Counter({2: 75, 3: 75, 4: 75, 5: 75}))
        self.assertEqual(stream["actions"]["Lifting"], 152)


class Gates(unittest.TestCase):
    def test_every_workload_passes_its_gate(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                state = workload.setup(5)
                checked, problems = workload.check(state, workload.run(state))
                self.assertGreater(checked, 0)
                self.assertEqual(problems, [])

    def test_shipped_data_output_is_unchanged(self):
        checked, problems = shipped.check(run.OUT / "shipped")
        self.assertEqual(checked, 11)
        self.assertEqual(problems, [])


class Manifest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
