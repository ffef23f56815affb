"""Informational scaling sweep; not gated and not part of a benchmark run.

    python3 perfbench/sweep.py [--out perfbench/out/sweep.json]

Times ``chain`` on nested-containment episodes of about 10, 20 and 40
events and ``learn`` at 15 and 150 replicas of the Table-1 corpus, takes
the median of three repeats, and fits the growth exponent k of
``time ~ size^k`` by least squares on the log-log points.  Every timed
output still goes through its workload's gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

import run

CHAIN_EVENTS = (10, 20, 40)
LEARN_REPLICAS = (15, 150)
REPEATS = 3


def _median_seconds(workload, state) -> float:
    times = []
    for _ in range(REPEATS):
        output, elapsed = run.timed(workload.run, state)
        times.append(elapsed)
    checked, problems = workload.check(state, output)
    if problems:
        raise SystemExit(f"error: {workload.name} gate failed: {problems[:3]}")
    return statistics.median(times)


def growth_exponent(sizes, seconds) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "system": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=run.OUT / "sweep.json")
    args = parser.parse_args(argv)
    run.import_package()
    import workloads

    chain = workloads.WORKLOADS["chain"]
    state = chain.setup(0)
    chain_s = []
    for events in CHAIN_EVENTS:
        state["inputs"] = workloads.chain_inputs(0, hidings=events - 1)
        chain_s.append(_median_seconds(chain, state))
        print(f"chain {events:>4} events: {chain_s[-1]:.4f} s", flush=True)

    learn = workloads.WORKLOADS["learn"]
    samples, learn_s = [], []
    for replicas in LEARN_REPLICAS:
        state = learn.setup(0, replicas=replicas)
        samples.append(len(state["inputs"]))
        learn_s.append(_median_seconds(learn, state))
        print(f"learn {samples[-1]:>5} samples: {learn_s[-1]:.4f} s", flush=True)

    result = {
        "machine": _machine(),
        "repeats": REPEATS,
        "chain": {"events": list(CHAIN_EVENTS), "closure_s": chain_s,
                  "exponent": growth_exponent(CHAIN_EVENTS, chain_s)},
        "learn": {"replicas": list(LEARN_REPLICAS), "samples": samples,
                  "wall_s": learn_s, "exponent": growth_exponent(samples, learn_s)},
    }
    print(f"chain.closure_s ~ events^{result['chain']['exponent']:.2f}; "
          f"learn.wall_s ~ samples^{result['learn']['exponent']:.2f}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
