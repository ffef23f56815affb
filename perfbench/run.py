"""actionccg benchmark: one workload per run, in-process, one thread.

    python3 perfbench/run.py --workload {learn,chain,stream} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/``.  Every run first checks the CLI's output on the shipped data,
then sets the workload up several times and runs one untimed warm-up
operation whose output goes through the workload's gate.

``--trace 0`` repeats the operation in a closed loop for ``S`` seconds
and reports the end-to-end metrics, in reference seconds (see
``ReferenceClock``).  ``--trace 1`` alternates an untraced
and a traced operation for ``S`` seconds and reports the per-layer
metrics, with the traced run's overhead; the spans go to
``perfbench/out/<workload>.spans.tsv``.  Every repeat must reproduce the
warm-up output exactly.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status
is 1 if any output failed its check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_MIN_REPEATS = 5
# Seconds the calibration loop takes in a quiet phase of the machine the
# benchmark was tuned on (2 vCPUs of a shared Intel Xeon, Python 3.11).
CALIBRATION_REF_S = 0.0100

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
LAYER_CALLS = ("terms.canonical", "terms.beta_reduce", "grammar.combine",
               "grammar.lexicon_build", "chart.parse_all", "chart.argmax_parse",
               "reasoning.forward_chain", "reasoning.assert_event",
               "syntax.parse_term")
LAYER_SELF = ("terms.canonical", "terms.beta_reduce", "grammar.combine",
              "grammar.lexicon_build", "chart.parse_all", "chart.argmax_parse",
              "learning.induce", "learning.train", "reasoning.forward_chain",
              "reasoning.assert_event", "corpus.load", "corpus.synthesize")
LAYER_COUNTS = ("chart.derivations", "learning.iterations", "reasoning.derived",
                "reasoning.retracted", "reasoning.facts_final")
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in LAYER_CALLS},
    **{f"{name}.self_s": "s" for name in LAYER_SELF},
    **{name: "count" for name in LAYER_COUNTS},
    "grammar.combine.hit_ratio": "ratio",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_package():
    """Import ``actionccg`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "actionccg"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {package}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import actionccg
    if Path(actionccg.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported actionccg from {actionccg.__file__}, "
                         f"not from {package}")


class Tally:
    """Outputs checked and outputs that failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, checked: int, problems: list[str]) -> None:
        self.attempted += checked
        self.failed += min(len(problems), checked)
        self.problems += [f"{label}: {p}" for p in problems]

    def repeat(self, workload, state, output, expected: str) -> None:
        same = workload.fingerprint(output) == expected
        self.add("repeat", workload.units(state),
                 [] if same else ["output differs from the warm-up operation"]
                 * workload.units(state))


def timed(fn, *args):
    """(result, seconds) of ``fn(*args)``, after a full garbage collection."""
    gc.collect()
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def _calibration_loop() -> int:
    counts: dict = {}
    for i in range(30000):
        key = (i % 61, str(i % 67))
        counts[key] = counts.get(key, 0) + 1
    return len({key[1] for key in counts})


def calibration_s() -> float:
    """Median seconds of three runs of a fixed loop, with the collector off.

    The loop does the tuple, string, dict and set work of the package's hot
    paths but runs none of the package's code, so its time follows only the
    machine's speed.
    """
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = perf_counter()
            _calibration_loop()
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


class ReferenceClock:
    """Converts measured seconds into reference seconds.

    A shared machine's speed changes in phases that can outlast a whole
    run.  So the seconds measured between two calibrations are scaled by
    ``CALIBRATION_REF_S`` over the mean of those two calibration times,
    which gives the seconds they would take when the machine is quiet.
    """

    def __init__(self):
        self.calibrations = [calibration_s()]

    def scale(self) -> float:
        """Calibrate; return the scale for what was timed since the last call."""
        self.calibrations.append(calibration_s())
        return CALIBRATION_REF_S / statistics.fmean(self.calibrations[-2:])


def _warm_up(workload, state, tally: Tally) -> str:
    """Run the operation once untimed, gate its output, return its fingerprint."""
    output = workload.run(state)
    tally.add("gate", *workload.check(state, output))
    return workload.fingerprint(output)


def _p90(values) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.90 * len(ordered)) - 1)]


def timed_run(workload, seed: int, seconds: float, tally: Tally) -> dict:
    state = workload.setup(seed)
    expected = _warm_up(workload, state, tally)
    clock = ReferenceClock()
    setups, walls, samples = [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not walls:
        # A set-up before each operation spreads the set-up samples over the
        # whole run, as the operation samples are; the operations keep
        # using the first state.
        setup = timed(workload.setup, seed)[1]
        events: list[float] = []
        output, elapsed = timed(workload.run, state, events)
        scale = clock.scale()
        setups.append(setup * scale)
        walls.append(elapsed * scale)
        samples.extend(e * scale for e in events or [elapsed])
        tally.repeat(workload, state, output, expected)
    while len(setups) < SETUP_MIN_REPEATS:
        setups.append(timed(workload.setup, seed)[1] * clock.scale())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{workload.name}: {len(setups)} set-ups, {len(walls)} timed operations, "
          f"{len(samples)} latency samples")
    print(f"calibration loop: median {statistics.median(clock.calibrations) * 1e3:.2f} ms "
          f"over {len(clock.calibrations)} calibrations, reference "
          f"{CALIBRATION_REF_S * 1e3:.2f} ms")
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_p90_ms": _p90(samples) * 1e3,
        "ops_per_s": len(samples) / sum(walls),
        "peak_rss_mb": peak_mb,
        "success_ratio": 1 - tally.failed / tally.attempted,
    }


def traced_run(workload, seed: int, seconds: float, tally: Tally) -> dict:
    import tracing

    tracer = tracing.Tracer()
    origin = perf_counter()
    with tracer.installed():
        state = workload.setup(seed)
    setup_spans, setup_counts = tracer.take()
    expected = _warm_up(workload, state, tally)
    untraced, traced, per_op = [], [], []
    first_spans = None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not traced:
        output, elapsed = timed(workload.run, state)
        untraced.append(elapsed)
        tally.repeat(workload, state, output, expected)
        with tracer.installed():
            output, elapsed = timed(workload.run, state)
        traced.append(elapsed)
        tally.repeat(workload, state, output, expected)
        spans, counts = tracer.take()
        first_spans = first_spans or spans
        per_op.append((*tracing.self_times(spans), counts))
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(OUT / f"{workload.name}.spans.tsv",
                        [("setup", setup_spans), ("op", first_spans)], origin)

    setup_calls, setup_self = tracing.self_times(setup_spans)
    op_calls, _, op_counts = per_op[0]
    op_self = {name: statistics.median(op[1].get(name, 0.0) for op in per_op)
               for name in set().union(*(op[1] for op in per_op))}
    metrics = {f"{n}.calls": setup_calls[n] + op_calls[n] for n in LAYER_CALLS}
    metrics.update({f"{n}.self_s": setup_self.get(n, 0.0) + op_self.get(n, 0.0)
                    for n in LAYER_SELF})
    metrics.update({n: setup_counts[n] + op_counts[n] for n in LAYER_COUNTS})
    combines = metrics["grammar.combine.calls"]
    hits = setup_counts["grammar.combine.hits"] + op_counts["grammar.combine.hits"]
    metrics["grammar.combine.hit_ratio"] = hits / combines if combines else 0.0
    metrics["trace.op_s"] = statistics.median(untraced)
    # Each traced operation runs right after an untraced one, so the ratio
    # within a pair cancels most of the drift in machine speed.
    metrics["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced, untraced)) - 1

    traced_s = statistics.median(traced)
    print(f"{workload.name}: {len(per_op)} untraced and {len(per_op)} traced "
          f"operations; {len(first_spans)} spans per operation, "
          f"{len(setup_spans)} in set-up")
    print(f"untraced operation {metrics['trace.op_s']:.4f} s, traced "
          f"{traced_s:.4f} s: tracing overhead {metrics['trace.overhead_ratio']:.1%}")
    print("self time per traced operation, and its share of that operation:")
    for name, value in sorted(op_self.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<28} {value:10.6f} s  {value / traced_s:6.1%}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("learn", "chain", "stream"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    import_package()
    import shipped
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    tally.add("shipped data", *shipped.check(OUT / "shipped"))
    if args.trace:
        metrics = traced_run(workload, args.seed, args.seconds, tally)
        units = PER_LAYER_UNITS
    else:
        metrics = timed_run(workload, args.seed, args.seconds, tally)
        units = END_TO_END_UNITS
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name:<32} {value:>14.6g} {units[name]}")
    print(f"failed_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
