"""The benchmark's three workloads: input generators, operations and gates.

Each workload generates its inputs from a seed, sets up once (load the
shipped data files, generate the inputs, learn the lexicon it needs) and
then repeats one operation.  Operations call the package through its
public functions, in the order the CLI handlers call them, and always
through the module attribute (``reasoning.forward_chain``), so that a
traced run can rebind those names.

- ``learn``: induce, train and score a lexicon on a 1,200-sample corpus.
  Loads terms, grammar, chart and learning; never calls reasoning.
- ``chain``: one 29-event nested-containment episode run the way
  ``reason`` runs a sequence: parse and assert every event, chain once.
  ``forward_chain`` dominates; parsing is about 1%.
- ``stream``: about 300 small independent episodes run the way
  ``reason --chain-per-event`` runs them, event by event.  Fact-base
  writes and retractions come between many small chains, and parsing
  carries real weight.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import warnings
from pathlib import Path
from time import perf_counter

from actionccg import chart, corpus, learning, reasoning, syntax
from actionccg.errors import ActionCCGError, SkippedSampleWarning
from actionccg.grammar import N
from actionccg.terms import Const

import reference

LEARN_REPLICAS = 150
# Small enough that a timed run holds 40 to 80 operations of the chain.
CHAIN_HIDINGS = 28
STREAM_DEPTHS = (2, 3, 4, 5)
STREAM_EPISODES_PER_DEPTH = 75
OBJECT_IDS = 1000
# The one action with a retracting consequence; the benchmark adds this row
# to the shipped Table-1 corpus before it learns the lexicon.
LIFTING_TOKENS = ("bucket", "lifting", "ball")
LIFTING_GOLD = "lifting(bucket,ball) -> !contained(bucket,ball) & moved(bucket)"
# SHA-256 of the stream output for seeds 0-99, recorded on the commit that
# added the benchmark.  A run with another seed replays seed 0 to check it.
STREAM_DIGESTS = Path(__file__).resolve().parent / "expected" / "stream_digests.json"
REFERENCE_SEED = 0


def _objects(rng: random.Random, count: int) -> list[str]:
    return [f"Object_{n:03d}" for n in rng.sample(range(OBJECT_IDS), count)]


def _inventory(seed_lexicon) -> list[str]:
    """Object constants of the seed lexicon, as ``gen-corpus`` reads them."""
    return [e.semantics.name for e in seed_lexicon
            if e.category == N and isinstance(e.semantics, Const)]


def chain_inputs(seed: int, hidings: int = CHAIN_HIDINGS):
    """``o_0 Hiding o_1 ... o_{n-1} Hiding o_n``, then ``top Put_on_top o_0``."""
    *nested, top = _objects(random.Random(seed), hidings + 2)
    return ([(nested[i], "Hiding", nested[i + 1]) for i in range(hidings)]
            + [(top, "Put_on_top", nested[0])])


def stream_inputs(seed: int):
    """Independent tabletop episodes with a fixed depth and action mix.

    An episode nests 2-5 objects by hiding, then in seeded order places an
    object on the outermost container, cuts the container and pushes the
    placed object.  Every other episode of each depth also has one object
    lift another from inside it, retracting that containment; when the two
    are not adjacent the rules could derive it again, which the retraction
    must block.
    """
    rng = random.Random(seed)
    plan = [(depth, k % 2 == 0) for depth in STREAM_DEPTHS
            for k in range(STREAM_EPISODES_PER_DEPTH)]
    rng.shuffle(plan)
    episodes = []
    for depth, lifts in plan:
        *nested, top, cutter, hand = _objects(rng, depth + 4)
        tail = [(top, "Put_on_top", nested[0]), (cutter, "Cutting", nested[0]),
                (hand, "Pushing", top)]
        if lifts:
            outer, inner = sorted(rng.sample(range(depth + 1), 2))
            tail.append((nested[outer], "Lifting", nested[inner]))
        rng.shuffle(tail)
        episodes.append([(nested[i], "Hiding", nested[i + 1])
                         for i in range(depth)] + tail)
    return episodes


def _load_shipped():
    seed_lexicon = corpus.load_lexicon(corpus.data_path("seed.lex"))
    base = corpus.load_corpus(corpus.data_path("table1.corpus"))
    return seed_lexicon, base


def _reasoning_setup(seed: int, make_inputs) -> dict:
    seed_lexicon, base = _load_shipped()
    rules = corpus.load_axioms(corpus.data_path("axioms.rules"))
    rows = base + [learning.TrainingSample(LIFTING_TOKENS,
                                           syntax.parse_term(LIFTING_GOLD))]
    lexicon = learning.train(rows, learning.induce_corpus_entries(rows, seed_lexicon))
    return {"seed": seed, "lexicon": lexicon, "rules": rules,
            "inputs": make_inputs(seed)}


def _sequence_lexicon(triplets, lexicon):
    return learning.inject_templates([t for tr in triplets for t in tr], lexicon)


class Learn:
    """One full ``learn`` on a synthesized corpus, then its log-likelihood."""

    name = "learn"

    def setup(self, seed: int, replicas: int = LEARN_REPLICAS) -> dict:
        seed_lexicon, base = _load_shipped()
        samples = corpus.synthesize_corpus(base, _inventory(seed_lexicon),
                                           replicas=replicas, seed=seed)
        return {"seed": seed, "seed_lexicon": seed_lexicon, "inputs": samples}

    def units(self, state) -> int:
        """Outputs one operation yields: one parse-back per sample."""
        return len(state["inputs"])

    def run(self, state, event_times=None):
        samples = state["inputs"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SkippedSampleWarning)
            lexicon = learning.induce_corpus_entries(samples, state["seed_lexicon"])
            lexicon = learning.train(samples, lexicon)
            final = learning.log_likelihood(samples, lexicon)
        skipped = sum(issubclass(w.category, SkippedSampleWarning) for w in caught)
        return lexicon, final, skipped

    def fingerprint(self, output) -> str:
        lexicon, final, skipped = output
        return "\n".join([str(e) for e in lexicon] + [repr(final), str(skipped)])

    def check(self, state, output) -> tuple[int, list[str]]:
        """Every sample parses back to its annotation; the fit is finite.

        Returns (outputs checked, one problem per failed output).
        """
        lexicon, final, skipped = output
        problems = [f"skipped sample {i}" for i in range(skipped)]
        if not math.isfinite(final):
            problems.append(f"log-likelihood is {final}")
        for sample in state["inputs"]:
            try:
                form = chart.argmax_parse(sample.tokens, lexicon).logical_form
            except ActionCCGError as exc:
                problems.append(f"{' '.join(sample.tokens)}: {exc}")
                continue
            if reference.de_bruijn(form) != reference.de_bruijn(sample.gold):
                problems.append(f"{' '.join(sample.tokens)} parsed to {form}")
        return len(state["inputs"]) + 1, problems


class Chain:
    """Parse, assert, close and report one long nested-containment episode."""

    name = "chain"

    def setup(self, seed: int) -> dict:
        return _reasoning_setup(seed, chain_inputs)

    def units(self, state) -> int:
        return 1

    def run(self, state, event_times=None):
        triplets = state["inputs"]
        lexicon = _sequence_lexicon(triplets, state["lexicon"])
        observed = reasoning.FactBase()
        for triplet in triplets:
            form = chart.argmax_parse(triplet, lexicon).logical_form
            observed = reasoning.assert_event(form, observed)
        closed = reasoning.forward_chain(observed, state["rules"])
        return reasoning.report(observed, closed)

    def fingerprint(self, output) -> str:
        return "\n".join(output.tsv_lines())

    def check(self, state, output) -> tuple[int, list[str]]:
        """The closure equals its closed form; nothing is retracted."""
        observed, closure = reference.chain_closure(state["inputs"])
        got_observed = {str(l) for l in output.observed}
        got = got_observed | {str(l) for l in output.deduced}
        if got_observed != observed or got != closure or output.retracted:
            return 1, [f"closure differs from its closed form in "
                       f"{sorted(got ^ closure)[:5]}, observed "
                       f"{sorted(got_observed ^ observed)[:5]}, retracted "
                       f"{[str(l) for l in output.retracted]}"]
        return 1, []


class Stream:
    """Many small episodes, each with its own fact base, chained per event."""

    name = "stream"

    def setup(self, seed: int) -> dict:
        return _reasoning_setup(seed, stream_inputs)

    def units(self, state) -> int:
        return len(state["inputs"])

    def run(self, state, event_times=None):
        """Reports per episode; appends each event's seconds to ``event_times``.

        An event runs from the start of its parse to the end of its chain.
        """
        rules = state["rules"]
        clock = perf_counter
        reports = []
        for triplets in state["inputs"]:
            lexicon = _sequence_lexicon(triplets, state["lexicon"])
            observed = chained = reasoning.FactBase()
            for triplet in triplets:
                start = clock()
                form = chart.argmax_parse(triplet, lexicon).logical_form
                observed = reasoning.assert_event(form, observed)
                chained = reasoning.forward_chain(
                    reasoning.assert_event(form, chained), rules)
                if event_times is not None:
                    event_times.append(clock() - start)
            reports.append(reasoning.report(observed, chained))
        return reports

    def fingerprint(self, output) -> str:
        return "\n\n".join("\n".join(r.tsv_lines()) for r in output)

    def check(self, state, output) -> tuple[int, list[str]]:
        """Each episode's final fact base equals a naive per-event replay,
        and the output hashes to the digest recorded for its seed.
        """
        rules = reference.parse_rules(
            corpus.data_path("axioms.rules").read_text(encoding="utf-8"))
        problems = []
        for index, (triplets, got) in enumerate(zip(state["inputs"], output)):
            observed, closed, retracted = reference.replay_episode(triplets, rules)
            got_observed = [str(l) for l in got.observed]
            got_closed = set(got_observed) | {str(l) for l in got.deduced}
            if (got_observed != observed or got_closed != closed
                    or [str(l) for l in got.retracted] != retracted):
                problems.append(f"episode {index} differs from the replay")
        if len(output) != len(state["inputs"]):
            problems.append(f"{len(output)} reports for {len(state['inputs'])} episodes")
        recorded = json.loads(STREAM_DIGESTS.read_text(encoding="utf-8"))
        seed = str(state["seed"])
        if seed not in recorded:
            seed = str(REFERENCE_SEED)
            output = self.run({**state, "inputs": stream_inputs(REFERENCE_SEED)})
        if self.digest(output) != recorded[seed]:
            problems.append(f"seed {seed} output digest {self.digest(output)} "
                            f"is not the recorded {recorded[seed]}")
        return len(state["inputs"]) + 1, problems

    def digest(self, output) -> str:
        return hashlib.sha256(self.fingerprint(output).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (Learn(), Chain(), Stream())}
