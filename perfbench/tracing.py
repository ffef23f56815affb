"""Spans and counts recorded from outside the package.

``Tracer.installed()`` rebinds, for the duration of a ``with`` block, the
names through which one layer calls the next (``learning.parse_all``,
``chart.combine``, ``grammar.beta_reduce``, ...) and the entry points the
workloads call (``reasoning.forward_chain``, ...).  Each wrapper records a
span (name, start, end, parent) in memory and adds to named counts; the
original bindings come back when the block ends.  No file of the package
changes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from actionccg import chart, corpus, grammar, learning, reasoning, syntax


def _hit(counts, args, kwargs, result):
    counts["grammar.combine.hits"] += result is not None


def _derivations(counts, args, kwargs, result):
    counts["chart.derivations"] += len(result)


def _iterations(counts, args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs.get("config", learning.TrainConfig())
    counts["learning.iterations"] += config.iterations


def _retracted(counts, args, kwargs, result):
    counts["reasoning.retracted"] += len(result.retracted) - len(args[1].retracted)


def _derived(counts, args, kwargs, result):
    counts["reasoning.derived"] += len(result.literals) - len(args[0].literals)


def _facts(counts, args, kwargs, result):
    counts["reasoning.facts_final"] += len(args[1].literals)


# (owner, attribute, span name, count hook).  A function called through
# several importing modules is rebound in each of them under one span name.
BINDINGS = (
    (chart, "canonical", "terms.canonical", None),
    (grammar, "canonical", "terms.canonical", None),
    (learning, "canonical", "terms.canonical", None),
    (grammar, "beta_reduce", "terms.beta_reduce", None),
    (corpus, "beta_reduce", "terms.beta_reduce", None),
    (corpus, "parse_term", "syntax.parse_term", None),
    (learning, "parse_term", "syntax.parse_term", None),
    (syntax, "parse_term", "syntax.parse_term", None),
    (chart, "combine", "grammar.combine", _hit),
    (grammar.Lexicon, "with_entries", "grammar.lexicon_build", None),
    (grammar.Lexicon, "with_weights", "grammar.lexicon_build", None),
    (chart, "parse_all", "chart.parse_all", _derivations),
    (learning, "parse_all", "chart.parse_all", _derivations),
    (chart, "argmax_parse", "chart.argmax_parse", None),
    (learning, "inject_templates", "learning.inject_templates", None),
    (learning, "induce_corpus_entries", "learning.induce", None),
    (learning, "train", "learning.train", _iterations),
    (learning, "log_likelihood", "learning.log_likelihood", None),
    (reasoning, "assert_event", "reasoning.assert_event", _retracted),
    (reasoning, "forward_chain", "reasoning.forward_chain", _derived),
    (reasoning, "report", "reasoning.report", _facts),
    (corpus, "load_lexicon", "corpus.load", None),
    (corpus, "load_corpus", "corpus.load", None),
    (corpus, "load_axioms", "corpus.load", None),
    (corpus, "synthesize_corpus", "corpus.synthesize", None),
)


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in BINDINGS]
        try:
            for owner, attr, name, hook in BINDINGS:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), hook))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans) -> tuple[Counter, dict]:
    """Calls and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children.
    """
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    calls: Counter = Counter()
    seconds: dict = defaultdict(float)
    for (name, start, end, _), covered in zip(spans, children):
        calls[name] += 1
        seconds[name] += end - start - covered
    return calls, seconds


def write_spans(path, sections, origin: float) -> None:
    """Tab-separated spans, one section per phase; times from ``origin``."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("phase\tindex\tname\tstart_s\tend_s\tparent\n")
        for phase, spans in sections:
            for index, (name, start, end, parent) in enumerate(spans):
                out.write(f"{phase}\t{index}\t{name}\t{start - origin:.9f}\t"
                          f"{end - origin:.9f}\t{parent}\n")
