"""Acceptance gate: six of the seven end-to-end checks, one printed line each.

Each test exercises the full public pipeline on the shipped data and
prints ``criterion N: PASS`` (or FAIL) so a plain ``pytest -v -rA`` run
reads as a checklist.  Time limits use wall-clock seconds.  Criterion 6,
the property suite's bound in CPU seconds, is the last test of
``test_properties.py``, so that it times the one run of that suite.
"""

import contextlib
import time
import warnings

import pytest

from actionccg.chart import argmax_parse, parse_all
from actionccg.corpus import (data_path, load_axioms, load_corpus, load_gold,
                              load_lexicon, load_sequence, save_corpus,
                              save_lexicon, synthesize_corpus)
from actionccg.grammar import AP, NP, Backward, parse_category
from actionccg.learning import (TrainConfig, induce_corpus_entries,
                                inject_templates, train)
from actionccg.reasoning import FactBase, assert_event, forward_chain, report
from actionccg.syntax import parse_term
from actionccg.terms import alpha_eq, canonical
from oracles import walk

ACTION_CATEGORY = parse_category(r"(AP\NP)/NP")

EXPECTED_LEARNED = {
    "chopping": r"\x.\y.chopping(x,y) -> divided(y)",
    "cutting": r"\x.\y.cutting(x,y) -> divided(y)",
    "stirring": r"\x.\y.stirring(x,y)",
    "take_down": r"\x.\y.take_down(x,y) -> !connected(x,y) & moved(x)",
    "put_on_top": r"\x.\y.put_on_top(x,y) -> on_top(x,y) & moved(x)",
    "hiding": r"\x.\y.hiding(x,y) -> contained(x,y) & moved(x)",
    "pushing": r"\x.\y.pushing(x,y) -> moved(y)",
    "uncover": r"\x.\y.uncover(x,y) -> appear(y) & moved(x)",
}


@contextlib.contextmanager
def criterion(number, summary):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {summary}")
        raise
    print(f"criterion {number}: PASS - {summary} "
          f"({time.perf_counter() - start:.2f}s)")


@pytest.fixture(scope="module")
def trained_pipeline():
    """Synthesized corpus, lexicon after induction plus training, fit time."""
    base = load_corpus(data_path("table1.corpus"))
    seed = load_lexicon(data_path("seed.lex"))
    objects = [entry.semantics.name for entry in seed]
    corpus = synthesize_corpus(base, objects, replicas=15, seed=0)
    start = time.perf_counter()
    lexicon = induce_corpus_entries(corpus, seed)
    lexicon = train(corpus, lexicon, TrainConfig())
    return corpus, lexicon, time.perf_counter() - start


def run_case_study(name, lexicon):
    sequence = load_sequence(data_path(f"{name}.seq"))
    rules = load_axioms(data_path("axioms.rules"))
    tokens = [token for triplet in sequence.triplets for token in triplet]
    working = inject_templates(tokens, lexicon)
    kb = FactBase()
    for triplet in sequence.triplets:
        form = argmax_parse(list(triplet), working).logical_form
        kb = assert_event(form, kb)
    return report(kb, forward_chain(kb, rules))


def test_criterion_1_basic_triplet_parse(basic_lexicon):
    with criterion(1, "basic triplet parses to its consequence form"):
        start = time.perf_counter()
        derivations = parse_all(["Knife", "Cut", "Cucumber"], basic_lexicon)
        elapsed = time.perf_counter() - start
        assert len(derivations) == 1
        root = derivations[0]
        assert root.category == AP
        assert root.semantics == parse_term(
            "cut(knife,cucumber) -> divided(cucumber)")
        partial = [node for node in walk(root)
                   if node.category == Backward(AP, NP)]
        assert len(partial) == 1 and partial[0].span == (1, 3)
        assert alpha_eq(partial[0].semantics, parse_term(
            r"\x.cut(x,cucumber) -> divided(cucumber)"))
        assert elapsed < 1.0


def test_criterion_2_quantified_patient(quantifier_lexicon):
    with criterion(2, "universally quantified patient hoists correctly"):
        start = time.perf_counter()
        derivations = parse_all(["Knife", "Cut", "every", "Tomato"],
                                quantifier_lexicon)
        elapsed = time.perf_counter() - start
        assert len(derivations) == 1
        assert alpha_eq(derivations[0].semantics, parse_term(
            "forall y.tomato(y) & cut(knife,y) -> divided(y)"))
        assert elapsed < 1.0


def test_criterion_3_lexicon_learning(trained_pipeline):
    with criterion(3, "induction plus training recovers all action entries"):
        corpus, lexicon, fit_seconds = trained_pipeline
        assert len(corpus) == 120
        assert fit_seconds < 30.0
        seed = {e.key for e in load_lexicon(data_path("seed.lex"))}
        learned = [e for e in lexicon if e.key not in seed]
        assert len(learned) == 8
        for token, expected in EXPECTED_LEARNED.items():
            candidates = lexicon.lookup(token)
            assert candidates, f"no entry learned for {token}"
            best = max(candidates, key=lambda e: e.weight)
            assert best.category == ACTION_CATEGORY
            assert alpha_eq(best.semantics, parse_term(expected)), token


def test_criterion_4_case_study_deductions(trained_pipeline):
    with criterion(4, "case studies deduce the unobserved relations"):
        _, lexicon, _ = trained_pipeline

        start = time.perf_counter()
        first = run_case_study("casestudy1", lexicon)
        assert time.perf_counter() - start < 1.0
        assert [str(l) for l in first.deduced] == [
            "on_top(object_007,object_009)"]
        assert "on_top(object_007,object_009)" not in {
            str(l) for l in first.observed}

        start = time.perf_counter()
        second = run_case_study("casestudy2", lexicon)
        assert time.perf_counter() - start < 1.0
        assert {str(l) for l in second.deduced} >= {
            "divided(object_005)", "divided(object_010)",
            "on_top(object_005,object_012)", "on_top(object_010,object_012)"}


def test_criterion_5_rules_strictly_improve_recall(trained_pipeline):
    with criterion(5, "axioms strictly raise gold-consequence recall"):
        _, lexicon, _ = trained_pipeline
        expected = {"casestudy1": (4, 5), "casestudy2": (5, 9)}
        for name, (plain_goal, closed_goal) in expected.items():
            gold = load_gold(data_path(f"{name}.gold"))
            result = run_case_study(name, lexicon)
            observed = set(result.observed)
            closed = observed | set(result.deduced)
            plain_n = sum(1 for l in gold if l in observed)
            closed_n = sum(1 for l in gold if l in closed)
            assert (plain_n, closed_n) == (plain_goal, closed_goal), name
            assert closed_n > plain_n, name


def test_criterion_7_shipped_data_round_trips(tmp_path):
    with criterion(7, "shipped data loads cleanly and survives a round trip"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seed = load_lexicon(data_path("seed.lex"))
            load_lexicon(data_path("basic.lex"))
            load_lexicon(data_path("quantifier.lex"))
            base = load_corpus(data_path("table1.corpus"))
            load_axioms(data_path("axioms.rules"))
            for name in ("casestudy1", "casestudy2"):
                load_sequence(data_path(f"{name}.seq"))
                load_gold(data_path(f"{name}.gold"))

            lex_copy = tmp_path / "seed.lex"
            save_lexicon(seed, lex_copy)
            reloaded = load_lexicon(lex_copy)
            assert [(e.key, e.weight) for e in reloaded] == [
                (e.key, e.weight) for e in seed]

            corpus_copy = tmp_path / "table1.corpus"
            save_corpus(base, corpus_copy)
            again = load_corpus(corpus_copy)
            assert [(s.tokens, canonical(s.gold)) for s in again] == [
                (s.tokens, canonical(s.gold)) for s in base]
