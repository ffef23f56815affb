"""The benchmark's tracer (``perfbench/tracing.py``) against the package.

The tracer rebinds module attributes by name, so a refactor that drops
one of those names breaks ``perfbench/run.py --trace 1`` and nothing
else; these tests install it the way a traced run does.
"""

import sys
from pathlib import Path

from actionccg import chart, corpus, learning, reasoning
from actionccg.corpus import data_path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

LEXICON = ("Hiding := (AP\\NP)/NP : \\x.\\y.hiding(x,y) -> contained(x,y)\n"
           "Put_on_top := (AP\\NP)/NP : \\x.\\y.put_on_top(x,y) -> on_top(x,y)\n")
EPISODE = (("Object_008", "Hiding", "Object_009"),
           ("Object_007", "Put_on_top", "Object_008"))


def test_every_binding_names_an_existing_attribute():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.BINDINGS
               if not hasattr(owner, attr)]
    assert missing == []


def test_traced_parse_and_chain_count_calls_and_restore_bindings(tmp_path):
    path = tmp_path / "episode.lex"
    path.write_text(LEXICON, encoding="utf-8")
    rules = corpus.load_axioms(data_path("axioms.rules"))
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.BINDINGS]
    tracer = tracing.Tracer()
    with tracer.installed():
        lexicon = corpus.load_lexicon(path)
        facts = reasoning.FactBase()
        for triplet in EPISODE:
            form = chart.argmax_parse(
                triplet, learning.inject_templates(triplet, lexicon)).logical_form
            facts = reasoning.assert_event(form, facts)
        closed = reasoning.forward_chain(facts, rules)
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.BINDINGS] == originals

    spans, counts = tracer.take()
    calls, _ = tracing.self_times(spans)
    for name in ("corpus.load", "syntax.parse_term", "terms.beta_reduce",
                 "grammar.lexicon_build", "learning.inject_templates",
                 "chart.argmax_parse", "chart.parse_all", "grammar.combine",
                 "terms.canonical", "reasoning.assert_event",
                 "reasoning.forward_chain"):
        assert calls[name] > 0, name
    assert counts["chart.derivations"] == 2
    assert counts["grammar.combine.hits"] > 0
    assert counts["reasoning.derived"] == len(closed.literals) - len(facts.literals) > 0
