"""The per-lexicon parse cache of ``argmax_parse``, against full parses.

A fresh ``Lexicon`` built from the same entries has an empty cache, so its
first ``argmax_parse`` is a full parse: that is the oracle here, and the
brute-force bracketing oracle checks the full parse itself in
``test_properties.py``.
"""

import contextlib
import io
import random

import pytest

from actionccg import chart, cli
from actionccg.chart import argmax_parse, parse_all
from actionccg.corpus import data_path, load_lexicon
from actionccg.errors import ActionCCGError
from actionccg.grammar import N, NP, LexEntry, Lexicon, parse_category
from actionccg.syntax import parse_term
from actionccg.terms import Const, canonical, render
from oracles import supporting

ACTION = parse_category(r"(AP\NP)/NP")
QUANTIFIER = parse_category(r"NP\NP")

# constant names: plain ones, ones the action entries below also use (a
# sentence that holds one is parsed in full), and ones spelled like a
# binder of those entries (x, y, z, f) or like a fresh name for one
NAMES = ("knife", "spoon", "pan", "jar", "mug", "object_007", "object_008",
         "cup", "bowl", "lid", "cut", "x", "x1", "y2", "z7", "f", "f3")
# action semantics: two that tie in an order the names decide, constants
# in the body, binders that fresh-name choices rename, an argument
# applied as a function
ACTIONS = (
    r"\x.\y.cut(x,y)",
    r"\x.\y.cut(y,x)",
    r"\x.\y.cut(x,y) -> divided(y)",
    r"\x.\y.on(y,bowl)",
    r"\x.\y.on(bowl,y)",
    r"\x.\y.in(x,y) & in(y,cup)",
    r"\x.\y.exists z. on(x,z) & on(z,y)",
    r"\x.\y.forall x1. near(x1,y) -> moved(x)",
    r"\x.\y.y x",
    r"\x.\y.\f.f(x,y)",
)
QUANTIFIERS = (r"\f.forall x. f(x)", r"\f.exists x1. f(x1) & kept(x1)")
# a few weights, so that shapes repeat, tie, differ by less than the tie
# margin, or sum to other floats in another order
WEIGHTS = (0.0, 0.0, 0.6, 0.7, -1.0, 1e-13)
NOUN_WEIGHTS = (0.0, 0.0, 0.1, 0.3)
NOUNS = ("A", "B", "C", "D")
TOKENS = NOUNS + ("Cut", "Put", "every", "Zap")


def random_lexicon(rng: random.Random) -> Lexicon:
    entries = []
    for token in NOUNS:
        for _ in range(rng.choice((1, 1, 1, 2))):
            entries.append(LexEntry(token, N, Const(rng.choice(NAMES)),
                                    rng.choice(NOUN_WEIGHTS)))
    for token in ("Cut", "Put"):
        for text in rng.sample(ACTIONS, rng.choice((1, 1, 2, 3))):
            entries.append(LexEntry(token, ACTION, parse_term(text),
                                    rng.choice(WEIGHTS)))
    if rng.random() < 0.5:
        entries.append(LexEntry("every", QUANTIFIER,
                                parse_term(rng.choice(QUANTIFIERS))))
    if rng.random() < 0.2:
        # a noun phrase that is not a bare constant
        entries.append(LexEntry(rng.choice(NOUNS), NP, parse_term("pair(bowl,lid)")))
    return Lexicon(entries)


def random_sentence(rng: random.Random) -> list[str]:
    roll = rng.random()
    if roll < 0.7:
        return [rng.choice(NOUNS), rng.choice(("Cut", "Put")), rng.choice(NOUNS)]
    if roll < 0.85:
        return [rng.choice(NOUNS), "Cut", "every", rng.choice(NOUNS)]
    return [rng.choice(TOKENS) for _ in range(rng.randint(1, 4))]


def outcome(tokens, lexicon):
    try:
        result = argmax_parse(tokens, lexicon)
    except ActionCCGError as exc:
        return ("error", type(exc), str(exc))
    return ("parse", repr(result.logical_form), render(result.logical_form),
            result.probability.hex(),
            supporting(parse_all(tokens, lexicon), result.logical_form))


@pytest.fixture
def parse_all_calls(monkeypatch):
    calls = []

    def counted(tokens, lexicon):
        calls.append(tuple(tokens))
        return parse_all(tokens, lexicon)

    monkeypatch.setattr(chart, "parse_all", counted)
    return calls


def test_cache_matches_full_parses_on_random_lexicons(parse_all_calls):
    rng = random.Random(20151204)
    hits = 0
    for _ in range(80):
        lexicon = random_lexicon(rng)
        for _ in range(40):
            tokens = random_sentence(rng)
            before = len(parse_all_calls)
            try:
                argmax_parse(tokens, lexicon)
            except ActionCCGError:
                pass
            hits += len(parse_all_calls) == before
            cached = outcome(tokens, lexicon)
            full = outcome(tokens, Lexicon(list(lexicon)))
            assert cached == full, (tokens, list(map(str, lexicon)))
    # the cache is exercised, not just passed by
    assert hits > 200


def test_two_tokens_of_one_constant_are_not_one_token_twice():
    # a score sums each entry key's weight times its count, so A and B
    # (0.3 each) sum as 0.3 + 0.7 + 0.3, and A twice as 2 * 0.3 + 0.7: the
    # probabilities differ in the last bit
    lexicon = Lexicon([
        LexEntry("A", N, Const("knife"), 0.3),
        LexEntry("B", N, Const("knife"), 0.3),
        LexEntry("Cut", ACTION, parse_term(r"\x.\y.cut(x,y)"), 0.7),
        LexEntry("Cut", ACTION, parse_term(r"\x.\y.slice(x,y)")),
    ])
    argmax_parse(["A", "Cut", "B"], lexicon)
    assert outcome(["A", "Cut", "A"], lexicon) == outcome(
        ["A", "Cut", "A"], Lexicon(list(lexicon)))


def tie_lexicon(cut_weight, slice_weight):
    return Lexicon([
        LexEntry("Knife", N, Const("knife")),
        LexEntry("Cucumber", N, Const("cucumber")),
        LexEntry("Tomato", N, Const("tomato")),
        LexEntry("Cut", ACTION, parse_term(r"\x.\y.cut(x,y)"), cut_weight),
        LexEntry("Cut", ACTION, parse_term(r"\x.\y.slice(x,y)"), slice_weight),
    ])


class TestCacheLifetime:
    def test_a_reweighted_lexicon_does_not_reuse_its_parents_parse(self):
        parent = tie_lexicon(1.0, 0.0)
        first = argmax_parse(["Knife", "Cut", "Cucumber"], parent)
        assert render(first.logical_form) == "cut(knife,cucumber)"
        child = parent.with_weights({key: 1.0 - parent.weight_of(key)
                                     for key in (e.key for e in parent)})
        flipped = argmax_parse(["Knife", "Cut", "Tomato"], child)
        assert render(flipped.logical_form) == "slice(knife,tomato)"
        again = argmax_parse(["Knife", "Cut", "Tomato"], parent)
        assert render(again.logical_form) == "cut(knife,tomato)"

    def test_an_extended_lexicon_does_not_reuse_its_parents_parse(self):
        parent = tie_lexicon(1.0, 0.0)
        argmax_parse(["Knife", "Cut", "Cucumber"], parent)
        child = parent.with_entries([
            LexEntry("Cut", ACTION, parse_term(r"\x.\y.chop(x,y)"), 2.0)])
        assert child.parse_cache == {}
        result = argmax_parse(["Knife", "Cut", "Tomato"], child)
        assert render(result.logical_form) == "chop(knife,tomato)"


class TestDerivationsOnAHit:
    def test_a_hit_parses_nothing_until_its_derivations_are_read(
            self, parse_all_calls):
        lexicon = tie_lexicon(1.0, 0.0)
        argmax_parse(["Knife", "Cut", "Cucumber"], lexicon)
        assert len(parse_all_calls) == 1
        result = argmax_parse(["Tomato", "Cut", "Knife"], lexicon)
        assert render(result.logical_form) == "cut(tomato,knife)"
        assert len(parse_all_calls) == 1
        # reading its derivations is one full parse
        winners = supporting(chart.parse_all(["Tomato", "Cut", "Knife"], lexicon),
                             result.logical_form)
        assert len(parse_all_calls) == 2
        assert [canonical(d.semantics) for d in winners] == ["cut(tomato,knife)"]
        assert winners[0].semantics == result.logical_form

    def test_a_tie_is_never_reused(self, parse_all_calls):
        lexicon = tie_lexicon(0.0, 0.0)
        for tokens in (["Knife", "Cut", "Cucumber"], ["Tomato", "Cut", "Knife"]):
            assert argmax_parse(tokens, lexicon).probability == 0.5
        assert len(parse_all_calls) == 2

    def test_all_derivations_output_is_unchanged_after_a_warm_up(
            self, monkeypatch):
        warm = load_lexicon(data_path("basic.lex"))
        argmax_parse(["Knife", "Cut", "Knife"], warm)
        argmax_parse(["Cucumber", "Cut", "Knife"], warm)
        outputs = []
        for lexicon in (load_lexicon(data_path("basic.lex")), warm):
            monkeypatch.setattr(cli.corpus_io, "load_lexicon",
                                lambda path, lexicon=lexicon: lexicon)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert cli.main(["parse", "--lexicon", "basic.lex",
                                 "--all-derivations", "Cucumber Cut Cucumber"]) == 0
            outputs.append(stdout.getvalue())
        assert outputs[0] == outputs[1]
        assert outputs[1].count("derivation: ") == 1
