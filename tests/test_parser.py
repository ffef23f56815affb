"""Chart parsing, derivation bookkeeping, and log-linear scoring."""

import math

import pytest

from actionccg import parse_term
from actionccg.chart import argmax_parse, parse_all, parse_probability
from actionccg.errors import NoParseError, UnknownTokenError
from actionccg.grammar import AP, Backward, LexEntry, Lexicon, NP, parse_category
from actionccg.terms import alpha_eq, canonical

from oracles import brute_force_roots, derivation_signature, supporting, walk

ACTION = parse_category(r"(AP\NP)/NP")


def noun(token):
    return LexEntry(token, parse_category("N"), parse_term(token.lower()))


class TestParseAll:
    def test_basic_triplet_has_one_derivation(self, basic_lexicon):
        derivations = parse_all(["Knife", "Cut", "Cucumber"], basic_lexicon)
        assert len(derivations) == 1
        root = derivations[0]
        assert root.category == AP
        assert root.semantics == parse_term(
            "cut(knife,cucumber) -> divided(cucumber)")

    def test_intermediate_span_carries_partial_application(self, basic_lexicon):
        root = parse_all(["Knife", "Cut", "Cucumber"], basic_lexicon)[0]
        partial = [node for node in walk(root)
                   if node.category == Backward(AP, NP)]
        assert len(partial) == 1
        assert partial[0].span == (1, 3)
        assert alpha_eq(partial[0].semantics,
                        parse_term(r"\x.cut(x,cucumber) -> divided(cucumber)"))

    def test_quantified_patient(self, quantifier_lexicon):
        derivations = parse_all(["Knife", "Cut", "every", "Tomato"],
                                quantifier_lexicon)
        assert len(derivations) == 1
        assert alpha_eq(derivations[0].semantics, parse_term(
            "forall y.tomato(y) & cut(knife,y) -> divided(y)"))

    def test_no_goal_item_raises(self, basic_lexicon):
        with pytest.raises(NoParseError):
            parse_all(["Knife", "Cucumber"], basic_lexicon)

    def test_unknown_tokens_reported_before_parsing(self, basic_lexicon):
        with pytest.raises(UnknownTokenError) as err:
            parse_all(["Knife", "Blorp", "Cucumber", "Blorp"], basic_lexicon)
        assert err.value.tokens == ("Blorp",)

    def test_empty_sentence_raises(self, basic_lexicon):
        with pytest.raises(NoParseError):
            parse_all([], basic_lexicon)

    def test_feature_counts_sum_to_token_count(self, basic_lexicon):
        root = parse_all(["Knife", "Cut", "Cucumber"], basic_lexicon)[0]
        counts = root.feature_counts()
        assert sum(counts.values()) == 3
        assert all(count == 1 for count in counts.values())

    def test_leaf_spans_and_kinds(self, basic_lexicon):
        root = parse_all(["Knife", "Cut", "Cucumber"], basic_lexicon)[0]
        leaves = [n for n in walk(root) if n.entry is not None]
        assert sorted(n.span for n in leaves) == [(0, 1), (1, 2), (2, 3)]
        unaries = [n for n in walk(root) if len(n.kids) == 1]
        assert {n.category for n in unaries} == {NP}

    def test_tree_rendering(self, basic_lexicon):
        root = parse_all(["Knife", "Cut", "Cucumber"], basic_lexicon)[0]
        assert root.tree() == (
            r"[AP [NP [N 'Knife']] [AP\NP [(AP\NP)/NP 'Cut'] [NP [N 'Cucumber']]]]")

    def test_matches_brute_force_enumeration(self, basic_lexicon,
                                             quantifier_lexicon):
        for tokens, lexicon in [
            (["Knife", "Cut", "Cucumber"], basic_lexicon),
            (["Knife", "Cut", "every", "Tomato"], quantifier_lexicon),
            (["Knife", "Cut", "every", "every", "Tomato"], quantifier_lexicon),
        ]:
            try:
                chart = sorted(derivation_signature(d)
                               for d in parse_all(tokens, lexicon))
            except NoParseError:
                chart = []
            assert chart == sorted(brute_force_roots(tokens, lexicon))


class TestSpuriousAmbiguity:
    """``Beta`` takes one noun phrase from each side, in either order, so
    the triplet has two bracketings with one logical form."""

    TOKENS = ["Alpha", "Beta", "Gamma"]

    @staticmethod
    def lexicon(*betas):
        beta = parse_category(r"(AP\NP)\NP")
        return Lexicon([
            LexEntry("Alpha", NP, parse_term("alpha")),
            *(LexEntry("Beta", beta, parse_term(sem)) for sem in betas),
            LexEntry("Gamma", NP, parse_term("gamma")),
        ])

    def test_one_derivation_per_bracketing(self):
        derivations = parse_all(self.TOKENS, self.lexicon(r"\x.\y.done"))
        assert [d.tree() for d in derivations] == [
            r"[AP [NP 'Alpha'] [AP\NP [(AP\NP)\NP 'Beta'] [NP 'Gamma']]]",
            r"[AP [AP\NP [NP 'Alpha'] [(AP\NP)\NP 'Beta']] [NP 'Gamma']]",
        ]
        assert all(d.semantics == parse_term("done") for d in derivations)

    def test_argmax_keeps_both_bracketings(self):
        lexicon = self.lexicon(r"\x.\y.done")
        result = argmax_parse(self.TOKENS, lexicon)
        assert result.logical_form == parse_term("done")
        assert result.probability == pytest.approx(1.0, rel=1e-12)
        derivations = tuple(parse_all(self.TOKENS, lexicon))
        assert len(derivations) == 2
        assert supporting(derivations, result.logical_form) == derivations

    def test_chart_order_is_split_then_left_then_right(self):
        # the full-span cell lists the split after Alpha before the split
        # before Gamma, whatever their logical forms
        derivations = parse_all(self.TOKENS, self.lexicon(
            r"\x.\y.done", r"\x.\y.other"))
        assert [(canonical(d.semantics), d.kids[0].span)
                for d in derivations] == [
            ("done", (0, 1)), ("other", (0, 1)),
            ("done", (0, 2)), ("other", (0, 2))]


class TestScoring:
    def ambiguous_lexicon(self, w_cut, w_slice):
        return Lexicon([
            noun("Knife"), noun("Cucumber"),
            LexEntry("Cut", ACTION,
                     parse_term(r"\x.\y.cut(x,y) -> divided(y)"), w_cut),
            LexEntry("Cut", ACTION, parse_term(r"\x.\y.slice(x,y)"), w_slice),
        ])

    def test_single_derivation_probability_is_one(self, basic_lexicon):
        p = parse_probability(
            parse_term("cut(knife,cucumber) -> divided(cucumber)"),
            ["Knife", "Cut", "Cucumber"], basic_lexicon)
        assert p == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("w_cut,w_slice", [
        (0.0, 0.0), (1.0, 0.0), (-2.0, 3.0), (0.5, 0.25),
    ])
    def test_two_entry_softmax(self, w_cut, w_slice):
        lexicon = self.ambiguous_lexicon(w_cut, w_slice)
        tokens = ["Knife", "Cut", "Cucumber"]
        cut_form = parse_term("cut(knife,cucumber) -> divided(cucumber)")
        slice_form = parse_term("slice(knife,cucumber)")
        denom = math.exp(w_cut) + math.exp(w_slice)
        assert parse_probability(cut_form, tokens, lexicon) == pytest.approx(
            math.exp(w_cut) / denom, rel=1e-9)
        assert parse_probability(slice_form, tokens, lexicon) == pytest.approx(
            math.exp(w_slice) / denom, rel=1e-9)

    def test_unmatched_form_has_zero_probability(self, basic_lexicon):
        p = parse_probability(parse_term("moved(knife)"),
                              ["Knife", "Cut", "Cucumber"], basic_lexicon)
        assert p == 0.0

    @pytest.mark.parametrize("weight", [1e15, 1e16])
    def test_equal_weights_split_evenly_at_any_scale(self, weight):
        # log(2) added to a score of 1e15 rounds to 0.75 (p = 0.472 each)
        lexicon = Lexicon([
            LexEntry("Knife", parse_category("N"), parse_term("knife"), weight),
            LexEntry("Knife", parse_category("N"), parse_term("blade"), weight),
            noun("Cucumber"),
            LexEntry("Cut", ACTION, parse_term(r"\x.\y.cut(x,y)")),
        ])
        tokens = ["Knife", "Cut", "Cucumber"]
        shares = [parse_probability(parse_term(f"cut({name},cucumber)"),
                                    tokens, lexicon)
                  for name in ("knife", "blade")]
        assert shares == [0.5, 0.5]
        assert math.fsum(shares) == 1.0
        assert argmax_parse(tokens, lexicon).probability == 0.5

    def test_probabilities_normalize(self):
        lexicon = self.ambiguous_lexicon(0.7, -0.3)
        tokens = ["Knife", "Cut", "Cucumber"]
        derivations = parse_all(tokens, lexicon)
        forms = {canonical(d.semantics): d.semantics for d in derivations}
        total = sum(parse_probability(form, tokens, lexicon)
                    for form in forms.values())
        assert total == pytest.approx(1.0, abs=1e-9)


class TestArgmax:
    def test_higher_weight_wins(self):
        lexicon = TestScoring().ambiguous_lexicon(2.0, 0.0)
        result = argmax_parse(["Knife", "Cut", "Cucumber"], lexicon)
        assert result.logical_form == parse_term(
            "cut(knife,cucumber) -> divided(cucumber)")
        expected = math.exp(2.0) / (math.exp(2.0) + 1.0)
        assert result.probability == pytest.approx(expected, rel=1e-9)

    def test_tie_breaks_to_smallest_canonical_rendering(self):
        lexicon = Lexicon([
            noun("Knife"), noun("Cucumber"),
            LexEntry("Cut", ACTION, parse_term(r"\x.\y.zz_cut(x,y)")),
            LexEntry("Cut", ACTION, parse_term(r"\x.\y.aa_cut(x,y)")),
        ])
        result = argmax_parse(["Knife", "Cut", "Cucumber"], lexicon)
        assert result.logical_form == parse_term("aa_cut(knife,cucumber)")
        assert result.probability == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("w_zz,w_aa", [(1e-13, 0.0), (1e15, 1e15),
                                           (1e16, 1e16)])
    def test_tie_within_the_margin_goes_to_the_smallest_rendering(self, w_zz,
                                                                  w_aa):
        # shares within a factor of 1 + 1e-12 tie, at any scale
        result = argmax_parse(["Knife", "Cut", "Cucumber"],
                              self.two_senses(w_zz, w_aa))
        assert result.logical_form == parse_term("aa_cut(knife,cucumber)")
        assert result.probability == pytest.approx(0.5, abs=1e-12)

    def test_a_gap_of_1e_minus_9_is_no_tie(self):
        result = argmax_parse(["Knife", "Cut", "Cucumber"],
                              self.two_senses(1e-9, 0.0))
        assert result.logical_form == parse_term("zz_cut(knife,cucumber)")

    @staticmethod
    def two_senses(w_zz, w_aa):
        return Lexicon([
            noun("Knife"), noun("Cucumber"),
            LexEntry("Cut", ACTION, parse_term(r"\x.\y.zz_cut(x,y)"), w_zz),
            LexEntry("Cut", ACTION, parse_term(r"\x.\y.aa_cut(x,y)"), w_aa),
        ])

    def test_shift_invariance(self):
        lexicon = TestScoring().ambiguous_lexicon(0.6, -0.1)
        tokens = ["Knife", "Cut", "Cucumber"]
        base = argmax_parse(tokens, lexicon)
        shifted_weights = {e.key: e.weight + 7.5 for e in lexicon}
        shifted = argmax_parse(tokens, lexicon.with_weights(shifted_weights))
        assert canonical(base.logical_form) == canonical(shifted.logical_form)
        assert base.probability == pytest.approx(shifted.probability, rel=1e-9)

    def test_result_groups_all_supporting_derivations(self):
        lexicon = TestScoring().ambiguous_lexicon(1.0, 0.0)
        tokens = ["Knife", "Cut", "Cucumber"]
        result = argmax_parse(tokens, lexicon)
        derivations = parse_all(tokens, lexicon)
        assert len(derivations) == 2
        chosen = supporting(derivations, result.logical_form)
        assert len(chosen) == 1
        assert chosen[0].semantics == result.logical_form

    def test_deterministic_across_runs(self, quantifier_lexicon):
        tokens = ["Knife", "Cut", "every", "Tomato"]
        first = argmax_parse(tokens, quantifier_lexicon)
        second = argmax_parse(tokens, quantifier_lexicon)
        assert canonical(first.logical_form) == canonical(second.logical_form)
        assert first.probability == second.probability
