"""Categories, lexicon behavior, and the combination rules."""

import math
import warnings
from collections import Counter

import pytest

from actionccg import grammar, parse_term
from actionccg.chart import argmax_parse, parse_all
from actionccg.corpus import load_lexicon
from actionccg.errors import NonFiniteWeightError, SourceSyntaxError
from actionccg.grammar import (AP, GOAL_CATEGORY, N, NP, Atom, Backward,
                               Forward, LexEntry, Lexicon, apply_argument,
                               combine, parse_category, render_category,
                               unary_project)
from actionccg.syntax import MAX_DEPTH
from actionccg.terms import (And, App, Const, Exists, Lam, Pred, Var,
                             alpha_eq, beta_reduce, is_beta_normal, render)
from oracles import db_normal_form, db_subst_free, de_bruijn


class TestCategories:
    def test_action_category(self):
        assert parse_category(r"(AP\NP)/NP") == Forward(Backward(AP, NP), NP)

    def test_atom(self):
        assert parse_category("N") == Atom("N")

    def test_quantifier_category(self):
        assert parse_category(r"NP\NP") == Backward(NP, NP)

    def test_slashes_associate_left(self):
        assert parse_category(r"AP\NP/NP") == parse_category(r"(AP\NP)/NP")

    @pytest.mark.parametrize("text", [
        "N", "NP", "AP", r"AP\NP", r"(AP\NP)/NP", r"NP\NP", "NP/N",
        r"(AP\NP)/(AP\NP)", r"AP\(NP/N)",
    ])
    def test_render_parse_round_trip(self, text):
        cat = parse_category(text)
        assert parse_category(render_category(cat)) == cat

    def test_unknown_atom_rejected(self):
        with pytest.raises(SourceSyntaxError):
            parse_category("XP")

    def test_dangling_slash_rejected(self):
        with pytest.raises(SourceSyntaxError):
            parse_category("AP/")

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(SourceSyntaxError):
            parse_category(r"(AP\NP")

    def test_trailing_junk_rejected(self):
        with pytest.raises(SourceSyntaxError):
            parse_category("NP)")

    @pytest.mark.parametrize("text, message", [
        ("N PP", "trailing input 'PP' (at offset 2)"),
        ("NP_1", "unknown category atom 'NP_1' (at offset 0)"),
        ("XP @", "unexpected character '@' (at offset 3)"),
    ])
    def test_errors_name_whole_tokens(self, text, message):
        with pytest.raises(SourceSyntaxError) as err:
            parse_category(text)
        assert str(err.value) == message


# Categories nested ``depth`` levels deep, one for each way of nesting.
CATEGORY_NESTINGS = {
    "parentheses": lambda depth: "(" * (depth - 1) + "N" + ")" * (depth - 1),
    "slashes": lambda depth: "/".join(["N"] * depth),
    # a left chain whose first argument is deeply right-nested
    "mixed": lambda depth: ("N/(" * (depth // 2) + "N/N" + ")" * (depth // 2)
                            + "/N" * (depth - depth // 2 - 2)),
}


class TestCategoryDepth:
    @pytest.mark.parametrize("shape", sorted(CATEGORY_NESTINGS))
    def test_deepest_category_loads(self, shape, tmp_path):
        path = tmp_path / "deep.lex"
        path.write_text(f"Spoon := {CATEGORY_NESTINGS[shape](MAX_DEPTH)} "
                        f": spoon\n", encoding="utf-8")
        (entry,) = load_lexicon(path)
        # called from well inside the stack, as the chart calls them
        def nested(levels):
            if levels:
                return nested(levels - 1)
            return entry.key, render_category(entry.category), hash(entry)
        key, rendered, _ = nested(200)
        assert key == ("Spoon", rendered, "spoon")
        assert parse_category(rendered) == entry.category


class TestCombine:
    def test_forward_application_consumes_patient(self):
        cut = (parse_category(r"(AP\NP)/NP"),
               parse_term(r"\x.\y.cut(x,y) -> divided(y)"))
        made = combine(cut, (NP, parse_term("cucumber")))
        assert made is not None
        assert made[0] == Backward(AP, NP)
        assert alpha_eq(made[1],
                        parse_term(r"\x.cut(x,cucumber) -> divided(cucumber)"))

    def test_backward_application_consumes_subject(self):
        vp = (Backward(AP, NP),
              parse_term(r"\x.cut(x,cucumber) -> divided(cucumber)"))
        made = combine((NP, parse_term("knife")), vp)
        assert made is not None
        assert made[0] == AP
        assert made[1] == parse_term("cut(knife,cucumber) -> divided(cucumber)")

    def test_no_rule_for_two_noun_phrases(self):
        assert combine((NP, parse_term("knife")),
                       (NP, parse_term("cucumber"))) is None

    def test_backslash_function_also_takes_right_argument(self):
        every = (Backward(NP, NP), parse_term(r"\f.forall x.f(x)"))
        made = combine(every, (NP, parse_term("tomato")))
        assert made is not None
        assert made[0] == NP
        assert alpha_eq(made[1], parse_term("forall x.tomato(x)"))

    def test_at_most_one_rule_fires(self):
        # a category never equals its own argument, so the triggers are
        # disjoint; spot-check the ambiguous-looking quantifier pair
        left = (Backward(NP, NP), parse_term(r"\f.forall x.f(x)"))
        right = (Backward(NP, NP), parse_term(r"\g.exists y.g(y)"))
        made = combine(left, right)
        assert made is None

    def test_output_stays_beta_normal(self):
        cut = (parse_category(r"(AP\NP)/NP"),
               parse_term(r"\x.\y.cut(x,y) -> divided(y)"))
        step_one = combine(cut, (NP, parse_term("cucumber")))
        assert is_beta_normal(step_one[1])
        step_two = combine((NP, parse_term("knife")), step_one)
        assert is_beta_normal(step_two[1])
        assert step_two[0] == GOAL_CATEGORY

    def test_two_arguments_leave_no_binders(self):
        for text in [r"\x.\y.stirring(x,y)",
                     r"\x.\y.uncover(x,y) -> appear(y) & moved(x)"]:
            entry = (parse_category(r"(AP\NP)/NP"), parse_term(text))
            partial = combine(entry, (NP, parse_term("bucket")))
            full = combine((NP, parse_term("spoon")), partial)
            assert not isinstance(full[1], Lam)


class TestApplyArgument:
    def test_quantified_argument_is_hoisted(self):
        fun = parse_term(r"\x.\y.cut(x,y) -> divided(y)")
        arg = parse_term("forall x.tomato(x)")
        out = apply_argument(fun, arg)
        want = parse_term(r"forall z.\x.tomato(z) & cut(x,z) -> divided(z)")
        assert alpha_eq(out, want)

    def test_restrictor_conjoined_without_implication(self):
        fun = parse_term(r"\x.\y.stirring(x,y)")
        out = apply_argument(fun, parse_term("exists x.soup(x)"))
        assert alpha_eq(out, parse_term(r"exists z.\x.soup(z) & stirring(x,z)"))

    def test_quantified_function_applies_underneath(self):
        fun = parse_term(r"forall z.\x.tomato(z) & cut(x,z) -> divided(z)")
        out = apply_argument(fun, parse_term("knife"))
        want = parse_term("forall z.tomato(z) & cut(knife,z) -> divided(z)")
        assert alpha_eq(out, want)

    def test_inner_binder_receives_first(self):
        fun = parse_term(r"\x.\y.pushing(x,y) -> moved(y)")
        partial = apply_argument(fun, parse_term("box"))
        assert alpha_eq(partial, parse_term(r"\x.pushing(x,box) -> moved(box)"))
        assert apply_argument(partial, parse_term("hand")) == parse_term(
            "pushing(hand,box) -> moved(box)")

    def test_single_binder_plain_application(self):
        out = apply_argument(parse_term(r"\x.moved(x)"), parse_term("box"))
        assert out == parse_term("moved(box)")

    # built, not parsed: the parser reads a functor that a lambda binds
    # as an application spine, and never makes a bound ``Pred`` functor
    def test_pending_binder_does_not_capture_an_argument_functor(self):
        fun = Lam("f", Lam("y", Pred("p", (Var("f"), Var("y")))))
        arg = Pred("f", (Const("a"),))
        out = apply_argument(apply_argument(fun, arg), Const("b"))
        assert out == Pred("p", (Const("b"), arg))
        # apply_argument feeds the inner binder first
        swapped = App(App(Lam("y", Lam("f", fun.body.body)), arg), Const("b"))
        assert de_bruijn(out) == db_normal_form(de_bruijn(swapped))

    def test_a_constant_put_in_functor_position_is_not_bound_by_a_pending_binder(self):
        # parsed: ``f`` is a bound functor, so an application spine
        fun = parse_term(r"\c.\f.f(c)")
        partial = apply_argument(fun, Const("c"))
        assert partial == Lam("c", Pred("c", (Var("c"),)))
        assert render(partial) == r"\c1.c(c1)"
        out = apply_argument(partial, Const("d"))
        assert out == Pred("c", (Const("d"),))
        # the inner binder is fed first, so ``f`` is free in what is left
        rest = Lam("c", fun.body.body)
        assert de_bruijn(out) == db_normal_form(
            ("app", db_subst_free(de_bruijn(rest), "f", ("const", "c")),
             ("const", "d")))

    def test_a_constant_argument_renames_no_binder_it_cannot_meet(self):
        fun = Lam("c", Lam("f", Pred("p", (Var("f"), Var("c")))))
        assert apply_argument(fun, Const("c")) == Lam(
            "c", Pred("p", (Const("c"), Var("c"))))

    def test_hoisted_quantifier_names_itself_apart_from_variables_only(self):
        # built: a restrictor functor ``x1`` is a constant, which no binder
        # binds, so the quantifier's name does not depend on it
        def hoist(functor):
            arg = Exists("x", And(Pred("soup", (Var("x"),)),
                                  Pred(functor, (Const("pan"),))))
            return apply_argument(parse_term(r"\y.stirring(y)"), arg)

        out = hoist("x1")
        assert out.var == hoist("kept").var == "x1"
        assert de_bruijn(parse_term(render(out))) == de_bruijn(out)
        # an outer binder of the functor's name leaves it as it is
        assert beta_reduce(App(Lam("x1", out), Const("pot"))) == out


class TestLexicon:
    def entry(self, token, cat, sem, weight=0.0):
        return LexEntry(token, parse_category(cat), parse_term(sem), weight)

    def test_duplicate_merge_keeps_higher_weight(self):
        a = self.entry("Cut", r"(AP\NP)/NP", r"\x.\y.cut(x,y)", 0.5)
        b = self.entry("Cut", r"(AP\NP)/NP", r"\u.\v.cut(u,v)", 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lex = Lexicon([a]).with_entries([b])
        assert len(lex) == 1
        assert list(lex)[0].weight == 1.5

    def test_distinct_semantics_both_kept(self):
        a = self.entry("Cut", r"(AP\NP)/NP", r"\x.\y.cut(x,y)")
        b = self.entry("Cut", r"(AP\NP)/NP", r"\x.\y.slice(x,y)")
        lex = Lexicon([a]).with_entries([b])
        assert len(lex.lookup("Cut")) == 2

    def test_lookup_finds_every_casing(self):
        # an induced action entry ``Knife`` hides no noun entry ``knife``
        noun = self.entry("knife", "N", "knife")
        action = self.entry("Knife", r"(AP\NP)/NP", r"\x.\y.knife(x,y)")
        lex = Lexicon([noun, self.entry("carrot", "N", "carrot"),
                       self.entry("cut", r"(AP\NP)/NP", r"\x.\y.cut(x,y)"),
                       action])
        assert lex.lookup("Knife") == lex.lookup("knife") == (noun, action)
        assert lex.lookup("KNIFE") == (noun, action)

        def forms(tokens):
            return [str(d.semantics) for d in parse_all(tokens, lex)]

        assert forms(["Knife", "cut", "carrot"]) == forms(["knife", "cut", "carrot"])
        assert forms(["Knife", "cut", "carrot"])

    def test_lookup_falls_back_case_insensitively(self):
        lex = Lexicon([self.entry("Chopping", r"(AP\NP)/NP",
                                  r"\x.\y.chopping(x,y)")])
        assert lex.lookup("chopping")[0].token == "Chopping"
        assert lex.lookup("CHOPPING")[0].token == "Chopping"
        assert lex.lookup("missing") == ()
        assert lex.has_token("CHOPPING") and not lex.has_token("missing")

    def test_with_weights_reweights_by_key(self):
        entry = self.entry("Knife", "N", "knife")
        lex = Lexicon([entry]).with_weights({entry.key: 2.25})
        assert list(lex)[0].weight == 2.25
        assert lex.weight_of(entry.key) == 2.25

    @pytest.mark.parametrize("weight", [float("inf"), float("-inf"),
                                        float("nan")])
    def test_with_weights_rejects_non_finite(self, weight):
        entry = self.entry("Knife", "N", "knife")
        with pytest.raises(NonFiniteWeightError, match="Knife"):
            Lexicon([entry]).with_weights({entry.key: weight})

    @pytest.mark.parametrize("weight", [float("inf"), float("-inf"),
                                        float("nan")])
    def test_entry_rejects_non_finite_weight(self, weight):
        # building the entry is the error, so no parse meets the weight (a
        # NaN one once made argmax_parse fail with a bare KeyError)
        with pytest.raises(NonFiniteWeightError) as err:
            argmax_parse(["A"], Lexicon([LexEntry("A", AP, Const("a"), weight)]))
        assert str(err.value) == f"non-finite weight {weight!r} for A := AP : 'a"

    def test_duplicate_key_parses_once_at_the_higher_weight(self):
        lex = Lexicon([self.entry("A", "AP", "moved(box)", w) for w in (1.0, 2.0)])
        derivations = parse_all(["A"], lex)
        assert len(derivations) == 1
        assert derivations[0].score(lex) == 2.0
        assert argmax_parse(["A"], lex).probability == 1.0

    def test_merge_keeps_the_first_entry_and_its_place(self):
        first = self.entry("Cut", r"(AP\NP)/NP", r"\x.\y.cut(x,y)", 0.5)
        bowl = self.entry("Bowl", "N", "bowl")
        renamed = self.entry("Cut", r"(AP\NP)/NP", r"\u.\v.cut(u,v)", 1.5)
        lex = Lexicon([first, bowl, renamed])
        assert [(e.token, e.semantics, e.weight) for e in lex] == [
            ("Cut", first.semantics, 1.5), ("Bowl", bowl.semantics, 0.0)]
        assert lex.weight_of(first.key) == 1.5

    def test_key_is_computed_once_per_entry(self):
        entry = self.entry("Knife", "N", "knife")
        assert entry.key is entry.key
        assert entry.key == ("Knife", "N", "knife")

    @pytest.fixture
    def renders(self, monkeypatch):
        """Counts of the renderings ``grammar`` asks for, by function."""
        counts = Counter()
        for name in ("canonical", "render_category"):
            def counting(value, _name=name, _original=getattr(grammar, name)):
                counts[_name] += 1
                return _original(value)
            monkeypatch.setattr(grammar, name, counting)
        return counts

    def test_reweighting_renders_nothing_and_keeps_each_key(self, renders):
        entries = [self.entry("Cut", r"(AP\NP)/NP",
                              r"\x.\y.cut(x,y) -> divided(y)"),
                   self.entry("Knife", "N", "knife", 0.5),
                   LexEntry("Ex", N, Const("x"), -1.0)]
        assert renders["canonical"] == len(entries)  # built under the count
        renders.clear()
        lex = Lexicon(entries).with_weights({e.key: 3.0 for e in entries})
        assert not renders
        for old, new in zip(entries, lex):
            fresh = LexEntry(old.token, old.category, old.semantics, 3.0)
            assert new == fresh and new.key == fresh.key == old.key

    def test_higher_weight_merge_renders_nothing(self, renders):
        low = self.entry("Cut", r"(AP\NP)/NP", r"\x.\y.cut(x,y)", 0.5)
        high = self.entry("Cut", r"(AP\NP)/NP", r"\u.\v.cut(u,v)", 1.5)
        renders.clear()
        (merged,) = Lexicon([low, high])
        assert not renders
        fresh = LexEntry(low.token, low.category, low.semantics, 1.5)
        assert merged == fresh and merged.key == fresh.key

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_reweighting_to_non_finite_keeps_the_message(self, weight):
        entry = LexEntry("A", AP, Const("a"))
        with pytest.raises(NonFiniteWeightError) as err:
            Lexicon([entry]).with_weights({entry.key: weight})
        assert str(err.value) == f"non-finite weight {weight!r} for A := AP : 'a"

    def test_reweighting_keeps_a_negative_zero(self):
        entry = self.entry("Knife", "N", "knife", 1.0)
        (reweighted,) = Lexicon([entry]).with_weights({entry.key: -0.0})
        assert math.copysign(1.0, reweighted.weight) == -1.0

    def test_entries_are_immutable_snapshots(self):
        entry = self.entry("Knife", "N", "knife")
        lex = Lexicon([entry])
        bigger = lex.with_entries([self.entry("Bowl", "N", "bowl")])
        assert len(lex) == 1 and len(bigger) == 2


class TestUnaryProject:
    def test_noun_promotes(self):
        assert unary_project(N, parse_term("knife")) == (NP, parse_term("knife"))

    def test_object_token_promotes(self):
        made = unary_project(N, parse_term("object_014"))
        assert made == (NP, parse_term("object_014"))

    def test_nothing_else_promotes(self):
        assert unary_project(AP, parse_term("moved(box)")) is None
        assert unary_project(NP, parse_term("knife")) is None
        assert unary_project(Backward(AP, NP), parse_term(r"\x.moved(x)")) is None
