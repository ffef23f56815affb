"""Unit tests for the term layer: substitution, reduction, equality."""

import typing

import pytest

from actionccg import parse_term
from actionccg.errors import ConstantFunctionWarning, NonTerminationError
from actionccg.terms import (And, App, Binder, Const, Implies, Lam, Pred,
                             Term, Var, alpha_eq, beta_reduce, canonical,
                             free_vars, fresh_name, inverse_lambda,
                             is_beta_normal, render, rename_constants,
                             substitute)
from oracles import db_alpha_eq, db_subst_free, to_debruijn


def t(text):
    return parse_term(text)


class TestFreeVars:
    def test_bound_variable_eliminated(self):
        assert free_vars(t(r"\x.cut(x,cucumber)")) == frozenset()

    def test_single_free_variable(self):
        assert free_vars(t("cut(knife,y)")) == frozenset({"y"})

    def test_quantifier_binds(self):
        form = t("forall x. tomato(x) & cut(knife,x) -> divided(x)")
        assert free_vars(form) == frozenset()

    def test_predicate_functor_is_not_a_variable(self):
        # the functor of an unbound name(args) is a constant head
        assert free_vars(t("f(a_thing)")) == frozenset()
        assert free_vars(Pred("f", (Var("x"),))) == frozenset({"x"})


class TestSubstitute:
    def test_plain_replacement(self):
        out = substitute(t("cut(x,y)"), "x", Const("knife"))
        assert out == t("cut(knife,y)")

    def test_capture_forces_rename(self):
        out = substitute(t(r"\x.f(x,y)"), "y", Var("x"))
        assert isinstance(out, Lam)
        assert out.param != "x"
        assert alpha_eq(out, Lam("w", Pred("f", (Var("w"), Var("x")))))

    def test_hand_step_of_the_cut_derivation(self):
        before = t(r"\y.cut(x,y) -> divided(y)")
        out = substitute(before, "x", Const("knife"))
        assert out == t(r"\y.cut(knife,y) -> divided(y)")

    def test_shadowed_variable_untouched(self):
        out = substitute(t(r"\x.p(x)"), "x", Const("a_const"))
        assert out == t(r"\x.p(x)")

    @pytest.mark.parametrize("source,var,rep", [
        (r"\x.f(x,y)", "y", "x"),
        (r"\y.cut(x,y) -> divided(y)", "x", "knife"),
        ("p(x) & (forall x.q(x,z))", "z", "x"),
        (r"(\x.g(x)) (h(x))", "x", r"\z.z"),
    ])
    def test_matches_de_bruijn_oracle(self, source, var, rep):
        term = t(source)
        replacement = t(rep)
        got = to_debruijn(substitute(term, var, replacement))
        want = db_subst_free(to_debruijn(term), var, to_debruijn(replacement))
        assert got == want

    def test_pred_head_rewrite_atomic(self):
        out = substitute(Pred("f", (Var("x"),)), "f", Const("tomato"))
        assert out == Pred("tomato", (Var("x"),))

    def test_pred_head_rewrite_unfolds_lambda(self):
        out = substitute(Pred("f", (Const("knife"),)), "f", t(r"\z.moved(z)"))
        assert beta_reduce(out) == t("moved(knife)")


class TestBetaReduce:
    def test_two_argument_application(self):
        redex = t(r"(\x.\y.(cut(x,y) -> divided(y))) knife cucumber")
        assert beta_reduce(redex) == t("cut(knife,cucumber) -> divided(cucumber)")

    def test_identity(self):
        assert beta_reduce(t(r"(\x.x) knife")) == Const("knife")

    def test_functor_substitution_under_quantifier(self):
        redex = t(r"(\f.forall x.f(x)) (\z.tomato(z))")
        assert beta_reduce(redex) == t("forall x.tomato(x)")

    def test_result_is_normal(self):
        out = beta_reduce(t(r"(\x.\y.cut(x,y)) knife cucumber"))
        assert is_beta_normal(out)

    def test_divergent_term_hits_budget(self):
        omega = t(r"(\x.x(x)) (\x.x(x))")
        with pytest.raises(NonTerminationError):
            beta_reduce(omega, budget=50)

    def test_budget_counts_steps_not_depth(self):
        # 3 redexes, budget 3 suffices
        out = beta_reduce(t(r"(\x.x) ((\y.y) ((\z.z) knife))"), budget=3)
        assert out == Const("knife")


class TestAlphaEq:
    def test_renamed_binder(self):
        assert alpha_eq(t(r"\x.cut(x,c)"), t(r"\y.cut(y,c)"))

    def test_swapped_arguments_differ(self):
        assert not alpha_eq(t(r"\x.\y.cut(x,y)"), t(r"\x.\y.cut(y,x)"))

    def test_learned_entry_against_annotation_shape(self):
        learned = t(r"\x.\y.chopping(x,y) -> divided(y)")
        renamed = t(r"\a.\b.chopping(a,b) -> divided(b)")
        assert alpha_eq(learned, renamed)

    def test_free_variables_compare_by_name(self):
        assert not alpha_eq(Var("x"), Var("y"))
        assert alpha_eq(Var("x"), Var("x"))

    def test_agrees_with_de_bruijn_encoding(self):
        pairs = [
            (r"\x.cut(x,c)", r"\y.cut(y,c)"),
            (r"\x.\y.cut(x,y)", r"\x.\y.cut(y,x)"),
            ("forall x.p(x) & q(y)", "forall z.p(z) & q(y)"),
            ("forall x.p(x)", "exists x.p(x)"),
        ]
        for left, right in pairs:
            assert alpha_eq(t(left), t(right)) == db_alpha_eq(t(left), t(right))


class TestCanonical:
    def test_equal_iff_alpha_equivalent(self):
        a = t(r"\x.\y.hiding(x,y) -> contained(x,y)")
        b = t(r"\u.\v.hiding(u,v) -> contained(u,v)")
        c = t(r"\u.\v.hiding(v,u) -> contained(u,v)")
        assert canonical(a) == canonical(b)
        assert canonical(a) != canonical(c)

    def test_binders_numbered_in_order(self):
        assert canonical(t(r"\x.\y.cut(x,y)")) == r"\^0.\^1.cut(^0,^1)"

    def test_renumbered_names_never_meet_a_constant(self):
        # with ``_0`` as the renumbered name both read forall _0.p(_0)
        assert canonical(t("forall x.p(_0)")) != canonical(t("forall x.p(x)"))

    def test_free_names_survive(self):
        assert canonical(t("cut(knife,y)")) == "cut(knife,y)"

    @pytest.mark.parametrize("name", ["x", "z42", "knife"])
    def test_constant_and_variable_of_one_name_differ(self, name):
        # only code builds a constant the shape rule reads as a variable,
        # or a free variable it reads as a constant
        for const, var in [(Const(name), Var(name)),
                           (Pred("p", (Const(name),)), Pred("p", (Var(name),))),
                           (Lam("w", Const(name)), Lam("w", Var(name)))]:
            assert canonical(const) != canonical(var)
            assert alpha_eq(const, var) == db_alpha_eq(const, var) is False

    def test_a_variable_named_like_the_argument_is_not_abstracted(self):
        result = Lam("knife", Pred("p", (Var("knife"), Const("knife"))))
        fun = inverse_lambda(result, Const("knife"))
        assert fun == Lam("v", Lam("knife", Pred("p", (Var("knife"), Var("v")))))


class TestInverseLambda:
    def test_abstracts_every_occurrence(self):
        result = t("cut(knife,cucumber) -> divided(cucumber)")
        fun = inverse_lambda(result, Const("cucumber"))
        assert alpha_eq(fun, t(r"\v.cut(knife,v) -> divided(v)"))

    def test_identity_case(self):
        fun = inverse_lambda(Const("knife"), Const("knife"))
        assert alpha_eq(fun, t(r"\v.v"))

    def test_absent_argument_warns_constant_function(self):
        with pytest.warns(ConstantFunctionWarning):
            fun = inverse_lambda(t("moved(box)"), Const("hand"))
        assert alpha_eq(fun, t(r"\v.moved(box)"))

    def test_round_trip_contract(self):
        result = t("take_down(cup,bucket) -> !connected(cup,bucket) & moved(cup)")
        fun = inverse_lambda(result, Const("bucket"))
        assert alpha_eq(beta_reduce(App(fun, Const("bucket"))), result)

    def test_compound_argument(self):
        result = t("on_top(cup,bowl) & moved(cup)")
        fun = inverse_lambda(result, t("moved(cup)"))
        assert alpha_eq(fun, t(r"\v.on_top(cup,bowl) & v"))

    def test_skips_occurrences_with_captured_variables(self):
        # p(x) under the quantifier is a different x; only the free one matches
        result = t("(forall x.p(x)) & p(x)")
        fun = inverse_lambda(result, t("p(x)"))
        assert alpha_eq(fun, t(r"\v.(forall x.p(x)) & v"))
        assert alpha_eq(beta_reduce(App(fun, t("p(x)"))), result)


class TestHelpers:
    def test_fresh_name_counts_from_the_base(self):
        assert fresh_name("x", {"y"}) == "x"
        assert fresh_name("x", {"x"}) == "x1"
        assert fresh_name("x", {"x", "x1", "x2"}) == "x3"

    def test_replace_constant(self):
        out = rename_constants(t("cut(knife,cucumber) -> divided(cucumber)"),
                               {"cucumber": "tomato"})
        assert out == t("cut(knife,tomato) -> divided(tomato)")

    def test_replace_constant_leaves_variables_alone(self):
        out = rename_constants(t(r"\x.cut(x,ball)"), {"x": "hand", "cut": "hand"})
        assert out == t(r"\x.cut(x,ball)")

    def test_rename_constants_swaps_in_one_pass(self):
        out = rename_constants(t("hiding(cup,ball) -> contained(cup,ball)"),
                               {"cup": "ball", "ball": "cup"})
        assert out == t("hiding(ball,cup) -> contained(ball,cup)")

    def test_render_str_shortcut(self):
        form = Implies(And(Pred("p", (Const("a_c"),)), Const("b_c")), Const("c_c"))
        assert str(form) == render(form) == "p(a_c) & b_c -> c_c"

    def test_free_variable_head_is_juxtaposed(self):
        # f(knife) would read back as the predication below
        spine = App(Var("f"), Const("knife"))
        pred = Pred("f", (Const("knife"),))
        assert not alpha_eq(spine, pred)
        assert canonical(spine) != canonical(pred)
        assert render(spine) == "f knife"
        assert parse_term(render(spine)) == spine

    def test_constant_head_is_juxtaposed(self):
        spine = App(App(Const("cut"), Const("knife")), Const("cucumber"))
        assert canonical(spine) != canonical(t("cut(knife,cucumber)"))
        assert parse_term(render(spine)) == spine

    @pytest.mark.parametrize("fun", [Var("f"), t(r"(\x.\y.x) knife")])
    def test_parenthesized_argument_is_not_read_as_a_call(self, fun):
        spine = App(fun, t("!moved(box)"))
        assert parse_term(render(spine)) == spine

    def test_bound_variable_head_keeps_call_syntax(self):
        form = t(r"\f.f(knife,cucumber)")
        assert isinstance(form.body, App)
        assert render(form) == r"\f.f(knife,cucumber)"


def concrete_term_classes():
    """Every class below ``Term`` that has no subclass of its own."""
    found, todo = [], [Term]
    while todo:
        cls = todo.pop()
        subclasses = cls.__subclasses__()
        todo.extend(subclasses)
        if not subclasses:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def field_types(cls):
    """The annotated type of each field, from the ``__init__`` parameters,
    which are the fields in order."""
    hints = typing.get_type_hints(cls.__init__)
    assert list(hints) == list(cls._fields)
    return [hints[name] for name in cls._fields]


def field_values(node):
    return [getattr(node, name) for name in node._fields]


def sample_node(cls):
    """An instance of ``cls`` with a distinct value in every field."""
    values = []
    for i, hint in enumerate(field_types(cls)):
        if hint is str:
            values.append(f"n{i}")
        elif hint is Term:
            values.append(Const(f"kid{i}"))
        else:
            values.append((Const(f"kid{i}a"), Const(f"kid{i}b")))
    return cls(*values)


class TestNodeShape:
    """``kids``/``remake`` must follow the fields of every node class."""

    def test_every_node_class_is_found(self):
        names = {cls.__name__ for cls in concrete_term_classes()}
        assert {"Var", "Const", "Pred", "Lam", "App", "And", "Or", "Not",
                "Implies", "Forall", "Exists"} <= names

    @pytest.mark.parametrize("cls", concrete_term_classes(),
                             ids=lambda cls: cls.__name__)
    def test_kids_are_the_term_fields_in_order(self, cls):
        node = sample_node(cls)
        values = field_values(node)
        kids = []
        for value in values:
            if isinstance(value, Term):
                kids.append(value)
            elif isinstance(value, tuple):
                kids.extend(value)
        assert node.kids() == tuple(kids)
        assert node.remake(node.kids()) == node
        fresh = tuple(Const(f"new{i}") for i in range(len(kids)))
        remade = node.remake(fresh)
        assert type(remade) is cls and remade.kids() == fresh
        names = [value for value in values if isinstance(value, str)]
        assert names == [value for value in field_values(remade)
                         if isinstance(value, str)]

    @pytest.mark.parametrize("cls", concrete_term_classes(),
                             ids=lambda cls: cls.__name__)
    def test_a_name_over_one_subterm_is_a_binder(self, cls):
        node = sample_node(cls)
        assert isinstance(node, Binder) == (field_types(cls) == [str, Term])
        if isinstance(node, Binder):
            assert node.binds == field_values(node)[0]
            renamed = node.rebind("w", Const("other"))
            assert type(renamed) is cls and renamed.binds == "w"
            assert renamed.kids() == (Const("other"),)
