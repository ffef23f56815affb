"""Unit tests for the term layer: substitution, reduction, equality."""

import copy
import inspect
import random

import pytest

from actionccg import grammar, parse_term, terms
from actionccg.errors import ConstantFunctionWarning, NonTerminationError
from actionccg.terms import (And, App, Binder, Const, Exists, Forall,
                             Implies, Lam, Not, Or, Pred, Term, Var,
                             alpha_eq, beta_reduce, canonical,
                             free_vars, fresh_name, inverse_lambda,
                             is_beta_normal, render, rename_constants,
                             substitute)
from oracles import (OracleBudgetError, db_alpha_eq, db_normal_form,
                     db_subst_free, de_bruijn)


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
        got = de_bruijn(substitute(term, var, replacement))
        want = db_subst_free(de_bruijn(term), var, de_bruijn(replacement))
        assert got == want

    @pytest.mark.parametrize("rep", [Const("tomato"), t(r"\z.moved(z)")])
    def test_a_functor_is_a_constant_and_is_never_substituted(self, rep):
        term = Pred("f", (Const("knife"),))
        out = substitute(term, "f", rep)
        assert out == term
        assert de_bruijn(out) == db_subst_free(de_bruijn(term), "f",
                                               de_bruijn(rep))

    def test_a_binder_named_like_a_functor_of_the_replacement_stays(self):
        # the replacement's functor ``x`` is a constant: the binder ``x``
        # cannot capture it, so it keeps its name
        term = Forall("x", Pred("p", (Var("x"), Var("f"))))
        rep = Pred("x", (Const("a_const"),))
        out = substitute(term, "f", rep)
        assert out == Forall("x", Pred("p", (Var("x"), rep)))
        assert de_bruijn(out) == db_subst_free(de_bruijn(term), "f",
                                               de_bruijn(rep))


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


def random_term(rng, env, depth):
    """A seeded random term over the bound names ``env`` and the free
    variables ``y`` and ``z``; applications may be redexes, and a bound
    name may meet a free one of the same name."""
    kinds = ["var", "const", "pred"]
    if depth > 0:
        kinds += ["lam", "forall", "exists", "and", "or", "implies", "not",
                  "app", "app"]
    kind = rng.choice(kinds)
    sub = depth - 1
    if kind == "var":
        return Var(rng.choice(env + ("y", "z")))
    if kind == "const":
        return Const(rng.choice(("knife", "bowl")))
    if kind == "pred":
        return Pred(rng.choice(("cut_rel", "moved_rel")),
                    tuple(random_term(rng, env, max(sub, 0))
                          for _ in range(rng.randint(1, 2))))
    if kind in ("lam", "forall", "exists"):
        name = rng.choice(("x", "y", "z"))
        ctor = {"lam": Lam, "forall": Forall, "exists": Exists}[kind]
        return ctor(name, random_term(rng, env + (name,), sub))
    if kind == "not":
        return Not(random_term(rng, env, sub))
    if kind == "app":
        head = rng.choice(("leaf", "const", "lam"))
        if head == "lam":
            name = rng.choice(("x", "y", "z"))
            head = Lam(name, random_term(rng, env + (name,), sub))
        else:
            head = random_term(rng, env, 0) if head == "leaf" else Const("cut_rel")
        return App(head, random_term(rng, env, sub))
    ctor = {"and": And, "or": Or, "implies": Implies}[kind]
    return ctor(random_term(rng, env, sub), random_term(rng, env, sub))


def outcome(reduce, *args):
    """The normal form, or the NonTerminationError's type and text."""
    try:
        return reduce(*args)
    except NonTerminationError as err:
        return type(err), str(err)


def stepwise(term, budget):
    """``beta_reduce`` without its one-walk root application: one ``_step``
    at a time, ``budget`` steps at most."""
    steps = 0
    while True:
        term, stepped = terms._step(term)
        if not stepped:
            return term
        steps += 1
        if steps > budget:
            raise NonTerminationError(f"no normal form within {budget} steps")


def oracle_apply(fun, arg):
    """Normal form of ``fun`` applied to ``arg``, in de Bruijn form: the
    oracle's own substitution into the body, then its own reducer."""
    body = db_subst_free(de_bruijn(fun.body), fun.param, de_bruijn(arg))
    return db_normal_form(body, budget=800)


class TestRootApplication:
    """``beta_reduce`` of a lambda applied at the root, which substitutes in
    one walk, against the step-by-step reducer and the de Bruijn oracle."""

    def agrees(self, fun, arg, budget=terms.DEFAULT_STEP_BUDGET):
        got = outcome(beta_reduce, App(fun, arg), budget)
        assert got == outcome(stepwise, App(fun, arg), budget)
        return got

    def test_random_terms_agree_with_beta_reduce_and_the_oracle(self):
        rng = random.Random(24)
        seen = {"non-normal function": 0, "non-normal argument": 0,
                "diverged": 0, "checked against the oracle": 0}
        for _ in range(3000):
            name = rng.choice(("x", "y", "z"))
            fun = Lam(name, random_term(rng, (name,), 3))
            arg = random_term(rng, (), 2)
            seen["non-normal function"] += not is_beta_normal(fun)
            seen["non-normal argument"] += not is_beta_normal(arg)
            got = self.agrees(fun, arg, rng.choice((0, 1, 2, 3, 400)))
            if isinstance(got, tuple):
                seen["diverged"] += 1
                continue
            try:
                oracle = oracle_apply(fun, arg)
            except OracleBudgetError:
                continue
            assert de_bruijn(got) == oracle
            seen["checked against the oracle"] += 1
        assert min(seen.values()) > 100, seen

    @pytest.mark.parametrize("fun, arg", [
        (r"\x.\y.cut(x,y)", "y"),
        (r"\x.forall y.cut(x,y)", "moved(y)"),
        (r"\x.\y.(\z.cut(z,y)) x", "y"),
        (r"\x.exists y.x & cut(y,y1)", r"(\z.moved(z)) y"),
    ])
    def test_binder_capture_renames_as_stepwise_does(self, fun, arg):
        fun, arg = t(fun), t(arg)
        got = self.agrees(fun, arg)
        assert de_bruijn(got) == oracle_apply(fun, arg)
        assert "y" in free_vars(got)

    @pytest.mark.parametrize("arg, want", [
        (r"\z.tomato(z)", "forall x.tomato(x)"),
        ("tomato", "forall x.tomato(x)"),
        (r"\z.on_top(z,x)", "forall x1.on_top(x1,x)"),
        (r"\z.\w.on_top(z,w)", r"forall x.\w.on_top(x,w)"),
    ])
    def test_functor_substitution(self, arg, want):
        fun, arg = t(r"\f.forall x.f(x)"), t(arg)
        got = self.agrees(fun, arg)
        assert got == t(want)
        assert de_bruijn(got) == oracle_apply(fun, arg)

    @pytest.mark.parametrize("arg", [r"\z.tomato(z)", "tomato",
                                     r"\z.on_top(z,x)", r"\z.\w.on_top(z,w)"])
    def test_a_built_functor_named_like_the_binder_is_a_constant(self, arg):
        # built, not parsed: the parser reads a bound functor as a spine
        fun, arg = Lam("f", Forall("x", Pred("f", (Var("x"),)))), t(arg)
        got = self.agrees(fun, arg)
        assert got == fun.body
        assert de_bruijn(got) == oracle_apply(fun, arg)

    def test_a_binder_named_like_an_argument_functor_keeps_its_name(self):
        # built, not parsed: the argument's functor ``y`` is a constant,
        # which the binder ``y`` cannot capture
        fun, arg = Lam("x", Lam("y", Var("x"))), Pred("y", (Const("pan"),))
        got = self.agrees(fun, arg)
        assert got == Lam("y", arg)
        assert de_bruijn(parse_term(render(got))) == de_bruijn(got)
        applied = beta_reduce(App(got, Const("c")))
        assert applied == arg
        assert de_bruijn(applied) == db_normal_form(
            ("app", oracle_apply(fun, arg), ("const", "c")))

    def test_a_constant_put_in_functor_position_is_never_bound(self):
        # ``knife`` fills ``f``; the binder ``knife`` still takes ``bowl``
        fun = t(r"\f.\knife.f(knife)")
        got = self.agrees(fun, Const("knife"))
        assert got == Lam("knife", Pred("knife", (Var("knife"),)))
        assert render(got) == r"\knife1.knife(knife1)"
        applied = beta_reduce(App(got, Const("bowl")))
        assert applied == t("knife(bowl)")
        assert de_bruijn(applied) == db_normal_form(
            ("app", oracle_apply(fun, Const("knife")), ("const", "bowl")))

    @pytest.mark.parametrize("budget", [0, 1, 50, terms.DEFAULT_STEP_BUDGET])
    def test_self_application_raises_as_stepwise_does(self, budget):
        omega = t(r"\x.x(x)")
        with pytest.raises(NonTerminationError,
                           match=f"^no normal form within {budget} steps$"):
            beta_reduce(App(omega, omega), budget)
        self.agrees(omega, omega, budget)

    def test_step_boundary_is_that_of_stepwise(self):
        # the application and two redexes in the argument: three steps
        fun, arg = t(r"\x.moved(x)"), t(r"(\y.y) ((\z.z) knife)")
        for budget in range(5):
            self.agrees(fun, arg, budget)
        assert beta_reduce(App(fun, arg), 3) == t("moved(knife)")
        with pytest.raises(NonTerminationError):
            beta_reduce(App(fun, arg), 2)

    def test_first_order_action_entry_takes_no_reduction_step(
            self, basic_lexicon, monkeypatch):
        steps = []
        original = terms._step

        def counting(term):
            steps.append(term)
            return original(term)

        monkeypatch.setattr(terms, "_step", counting)
        (cut,) = basic_lexicon.lookup("Cut")
        once = grammar.apply_argument(cut.semantics, Const("cucumber"))
        twice = grammar.apply_argument(once, Const("knife"))
        assert twice == t("cut(knife,cucumber) -> divided(cucumber)")
        assert steps == []


class TestAlphaEq:
    def test_renamed_binder(self):
        assert alpha_eq(t(r"\x.cut(x,c)"), t(r"\y.cut(y,c)"))

    def test_swapped_arguments_differ(self):
        assert not alpha_eq(t(r"\x.\y.cut(x,y)"), t(r"\x.\y.cut(y,x)"))

    def test_learned_entry_against_annotation_shape(self):
        learned = t(r"\x.\y.chopping(x,y) -> divided(y)")
        renamed = t(r"\a.\b.chopping(a,b) -> divided(b)")
        assert alpha_eq(learned, renamed)

    def test_alpha_equivalent_functions_reduce_alike(self):
        # a functor is a constant, so renaming the binder renames nothing
        a = Lam("f", Pred("f", (Const("a"),)))
        b = Lam("g", Pred("f", (Const("a"),)))
        assert alpha_eq(a, b)
        for fun in (a, b):
            assert beta_reduce(App(fun, Const("c"))) == Pred("f", (Const("a"),))

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


def equality_pairs():
    """``(a, b, a == b, alpha-equivalent)``: equal values as distinct
    objects, renamed binders, and a variable against a constant."""
    for source in [r"\x.\y.cut(x,y) -> divided(y)", "forall x.p(x) & q(y)",
                   r"\f.forall x.f(x)", r"(\x.x) knife",
                   "!on_top(cup,bowl) | (exists z.in(z,bowl))"]:
        term = t(source)
        yield term, t(render(term)), True, True
        yield term, copy.deepcopy(term), True, True
    for left, right in [(r"\x.cut(x,c)", r"\y.cut(y,c)"),
                        ("forall x.p(x) & q(y)", "forall z.p(z) & q(y)")]:
        yield t(left), t(right), False, True
    yield Pred("p", (Var("x"),)), Pred("p", (Const("x"),)), False, False


class TestEqualityShortcuts:
    @pytest.fixture
    def renders(self, monkeypatch):
        calls = []
        original = terms.canonical

        def counting(term):
            calls.append(term)
            return original(term)

        monkeypatch.setattr(terms, "canonical", counting)
        return calls

    @pytest.mark.parametrize("a, b, same_value, alpha", list(equality_pairs()))
    def test_agrees_with_the_oracle_and_renders_only_unequal_values(
            self, a, b, same_value, alpha, renders):
        assert a is not b and (a == b) is same_value
        assert alpha_eq(a, b) is db_alpha_eq(a, b) is alpha
        assert len(renders) == (0 if same_value else 2)

    def test_constant_argument_matches_only_constant_leaves(self):
        # ``p`` is the argument, a predicate name and a bound variable
        result = Exists("p", And(Pred("p", (Var("p"), Const("p"))),
                                 Pred("q", (Const("p"),))))
        fun = inverse_lambda(result, Const("p"))
        assert fun == Lam("v", Exists("p", And(Pred("p", (Var("p"), Var("v"))),
                                               Pred("q", (Var("v"),)))))
        back = beta_reduce(App(fun, Const("p")))
        assert alpha_eq(back, result) and db_alpha_eq(back, result)


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


# the kind of each node field, by its name: a name, one subterm, or a
# tuple of them
FIELD_KINDS = {"name": str, "param": str, "var": str, "args": tuple,
               "fun": Term, "arg": Term, "body": Term, "left": Term,
               "right": Term}


def field_types(cls):
    """The kind of each field, in order; the constructor's parameters are
    the fields, in order."""
    assert list(inspect.signature(cls).parameters) == list(cls._fields)
    return [FIELD_KINDS[name] for name in cls._fields]


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
