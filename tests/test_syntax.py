"""Surface syntax: precedence, shapes, round-trips, error offsets."""

import pytest

from actionccg import parse_term
from actionccg.errors import SourceSyntaxError
from actionccg.syntax import MAX_DEPTH, is_variable_name
from actionccg.terms import (And, App, Const, Exists, Forall, Implies, Lam,
                             Not, Or, Pred, Var, alpha_eq, beta_reduce,
                             canonical, render, substitute)


class TestPrecedence:
    def test_and_binds_tighter_than_implies(self):
        form = parse_term("tomato(y) & cut(knife,y) -> divided(y)")
        assert isinstance(form, Implies)
        assert isinstance(form.left, And)

    def test_not_binds_tighter_than_and(self):
        form = parse_term("!connected(cup_a,bucket_b) & moved(cup_a)")
        assert isinstance(form, And)
        assert isinstance(form.left, Not)

    def test_and_binds_tighter_than_or(self):
        form = parse_term("p(a_c) | q(b_c) & r(c_c)")
        assert isinstance(form, Or)
        assert isinstance(form.right, And)

    def test_implies_is_right_associative(self):
        form = parse_term("p(a_c) -> q(b_c) -> r(c_c)")
        assert isinstance(form, Implies)
        assert isinstance(form.right, Implies)

    def test_lambda_body_extends_rightward(self):
        form = parse_term(r"\x.cut(x,cucumber) -> divided(cucumber)")
        assert isinstance(form, Lam)
        assert isinstance(form.body, Implies)

    def test_quantifier_body_extends_rightward(self):
        form = parse_term("forall x.p(x) & q(x)")
        assert isinstance(form, Forall)
        assert isinstance(form.body, And)

    def test_parentheses_override(self):
        form = parse_term("p(a_c) & (q(b_c) -> r(c_c))")
        assert isinstance(form, And)
        assert isinstance(form.right, Implies)


class TestShapes:
    def test_bound_name_is_a_variable(self):
        form = parse_term(r"\thing.moved(thing)")
        assert form == Lam("thing", Pred("moved", (Var("thing"),)))

    def test_short_unbound_name_is_a_variable(self):
        assert parse_term("x") == Var("x")
        assert parse_term("x1") == Var("x1")
        assert parse_term("f") == Var("f")

    def test_long_unbound_name_is_a_constant(self):
        assert parse_term("knife") == Const("knife")
        assert parse_term("object_014") == Const("object_014")

    def test_variable_shape_rule(self):
        assert is_variable_name("x")
        assert is_variable_name("z42")
        assert not is_variable_name("xy")
        assert not is_variable_name("x_1")
        assert not is_variable_name("_x")

    def test_application_of_bound_functor_builds_spine(self):
        form = parse_term(r"\f.f(knife,cucumber)")
        assert form == Lam("f", App(App(Var("f"), Const("knife")),
                                    Const("cucumber")))

    def test_application_of_unbound_functor_builds_pred(self):
        assert parse_term("cut(knife,cucumber)") == Pred(
            "cut", (Const("knife"), Const("cucumber")))

    def test_juxtaposition_application(self):
        form = parse_term(r"(\x.x) knife")
        assert form == App(Lam("x", Var("x")), Const("knife"))

    def test_exists(self):
        form = parse_term("exists y.on_top(y,table_top)")
        assert isinstance(form, Exists)

    def test_keywords_are_not_identifiers(self):
        with pytest.raises(SourceSyntaxError):
            parse_term("forall")


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "cut(knife,cucumber) -> divided(cucumber)",
        r"\x.\y.take_down(x,y) -> !connected(x,y) & moved(x)",
        "forall x1.tomato(x1) & cut(knife,x1) -> divided(x1)",
        r"\f.forall x.f(x)",
        "p(a_c) & (q(b_c) | r(c_c))",
        "p(a_c) | q(b_c) & !r(c_c)",
        "(p(a_c) -> q(b_c)) -> r(c_c)",
        r"(\x.x) knife",
        "stirring(spoon,bucket)",
        "exists z.contained(z,ball) & !moved(z)",
    ])
    def test_parse_render_parse(self, text):
        once = parse_term(text)
        assert parse_term(render(once)) == once

    def test_nested_and_needs_parentheses(self):
        form = And(Const("aa"), And(Const("bb"), Const("cc")))
        assert render(form) == "aa & (bb & cc)"
        assert parse_term(render(form)) == form


class TestErrors:
    def test_unexpected_character_offset(self):
        with pytest.raises(SourceSyntaxError) as err:
            parse_term("cut(knife,@)")
        assert err.value.offset == 10

    def test_trailing_input(self):
        with pytest.raises(SourceSyntaxError) as err:
            parse_term("knife cucumber)")
        assert err.value.offset == 14

    def test_slash_is_a_token_no_term_uses(self):
        # categories share the lexer, so ``/`` lexes and then fails to parse
        with pytest.raises(SourceSyntaxError) as err:
            parse_term("cut/knife")
        assert str(err.value) == "trailing input '/' (at offset 3)"

    def test_missing_dot(self):
        with pytest.raises(SourceSyntaxError):
            parse_term(r"\x cut(x,y)")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(SourceSyntaxError):
            parse_term("cut(knife,cucumber")

    def test_empty_input(self):
        with pytest.raises(SourceSyntaxError):
            parse_term("")

    def test_dangling_operator(self):
        with pytest.raises(SourceSyntaxError):
            parse_term("moved(box) &")


# Terms nested ``depth`` levels deep, one for each way of nesting.
NESTINGS = {
    "negation": lambda depth: "!" * (depth - 1) + "knife",
    "parentheses": lambda depth: "(" * (depth - 1) + "knife" + ")" * (depth - 1),
    "arguments": lambda depth: "p(" * (depth - 1) + "knife" + ")" * (depth - 1),
    "conjunction": lambda depth: " & ".join(["knife"] * depth),
    "implication": lambda depth: "knife -> " * (depth - 1) + "knife",
    "lambda": lambda depth: r"\x." * (depth - 1) + "x",
    "application": lambda depth: "f " + " ".join(["knife"] * (depth - 1)),
    "bound functor": lambda depth: (r"\f." + "f(" * (depth - 2) + "knife"
                                    + ")" * (depth - 2)),
}


class TestNestingDepth:
    @pytest.mark.parametrize("shape", sorted(NESTINGS))
    def test_deepest_term_survives_every_walker(self, shape):
        form = parse_term(NESTINGS[shape](MAX_DEPTH))
        # called from well inside the stack, as the chart calls them
        def nested(levels):
            if levels:
                return nested(levels - 1)
            reduced = beta_reduce(form)
            return (canonical(form), render(reduced), alpha_eq(form, reduced),
                    substitute(form, "x", Const("cup")), hash(form))
        nested(200)

    @pytest.mark.parametrize("shape", sorted(NESTINGS))
    def test_one_level_deeper_is_a_syntax_error(self, shape):
        with pytest.raises(SourceSyntaxError, match="nested deeper than"):
            parse_term(NESTINGS[shape](MAX_DEPTH + 1))

    def test_thousands_of_levels_raise_no_recursion_error(self):
        for text in ("!" * 3000 + "knife", "(" * 3000 + "knife" + ")" * 3000,
                     " & ".join(["knife"] * 3000)):
            with pytest.raises(SourceSyntaxError):
                parse_term(text)
