"""Fact base maintenance, event ingestion, and forward chaining."""

import copy
import pickle
import random
import tracemalloc
from functools import reduce

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from actionccg import load_axioms, parse_term, reasoning
from actionccg.corpus import data_path
from actionccg.errors import (BudgetExceededError, MalformedEventError,
                              RangeRestrictionError, SourceSyntaxError)
from actionccg.reasoning import (MAX_DERIVED, AxiomRule, FactBase, Literal,
                                 assert_event, forward_chain, parse_axiom,
                                 parse_literal, report)
from actionccg.terms import And, Const, Implies, Not, Pred

from oracles import (naive_chain_atoms, reference, rule_patterns,
                     seminaive_chain_literals)

AXIOM_TEXTS = (
    "axiom a1: contained(Y,X) & on_top(Z,Y) => on_top(Z,X)",
    "axiom a2: contained(Y,X) & contained(Z,Y) => contained(Z,X)",
    "axiom a3: contained(Y,X) & divided(Y) => divided(X)",
    "axiom a4: contained(Y,X) & on_top(Y,Z) => on_top(X,Z)",
)


def lit(text):
    return parse_literal(text)


def kb_of(*texts):
    kb = FactBase()
    for text in texts:
        kb = kb.with_literal(lit(text))
    return kb


def axioms():
    return [parse_axiom(text) for text in AXIOM_TEXTS]


class TestLiterals:
    def test_positive_literal(self):
        assert lit("on_top(cup,bowl)") == Literal(True, "on_top",
                                                  ("cup", "bowl"))

    def test_negative_literal(self):
        assert lit("!connected(cup,bucket)") == Literal(
            False, "connected", ("cup", "bucket"))

    def test_rendering(self):
        assert str(lit("!connected(cup,bucket)")) == "!connected(cup,bucket)"
        assert str(lit("moved(box)")) == "moved(box)"

    def test_variables_rejected_in_ground_context(self):
        with pytest.raises(SourceSyntaxError):
            parse_literal("on_top(X,bowl)")

    def test_bare_string_args_refused(self):
        with pytest.raises(TypeError, match="not the string 'box'"):
            Literal(True, "moved", "box")
        assert Literal(True, "moved", ["box"]).args == ("box",)

    def test_zero_arity_rejected(self):
        with pytest.raises(SourceSyntaxError):
            parse_literal("raining()")

    def test_malformed_literal(self):
        with pytest.raises(SourceSyntaxError):
            parse_literal("on_top(cup")

    def test_args_become_a_tuple(self):
        literal = Literal(True, "on_top", ["cup", "bowl"])
        assert literal.args == ("cup", "bowl")
        assert type(literal.args) is tuple

    def test_equality_and_hash_by_fields(self):
        one = Literal(True, "on_top", ("cup", "bowl"))
        assert one == Literal(True, "on_top", ["cup", "bowl"])
        assert hash(one) == hash(Literal(True, "on_top", ("cup", "bowl")))
        assert len({one, lit("on_top(cup,bowl)")}) == 1
        assert one != Literal(False, "on_top", ("cup", "bowl"))
        assert one != Literal(True, "on_top", ("bowl", "cup"))
        assert one != Literal(True, "under", ("cup", "bowl"))

    def test_negated_and_atom(self):
        one = lit("on_top(cup,bowl)")
        assert one.negated() == lit("!on_top(cup,bowl)")
        assert one.negated().negated() == one
        assert one.atom == one.negated().atom == ("on_top", ("cup", "bowl"))

    def test_fact_base_repr(self):
        kb = kb_of("on_top(cup,bowl)", "!connected(cup,bucket)",
                   "!on_top(cup,bowl)")
        assert repr(kb) == (
            "FactBase(literals=(Literal(positive=False, predicate='connected', "
            "args=('cup', 'bucket')), Literal(positive=False, predicate="
            "'on_top', args=('cup', 'bowl'))), retracted=(Literal(positive="
            "True, predicate='on_top', args=('cup', 'bowl')),))")


class TestParseAxiom:
    def test_support_axiom(self):
        rule = parse_axiom(AXIOM_TEXTS[0])
        assert rule.name == "a1"
        assert rule.body == (Literal(True, "contained", ("Y", "X")),
                             Literal(True, "on_top", ("Z", "Y")))
        assert rule.head == Literal(True, "on_top", ("Z", "X"))

    def test_division_axiom(self):
        rule = parse_axiom(AXIOM_TEXTS[2])
        assert rule.head == Literal(True, "divided", ("X",))

    def test_unbound_head_variable_rejected(self):
        with pytest.raises(RangeRestrictionError):
            parse_axiom("axiom bad: p(X) => q(X,W)")

    def test_negation_rejected(self):
        with pytest.raises(SourceSyntaxError):
            parse_axiom("axiom bad: !p(X) => p(X)")
        with pytest.raises(SourceSyntaxError):
            parse_axiom("axiom bad: p(X) => !q(X)")

    def test_missing_arrow_rejected(self):
        with pytest.raises(SourceSyntaxError):
            parse_axiom("axiom bad: p(X) & q(X)")

    def test_constants_allowed_in_rules(self):
        rule = parse_axiom("axiom grounded: on_top(X,table_top) => moved(X)")
        assert rule.body[0].args == ("X", "table_top")


class TestAssertEvent:
    def test_consequences_recorded_after_action(self):
        kb = assert_event(parse_term(
            "hiding(bucket,ball) -> contained(bucket,ball) & moved(bucket)"),
            FactBase())
        assert [str(l) for l in kb.literals] == [
            "hiding(bucket,ball)", "contained(bucket,ball)", "moved(bucket)"]

    def test_bare_action_atom(self):
        kb = assert_event(parse_term("stirring(spoon,bucket)"), FactBase())
        assert [str(l) for l in kb.literals] == ["stirring(spoon,bucket)"]

    def test_negative_consequence_retracts(self):
        kb = kb_of("connected(cup,bucket)")
        kb = assert_event(parse_term(
            "take_down(cup,bucket) -> !connected(cup,bucket) & moved(cup)"), kb)
        assert lit("connected(cup,bucket)") not in kb.literals
        assert lit("!connected(cup,bucket)") in kb.literals
        assert lit("moved(cup)") in kb.literals
        assert kb.retracted == (lit("connected(cup,bucket)"),)

    def test_positive_replaces_stale_negative(self):
        kb = kb_of("!connected(cup,bucket)")
        kb = kb.with_literal(lit("connected(cup,bucket)"))
        assert lit("connected(cup,bucket)") in kb.literals
        assert lit("!connected(cup,bucket)") not in kb.literals
        assert kb.retracted == ()

    def test_reasserting_is_a_no_op(self):
        kb = kb_of("moved(box)")
        assert kb.with_literal(lit("moved(box)")) == kb

    @pytest.mark.parametrize("text", [
        "cut(x,cucumber) -> divided(cucumber)",
        "cut(knife,cucumber) -> divided(cucumber) | moved(knife)",
        "cut(knife,cucumber) -> (moved(knife) -> divided(cucumber))",
        r"\x.cut(x,cucumber)",
        "!moved(box)",
        "cut(knife,divided(cucumber))",
    ])
    def test_malformed_events_rejected(self, text):
        with pytest.raises(MalformedEventError):
            assert_event(parse_term(text), FactBase())

    def test_variable_shaped_arguments_are_named(self):
        with pytest.raises(MalformedEventError,
                           match=r"not ground; variables: o1, o0 \(one letter"
                                 r".*a constant needs a longer name"):
            assert_event(parse_term("hiding(o1,o0) -> contained(o1,o0)"),
                         FactBase())

    def test_any_single_atom_may_be_an_antecedent(self):
        kb = assert_event(parse_term("moved(box) -> divided(box)"), FactBase())
        assert lit("moved(box)") in kb.literals and lit("divided(box)") in kb.literals


class TestForwardChain:
    def test_single_support_instantiation(self):
        kb = kb_of("contained(object_009,object_008)",
                   "on_top(object_007,object_009)")
        closed = forward_chain(kb, axioms())
        assert lit("on_top(object_007,object_008)") in closed.literals

    def test_division_reaches_contents(self):
        kb = kb_of("contained(ham,bread)", "divided(ham)")
        closed = forward_chain(kb, axioms())
        assert lit("divided(bread)") in closed.literals

    def test_empty_base_stays_empty(self):
        assert forward_chain(FactBase(), axioms()) == FactBase()

    def test_no_rules_is_identity(self):
        kb = kb_of("moved(box)", "on_top(cup,bowl)")
        assert forward_chain(kb, []) == kb

    def test_table_style_hiding_then_put_on_top(self):
        kb = assert_event(parse_term(
            "hiding(bucket,ball) -> contained(bucket,ball) & moved(bucket)"),
            FactBase())
        kb = assert_event(parse_term(
            "put_on_top(box,bucket) -> on_top(box,bucket) & moved(box)"), kb)
        closed = forward_chain(kb, axioms())
        deduced = report(kb, closed).deduced
        assert [str(l) for l in deduced] == ["on_top(box,ball)"]

    def test_later_round_joins_each_new_body_predicate_in_turn(self):
        # round 1 derives a(o2) and b(o1); round 2 joins its new a facts
        # before its new b facts, so c(o2) comes before c(o1), unlike one
        # pass over all facts in insertion order
        rules = [parse_axiom("axiom r1: d(X) => a(X)"),
                 parse_axiom("axiom r2: e(X) => b(X)"),
                 parse_axiom("axiom r3: a(X) & b(X) => c(X)")]
        kb = kb_of("a(o1)", "b(o2)", "d(o2)", "e(o1)")
        closed = forward_chain(kb, rules)
        assert closed.literals == seminaive_chain_literals(kb, rules)
        assert [str(l) for l in closed.literals[len(kb.literals):]] == [
            "a(o2)", "b(o1)", "c(o2)", "c(o1)"]

    def test_transitive_containment_cascades(self):
        kb = kb_of("contained(box,bag)", "contained(crate,box)",
                   "divided(crate)")
        closed = forward_chain(kb, axioms())
        assert lit("contained(crate,bag)") in closed.literals
        assert lit("divided(box)") in closed.literals
        assert lit("divided(bag)") in closed.literals

    def test_deep_containment_reaches_its_closed_form(self):
        # o0 inside o1 inside ... inside o40, and top resting on o0
        depth = 40
        kb = kb_of(*(f"contained(o{i},o{i + 1})" for i in range(depth)),
                   "on_top(top,o0)")
        closed = forward_chain(kb, axioms())
        want = {("contained", (f"o{i}", f"o{j}"))
                for i in range(depth + 1) for j in range(i + 1, depth + 1)}
        want |= {("on_top", ("top", f"o{j}")) for j in range(depth + 1)}
        assert len(closed.literals) == len(want)
        assert {l.atom for l in closed.literals} == want

    def test_join_pairs_facts_derived_in_one_round(self):
        rules = [parse_axiom("axiom a: source(X) => left(X)"),
                 parse_axiom("axiom b: source(X) => right(X)"),
                 parse_axiom("axiom c: left(X) & right(X) => both(X)")]
        closed = forward_chain(kb_of("source(box)"), rules)
        assert [str(l) for l in closed.literals] == [
            "source(box)", "left(box)", "right(box)", "both(box)"]

    def test_monotone_and_idempotent(self):
        kb = kb_of("contained(bucket,ball)", "on_top(box,bucket)",
                   "divided(bucket)")
        once = forward_chain(kb, axioms())
        twice = forward_chain(once, axioms())
        assert set(kb.literals) <= set(once.literals)
        assert once == twice

    def test_rule_order_does_not_change_the_fixpoint(self):
        kb = kb_of("contained(bucket,ball)", "contained(crate,bucket)",
                   "on_top(box,crate)", "divided(crate)")
        rng = random.Random(7)
        baseline = set(forward_chain(kb, axioms()).literals)
        for _ in range(5):
            shuffled = axioms()
            rng.shuffle(shuffled)
            assert set(forward_chain(kb, shuffled).literals) == baseline

    def test_matches_naive_rescan(self):
        bases = [
            kb_of("contained(bucket,ball)", "on_top(box,bucket)"),
            kb_of("contained(a_pot,b_pot)", "contained(b_pot,c_pot)",
                  "contained(c_pot,d_pot)", "divided(a_pot)"),
            kb_of("on_top(cup,bowl)", "moved(cup)"),
            kb_of("contained(bucket,ball)", "on_top(bucket,table_top)"),
        ]
        for kb in bases:
            closed = forward_chain(kb, axioms())
            chart = {(l.predicate, l.args) for l in closed.literals
                     if l.positive}
            assert chart == naive_chain_atoms(kb, axioms())

    def test_event_negation_blocks_derivation(self):
        # the event explicitly denied on_top(box,ball); chaining must not
        # silently restore it
        kb = kb_of("contained(bucket,ball)", "on_top(box,bucket)",
                   "!on_top(box,ball)")
        closed = forward_chain(kb, axioms())
        assert lit("on_top(box,ball)") not in closed.literals
        assert lit("!on_top(box,ball)") in closed.literals

    def test_budget_cap(self):
        chain = [f"contained(c{i},c{i + 1})" for i in range(12)]
        kb = kb_of(*chain)
        with pytest.raises(BudgetExceededError):
            forward_chain(kb, axioms(), max_derived=10)

    @pytest.mark.parametrize("facts, size", [
        # round 1 derives both facts, one per rule
        (("contained(bucket,ball)", "on_top(box,bucket)", "divided(bucket)"), 2),
        # round 1 derives 11 of the 66 containments, later rounds the rest
        (tuple(f"contained(c{i},c{i + 1})" for i in range(12)), 66),
    ], ids=["first-round", "later-round"])
    def test_budget_boundary(self, facts, size):
        kb = kb_of(*facts)
        want = seminaive_chain_literals(kb, axioms())
        assert len(want) - len(kb.literals) == size
        assert forward_chain(kb, axioms(), max_derived=size).literals == want
        with pytest.raises(BudgetExceededError,
                           match=f"more than {size - 1} derived literals"):
            forward_chain(kb, axioms(), max_derived=size - 1)

    @pytest.mark.parametrize("depth", range(2, 31))
    def test_deep_chain_keeps_discovery_order(self, depth, shipped_axioms):
        # containers nested ``depth`` deep, a lid on the outermost one, and
        # the outermost one cut: the later rounds have large deltas, where a
        # loop before the pivot stops at its bucket's new facts
        facts = [lit(f"contained(o{i + 1},o{i})") for i in range(depth)]
        facts += [lit(f"on_top(lid,o{depth})"), lit(f"divided(o{depth})")]
        kb = FactBase(tuple(facts))
        closed = forward_chain(kb, shipped_axioms)
        assert closed.literals == seminaive_chain_literals(kb, shipped_axioms)
        assert len(closed.literals) == (depth + 1) * depth // 2 + 2 * (depth + 1)
        resumed = FactBase()
        for fact in facts:
            before = resumed.with_literal(fact)
            resumed = forward_chain(before, shipped_axioms)
            scratch = forward_chain(FactBase(before.literals), shipped_axioms)
            assert resumed.literals == scratch.literals
        assert resumed.literals == seminaive_chain_literals(
            FactBase(before.literals), shipped_axioms)

    def test_derived_literals_keep_discovery_order(self):
        kb = kb_of("contained(bucket,ball)", "on_top(box,bucket)",
                   "divided(bucket)")
        closed = forward_chain(kb, axioms())
        derived = closed.literals[len(kb.literals):]
        assert [str(l) for l in derived] == ["on_top(box,ball)",
                                             "divided(ball)"]


class TestRunawayRule:
    """A cross-product rule stops at the budget without building the
    product: 300 facts give 27 million bindings, over a gigabyte as
    tuples, and even the 90,000 bindings of the first two positions
    take several megabytes."""

    RULE = parse_axiom("axiom runaway: p(X) & p(Y) & p(Z) => q(X,Y,Z)")
    FACTS = [lit(f"p(o{i})") for i in range(300)]

    def peak_bytes_until_budget(self, kb):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                forward_chain(kb, [self.RULE], max_derived=50)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_unmarked_fact_base(self):
        kb = FactBase(tuple(self.FACTS))
        assert self.peak_bytes_until_budget(kb) < 1_000_000

    def test_fact_base_closed_before_the_new_facts(self):
        kb = forward_chain(FactBase(tuple(self.FACTS[:1])), [self.RULE])
        for fact in self.FACTS[1:]:
            kb = kb.with_literal(fact)
        assert self.peak_bytes_until_budget(kb) < 1_000_000


class TestJoinPlan:
    """Plans for literal shapes that the random decks never draw: three
    arguments, with the probed argument after a new or a repeated
    variable.  Other arities share each probed bucket, so the arity test
    matters."""

    def chain_one(self, text, *facts):
        rule = parse_axiom(text)
        kb = kb_of(*facts)
        closed = forward_chain(kb, [rule])
        assert closed.literals == seminaive_chain_literals(kb, [rule])
        return rule.plan, [str(l) for l in closed.literals[len(kb.literals):]]

    def test_first_bound_argument_after_a_new_variable(self):
        plan, derived = self.chain_one(
            "axiom r: holds(Y) & link(X,Y,Z) => reach(X,Z)",
            "holds(b)", "link(a,b,c)", "link(b,a,c)", "link(a,b)",
            "link(d,b,e,f)", "link(e,b,g)")
        assert (plan.steps[1].position, plan.steps[1].slot) == (1, 0)
        assert derived == ["reach(a,c)", "reach(e,g)"]

    def test_constant_after_a_repeated_variable(self):
        plan, derived = self.chain_one(
            "axiom r: triple(X,X,lid) => sealed(X)",
            "triple(a,a,lid)", "triple(b,a,lid)", "triple(c,c,cap)",
            "triple(e,e,lid,x)", "triple(f,f,lid)")
        assert plan.seed == ("lid",)
        assert plan.steps[0].position == 2
        assert derived == ["sealed(a)", "sealed(f)"]

    def test_bound_argument_after_a_repeated_variable(self):
        plan, derived = self.chain_one(
            "axiom r: mark(Z) & edge(X,X,Z) => loop(X,Z)",
            "mark(m)", "edge(a,a,m)", "edge(b,a,m)", "edge(c,c,n)",
            "edge(d,d,m,m)", "edge(m,m,m)")
        assert plan.steps[1].position == 2
        assert derived == ["loop(a,m)", "loop(m,m)"]

    def test_checked_variable_and_head_constant(self):
        plan, derived = self.chain_one(
            "axiom r: box(X) & pair(Y,X,X) => tagged(Y,X,kept)",
            "box(a)", "pair(p,a,a)", "pair(q,a,b)", "pair(r,a)",
            "pair(s,a,a,a)", "box(b)", "pair(t,b,b)")
        assert plan.steps[1].check == ((2, 1),)
        assert derived == ["tagged(p,a,kept)", "tagged(t,b,kept)"]

    def test_each_binding_is_offered_once(self, monkeypatch):
        # 13 nested containers give C(13,3) = 286 bindings (Z, Y, X); a
        # later round that offered a binding at every position holding a
        # new fact made 329 checks
        checks = []

        class Heads(dict):
            def __contains__(self, args):
                checks.append(args)
                return super().__contains__(args)

        compile_join = reasoning._join

        def counted(plan, pivot):
            join = compile_join(plan, pivot)

            def counting(everything, new, first, heads, out, room):
                probe = Heads(heads)
                join(everything, new, first, probe, out, room)
                heads |= probe

            plan.joins[pivot] = counting
            return counting

        monkeypatch.setattr(reasoning, "_join", counted)
        rule = parse_axiom(AXIOM_TEXTS[1])
        kb = kb_of(*(f"contained(c{i},c{i + 1})" for i in range(12)))
        closed = forward_chain(kb, [rule])
        assert len(checks) == 286
        assert closed.literals == seminaive_chain_literals(kb, [rule])
        assert len(closed.literals) == 13 * 12 // 2

    def test_plan_is_built_once_with_the_rule(self, monkeypatch):
        rules = axioms()
        monkeypatch.setattr(reasoning, "_compile", None)
        compiled = []
        join_source = reasoning._join_source

        def counted(plan, pivot):
            compiled.append((id(plan), pivot))
            return join_source(plan, pivot)

        monkeypatch.setattr(reasoning, "_join_source", counted)
        kb = kb_of("contained(bucket,ball)", "on_top(box,bucket)")
        closed = forward_chain(kb, rules)
        assert lit("on_top(box,ball)") in closed.literals
        first = list(compiled)
        assert first
        # later calls, from scratch and resumed, reuse the compiled joins
        for fact in ("contained(ball,cup)", "divided(bucket)",
                     "on_top(lid,cup)", "contained(box,lid)"):
            kb = kb.with_literal(lit(fact))
            scratch = forward_chain(kb, rules)
            closed = forward_chain(closed.with_literal(lit(fact)), rules)
        assert len(set(compiled)) == len(compiled) > len(first)
        assert len(compiled) <= sum(len(rule.body) for rule in rules)
        assert scratch.literals == seminaive_chain_literals(kb, rules)
        assert set(closed.literals) == set(scratch.literals)

    def test_loading_rules_compiles_no_join(self, monkeypatch):
        monkeypatch.setattr(reasoning, "_join_source", None)
        rules = load_axioms(data_path("axioms.rules"))
        assert rules and all(rule.plan.joins == [None] * len(rule.body)
                             for rule in rules)

    def test_rule_text_never_reaches_the_source(self):
        # predicate and constant names a generated source could not quote
        odd = ("in'side", 'a"b', "c\\d", "e\nf", "g)h")
        rule = AxiomRule("odd", (
            Literal(True, odd[0], ("X", odd[1])),
            Literal(True, odd[4], ("X", "Y", odd[2])),
        ), Literal(True, odd[3], ("Y", odd[3], "X")))
        facts = [Literal(True, odd[0], (odd[1], odd[1])),
                 Literal(True, odd[0], (odd[2], odd[1])),
                 Literal(True, odd[4], (odd[1], odd[0], odd[2])),
                 Literal(True, odd[4], (odd[2], odd[3], odd[2])),
                 Literal(True, odd[4], (odd[1], odd[4], odd[1]))]
        kb = FactBase(tuple(facts))
        closed = forward_chain(kb, [rule])
        assert closed.literals == seminaive_chain_literals(kb, [rule])
        assert closed.literals[len(facts):] == (
            Literal(True, odd[3], (odd[0], odd[3], odd[1])),
            Literal(True, odd[3], (odd[3], odd[3], odd[2])))
        for pivot in range(len(rule.body)):
            source, _ = reasoning._join_source(rule.plan, pivot)
            assert not any(name in source for name in odd)

    def test_plan_leaves_equality_hash_and_repr_alone(self):
        one, two = parse_axiom(AXIOM_TEXTS[0]), parse_axiom(AXIOM_TEXTS[0])
        assert one.plan is not two.plan
        assert one == two and hash(one) == hash(two)
        assert "plan" not in repr(one)

    def test_rule_built_directly_is_range_restricted(self):
        with pytest.raises(RangeRestrictionError):
            AxiomRule("loose", (lit("p(a)"),),
                      Literal(True, "q", ("X",)))

    @pytest.mark.parametrize("body, head", [
        (("p(X)",), "!q(X)"), (("!p(X)",), "q(X)"), (("p(X)", "!r(X)"), "q(X)")])
    def test_rule_built_directly_rejects_negation(self, body, head):
        literals = [parse_literal(text, allow_variables=True)
                    for text in body + (head,)]
        with pytest.raises(SourceSyntaxError, match="negation is not allowed"):
            AxiomRule("negated", tuple(literals[:-1]), literals[-1])

    def test_longest_body_compiles_at_every_pivot(self):
        # one loop per body literal; Python nests at most 20 blocks
        names = [f"V{i}" for i in range(reasoning.MAX_BODY + 1)]
        body = tuple(Literal(True, "next", (names[i], names[i + 1]))
                     for i in range(reasoning.MAX_BODY))
        rule = AxiomRule("long", body, Literal(True, "far", (names[0], names[-1])))
        for pivot in range(len(body)):
            reasoning._join(rule.plan, pivot)
        hops = [lit(f"next(o{i},o{i + 1})") for i in range(reasoning.MAX_BODY + 1)]
        # the first round's pivot is the last position, after 19 marked loops
        kb = forward_chain(FactBase(tuple(hops[:-1])), [rule])
        assert kb.literals[len(hops) - 1:] == (lit("far(o0,o20)"),)
        closed = forward_chain(kb.with_literal(hops[-1]), [rule])
        assert closed.literals[len(kb.literals) + 1:] == (lit("far(o1,o21)"),)
        with pytest.raises(SourceSyntaxError, match="more than 20 body literals"):
            AxiomRule("longer", body + body[:1], rule.head)


class TestClosedMarker:
    """``forward_chain`` leaves its index with its result; later calls
    resume from the facts added since."""

    def test_working_set_leaves_equality_hash_and_repr_alone(self):
        closed = forward_chain(kb_of("contained(bucket,ball)",
                                     "on_top(box,bucket)"), axioms())
        plain = FactBase(closed.literals, closed.retracted)
        assert closed.work is not None and plain.work is None
        assert closed == plain
        assert hash(closed) == hash(plain)
        assert repr(closed) == repr(plain)
        assert len({closed, plain}) == 1

    def test_rule_switch_rechains_everything(self):
        kb = kb_of("contained(bucket,ball)", "on_top(box,bucket)",
                   "contained(ball,cup)")
        containment = [parse_axiom(AXIOM_TEXTS[1])]
        closed = forward_chain(kb, containment)
        assert [str(l) for l in closed.literals[len(kb.literals):]] == [
            "contained(bucket,cup)"]
        for rules in (axioms(), containment, [], axioms()):
            closed = forward_chain(closed, rules)
            scratch = forward_chain(FactBase(closed.literals, closed.retracted), rules)
            assert closed.literals == scratch.literals
        assert lit("on_top(box,ball)") in closed.literals
        assert lit("on_top(box,cup)") in closed.literals

    def test_new_fact_joins_facts_already_closed(self):
        closed = forward_chain(kb_of("on_top(box,bucket)"), axioms())
        grown = forward_chain(closed.with_literal(lit("contained(bucket,ball)")),
                              axioms())
        assert lit("on_top(box,ball)") in grown.literals

    def test_old_fact_joins_new_fact_at_a_later_position(self):
        closed = forward_chain(kb_of("contained(bucket,ball)"), axioms())
        grown = closed.with_literal(lit("contained(lid,jar)"))
        grown = forward_chain(grown.with_literal(lit("on_top(box,bucket)")),
                              axioms())
        assert lit("on_top(box,ball)") in grown.literals

    def test_retraction_inside_the_chained_prefix_then_reassertion(self):
        rules = axioms()
        closed = forward_chain(kb_of("contained(bucket,ball)", "moved(box)"), rules)
        # the retracted fact leaves the index, so nothing joins it
        kb = closed.with_literal(lit("!contained(bucket,ball)"))
        kb = forward_chain(kb.with_literal(lit("on_top(box,bucket)")), rules)
        assert lit("on_top(box,ball)") not in kb.literals
        assert_index_is_fresh(kb, rules)
        restored = forward_chain(kb.with_literal(lit("contained(bucket,ball)")), rules)
        assert_index_is_fresh(restored, rules)
        assert restored.literals[-2:] == (lit("contained(bucket,ball)"),
                                          lit("on_top(box,ball)"))
        assert restored.retracted == (lit("contained(bucket,ball)"),)
        plain = FactBase(kb.literals, kb.retracted)
        scratch = forward_chain(plain.with_literal(lit("contained(bucket,ball)")), rules)
        assert restored.literals == scratch.literals

    def test_marker_for_other_rules_is_ignored(self):
        unclosed = forward_chain(kb_of("contained(bucket,ball)",
                                       "on_top(box,bucket)"), [])
        assert lit("on_top(box,ball)") in forward_chain(unclosed, axioms()).literals

    def test_chained_fact_base_and_rules_pickle_without_their_caches(
            self, shipped_axioms):
        rules = list(shipped_axioms)
        kb = assert_event(parse_term("hiding(box,ball) -> contained(box,ball)"),
                          FactBase())
        kb = assert_event(parse_term("put_on_top(lid,box) -> on_top(lid,box)"), kb)
        closed = forward_chain(kb, rules)  # compiles the joins it runs
        rules_copy, closed_copy = pickle.loads(pickle.dumps((rules, closed)))
        assert rules_copy == rules and closed_copy == closed
        assert repr(closed_copy) == repr(closed)
        assert closed_copy.work is None
        assert all(join is None for rule in rules_copy for join in rule.plan.joins)
        event = parse_term("hiding(ball,cup) -> contained(ball,cup)")
        grown = forward_chain(assert_event(event, closed), rules)
        assert forward_chain(assert_event(event, closed_copy), rules_copy) == grown
        assert lit("on_top(lid,cup)") in grown.literals


class TestIncrementalWork:
    """Asserting and chaining event by event costs each fact a bounded
    amount of indexing and no member-set rebuild."""

    def work_per_episode(self, monkeypatch, events):
        """Facts handed to ``_index``, summed over its groups, plus literals
        handed to ``set()``."""
        counts = {"indexed": 0, "set": 0}
        index = reasoning._index

        def counted_index(groups, *rest):
            groups = list(groups)
            counts["indexed"] += sum(len(facts) for _, facts in groups)
            return index(groups, *rest)

        def counted_set(*args):
            made = set(*args)
            counts["set"] += len(made)
            return made

        monkeypatch.setattr(reasoning, "_index", counted_index)
        monkeypatch.setattr(reasoning, "set", counted_set, raising=False)
        observed = chained = FactBase()
        for i in range(events):
            form = parse_term(f"hiding(lid_{i},cup_{i}) -> contained(lid_{i},cup_{i})"
                              f" & divided(lid_{i})")
            observed = assert_event(form, observed)
            chained = forward_chain(assert_event(form, chained), axioms())
        assert set(chained.literals) == set(seminaive_chain_literals(observed, axioms()))
        monkeypatch.undo()
        return counts

    def test_work_is_linear_in_the_events(self, monkeypatch):
        small = self.work_per_episode(monkeypatch, 40)
        large = self.work_per_episode(monkeypatch, 160)
        # three asserted facts and one derived fact per event
        assert large["indexed"] <= 4 * 160 + 3
        assert large["indexed"] - small["indexed"] == 4 * 120
        assert large["set"] == small["set"] == 0


def fresh_index(literals, rules):
    """The join index of ``literals`` under ``rules``, built fact by fact
    from the keys the rules' steps read, without empty buckets."""
    keys = {step.key for rule in rules for step in rule.plan.steps}
    shapes = {key[:2] for key in keys}
    index = {}
    for positive, predicate, args in literals:
        shape = (predicate, len(args))
        if positive and shape in shapes:
            index.setdefault(shape, []).append(args)
            for key in keys:
                if key[:2] == shape and len(key) == 3:
                    index.setdefault(key, {}).setdefault(args[key[2]], []).append(args)
    return index


def without_empty_buckets(index):
    """``index`` less the lists and family entries retractions emptied."""
    kept = {}
    for key, bucket in index.items():
        if isinstance(bucket, dict):
            bucket = {value: facts for value, facts in bucket.items() if facts}
        if bucket:
            kept[key] = bucket
    return kept


def rebuilt(value):
    """A new ``value`` of the same class, built from its fields."""
    return type(value)(*[getattr(value, name) for name in value._fields])


def assert_index_is_fresh(closed, rules):
    """The join index ``closed`` kept across calls is the one built afresh
    from its literals, list for list."""
    assert without_empty_buckets(closed.work.index) == fresh_index(closed.literals, rules)


WORKING_SET_OBJECTS = ("obj_a", "obj_b", "Object_c")
# the arity of each predicate in the decks of ``WorkingSetMachine``
DECK_ARITIES = {"contained": 2, "on_top": 2, "divided": 1}


class WorkingSetMachine(RuleBasedStateMachine):
    """One lineage of fact bases grown event by event and chained, with
    some of its older values reused, each step checked against a fresh
    ``FactBase`` and the unindexed oracle.

    Reusing an older value (extending it again, chaining it again, a
    ``copy.copy`` of it or one ``rebuilt`` from its fields) leaves the
    working set with a newer value; a budget of 0 or 1 makes a chain fail
    part way.  Each predicate takes the arity the decks give it, so that
    retracted facts have shapes the joins probe.

    Beside each fact base the machine keeps the benchmark's reference
    replay of the same steps: its ``_assert`` per literal, its naive
    ``_close`` per chain that succeeds, and the older value's replay on
    reuse (a step copies the replay before it changes it).  After every
    step the literal set and the retraction log must equal the replay's,
    which checks ``with_literal`` and ``forward_chain`` against code that
    shares none of the package's, across re-assertions after a retraction
    and changes of rule deck.
    """

    DECKS = ((), tuple(axioms()), tuple(axioms()[:2]), (
        parse_axiom("axiom up: on_top(X,Y) & on_top(Y,Z) => on_top(X,Z)"),
        parse_axiom("axiom same: contained(X,X) => divided(X)"),
        parse_axiom("axiom cut: divided(X) & contained(X,Y) => divided(Y)")))
    literals = st.sampled_from(sorted(DECK_ARITIES.items())).flatmap(
        lambda shape: st.builds(
            Literal, st.sampled_from((True, True, False)), st.just(shape[0]),
            st.lists(st.sampled_from(WORKING_SET_OBJECTS), min_size=shape[1],
                     max_size=shape[1])))

    @initialize()
    def empty(self):
        self.kb, self.replay = FactBase(), ([], [])
        self.older = [(self.kb, self.replay)]

    def replayed(self, literals=(), rules=None):
        """A copy of the current replay, ``literals`` then asserted one by
        one and, given ``rules``, closed under them."""
        closed, retracted = (list(part) for part in self.replay)
        for literal in literals:
            reference._assert(closed, retracted, tuple(literal))
        if rules is not None:
            reference._close(closed, rule_patterns(rules))
        return closed, retracted

    def move_to(self, kb, replay):
        self.older.append((self.kb, self.replay))
        self.kb, self.replay = kb, replay

    @rule(event=st.lists(literals, min_size=1, max_size=3))
    def assert_literals(self, event):
        """An event whose first literal is positive goes in through
        ``assert_event``, any other one literal at a time."""
        kb = plain = self.kb
        if event[0].positive:
            atoms = [Pred(l.predicate, tuple(map(Const, l.args))) for l in event]
            parts = [a if l.positive else Not(a) for a, l in zip(atoms[1:], event[1:])]
            kb = assert_event(Implies(atoms[0], reduce(And, parts)) if parts else atoms[0], kb)
        else:
            for literal in event:
                kb = kb.with_literal(literal)
        for literal in event:
            plain = FactBase(plain.literals, plain.retracted).with_literal(literal)
        assert (kb.literals, kb.retracted) == (plain.literals, plain.retracted)
        assert len(set(kb.literals)) == len(kb.literals)
        assert not {l.negated() for l in kb.literals} & set(kb.literals)
        self.move_to(kb, self.replayed(event))

    @rule(deck=st.integers(0, len(DECKS) - 1),
          budget=st.sampled_from((0, 1) + (MAX_DERIVED,) * 4))
    def chain(self, deck, budget):
        kb, deck = self.kb, self.DECKS[deck]
        want = seminaive_chain_literals(FactBase(kb.literals, kb.retracted), deck)
        if len(want) - len(kb.literals) > budget:
            with pytest.raises(BudgetExceededError):
                forward_chain(kb, deck, max_derived=budget)
            return
        closed = forward_chain(kb, deck, max_derived=budget)
        assert closed.literals == want
        assert_index_is_fresh(closed, deck)
        assert forward_chain(FactBase(kb.literals, kb.retracted), deck).literals == want
        assert closed.retracted == kb.retracted
        self.move_to(closed, self.replayed(rules=deck))

    @precondition(lambda self: any(l.positive for l in self.kb.literals))
    @rule(data=st.data())
    def retract(self, data):
        """The negation of one of the facts, which a chained fact base
        holds in its join index unless it came since the chain."""
        kb = self.kb
        fact = data.draw(st.sampled_from([l for l in kb.literals if l.positive]))
        retracted = kb.with_literal(fact.negated())
        plain = FactBase(kb.literals, kb.retracted).with_literal(fact.negated())
        assert (retracted.literals, retracted.retracted) == (
            plain.literals, plain.retracted)
        self.move_to(retracted, self.replayed([fact.negated()]))

    @rule(back=st.integers(1, 3), how=st.sampled_from((None, copy.copy, rebuilt)))
    def reuse(self, back, how):
        kb, replay = self.older[-min(back, len(self.older))]
        self.move_to(kb if how is None else how(kb), replay)

    @invariant()
    def literals_are_the_replay(self):
        """The literal set and the retraction log are the reference
        replay's, and no literal is held twice."""
        closed, retracted = self.replay
        assert set(self.kb.literals) == set(closed)
        assert len(self.kb.literals) == len(closed)
        assert list(self.kb.retracted) == retracted

    @invariant()
    def working_set_is_the_literals(self):
        """A working set the fact base owns holds each atom once, with the
        sign the literals give it, and indexes every positive fact but
        those added since the last chain."""
        kb, work = self.kb, self.kb.work
        if work is None or work.literals is not kb.literals:
            return
        signs = {}
        for positive, predicate, args in kb.literals:
            signs.setdefault(predicate, {})[args] = positive
        # a chain leaves an empty map for a head predicate with no facts
        assert {p: held for p, held in work.signs.items() if held} == signs
        indexed = [l for l in kb.literals if l not in work.pending]
        assert without_empty_buckets(work.index) == fresh_index(indexed, work.rules)


# no shrink phase: shrinking 30-step runs, each re-chained against the
# oracle, made a failure take minutes to report
WorkingSetMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None, derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate))
TestWorkingSet = WorkingSetMachine.TestCase


class TestReport:
    def test_observed_deduced_split(self):
        kb = kb_of("contained(bucket,ball)", "on_top(box,bucket)")
        closed = forward_chain(kb, axioms())
        result = report(kb, closed)
        assert result.observed == kb.literals
        assert [str(l) for l in result.deduced] == ["on_top(box,ball)"]
        assert result.retracted == ()

    def test_identity_run_deduces_nothing(self):
        kb = kb_of("moved(box)")
        result = report(kb, kb)
        assert result.deduced == ()

    def test_tsv_lines(self):
        kb = kb_of("contained(bucket,ball)")
        closed = forward_chain(kb, axioms())
        result = report(kb, closed)
        assert result.tsv_lines() == ["observed\tcontained(bucket,ball)"]

    def test_tsv_covers_all_sections(self):
        before = kb_of("connected(cup,bucket)")
        after = assert_event(parse_term(
            "take_down(cup,bucket) -> !connected(cup,bucket) & moved(cup)"),
            before)
        result = report(before, after)
        lines = result.tsv_lines()
        assert "observed\tconnected(cup,bucket)" in lines
        assert "deduced\ttake_down(cup,bucket)" in lines
        assert "retracted\tconnected(cup,bucket)" in lines


class TestCaseStudySequences:
    def test_cover_and_stack(self, shipped_axioms):
        events = [
            "hiding(object_008,object_009) -> contained(object_008,object_009)"
            " & moved(object_008)",
            "put_on_top(object_007,object_008) -> on_top(object_007,object_008)"
            " & moved(object_007)",
        ]
        kb = FactBase()
        for text in events:
            kb = assert_event(parse_term(text), kb)
        closed = forward_chain(kb, shipped_axioms)
        deduced = report(kb, closed).deduced
        assert [str(l) for l in deduced] == ["on_top(object_007,object_009)"]

    def test_cut_cover_then_place(self, shipped_axioms):
        events = [
            "hiding(object_003,object_005) -> contained(object_003,object_005)"
            " & moved(object_003)",
            "hiding(object_003,object_010) -> contained(object_003,object_010)"
            " & moved(object_003)",
            "cutting(object_001,object_003) -> divided(object_003)",
            "put_on_top(object_003,object_012) -> on_top(object_003,object_012)"
            " & moved(object_003)",
        ]
        kb = FactBase()
        for text in events:
            kb = assert_event(parse_term(text), kb)
        closed = forward_chain(kb, shipped_axioms)
        deduced = {str(l) for l in report(kb, closed).deduced}
        assert deduced == {
            "divided(object_005)", "divided(object_010)",
            "on_top(object_005,object_012)", "on_top(object_010,object_012)"}
