"""Fact base maintenance, event ingestion, and forward chaining."""

import random
import tracemalloc

import pytest

from actionccg import parse_term, reasoning
from actionccg.errors import (BudgetExceededError, MalformedEventError,
                              RangeRestrictionError, SourceSyntaxError)
from actionccg.reasoning import (AxiomRule, FactBase, Literal, assert_event,
                                 forward_chain, parse_axiom, parse_literal,
                                 report)

from oracles import naive_chain_atoms, seminaive_chain_literals

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

    def test_negation_rejected_when_disallowed(self):
        with pytest.raises(SourceSyntaxError):
            parse_literal("!moved(box)", allow_negation=False)

    def test_zero_arity_rejected(self):
        with pytest.raises(SourceSyntaxError):
            parse_literal("raining()")

    def test_malformed_literal(self):
        with pytest.raises(SourceSyntaxError):
            parse_literal("on_top(cup")


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
        assert plan.steps[1].check is not None
        assert derived == ["tagged(p,a,kept)", "tagged(t,b,kept)"]

    def test_plan_is_built_once_with_the_rule(self, monkeypatch):
        rule = parse_axiom(AXIOM_TEXTS[0])
        monkeypatch.setattr(reasoning, "_compile", None)
        closed = forward_chain(kb_of("contained(bucket,ball)",
                                     "on_top(box,bucket)"), [rule])
        assert lit("on_top(box,ball)") in closed.literals

    def test_plan_leaves_equality_hash_and_repr_alone(self):
        one, two = parse_axiom(AXIOM_TEXTS[0]), parse_axiom(AXIOM_TEXTS[0])
        assert one.plan is not two.plan
        assert one == two and hash(one) == hash(two)
        assert "plan" not in repr(one)

    def test_rule_built_directly_is_range_restricted(self):
        with pytest.raises(RangeRestrictionError):
            AxiomRule("loose", (lit("p(a)"),),
                      Literal(True, "q", ("X",)))


class TestClosedMarker:
    """``forward_chain`` marks its result closed; later calls resume."""

    def test_marker_leaves_equality_hash_and_repr_alone(self):
        closed = forward_chain(kb_of("contained(bucket,ball)",
                                     "on_top(box,bucket)"), axioms())
        plain = FactBase(closed.literals, closed.retracted)
        assert closed.closed != plain.closed
        assert closed == plain
        assert hash(closed) == hash(plain)
        assert repr(closed) == repr(plain)
        assert len({closed, plain}) == 1

    def test_result_is_closed_in_full(self):
        rules = axioms()
        closed = forward_chain(kb_of("contained(bucket,ball)"), rules)
        assert closed.closed == (tuple(rules), len(closed.literals))
        assert FactBase().closed == ((), 0)

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

    def test_retraction_inside_the_prefix_lowers_the_count(self):
        closed = forward_chain(kb_of("contained(bucket,ball)",
                                     "!on_top(box,bucket)"), axioms())
        assert closed.closed[1] == 2
        restored = closed.with_literal(lit("on_top(box,bucket)"))
        assert restored.closed[1] == 1
        assert lit("on_top(box,ball)") in forward_chain(restored, axioms()).literals

    def test_marker_for_other_rules_is_ignored(self):
        unclosed = forward_chain(kb_of("contained(bucket,ball)",
                                       "on_top(box,bucket)"), [])
        assert lit("on_top(box,ball)") in forward_chain(unclosed, axioms()).literals


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
