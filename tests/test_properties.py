"""Randomized invariants checked against the independent oracles.

Every suite runs 200 generated cases.  Term generators draw variable
names from a single-letter pool and constant or predicate names from a
longer-word pool, so the surface syntax shape rule classifies free
identifiers the same way the generator intended.
"""

import warnings
from collections import Counter

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from actionccg import chart
from actionccg.chart import argmax_parse, parse_all, parse_probability
from actionccg.errors import (ConstantFunctionWarning, NonTerminationError,
                              NoParseError, UnknownTokenError)
from actionccg.grammar import (AP, NP, Backward, Forward, LexEntry, Lexicon,
                               N, parse_category, render_category)
from actionccg.learning import TrainingSample
from actionccg.reasoning import (AxiomRule, FactBase, Literal, forward_chain,
                                 parse_axiom)
from actionccg.syntax import MAX_DEPTH, parse_term
from actionccg.terms import (And, App, Const, Exists, Forall, Implies, Lam,
                             Not, Or, Pred, Var, alpha_eq, beta_reduce,
                             canonical, free_vars, inverse_lambda, render,
                             rename_constants, substitute)
from oracles import (OracleBudgetError, analytic_gradient, brute_force_roots,
                     db_alpha_eq, db_normal_form, db_subst_free, de_bruijn,
                     derivation_signature, naive_chain_atoms,
                     numeric_gradient, seminaive_chain_literals, supporting)

COMMON = settings(max_examples=200, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.filter_too_much,
                                         HealthCheck.data_too_large])

VARS = ("x", "y", "z")
CONSTS = ("knife_obj", "bowl_obj", "lid_obj")
PREDS = ("cut_rel", "moved_rel", "tool")

STEP_BUDGET = 400
ORACLE_BUDGET = 800


@st.composite
def lambda_terms(draw, env=(), depth=3, binders=VARS):
    """A term over the bound names ``env``, its binders named from
    ``binders``."""
    def sub(env, depth):
        return draw(lambda_terms(env=env, depth=depth, binders=binders))

    choices = ["const", "pred"]
    if env:
        choices += ["var", "var", "var"]
    if depth > 0:
        choices += ["lam", "forall", "exists", "and", "or", "implies",
                    "not", "app"]
    kind = draw(st.sampled_from(choices))
    if kind == "var":
        return Var(draw(st.sampled_from(env)))
    if kind == "const":
        return Const(draw(st.sampled_from(CONSTS)))
    if kind == "pred":
        arity = draw(st.integers(1, 2))
        args = tuple(sub(env, max(depth - 1, 0)) for _ in range(arity))
        return Pred(draw(st.sampled_from(PREDS)), args)
    if kind in ("lam", "forall", "exists"):
        name = draw(st.sampled_from(binders))
        body = sub(env + (name,), depth - 1)
        ctor = {"lam": Lam, "forall": Forall, "exists": Exists}[kind]
        return ctor(name, body)
    if kind == "not":
        return Not(sub(env, depth - 1))
    if kind == "app":
        if env and draw(st.booleans()):
            fun = Var(draw(st.sampled_from(env)))
        else:
            name = draw(st.sampled_from(binders))
            fun = Lam(name, sub(env + (name,), depth - 1))
        return App(fun, sub(env, depth - 1))
    ctor = {"and": And, "or": Or, "implies": Implies}[kind]
    return ctor(sub(env, depth - 1), sub(env, depth - 1))


def reduce_both_ways(term):
    """Package normal form and oracle normal form, or skip the case."""
    try:
        reduced = beta_reduce(term, budget=STEP_BUDGET)
        oracle = db_normal_form(de_bruijn(term), budget=ORACLE_BUDGET)
    except (NonTerminationError, OracleBudgetError):
        assume(False)
    return reduced, oracle


class TestTermProperties:
    # binders may be named like a constant or a functor of the term
    @COMMON
    @given(lambda_terms(binders=VARS + CONSTS + PREDS))
    def test_render_parse_round_trip_on_closed_terms(self, term):
        assert de_bruijn(parse_term(render(term))) == de_bruijn(term)

    @COMMON
    @given(lambda_terms(env=("x", "y"), binders=VARS + CONSTS + PREDS))
    def test_render_parse_round_trip_with_free_variables(self, term):
        assert de_bruijn(parse_term(render(term))) == de_bruijn(term)

    @COMMON
    @given(lambda_terms(env=("x", "y")))
    def test_remake_of_its_own_kids_rebuilds_every_subterm(self, term):
        stack = [term]
        while stack:
            node = stack.pop()
            assert node.remake(node.kids()) == node
            stack.extend(node.kids())

    @COMMON
    @given(lambda_terms())
    def test_reduction_agrees_with_innermost_oracle(self, term):
        reduced, oracle = reduce_both_ways(term)
        assert de_bruijn(reduced) == oracle

    @COMMON
    @given(lambda_terms())
    def test_reduction_is_idempotent(self, term):
        reduced, _ = reduce_both_ways(term)
        assert de_bruijn(beta_reduce(reduced)) == de_bruijn(reduced)

    @COMMON
    @given(lambda_terms(env=("x", "y")), st.sampled_from(VARS),
           lambda_terms(env=("x",), depth=2))
    def test_substitution_matches_de_bruijn_oracle(self, term, name, rep):
        got = de_bruijn(substitute(term, name, rep))
        want = db_subst_free(de_bruijn(term), name, de_bruijn(rep))
        assert got == want

    @COMMON
    @given(lambda_terms(env=("x", "y")), st.sampled_from(VARS),
           lambda_terms(env=("x",), depth=2))
    def test_substitution_free_variable_law(self, term, name, rep):
        out = free_vars(substitute(term, name, rep))
        assert out <= (free_vars(term) - {name}) | free_vars(rep)

    @COMMON
    @given(lambda_terms())
    def test_alpha_eq_holds_for_renamed_binders(self, term):
        # canonical names its binders ^0, ^1, ...; as _0, _1, ... they parse
        variant = parse_term(canonical(term).replace("^", "_"))
        assert alpha_eq(term, variant)
        assert db_alpha_eq(term, variant)
        assert canonical(term) == canonical(variant)

    @COMMON
    @given(lambda_terms(env=("x",)), lambda_terms(env=("x",)))
    def test_alpha_eq_canonical_and_oracle_agree(self, a, b):
        verdict = alpha_eq(a, b)
        assert verdict == db_alpha_eq(a, b)
        assert verdict == (canonical(a) == canonical(b))

    @COMMON
    @given(lambda_terms(env=("x",)), lambda_terms(env=("x",)), st.booleans())
    def test_canonical_equal_iff_oracle_alpha_equal(self, a, other, twin):
        # constants spelled like renumbered binders; a twin reads a's
        # canonical text back with its binders named _0, _1, ..., which
        # captures a's constants of those names
        a = rename_constants(a, {"knife_obj": "_0", "bowl_obj": "_1"})
        b = (parse_term(canonical(a).replace("^", "_")) if twin
             else rename_constants(other, {"knife_obj": "_0", "bowl_obj": "_1"}))
        assert (canonical(a) == canonical(b)) == db_alpha_eq(a, b)

    @COMMON
    @given(lambda_terms(), st.sampled_from(CONSTS), st.booleans())
    def test_inverse_lambda_round_trips(self, term, const, guarantee):
        target = Const(const)
        if guarantee:
            term = And(Pred("tool", (target,)), term)
        try:
            reduced = beta_reduce(term, budget=STEP_BUDGET)
        except NonTerminationError:
            assume(False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstantFunctionWarning)
            abstraction = inverse_lambda(reduced, target)
        assert isinstance(abstraction, Lam)
        restored = beta_reduce(App(abstraction, target), budget=STEP_BUDGET)
        assert alpha_eq(restored, reduced)


LEX_POOL = (
    LexEntry("Knife", parse_category("N"), parse_term("knife")),
    LexEntry("Bowl", parse_category("N"), parse_term("bowl")),
    LexEntry("Cut", parse_category(r"(AP\NP)/NP"),
             parse_term(r"\x.\y.cut_rel(x,y)")),
    LexEntry("Cut", parse_category(r"(AP\NP)/NP"),
             parse_term(r"\x.\y.slice_rel(x,y)")),
    LexEntry("Wash", parse_category(r"AP\NP"), parse_term(r"\x.washed(x)")),
    LexEntry("every", parse_category(r"NP\NP"),
             parse_term(r"\f.forall x. f(x)")),
)
LEX_TOKENS = tuple(dict.fromkeys(e.token for e in LEX_POOL))

PARSEABLE = (
    ("Knife", "Wash"),
    ("Knife", "Cut", "Bowl"),
    ("Bowl", "Cut", "Knife"),
    ("Knife", "Cut", "every", "Bowl"),
    ("every", "Knife", "Wash"),
    ("Knife", "Cut", "every", "every", "Bowl"),
)


def pool_lexicon(weights):
    lexicon = Lexicon(LEX_POOL)
    return lexicon.with_weights(
        {e.key: w for e, w in zip(LEX_POOL, weights)})


tidy_floats = st.floats(min_value=-3, max_value=3, allow_nan=False,
                        allow_infinity=False).map(lambda w: round(w, 6))


class TestChartProperties:
    @COMMON
    @given(st.sets(st.integers(0, len(LEX_POOL) - 1), min_size=1),
           st.lists(st.sampled_from(LEX_TOKENS), min_size=1, max_size=4))
    def test_chart_matches_exhaustive_bracketing(self, picked, tokens):
        lexicon = Lexicon(LEX_POOL[i] for i in sorted(picked))
        brute = Counter(brute_force_roots(tokens, lexicon))
        try:
            derivations = parse_all(tokens, lexicon)
        except UnknownTokenError:
            assert any(not lexicon.has_token(tok) for tok in tokens)
            assert not brute
            return
        except NoParseError:
            assert all(lexicon.has_token(tok) for tok in tokens)
            assert not brute
            return
        assert derivations
        assert Counter(derivation_signature(d) for d in derivations) == brute

    @COMMON
    @given(st.sets(st.integers(0, len(LEX_POOL) - 1), min_size=1),
           st.sampled_from(PARSEABLE),
           st.lists(tidy_floats, min_size=len(LEX_POOL),
                    max_size=len(LEX_POOL)))
    def test_one_derivation_parses_as_its_scored_share(self, picked, tokens,
                                                      weights):
        # argmax_parse returns a chart with one goal derivation unscored
        lexicon = Lexicon(LEX_POOL[i] for i in sorted(picked)).with_weights(
            {LEX_POOL[i].key: weights[i] for i in picked})
        brute = brute_force_roots(tokens, lexicon)
        assume(len(brute) == 1)
        derivations = parse_all(tokens, lexicon)
        (key, (share, form)), = chart._form_shares(derivations,
                                                   lexicon).items()
        assert key == brute[0][1]
        for result in (argmax_parse(tokens, lexicon),  # parsed, then cached
                       argmax_parse(tokens, lexicon)):
            assert canonical(result.logical_form) == key
            assert result.logical_form == form
            assert result.probability == share == 1.0
            chosen = supporting(derivations, result.logical_form)
            assert [derivation_signature(d) for d in chosen] == brute

    @COMMON
    @given(st.lists(tidy_floats, min_size=len(LEX_POOL),
                    max_size=len(LEX_POOL)),
           st.sampled_from(PARSEABLE))
    def test_parse_probabilities_sum_to_one(self, weights, tokens):
        lexicon = pool_lexicon(weights)
        forms = {}
        for derivation in parse_all(tokens, lexicon):
            forms.setdefault(canonical(derivation.semantics),
                             derivation.semantics)
        masses = [parse_probability(form, tokens, lexicon)
                  for form in forms.values()]
        assert all(0.0 <= m <= 1.0 + 1e-12 for m in masses)
        assert abs(sum(masses) - 1.0) <= 1e-9

    @COMMON
    @given(st.lists(tidy_floats, min_size=len(LEX_POOL),
                    max_size=len(LEX_POOL)),
           st.sampled_from(PARSEABLE), tidy_floats)
    def test_argmax_is_invariant_under_weight_shifts(self, weights, tokens,
                                                     shift):
        lexicon = pool_lexicon(weights)
        shifted = lexicon.with_weights(
            {e.key: e.weight + shift for e in lexicon})
        plain = argmax_parse(tokens, lexicon)
        moved = argmax_parse(tokens, shifted)
        assert alpha_eq(plain.logical_form, moved.logical_form)
        assert abs(plain.probability - moved.probability) <= 1e-9


@st.composite
def deep_categories(draw):
    """A category up to MAX_DEPTH high, grown one slash at a time with the
    category so far as either side of either slash."""
    atoms = st.sampled_from((N, NP, AP))
    cat = draw(atoms)
    steps = st.tuples(st.booleans(), st.booleans(), atoms)
    height = draw(st.integers(1, MAX_DEPTH))
    for as_result, forward, other in draw(
            st.lists(steps, min_size=height - 1, max_size=height - 1)):
        result, arg = (cat, other) if as_result else (other, cat)
        cat = Forward(result, arg) if forward else Backward(result, arg)
    return cat


class TestCategoryProperties:
    @COMMON
    @given(deep_categories())
    def test_rendering_parses_back(self, cat):
        assert parse_category(render_category(cat)) == cat


small_floats = st.floats(min_value=-2, max_value=2, allow_nan=False,
                         allow_infinity=False).map(lambda w: round(w, 3))


class TestGradientProperties:
    @COMMON
    @given(st.lists(small_floats, min_size=len(LEX_POOL),
                    max_size=len(LEX_POOL)),
           st.booleans())
    def test_update_direction_matches_finite_differences(self, weights,
                                                         extra_sample):
        lexicon = pool_lexicon(weights)
        corpus = [TrainingSample(("Knife", "Cut", "Bowl"),
                                 parse_term("cut_rel(knife,bowl)"))]
        if extra_sample:
            corpus.append(TrainingSample(("Bowl", "Wash"),
                                         parse_term("washed(bowl)")))
        analytic = analytic_gradient(corpus, lexicon)
        numeric = numeric_gradient(corpus, lexicon)
        for key, a in analytic.items():
            n = numeric[key]
            assert abs(a - n) <= 1e-6 * max(1.0, abs(a), abs(n))


OBJECTS = ("obj_a", "obj_b", "obj_c", "obj_d")
RULE_TEXTS = (
    "axiom support_transfers: contained(Y,X) & on_top(Z,Y) => on_top(Z,X)",
    "axiom containment_chains: contained(Y,X) & contained(Z,Y) => contained(Z,X)",
    "axiom division_spreads: contained(Y,X) & divided(Y) => divided(X)",
    "axiom contents_ride: contained(Y,X) & on_top(Y,Z) => on_top(X,Z)",
    "axiom on_top_chains: on_top(X,Y) & on_top(Y,Z) => on_top(X,Z)",
    "axiom division_lifts: contained(X,Y) & divided(Y) => divided(X)",
)
RULES = tuple(parse_axiom(text) for text in RULE_TEXTS)


SHAPES = (("divided", 1), ("contained", 2), ("on_top", 2))


@st.composite
def ground_literals(draw, shapes=SHAPES, objects=OBJECTS):
    predicate, arity = draw(st.sampled_from(shapes))
    args = tuple(draw(st.sampled_from(objects)) for _ in range(arity))
    positive = draw(st.sampled_from((True, True, True, False)))
    return Literal(positive, predicate, args)


@st.composite
def fact_bases(draw, shapes=SHAPES, objects=OBJECTS, min_size=0,
               max_size=8):
    kb = FactBase()
    for literal in draw(st.lists(ground_literals(shapes, objects),
                                 min_size=min_size, max_size=max_size)):
        kb = kb.with_literal(literal)
    return kb


@st.composite
def rule_decks(draw):
    picked = draw(st.sets(st.integers(0, len(RULES) - 1), min_size=1))
    return draw(st.permutations([RULES[i] for i in sorted(picked)]))


def positive_atoms(kb):
    return {(l.predicate, l.args) for l in kb.literals if l.positive}


# Wider decks: constants in body patterns, repeated variables, one
# predicate at two arities, and fact constants shaped like variables.
WIDE_OBJECTS = ("obj_a", "obj_b", "obj_c", "Object_001")
WIDE_SHAPES = SHAPES + (("divided", 2),)
PATTERN_VARS = ("X", "Y", "Z")
PATTERN_CONSTS = ("obj_a", "obj_b")


@st.composite
def wide_patterns(draw, variables):
    predicate, arity = draw(st.sampled_from(WIDE_SHAPES))
    if arity == 2 and variables and draw(st.integers(0, 3)) == 0:
        var = draw(st.sampled_from(variables))
        return Literal(True, predicate, (var, var))
    terms = variables + variables + PATTERN_CONSTS  # joins need variables
    return Literal(True, predicate,
                   tuple(draw(st.sampled_from(terms)) for _ in range(arity)))


@st.composite
def wide_rule_decks(draw):
    deck = []
    for number in range(draw(st.integers(1, 4))):
        body = tuple(draw(st.lists(wide_patterns(PATTERN_VARS),
                                   min_size=1, max_size=3)))
        bound = tuple(sorted({a for l in body for a in l.args
                              if a in PATTERN_VARS}))
        head = draw(wide_patterns(bound))
        deck.append(AxiomRule(f"r{number}", body, head))
    return deck


any_decks = st.one_of(rule_decks(), wide_rule_decks())
wide_fact_bases = fact_bases(WIDE_SHAPES, WIDE_OBJECTS, min_size=3,
                             max_size=14)


@st.composite
def event_runs(draw):
    """Events over two objects, so that facts of different events join
    and duplicates, retractions and re-assertions of retracted facts are
    common; the second value is the event index at which the rule deck
    switches."""
    literals = ground_literals(WIDE_SHAPES, ("obj_a", "Object_001"))
    events = draw(st.lists(st.lists(literals, min_size=1, max_size=4),
                           min_size=3, max_size=12))
    return events, draw(st.integers(0, len(events)))


class TestChainingProperties:
    @COMMON
    @given(fact_bases(), rule_decks())
    def test_fixpoint_matches_naive_rescan(self, kb, rules):
        closed = forward_chain(kb, rules)
        assert positive_atoms(closed) == naive_chain_atoms(kb, rules)

    @COMMON
    @given(fact_bases(), rule_decks())
    def test_discovery_order_matches_unindexed_oracle(self, kb, rules):
        closed = forward_chain(kb, rules)
        assert closed.literals == seminaive_chain_literals(kb, rules)

    @COMMON
    @given(wide_fact_bases, wide_rule_decks())
    def test_wide_decks_fixpoint_matches_naive_rescan(self, kb, rules):
        closed = forward_chain(kb, rules)
        assert positive_atoms(closed) == naive_chain_atoms(kb, rules)

    @COMMON
    @given(wide_fact_bases, wide_rule_decks())
    def test_wide_decks_discovery_order_matches_unindexed_oracle(self, kb,
                                                                 rules):
        closed = forward_chain(kb, rules)
        assert closed.literals == seminaive_chain_literals(kb, rules)

    @COMMON
    @given(fact_bases(), rule_decks())
    def test_chaining_is_idempotent(self, kb, rules):
        closed = forward_chain(kb, rules)
        again = forward_chain(closed, rules)
        assert again.literals == closed.literals
        assert again.retracted == closed.retracted

    @COMMON
    @given(fact_bases(), rule_decks())
    def test_rule_order_never_changes_the_fixpoint(self, kb, rules):
        forward = forward_chain(kb, list(rules))
        backward = forward_chain(kb, list(reversed(rules)))
        assert positive_atoms(forward) == positive_atoms(backward)

    @COMMON
    @given(fact_bases(), rule_decks())
    def test_chaining_only_appends(self, kb, rules):
        closed = forward_chain(kb, rules)
        assert closed.literals[:len(kb.literals)] == kb.literals
        for literal in closed.literals[len(kb.literals):]:
            assert literal.positive

    @COMMON
    @given(event_runs(), any_decks, any_decks)
    def test_chaining_per_event_matches_chaining_from_scratch(self, run,
                                                              first, second):
        events, switch = run
        kb = FactBase()
        for step, event in enumerate(events):
            rules = first if step < switch else second
            for literal in event:
                kb = kb.with_literal(literal)
            scratch = forward_chain(FactBase(kb.literals, kb.retracted), rules)
            kb = forward_chain(kb, rules)
            assert kb.literals == scratch.literals
            assert kb.retracted == scratch.retracted
