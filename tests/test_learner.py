"""Induction, templates, and likelihood training."""

import math
import random
import warnings
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionccg import learning, parse_term
from actionccg.chart import argmax_parse, parse_all, parse_probability
from actionccg.corpus import synthesize_corpus
from actionccg.errors import (DegenerateCorpusError, InductionFailureError,
                              InvalidConfigError, NonFiniteWeightError,
                              SkippedSampleWarning)
from actionccg.grammar import LexEntry, Lexicon, N, parse_category
from actionccg.learning import (ACTION_CATEGORY, TrainConfig, TrainingSample,
                                fit, induce_corpus_entries, induce_entries,
                                inject_templates, log_likelihood, train)
from actionccg.terms import App, Const, alpha_eq, beta_reduce

from oracles import analytic_gradient, numeric_gradient


def noun(token):
    return LexEntry(token, parse_category("N"), parse_term(token.lower()))


def sample(line, gold):
    return TrainingSample(tuple(line.split()), parse_term(gold))


NOUNS = Lexicon([noun(t) for t in
                 ("Cup", "Bucket", "Spoon", "Knife", "Cucumber", "Carrot")])


class TestInduceEntries:
    def test_take_down_entry(self):
        s = sample("cup take_down bucket",
                   "take_down(cup,bucket) -> !connected(cup,bucket) & moved(cup)")
        entries = induce_entries(s, NOUNS)
        assert len(entries) == 1
        entry = entries[0]
        assert entry.token == "take_down"
        assert entry.category == ACTION_CATEGORY
        assert entry.key not in {e.key for e in NOUNS}
        assert entry.weight == 0.0
        assert alpha_eq(entry.semantics, parse_term(
            r"\x.\y.take_down(x,y) -> !connected(x,y) & moved(x)"))

    def test_consequence_free_action(self):
        s = sample("spoon stirring bucket", "stirring(spoon,bucket)")
        entry = induce_entries(s, NOUNS)[0]
        assert alpha_eq(entry.semantics, parse_term(r"\x.\y.stirring(x,y)"))

    def test_round_trip_through_the_parser(self):
        s = sample("cup take_down bucket",
                   "take_down(cup,bucket) -> !connected(cup,bucket) & moved(cup)")
        lexicon = NOUNS.with_entries(induce_entries(s, NOUNS))
        derivations = parse_all(["cup", "take_down", "bucket"], lexicon)
        assert any(alpha_eq(d.semantics, s.gold) for d in derivations)

    def test_known_entry_not_duplicated(self):
        s = sample("spoon stirring bucket", "stirring(spoon,bucket)")
        lexicon = NOUNS.with_entries(induce_entries(s, NOUNS))
        assert induce_entries(s, lexicon) == []

    def test_missing_noun_entry_fails(self):
        s = sample("ghost stirring bucket", "stirring(ghost,bucket)")
        with pytest.raises(InductionFailureError):
            induce_entries(s, NOUNS)

    def test_non_triplet_fails(self):
        bad = TrainingSample(("cup", "bucket"), parse_term("moved(cup)"))
        with pytest.raises(InductionFailureError):
            induce_entries(bad, NOUNS)

    def test_corpus_induction_skips_bad_samples(self):
        good = sample("spoon stirring bucket", "stirring(spoon,bucket)")
        bad = sample("ghost stirring bucket", "stirring(ghost,bucket)")
        with pytest.warns(SkippedSampleWarning):
            lexicon = induce_corpus_entries([bad, good], NOUNS)
        assert len(lexicon.lookup("stirring")) == 1

    def test_shipped_corpus_induces_eight_actions(self, seed_lexicon,
                                                  table1_samples):
        lexicon = induce_corpus_entries(table1_samples, seed_lexicon)
        seed = {e.key for e in seed_lexicon}
        learned = [e for e in lexicon if e.key not in seed]
        assert len(learned) == 8
        assert {e.token for e in learned} == {
            "chopping", "cutting", "stirring", "take_down", "put_on_top",
            "hiding", "pushing", "uncover"}
        assert all(e.category == ACTION_CATEGORY for e in learned)

    @staticmethod
    def per_sample_induction(corpus, lexicon):
        """Corpus induction as one lexicon per induced entry, each sample
        induced against the lexicon grown so far."""
        for s in corpus:
            try:
                new = induce_entries(s, lexicon)
            except InductionFailureError:
                continue
            if new:
                lexicon = lexicon.with_entries(new)
        return lexicon

    @pytest.mark.parametrize("replicas", [1, 15])
    def test_one_build_equals_the_per_sample_build(self, seed_lexicon,
                                                   table1_samples, replicas):
        objects = [e.semantics.name for e in seed_lexicon]
        corpus = synthesize_corpus(table1_samples, objects, replicas=replicas)
        once = induce_corpus_entries(corpus, seed_lexicon)
        assert list(once) == list(self.per_sample_induction(corpus,
                                                            seed_lexicon))
        # replicas rename constants only, so they induce the same 8 keys
        assert len(once) == len(seed_lexicon) + 8


class TestInjectTemplates:
    def test_object_token_becomes_noun(self):
        lexicon = inject_templates(["Object_007"], Lexicon())
        entry = lexicon.lookup("Object_007")[0]
        assert entry.category == N
        assert entry.semantics == parse_term("object_007")
        assert entry.weight == 0.0

    def test_object_match_ignores_case(self):
        lexicon = inject_templates(["OBJECT_12", "object_9"], Lexicon())
        assert lexicon.lookup("OBJECT_12")[0].category == N
        assert lexicon.lookup("object_9")[0].category == N

    def test_known_token_untouched(self, basic_lexicon):
        assert inject_templates(["Cut"], basic_lexicon) is basic_lexicon

    def test_unknown_action_gets_penalty_entry(self):
        lexicon = inject_templates(["Slicing"], Lexicon())
        entry = lexicon.lookup("Slicing")[0]
        assert entry.category == ACTION_CATEGORY
        assert alpha_eq(entry.semantics, parse_term(r"\x.\y.slicing(x,y)"))
        assert entry.weight == -1.0

    def test_idempotent(self):
        once = inject_templates(["Object_007", "Slicing"], Lexicon())
        twice = inject_templates(["Object_007", "Slicing"], once)
        assert [e.key for e in twice] == [e.key for e in once]

    def test_template_parse_round_trip(self):
        lexicon = inject_templates(["Object_014", "Chopping", "Object_011"],
                                   Lexicon())
        result = argmax_parse(["Object_014", "Chopping", "Object_011"], lexicon)
        assert result.logical_form == parse_term(
            "chopping(object_014,object_011)")


class TestTrain:
    def competing_lexicon(self):
        return NOUNS.with_entries([
            LexEntry("cut", ACTION_CATEGORY,
                     parse_term(r"\x.\y.cut(x,y) -> divided(y)")),
            LexEntry("cut", ACTION_CATEGORY, parse_term(r"\x.\y.slice(x,y)")),
        ])

    def cut_corpus(self):
        pairs = [("knife", "cucumber"), ("knife", "carrot"),
                 ("spoon", "cucumber"), ("cup", "carrot"),
                 ("knife", "bucket")] * 2
        return [sample(f"{s} cut {p}", f"cut({s},{p}) -> divided({p})")
                for s, p in pairs]

    def test_competing_entries_gold_dominates(self):
        lexicon = train(self.cut_corpus(), self.competing_lexicon(),
                        TrainConfig())
        p = parse_probability(
            parse_term("cut(knife,cucumber) -> divided(cucumber)"),
            ["knife", "cut", "cucumber"], lexicon)
        assert p > 0.9

    def test_trained_likelihood_beats_grid_search(self):
        corpus = self.cut_corpus()
        lexicon = self.competing_lexicon()
        trained = train(corpus, lexicon, TrainConfig())
        best = log_likelihood(corpus, trained)
        keys = [e.key for e in lexicon.lookup("cut")]
        # likelihood depends only on the weight difference of the two
        # competing entries, so a 1-d sweep covers the whole family
        for delta in [x / 4 for x in range(-20, 21)]:
            weights = {keys[0]: delta, keys[1]: 0.0}
            assert best >= log_likelihood(corpus, lexicon.with_weights(weights)) - 1e-9

    def test_single_candidate_probability_stays_one(self):
        corpus = [sample("spoon stirring bucket", "stirring(spoon,bucket)")]
        lexicon = NOUNS.with_entries(induce_entries(corpus[0], NOUNS))
        before = {e.key: e.weight for e in lexicon}
        trained = train(corpus, lexicon, TrainConfig(iterations=25))
        after = {e.key: e.weight for e in trained}
        for key, weight in after.items():
            assert weight >= before[key]
        assert parse_probability(corpus[0].gold, list(corpus[0].tokens),
                                 trained) == pytest.approx(1.0)

    def test_monotone_ascent_at_small_rate(self, seed_lexicon, table1_samples):
        lexicon = induce_corpus_entries(table1_samples, seed_lexicon)
        lexicon = lexicon.with_entries([
            LexEntry("chopping", ACTION_CATEGORY,
                     parse_term(r"\x.\y.chop_rival(x,y)"), 0.5)])
        config = TrainConfig(iterations=1, learning_rate=0.01)
        history = [log_likelihood(table1_samples, lexicon)]
        for _ in range(12):
            lexicon = train(table1_samples, lexicon, config)
            history.append(log_likelihood(table1_samples, lexicon))
        assert all(later >= earlier - 1e-12
                   for earlier, later in zip(history, history[1:]))
        assert history[-1] > history[0]

    def test_l2_pulls_weights_toward_zero(self):
        corpus = self.cut_corpus()
        free = train(corpus, self.competing_lexicon(), TrainConfig())
        tied = train(corpus, self.competing_lexicon(), TrainConfig(l2=1.0))
        free_spread = max(abs(e.weight) for e in free)
        tied_spread = max(abs(e.weight) for e in tied)
        assert tied_spread < free_spread

    def test_unparseable_samples_skipped_with_warning(self):
        corpus = [sample("spoon stirring bucket", "stirring(spoon,bucket)"),
                  sample("spoon mystery bucket", "mystery(spoon,bucket)")]
        lexicon = NOUNS.with_entries(induce_entries(corpus[0], NOUNS))
        with pytest.warns(SkippedSampleWarning):
            trained = train(corpus, lexicon, TrainConfig(iterations=1))
        assert len(trained) == len(lexicon)

    def test_gold_mismatch_skipped_with_warning(self):
        corpus = [sample("spoon stirring bucket", "stirring(spoon,bucket)"),
                  sample("spoon stirring bucket", "vanished(bucket)")]
        lexicon = NOUNS.with_entries(induce_entries(corpus[0], NOUNS))
        with pytest.warns(SkippedSampleWarning):
            train(corpus, lexicon, TrainConfig(iterations=1))

    def test_degenerate_corpus_raises(self):
        corpus = [sample("spoon mystery bucket", "mystery(spoon,bucket)")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DegenerateCorpusError):
                train(corpus, NOUNS, TrainConfig())

    def test_gradient_matches_finite_differences(self):
        corpus = self.cut_corpus()[:4]
        lexicon = self.competing_lexicon()
        cut_keys = [e.key for e in lexicon.lookup("cut")]
        lexicon = lexicon.with_weights({
            cut_keys[0]: 0.7, cut_keys[1]: -0.4,
            lexicon.lookup("Knife")[0].key: 0.2})
        analytic = analytic_gradient(corpus, lexicon)
        numeric = numeric_gradient(corpus, lexicon)
        assert analytic.keys() == numeric.keys()
        for key, a in analytic.items():
            n = numeric[key]
            assert abs(a - n) <= 1e-6 * max(1.0, abs(a), abs(n))


CUT_SENSES = (r"\x.\y.cut(x,y) -> divided(y)", r"\x.\y.slice(x,y)",
              r"\x.\y.cut(x,y)")
WEIGHTS = (-0.0, 0.0, 0.5, -1.25, 2.0)


@st.composite
def ambiguous_training(draw):
    """A lexicon with one to three senses of ``cut`` and a second sense of
    ``Spoon``, and rows each annotated with one of its readings."""
    senses = draw(st.lists(st.sampled_from(CUT_SENSES), min_size=1,
                           max_size=3, unique=True))
    lexicon = NOUNS.with_entries(
        [LexEntry("Spoon", N, parse_term("ladle"))]
        + [LexEntry("cut", ACTION_CATEGORY, parse_term(sense)) for sense in senses])
    lexicon = lexicon.with_weights(
        {e.key: draw(st.sampled_from(WEIGHTS)) for e in lexicon})
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        subject = draw(st.sampled_from(["knife", "spoon", "cup"]))
        patient = draw(st.sampled_from(["cucumber", "carrot"]))
        reading = App(App(parse_term(draw(st.sampled_from(senses))),
                          Const(subject)), Const(patient))
        rows.append(TrainingSample((subject, "cut", patient), beta_reduce(reading)))
    return rows, lexicon


class TestTrainFixedPoint:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ambiguous_training(), st.integers(0, 6), st.integers(0, 6),
           st.sampled_from([0.1, 1.0]), st.sampled_from([0.0, 0.5]))
    def test_training_in_two_runs_equals_one_run(self, training, n, m, lr, l2):
        corpus, lexicon = training
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SkippedSampleWarning)
            once = train(corpus, lexicon, TrainConfig(n + m, lr, l2))
            twice = train(corpus, train(corpus, lexicon, TrainConfig(n, lr, l2)),
                          TrainConfig(m, lr, l2))
        assert ([(e.key, float(e.weight).hex()) for e in once]
                == [(e.key, float(e.weight).hex()) for e in twice])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ambiguous_training(),
           st.lists(st.tuples(st.sampled_from(["knife", "cup"]),
                              st.sampled_from(["cucumber", "carrot"])),
                    min_size=1, max_size=3),
           st.sampled_from([0.1, 1.0]))
    def test_all_gold_rows_leave_the_weights_unchanged(self, training, pairs, lr):
        # ``stir`` has one sense and its nouns one each, so every derivation
        # of these rows matches its annotation and the row cannot move a weight
        corpus, lexicon = training
        lexicon = lexicon.with_entries(
            [LexEntry("stir", ACTION_CATEGORY, parse_term(r"\x.\y.stir(x,y)"))])
        all_gold = [sample(f"{s} stir {p}", f"stir({s},{p})") for s, p in pairs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SkippedSampleWarning)
            alone = train(corpus, lexicon, TrainConfig(5, lr))
            padded = train(corpus + all_gold, lexicon, TrainConfig(5, lr))
        assert ([(e.key, float(e.weight).hex()) for e in alone]
                == [(e.key, float(e.weight).hex()) for e in padded])

    @pytest.mark.parametrize("cup_weight, passes", [(0.0, 1), (-0.0, 2)])
    def test_zero_gradient_stops_at_the_fixed_point(self, monkeypatch,
                                                    cup_weight, passes):
        corpus = [sample("spoon stirring bucket", "stirring(spoon,bucket)")]
        lexicon = NOUNS.with_entries(induce_entries(corpus[0], NOUNS))
        lexicon = lexicon.with_weights({lexicon.lookup("Cup")[0].key: cup_weight})
        grads = []

        def counted(factory):
            grads.append(defaultdict(factory))
            return grads[-1]

        monkeypatch.setattr(learning, "defaultdict", counted)
        # the gradient is zero, so only the l2 step on -0.0 moves a weight,
        # to 0.0; the pass after the last change is the last one
        trained = train(corpus, lexicon, TrainConfig(l2=1.0))
        assert len(grads) == passes  # one gradient per pass
        assert [float(e.weight).hex() for e in trained] == ["0x0.0p+0"] * len(trained)


def knife_cutting_tomato(k, m, seed=0):
    """``knife cutting tomato`` annotated ``k`` times ``-> divided(tomato)``
    and ``m`` times ``-> moved(tomato)``, in an order shuffled by ``seed``,
    and a lexicon with one ``cutting`` entry for each reading.  The
    likelihood is highest at P(divided) = k / (k + m)."""
    lexicon = Lexicon([noun("Knife"), noun("Tomato")] + [
        LexEntry("cutting", ACTION_CATEGORY,
                 parse_term(rf"\x.\y.cutting(x,y) -> {effect}(y)"))
        for effect in ("divided", "moved")])
    rows = [sample("knife cutting tomato", f"cutting(knife,tomato) -> {effect}(tomato)")
            for effect in ["divided"] * k + ["moved"] * m]
    random.Random(seed).shuffle(rows)
    return rows, lexicon


class TestTrainReachesTheOptimum:
    @pytest.mark.parametrize("k, m", [(3, 1), (75, 25), (300, 100)])
    def test_fit_reaches_the_closed_form(self, k, m):
        rows, lexicon = knife_cutting_tomato(k, m, seed=k)
        trained, final = fit(rows, lexicon)
        divided = parse_term("cutting(knife,tomato) -> divided(tomato)")
        share = parse_probability(divided, ["knife", "cutting", "tomato"], trained)
        assert share == pytest.approx(k / (k + m), abs=1e-6)
        optimum = k * math.log(k / (k + m)) + m * math.log(m / (k + m))
        assert final == pytest.approx(optimum, rel=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 99),
           st.sampled_from([0.1, 1.0, 3.0]), st.sampled_from([0.0, 0.5]),
           st.lists(st.sampled_from(WEIGHTS), min_size=2, max_size=2))
    def test_the_objective_never_falls(self, k, m, seed, lr, l2, weights):
        rows, lexicon = knife_cutting_tomato(k, m, seed)
        senses = [e.key for e in lexicon.lookup("cutting")]
        lexicon = lexicon.with_weights(dict(zip(senses, weights)))

        def objective(lexicon):
            return (log_likelihood(rows, lexicon)
                    - l2 / 2 * sum(e.weight * e.weight for e in lexicon))

        history = [objective(lexicon)]
        for _ in range(6):  # one pass at a time, as one run of six passes
            lexicon = train(rows, lexicon, TrainConfig(1, lr, l2))
            history.append(objective(lexicon))
        assert all(later >= earlier - 1e-12 * abs(earlier)
                   for earlier, later in zip(history, history[1:]))


class TestTrainConfig:
    @pytest.mark.parametrize("settings", [
        {"iterations": -1}, {"learning_rate": math.inf},
        {"learning_rate": math.nan}, {"l2": math.inf}, {"l2": -math.inf}])
    def test_out_of_range_settings_rejected(self, settings):
        with pytest.raises(InvalidConfigError):
            TrainConfig(**settings)

    def test_edge_settings_accepted(self):
        TrainConfig(iterations=0, learning_rate=-1.0, l2=-1.0)

    def test_divergent_training_stops_at_the_first_non_finite_weight(self):
        corpus = [sample("spoon stirring bucket", "stirring(spoon,bucket)")]
        lexicon = NOUNS.with_entries(induce_entries(corpus[0], NOUNS))
        lexicon = lexicon.with_weights({lexicon.lookup("Cup")[0].key: 1.0})
        # a negative l2 rewards large weights, so each full step raises the
        # objective and multiplies the weight by 1 + 1e6: it overflows at
        # iteration 52, long before the millionth
        config = TrainConfig(iterations=1_000_000, learning_rate=1e6, l2=-1.0)
        with pytest.raises(NonFiniteWeightError,
                           match=r"for Cup := N : cup at training iteration 52$"):
            train(corpus, lexicon, config)


class TestLogLikelihood:
    def test_perfectly_separated_corpus_reaches_zero(self):
        corpus = [sample("spoon stirring bucket", "stirring(spoon,bucket)")]
        lexicon = NOUNS.with_entries(induce_entries(corpus[0], NOUNS))
        assert log_likelihood(corpus, lexicon) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_ambiguity_costs_log_two(self):
        corpus = [sample("knife cut cucumber",
                         "cut(knife,cucumber) -> divided(cucumber)")]
        lexicon = TestTrain().competing_lexicon()
        assert log_likelihood(corpus, lexicon) == pytest.approx(
            -math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("weight", [1e15, 1e16])
    def test_uniform_ambiguity_costs_log_two_at_any_scale(self, weight):
        # at 1e15 a score's ulp is 0.125, so top + log(2) rounds to top + 0.75
        corpus = [sample("knife cut cucumber",
                         "cut(knife,cucumber) -> divided(cucumber)")]
        lexicon = TestTrain().competing_lexicon()
        lexicon = lexicon.with_weights({e.key: weight for e in lexicon.lookup("cut")})
        assert log_likelihood(corpus, lexicon) == pytest.approx(
            -math.log(2.0), abs=1e-12)
