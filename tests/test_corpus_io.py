"""File formats: loaders, savers, diagnostics, and the shipped data."""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from actionccg import parse_term
from actionccg.corpus import (data_path, load_axioms, load_corpus, load_gold,
                              load_lexicon, load_sequence, save_corpus,
                              save_lexicon, synthesize_corpus)
from actionccg.errors import (ActionCCGError, ArityConflictError,
                              DuplicateEntryWarning, InvalidConfigError,
                              NonTerminationError, RangeRestrictionError,
                              SourceSyntaxError)
from actionccg.grammar import AP, N, LexEntry, Lexicon, parse_category
from actionccg.learning import TrainingSample, induce_corpus_entries
from actionccg.terms import And, App, Const, canonical, free_vars


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_single_entry(self, tmp_path):
        lex = load_lexicon(write(tmp_path / "one.lex", "Knife := N : knife\n"))
        assert len(lex) == 1
        entry = list(lex)[0]
        assert entry.token == "Knife"
        assert entry.category == N
        assert entry.semantics == Const("knife")
        assert entry.weight == 0.0

    def test_empty_file(self, tmp_path):
        assert len(load_lexicon(write(tmp_path / "none.lex", "\n# note\n"))) == 0

    def test_exact_documented_line(self, tmp_path):
        line = r"Cut := (AP\NP)/NP : \x.\y. cut(x,y) -> divided(y) @ 0.0"
        lex = load_lexicon(write(tmp_path / "cut.lex", line + "\n"))
        entry = list(lex)[0]
        assert entry.category == parse_category(r"(AP\NP)/NP")
        assert entry.weight == 0.0
        assert canonical(entry.semantics) == canonical(
            parse_term(r"\x.\y.cut(x,y) -> divided(y)"))

    def test_weight_parses(self, tmp_path):
        lex = load_lexicon(write(tmp_path / "w.lex",
                                 "Knife := N : knife @ -1.25\n"))
        assert list(lex)[0].weight == -1.25

    def test_semantics_normalized_on_load(self, tmp_path):
        lex = load_lexicon(write(tmp_path / "redex.lex",
                                 r"Odd := N : (\x.x) knife" + "\n"))
        assert list(lex)[0].semantics == Const("knife")

    def test_duplicate_entries_warn_and_merge(self, tmp_path):
        text = "Knife := N : knife @ 1.0\nKnife := N : knife @ 2.0\n"
        with pytest.warns(DuplicateEntryWarning):
            lex = load_lexicon(write(tmp_path / "dup.lex", text))
        assert len(lex) == 1
        assert list(lex)[0].weight == 2.0

    def test_each_repeated_key_warns_once(self, tmp_path):
        text = ("Knife := N : knife @ 1.0\nBowl := N : bowl\n"
                "Knife := N : knife @ 3.0\nBowl := N : bowl\n"
                "Knife := N : knife @ 2.0\nCup := N : cup\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lex = load_lexicon(write(tmp_path / "dup.lex", text))
        assert [(w.category, str(w.message)) for w in caught] == [
            (DuplicateEntryWarning, "duplicate entry for 'Knife': N : knife"),
            (DuplicateEntryWarning, "duplicate entry for 'Bowl': N : bowl")]
        assert [(e.token, e.weight) for e in lex] == [
            ("Knife", 3.0), ("Bowl", 0.0), ("Cup", 0.0)]

    def test_error_carries_line_and_path(self, tmp_path):
        path = write(tmp_path / "bad.lex", "Knife := N : knife\nBowl = N : bowl\n")
        with pytest.raises(SourceSyntaxError) as err:
            load_lexicon(path)
        assert err.value.line == 2
        assert "bad.lex" in str(err.value)

    def test_bad_category_rejected(self, tmp_path):
        with pytest.raises(SourceSyntaxError):
            load_lexicon(write(tmp_path / "cat.lex", "Knife := XP : knife\n"))

    def test_bad_weight_rejected(self, tmp_path):
        with pytest.raises(SourceSyntaxError):
            load_lexicon(write(tmp_path / "wt.lex", "Knife := N : knife @ heavy\n"))

    @pytest.mark.parametrize("weight", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        text = f"Bowl := N : bowl\nKnife := N : knife @ {weight}\n"
        with pytest.raises(SourceSyntaxError) as err:
            load_lexicon(write(tmp_path / "wt.lex", text))
        assert "line 2" in str(err.value) and "non-finite" in str(err.value)

    def test_too_deep_reduct_is_a_syntax_error_on_its_line(self, tmp_path):
        # loading reduces Cut's Church-numeral power to 3,125 nested
        # applications, deeper than any recursive walker can go
        five = r"(\f.\z.f (f (f (f (f z)))))"
        path = write(tmp_path / "power.lex",
                     "Knife := N : knife\n"
                     f"Cut := (AP\\NP)/NP : \\x.\\y. {five} {five} "
                     "(\\w.cut(w,y)) x\n")
        with pytest.raises(SourceSyntaxError) as err:
            load_lexicon(path)
        assert err.value.line == 2
        assert str(err.value) == (f"{path}, line 2: logical form nested too "
                                  "deeply to process")

    def test_a_divergent_entry_keeps_its_error_type_and_gains_path_and_line(
            self, tmp_path):
        path = write(tmp_path / "omega.lex", "Knife := N : knife\n"
                                             "Foo := N : (\\x.x x)(\\x.x x)\n")
        with pytest.raises(NonTerminationError) as err:
            load_lexicon(path)
        assert (err.value.path, err.value.line) == (str(path), 2)
        assert str(err.value) == f"{path}, line 2: no normal form within 10000 steps"

    def test_arity_conflict_rejected(self, tmp_path):
        text = ("A := AP : moved(box_one)\n"
                "B := AP : moved(box_one,box_two)\n")
        with pytest.raises(ArityConflictError) as err:
            load_lexicon(write(tmp_path / "arity.lex", text))
        assert "line 2" in str(err.value) and "line 1" in str(err.value)


class TestArityMessages:
    """Exact wording of every loader's arity conflict; the second case pins
    the order in which one term's predicates are audited."""

    @pytest.mark.parametrize("loader, name, text, message", [
        (load_lexicon, "two.lex",
         "A := AP : moved(box_one)\nB := AP : moved(box_one,box_two)\n",
         "line 2: predicate 'moved' used with 2 arguments but with 1 on line 1"),
        (load_lexicon, "one_term.lex",
         "Knife := N : knife\nA := AP : p(a) & p(a,b)\n",
         "line 2: predicate 'p' used with 1 arguments but with 2 on line 2"),
        (load_axioms, "rule.rules",
         "axiom ok: q(X) => q(X)\naxiom bad: p(X,Y) => p(X)\n",
         "line 2: predicate 'p' used with 1 arguments but with 2 on line 2"),
        (load_corpus, "note.corpus",
         "knife cut bread\tcut(knife,bread) -> divided(bread)\n"
         "knife cut bread\tcut(knife,bread) -> divided(bread,knife)\n",
         "line 2: predicate 'divided' used with 2 arguments but with 1 on line 1"),
        (load_gold, "facts.gold", "on_top(cup,bowl)\non_top(cup)\n",
         "line 2: predicate 'on_top' used with 1 arguments but with 2 on line 1"),
    ], ids=["two_lines", "one_term", "rule", "corpus", "gold"])
    def test_message(self, tmp_path, loader, name, text, message):
        path = write(tmp_path / name, text)
        with pytest.raises(ArityConflictError) as err:
            loader(path)
        assert str(err.value) == f"{path}, {message}"


class TestRoundTrips:
    def test_seed_lexicon_round_trip(self, tmp_path, seed_lexicon):
        out = tmp_path / "seed_copy.lex"
        save_lexicon(seed_lexicon, out)
        reloaded = load_lexicon(out)
        assert [e.key for e in reloaded] == [e.key for e in seed_lexicon]
        assert [e.weight for e in reloaded] == [e.weight for e in seed_lexicon]

    def test_learned_lexicon_round_trip(self, tmp_path, seed_lexicon,
                                        table1_samples):
        learned = induce_corpus_entries(table1_samples, seed_lexicon)
        learned = learned.with_weights(
            {e.key: round(0.1 * i, 6) for i, e in enumerate(learned)})
        out = tmp_path / "learned.lex"
        save_lexicon(learned, out)
        reloaded = load_lexicon(out)
        assert {e.key for e in reloaded} == {e.key for e in learned}
        for entry in learned:
            assert reloaded.weight_of(entry.key) == pytest.approx(
                entry.weight, abs=1e-9)

    def test_corpus_round_trip(self, tmp_path, table1_samples):
        out = tmp_path / "table_copy.corpus"
        save_corpus(table1_samples, out, header="copy")
        reloaded = load_corpus(out)
        assert [s.tokens for s in reloaded] == [s.tokens for s in table1_samples]
        assert [canonical(s.gold) for s in reloaded] == [
            canonical(s.gold) for s in table1_samples]


class TestWritersCheckTheReadBack:
    """A file that would not load back is refused with the loader's message,
    naming the line, and nothing is written."""

    def right_nested(self, depth):
        # each level renders with a pair of parentheses, so 56 levels come
        # out deeper than the 100 the term parser allows
        term = parse_term("divided(bread)")
        for _ in range(depth):
            term = And(parse_term("moved(knife)"), term)
        return term

    def test_lexicon(self, tmp_path):
        path = tmp_path / "deep.lex"
        lexicon = Lexicon([LexEntry("A", AP, self.right_nested(56))])
        with pytest.raises(SourceSyntaxError) as err:
            save_lexicon(lexicon, path)
        assert str(err.value).startswith(
            f"not written, would not load back: {path}, line 1: "
            "term nested deeper than 100 levels")
        assert not path.exists()

    def test_corpus(self, tmp_path):
        path = tmp_path / "deep.corpus"
        samples = [TrainingSample(("knife", "cut", "bread"),
                                  self.right_nested(depth)) for depth in (1, 56)]
        with pytest.raises(SourceSyntaxError) as err:
            save_corpus(samples, path, header="deep")
        # the header comment and the shallow sample come first
        assert str(err.value).startswith(
            f"not written, would not load back: {path}, line 3: "
            "term nested deeper than 100 levels")
        assert not path.exists()

    def test_a_constant_shaped_as_a_variable_is_refused(self, tmp_path):
        # ``x`` renders as the bare name, which loads back as a variable
        path = tmp_path / "shape.lex"
        with pytest.raises(SourceSyntaxError) as err:
            save_lexicon(Lexicon([LexEntry("Ex", N, Const("x"))]), path)
        assert str(err.value) == (f"not written, would not load back: {path}, "
                                  "line 1: reads back as another record")
        assert not path.exists()

    def test_an_annotation_that_reloads_reduced_is_refused(self, tmp_path):
        path = tmp_path / "redex.corpus"
        tokens = ("knife", "cut", "bread")
        gold = parse_term("cut(knife,bread)")
        redex = App(parse_term(r"\y.cut(knife,y)"), Const("bread"))
        samples = [TrainingSample(tokens, gold), TrainingSample(tokens, redex)]
        with pytest.raises(SourceSyntaxError) as err:
            save_corpus(samples, path, header="redex")
        # the header comment and the normal sample come first
        assert str(err.value) == (f"not written, would not load back: {path}, "
                                  "line 3: reads back as another record")
        assert not path.exists()

    @pytest.mark.parametrize("weights", [(1.0, 2.0), (2.0, 1.0)])
    def test_one_key_written_once(self, tmp_path, weights):
        # the lexicon itself merges the two entries at the higher weight
        path = tmp_path / "twice.lex"
        knife = parse_term("knife")
        lexicon = Lexicon([LexEntry("Knife", N, knife, w) for w in weights])
        assert list(lexicon) == [LexEntry("Knife", N, knife, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DuplicateEntryWarning)
            save_lexicon(lexicon, path)
            assert list(load_lexicon(path)) == list(lexicon)

    def test_shallow_nesting_is_written(self, tmp_path):
        path = tmp_path / "shallow.lex"
        save_lexicon(Lexicon([LexEntry("A", AP, self.right_nested(40))]), path)
        assert list(load_lexicon(path))[0].semantics == self.right_nested(40)


class TestLoadCorpus:
    def test_shipped_base_corpus(self, table1_samples):
        assert len(table1_samples) == 8
        assert table1_samples[0].tokens == ("cleaver", "chopping", "carrot")
        assert table1_samples[0].gold == parse_term(
            "chopping(cleaver,carrot) -> divided(carrot)")

    def test_missing_tab_rejected(self, tmp_path):
        with pytest.raises(SourceSyntaxError) as err:
            load_corpus(write(tmp_path / "no_tab.corpus",
                              "knife cut cucumber cut(knife,cucumber)\n"))
        assert err.value.line == 1

    def test_wrong_token_count_rejected(self, tmp_path):
        with pytest.raises(SourceSyntaxError):
            load_corpus(write(tmp_path / "two.corpus",
                              "knife cut\tcut(knife,cucumber)\n"))

    def test_malformed_expression_cites_line(self, tmp_path):
        text = ("spoon stirring bucket\tstirring(spoon,bucket)\n"
                "knife cut cucumber\tcut(knife,,cucumber)\n")
        with pytest.raises(SourceSyntaxError) as err:
            load_corpus(write(tmp_path / "bad.corpus", text))
        assert err.value.line == 2

    def test_free_variables_rejected(self, tmp_path):
        with pytest.raises(SourceSyntaxError):
            load_corpus(write(tmp_path / "free.corpus",
                              "knife cut cucumber\tcut(knife,y)\n"))

    def test_annotations_are_closed(self, table1_samples):
        assert all(not free_vars(s.gold) for s in table1_samples)


class TestSequencesAndGold:
    def test_case_study_sequences(self):
        first = load_sequence(data_path("casestudy1.seq"))
        assert first.name == "casestudy1"
        assert first.triplets == (
            ("Object_008", "Hiding", "Object_009"),
            ("Object_007", "Put_on_top", "Object_008"))
        second = load_sequence(data_path("casestudy2.seq"))
        assert len(second.triplets) == 4

    def test_seven_triplet_sequence(self, tmp_path):
        lines = "\n".join(f"Object_00{i} Pushing Object_01{i}"
                          for i in range(7))
        seq = load_sequence(write(tmp_path / "long.seq", lines + "\n"))
        assert len(seq.triplets) == 7

    def test_malformed_triplet_rejected(self, tmp_path):
        with pytest.raises(SourceSyntaxError) as err:
            load_sequence(write(tmp_path / "bad.seq",
                                "Object_001 Pushing\n"))
        assert err.value.line == 1

    def test_gold_files(self):
        first = load_gold(data_path("casestudy1.gold"))
        assert len(first) == 5
        assert str(first[-1]) == "on_top(object_007,object_009)"
        second = load_gold(data_path("casestudy2.gold"))
        assert len(second) == 9

    def test_gold_deduplicates(self, tmp_path):
        text = "moved(box)\nmoved(box)\nmoved(cup)\n"
        gold = load_gold(write(tmp_path / "dup.gold", text))
        assert [str(l) for l in gold] == ["moved(box)", "moved(cup)"]

    def test_gold_rejects_variables(self, tmp_path):
        with pytest.raises(SourceSyntaxError):
            load_gold(write(tmp_path / "var.gold", "moved(Box)\n"))

    def test_gold_arity_conflict(self, tmp_path):
        text = "on_top(cup,bowl)\non_top(cup)\n"
        with pytest.raises(ArityConflictError):
            load_gold(write(tmp_path / "arity.gold", text))


class TestLoadAxioms:
    def test_shipped_rules(self, shipped_axioms):
        assert len(shipped_axioms) == 4
        assert [r.name for r in shipped_axioms] == [
            "support_transfers_to_contents", "containment_is_transitive",
            "division_reaches_contents", "contents_ride_their_container"]

    def test_error_cites_line(self, tmp_path):
        text = ("axiom good: p(X) => p(X)\n"
                "axiom bad p(X) => q(X)\n")
        with pytest.raises(SourceSyntaxError) as err:
            load_axioms(write(tmp_path / "bad.rules", text))
        assert err.value.line == 2

    def test_a_rule_error_keeps_its_type_and_gains_path_and_line(self, tmp_path):
        path = write(tmp_path / "unbound.rules", "axiom ok: p(X) => q(X)\n"
                                                 "axiom bad: p(X) => q(X,W)\n")
        with pytest.raises(RangeRestrictionError) as err:
            load_axioms(path)
        assert (err.value.path, err.value.line) == (str(path), 2)
        assert str(err.value) == (f"{path}, line 2: axiom 'bad': head "
                                  "variables W never occur in the body")


class TestShippedDataIsClean:
    def test_every_file_loads_without_diagnostics(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(load_lexicon(data_path("seed.lex"))) == 30
            assert len(load_lexicon(data_path("basic.lex"))) == 3
            assert len(load_lexicon(data_path("quantifier.lex"))) == 4
            assert len(load_corpus(data_path("table1.corpus"))) == 8
            assert len(load_axioms(data_path("axioms.rules"))) == 4
            assert len(load_sequence(data_path("casestudy1.seq")).triplets) == 2
            assert len(load_sequence(data_path("casestudy2.seq")).triplets) == 4
            assert len(load_gold(data_path("casestudy1.gold"))) == 5
            assert len(load_gold(data_path("casestudy2.gold"))) == 9

    def test_seed_entries_are_all_nouns(self, seed_lexicon):
        assert all(e.category == N for e in seed_lexicon)
        assert all(isinstance(e.semantics, Const) for e in seed_lexicon)
        assert all(e.semantics.name == e.token.lower() for e in seed_lexicon)


class TestSynthesizeCorpus:
    def test_replication_counts(self, table1_samples, seed_lexicon):
        objects = [e.semantics.name for e in seed_lexicon]
        out = synthesize_corpus(table1_samples, objects, replicas=15, seed=0)
        assert len(out) == 120

    def test_first_replica_keeps_the_original(self, table1_samples,
                                              seed_lexicon):
        objects = [e.semantics.name for e in seed_lexicon]
        out = synthesize_corpus(table1_samples, objects, replicas=3, seed=0)
        assert out[0] is table1_samples[0]
        assert out[3] is table1_samples[1]

    def test_subject_and_patient_always_differ(self, table1_samples,
                                               seed_lexicon):
        objects = [e.semantics.name for e in seed_lexicon]
        out = synthesize_corpus(table1_samples, objects, replicas=15, seed=0)
        assert all(s.tokens[0] != s.tokens[2] for s in out)

    def test_gold_tracks_the_new_objects(self, table1_samples, seed_lexicon):
        objects = [e.semantics.name for e in seed_lexicon]
        out = synthesize_corpus(table1_samples, objects, replicas=5, seed=3)
        for s in out:
            rendered = canonical(s.gold)
            action = s.tokens[1]
            assert f"{action}({s.tokens[0]},{s.tokens[2]})" in rendered

    def test_constants_named_like_old_placeholders_survive(self):
        # a rename in several passes through placeholder constants would
        # overwrite a constant that has a placeholder's name
        base = [TrainingSample(("cup", "hiding", "ball"), parse_term(
            "hiding(cup,ball) -> near(tmp_patient_slot,cup)"))]
        out = synthesize_corpus(base, ["hand", "brush"], replicas=2, seed=0)
        subject, _, patient = out[1].tokens
        assert out[1].gold == parse_term(
            f"hiding({subject},{patient}) -> near(tmp_patient_slot,{subject})")

    def test_subject_wins_when_the_tokens_name_one_constant(self):
        base = [TrainingSample(("cup", "hiding", "cup"),
                               parse_term("hiding(cup,cup)"))]
        out = synthesize_corpus(base, ["hand", "brush"], replicas=2, seed=0)
        subject = out[1].tokens[0]
        assert out[1].gold == parse_term(f"hiding({subject},{subject})")

    @pytest.mark.parametrize("objects", [[], ["knife"]])
    def test_replicas_need_two_object_names(self, table1_samples, objects):
        with pytest.raises(InvalidConfigError) as err:
            synthesize_corpus(table1_samples, objects, replicas=2)
        assert str(err.value) == ("replicas above 1 need at least two object "
                                  f"names, got {len(objects)}")
        # one replica draws no names
        out = synthesize_corpus(table1_samples, objects, replicas=1)
        assert out == table1_samples

    def test_a_repeated_name_counts_once(self, table1_samples):
        with pytest.raises(InvalidConfigError) as err:
            synthesize_corpus(table1_samples, ["bowl", "bowl"], replicas=2)
        assert str(err.value) == ("replicas above 1 need at least two object "
                                  "names, got 1")
        out = synthesize_corpus(table1_samples, ["bowl", "bowl", "cup"],
                                replicas=15, seed=0)
        assert all(s.tokens[0] != s.tokens[2] for s in out)

    def test_deterministic_for_a_seed(self, table1_samples, seed_lexicon):
        objects = [e.semantics.name for e in seed_lexicon]
        one = synthesize_corpus(table1_samples, objects, replicas=15, seed=0)
        two = synthesize_corpus(table1_samples, objects, replicas=15, seed=0)
        assert [(s.tokens, canonical(s.gold)) for s in one] == [
            (s.tokens, canonical(s.gold)) for s in two]

    def test_round_trip_through_files(self, tmp_path, table1_samples,
                                      seed_lexicon):
        objects = [e.semantics.name for e in seed_lexicon]
        out = synthesize_corpus(table1_samples, objects, replicas=15, seed=0)
        path = tmp_path / "synth.corpus"
        save_corpus(out, path, header="synthetic")
        assert load_corpus(path) == out


# Pieces of every file format, so that generated files get past the first
# checks of a loader more often than arbitrary text does.
FORMAT_PIECES = ("\\", ".", "(", ")", ",", "&", "|", "!", "->", "=>", ":=",
                 ":", "@", "#", "/", "\t", "\n", " ", "x", "o1", "knife",
                 "Object_1", "N", "NP", "AP", "forall", "exists", "axiom",
                 "X", "1e400", "nan", "-2.5")


class TestLoadersOnArbitraryText:
    @pytest.mark.parametrize("loader", [load_lexicon, load_corpus,
                                        load_sequence, load_gold, load_axioms],
                             ids=lambda loader: loader.__name__)
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(
        st.text(),
        st.lists(st.sampled_from(FORMAT_PIECES), max_size=40).map("".join)))
    def test_returns_a_value_or_raises_a_package_error(self, tmp_path,
                                                       loader, text):
        path = write(tmp_path / "fuzzed.txt", text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                loader(path)
            except ActionCCGError:
                pass
