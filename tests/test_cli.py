"""End-to-end coverage of the command line interface."""

import contextlib
import io
import shutil
from pathlib import Path

import pytest

from actionccg import cli, learning
from actionccg.corpus import data_path, load_corpus, load_lexicon
from actionccg.syntax import MAX_DEPTH

# reduces to a conjunction nested 56 deep on the right, whose rendering
# needs a pair of parentheses per level and so is deeper than MAX_DEPTH
RIGHT_NESTED_56 = (r"(\f.\z.f (f (f (f (f (f (f z)))))))"
                   r" ((\f.\z.f (f (f (f (f (f (f (f z))))))))"
                   r" (\w.moved(knife) & w)) divided(bread)")

# stdout of the shipped-data commands, recorded with the benchmark
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def overflowing_lexicon(tmp_path, *extra):
    """``knife cut bread`` with every weight at 1e308, so that the score of
    a derivation, the sum of its three weights, overflows to inf."""
    path = tmp_path / "overflow.lex"
    lines = ["knife := N : knife @ 1e308",
             r"cut := (AP\NP)/NP : \x.\y.cut(x,y) @ 1e308",
             "bread := N : bread @ 1e308", *extra]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def weighted_seed(tmp_path):
    """The shipped seed lexicon with ``Knife`` at weight 1.0."""
    path = tmp_path / "weighted.lex"
    text = data_path("seed.lex").read_text(encoding="utf-8")
    path.write_text(text.replace("Knife := N : knife\n",
                                 "Knife := N : knife @ 1.0\n"),
                    encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def learned_lexicon_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-learn") / "learned.lex"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["learn",
                         "--corpus", str(data_path("table1.corpus")),
                         "--seed", str(data_path("seed.lex")),
                         "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def eval_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-eval")
    seq_dir = root / "sequences"
    gold_dir = root / "gold"
    seq_dir.mkdir()
    gold_dir.mkdir()
    for name in ("casestudy1", "casestudy2"):
        shutil.copy(data_path(f"{name}.seq"), seq_dir / f"{name}.seq")
        shutil.copy(data_path(f"{name}.gold"), gold_dir / f"{name}.gold")
    return seq_dir, gold_dir


class TestParseCommand:
    def test_basic_sentence(self, capsys):
        code, out, err = run(capsys, "parse",
                             "--lexicon", str(data_path("basic.lex")),
                             "Knife Cut Cucumber")
        assert code == 0 and err == ""
        assert out == "cut(knife,cucumber) -> divided(cucumber)  p=1.000\n"

    def test_all_derivations_flag(self, capsys):
        code, out, _ = run(capsys, "parse",
                           "--lexicon", str(data_path("basic.lex")),
                           "--all-derivations", "Knife Cut Cucumber")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1] == (r"derivation: [AP [NP [N 'Knife']] "
                            r"[AP\NP [(AP\NP)/NP 'Cut'] [NP [N 'Cucumber']]]]")

    def test_entries_differing_in_an_underscore_constant_stay_apart(
            self, capsys, tmp_path):
        # with binders renumbered _0, _1, ... both would read
        # \_0.\_1.cut(_0,_1) as their key and merge
        path = tmp_path / "two.lex"
        path.write_text("Knife := N : knife\n"
                        "Cucumber := N : cucumber\n"
                        "Cut := (AP\\NP)/NP : \\x.\\y.cut(x,y)\n"
                        "Cut := (AP\\NP)/NP : \\x.\\y.cut(_0,y) @ 0.5\n",
                        encoding="utf-8")
        assert len(load_lexicon(path)) == 4
        code, out, err = run(capsys, "parse", "--lexicon", str(path),
                             "--all-derivations", "Knife Cut Cucumber")
        assert code == 0 and err == ""
        # e^0.5 / (1 + e^0.5) of the mass goes to the second entry's form
        assert out == ("cut(_0,cucumber)  p=0.622\n"
                       r"derivation: [AP [NP [N 'Knife']] "
                       r"[AP\NP [(AP\NP)/NP 'Cut'] [NP [N 'Cucumber']]]]" "\n")

    def test_all_derivations_prints_each_bracketing_of_the_form_in_chart_order(
            self, capsys, tmp_path):
        # Beta takes one noun phrase from each side, in either order, so each
        # form has two bracketings; the losing form's two are not printed
        path = tmp_path / "beta.lex"
        path.write_text("Alpha := NP : alpha\n"
                        "Beta := (AP\\NP)\\NP : \\x.\\y.done @ 1.0\n"
                        "Beta := (AP\\NP)\\NP : \\x.\\y.other\n"
                        "Gamma := NP : gamma\n", encoding="utf-8")
        code, out, err = run(capsys, "parse", "--lexicon", str(path),
                             "--all-derivations", "Alpha Beta Gamma")
        assert code == 0 and err == ""
        # two derivations of weight 1 against two of weight 0: e / (e + 1)
        assert out == ("done  p=0.731\n"
                       r"derivation: [AP [NP 'Alpha'] "
                       r"[AP\NP [(AP\NP)\NP 'Beta'] [NP 'Gamma']]]" "\n"
                       r"derivation: [AP [AP\NP [NP 'Alpha'] "
                       r"[(AP\NP)\NP 'Beta']] [NP 'Gamma']]" "\n")

    @pytest.mark.parametrize("token", ["X", "Y"])
    def test_an_unknown_action_named_like_a_binder_keeps_its_arguments(
            self, capsys, token):
        # the template's binders must not capture its own functor
        code, out, err = run(capsys, "parse",
                             "--lexicon", str(data_path("basic.lex")),
                             f"Knife {token} Cucumber")
        assert code == 0 and err == ""
        assert out == f"{token.lower()}(knife,cucumber)  p=1.000\n"

    def test_a_constant_applied_as_a_function_is_not_bound_by_a_binder_of_its_name(
            self, capsys, tmp_path):
        # Knife fills ``f`` and Bowl the binder ``knife``, which binds the
        # variable only: the functor ``knife`` is a constant
        path = tmp_path / "do.lex"
        path.write_text("Knife := N : knife\n"
                        "Bowl := N : bowl\n"
                        "Do := (AP/NP)/NP : \\knife.\\f.f(knife)\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "parse", "--lexicon", str(path),
                             "Do Knife Bowl")
        assert code == 0 and err == ""
        assert out == "knife(bowl)  p=1.000\n"

    @pytest.mark.parametrize("token", ["Pick-up", "Forall"])
    def test_an_unknown_token_that_names_no_predicate_stays_unknown(
            self, capsys, token):
        # its lower case is no identifier, or a quantifier keyword, so no
        # action template can hold it
        code, out, err = run(capsys, "parse",
                             "--lexicon", str(data_path("basic.lex")),
                             f"Knife {token} Cucumber")
        assert code == 1 and out == ""
        assert err == f"error: unknown tokens: {token}\n"

    def test_quantified_sentence(self, capsys):
        code, out, _ = run(capsys, "parse",
                           "--lexicon", str(data_path("quantifier.lex")),
                           "Knife Cut every Tomato")
        assert code == 0
        line = out.strip()
        assert line.startswith("forall ")
        assert "cut(knife," in line and "divided(" in line
        assert line.endswith("p=1.000")

    def test_templates_cover_segment_ids(self, capsys, learned_lexicon_path):
        code, out, _ = run(capsys, "parse",
                           "--lexicon", str(learned_lexicon_path),
                           "Object_014 Chopping Object_011")
        assert code == 0
        assert out == ("chopping(object_014,object_011) -> "
                       "divided(object_011)  p=1.000\n")

    def test_one_derivation_is_not_scored(self, capsys, tmp_path):
        code, out, err = run(capsys, "parse", "--lexicon",
                             str(overflowing_lexicon(tmp_path)), "knife cut bread")
        assert code == 0 and err == ""
        assert out == "cut(knife,bread)  p=1.000\n"

    def test_overflowing_score_is_one_error_line(self, capsys, tmp_path):
        path = overflowing_lexicon(
            tmp_path, r"cut := (AP\NP)/NP : \x.\y.slice(x,y) @ 1e308")
        code, out, err = run(capsys, "parse", "--lexicon", str(path),
                             "knife cut bread")
        assert code == 1 and out == ""
        assert err == ("error: derivation score inf is not finite: the entry "
                       "weights it sums overflow\n")

    def test_output_is_deterministic(self, capsys):
        argv = ("parse", "--lexicon", str(data_path("quantifier.lex")),
                "Knife Cut every Tomato")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestLearnCommand:
    def test_reports_counts_and_likelihood(self, capsys, tmp_path):
        out_path = tmp_path / "fit.lex"
        code, out, err = run(capsys, "learn",
                             "--corpus", str(data_path("table1.corpus")),
                             "--seed", str(data_path("seed.lex")),
                             "--out", str(out_path))
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "entries: 38 (8 learned)"
        assert lines[1] == "log-likelihood: 0.000000"
        assert lines[2] == f"wrote: {out_path}"

    def test_parses_each_sample_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        parse_all = learning.parse_all
        monkeypatch.setattr(learning, "parse_all",
                            lambda tokens, lexicon: calls.append(tokens)
                            or parse_all(tokens, lexicon))
        code, out, _ = run(capsys, "learn",
                           "--corpus", str(data_path("table1.corpus")),
                           "--seed", str(data_path("seed.lex")),
                           "--out", str(tmp_path / "fit.lex"))
        assert code == 0
        assert len(calls) == len(load_corpus(data_path("table1.corpus"))) == 8
        assert out.splitlines()[1] == "log-likelihood: 0.000000"

    def test_overflowing_score_is_one_error_line(self, capsys, tmp_path):
        corpus = tmp_path / "one.corpus"
        corpus.write_text("knife cut bread\tcut(knife,bread)\n", encoding="utf-8")
        out_path = tmp_path / "fit.lex"
        code, out, err = run(capsys, "learn", "--corpus", str(corpus),
                             "--seed", str(overflowing_lexicon(tmp_path)),
                             "--out", str(out_path))
        assert code == 1 and out == ""
        assert err == ("error: derivation score inf is not finite: the entry "
                       "weights it sums overflow\n")
        assert not out_path.exists()

    def test_written_lexicon_reloads(self, learned_lexicon_path):
        lexicon = load_lexicon(learned_lexicon_path)
        assert len(lexicon) == 38
        for action in ("chopping", "cutting", "stirring", "take_down",
                       "put_on_top", "hiding", "pushing", "uncover"):
            assert lexicon.has_token(action)


class TestReasonCommand:
    def test_text_report(self, capsys, learned_lexicon_path):
        code, out, err = run(capsys, "reason",
                             "--lexicon", str(learned_lexicon_path),
                             "--sequence", str(data_path("casestudy1.seq")),
                             "--axioms", str(data_path("axioms.rules")))
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "sequence: casestudy1"
        parsed = [l for l in lines if l.startswith("parsed: ")]
        assert len(parsed) == 2
        assert "contained(object_008,object_009)" in parsed[0]
        deduced_at = lines.index("deduced:")
        retracted_at = lines.index("retracted:")
        assert lines[deduced_at + 1:retracted_at] == [
            "  on_top(object_007,object_009)"]
        assert lines[retracted_at + 1] == "  (none)"

    def test_tsv_report(self, capsys, learned_lexicon_path):
        code, out, _ = run(capsys, "reason",
                           "--lexicon", str(learned_lexicon_path),
                           "--sequence", str(data_path("casestudy1.seq")),
                           "--axioms", str(data_path("axioms.rules")),
                           "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert lines == [
            "observed\thiding(object_008,object_009)",
            "observed\tcontained(object_008,object_009)",
            "observed\tmoved(object_008)",
            "observed\tput_on_top(object_007,object_008)",
            "observed\ton_top(object_007,object_008)",
            "observed\tmoved(object_007)",
            "deduced\ton_top(object_007,object_009)",
        ]

    def test_second_sequence_deductions(self, capsys, learned_lexicon_path):
        code, out, _ = run(capsys, "reason",
                           "--lexicon", str(learned_lexicon_path),
                           "--sequence", str(data_path("casestudy2.seq")),
                           "--axioms", str(data_path("axioms.rules")),
                           "--format", "tsv")
        assert code == 0
        deduced = {l.split("\t", 1)[1] for l in out.splitlines()
                   if l.startswith("deduced\t")}
        assert deduced >= {
            "divided(object_005)", "divided(object_010)",
            "on_top(object_005,object_012)", "on_top(object_010,object_012)"}

    def test_per_event_chaining_matches_batch(self, capsys,
                                              learned_lexicon_path):
        base = ("reason", "--lexicon", str(learned_lexicon_path),
                "--sequence", str(data_path("casestudy2.seq")),
                "--axioms", str(data_path("axioms.rules")),
                "--format", "tsv")
        batch = run(capsys, *base)
        stepped = run(capsys, *base, "--chain-per-event")
        assert batch[0] == stepped[0] == 0
        assert set(batch[1].splitlines()) == set(stepped[1].splitlines())

    @pytest.mark.parametrize("case", ["casestudy1", "casestudy2"])
    @pytest.mark.parametrize("fmt", ["text", "tsv"])
    def test_per_event_output_is_byte_identical(self, capsys,
                                                learned_lexicon_path,
                                                case, fmt):
        code, out, err = run(capsys, "reason",
                             "--lexicon", str(learned_lexicon_path),
                             "--sequence", str(data_path(f"{case}.seq")),
                             "--axioms", str(data_path("axioms.rules")),
                             "--format", fmt, "--chain-per-event")
        assert code == 0 and err == ""
        expected = EXPECTED / f"reason-{case}-{fmt}-per-event.out"
        assert out == expected.read_text(encoding="utf-8")


class TestEvalCommand:
    def test_table(self, capsys, learned_lexicon_path, eval_dirs):
        seq_dir, gold_dir = eval_dirs
        code, out, err = run(capsys, "eval",
                             "--lexicon", str(learned_lexicon_path),
                             "--sequences", str(seq_dir),
                             "--gold", str(gold_dir),
                             "--axioms", str(data_path("axioms.rules")))
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].split() == ["sequence", "gold", "matched",
                                    "matched+rules"]
        assert lines[1].split() == ["casestudy1", "5", "4", "5"]
        assert lines[2].split() == ["casestudy2", "9", "5", "9"]
        assert lines[3].split() == ["total", "14", "9", "14"]
        assert lines[4] == "rate without rules: 0.643"
        assert lines[5] == "rate with rules: 1.000"

    def test_tsv(self, capsys, learned_lexicon_path, eval_dirs):
        seq_dir, gold_dir = eval_dirs
        code, out, _ = run(capsys, "eval",
                           "--lexicon", str(learned_lexicon_path),
                           "--sequences", str(seq_dir),
                           "--gold", str(gold_dir),
                           "--axioms", str(data_path("axioms.rules")),
                           "--format", "tsv")
        assert code == 0
        assert out.splitlines() == ["casestudy1\t5\t4\t5",
                                    "casestudy2\t9\t5\t9",
                                    "total\t14\t9\t14"]

    def test_without_rules_scores_drop(self, capsys, tmp_path,
                                       learned_lexicon_path, eval_dirs):
        seq_dir, gold_dir = eval_dirs
        empty_rules = tmp_path / "empty.rules"
        empty_rules.write_text("# nothing\n", encoding="utf-8")
        code, out, _ = run(capsys, "eval",
                           "--lexicon", str(learned_lexicon_path),
                           "--sequences", str(seq_dir),
                           "--gold", str(gold_dir),
                           "--axioms", str(empty_rules),
                           "--format", "tsv")
        assert code == 0
        assert out.splitlines()[-1] == "total\t14\t9\t9"

    def test_empty_sequence_dir(self, capsys, tmp_path, learned_lexicon_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, "eval",
                           "--lexicon", str(learned_lexicon_path),
                           "--sequences", str(empty),
                           "--gold", str(empty),
                           "--axioms", str(data_path("axioms.rules")))
        assert code == 1
        assert err.startswith("error:")


class TestGenCorpusCommand:
    def test_writes_replicated_corpus(self, capsys, tmp_path):
        out_path = tmp_path / "synth.corpus"
        code, out, err = run(capsys, "gen-corpus", "--out", str(out_path))
        assert code == 0 and err == ""
        assert out == f"wrote: {out_path} (120 samples)\n"
        assert len(load_corpus(out_path)) == 120

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a = tmp_path / "a.corpus"
        b = tmp_path / "b.corpus"
        run(capsys, "gen-corpus", "--out", str(a))
        run(capsys, "gen-corpus", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_replica_count_option(self, capsys, tmp_path):
        out_path = tmp_path / "small.corpus"
        code, out, _ = run(capsys, "gen-corpus", "--out", str(out_path),
                           "--replicas", "2")
        assert code == 0
        assert "(16 samples)" in out

    @pytest.mark.parametrize("replicas", ["-1", "0"])
    def test_fewer_than_one_replica_is_one_diagnostic_line(self, capsys,
                                                           tmp_path, replicas):
        out_path = tmp_path / "empty.corpus"
        code, out, err = run(capsys, "gen-corpus", "--out", str(out_path),
                             "--replicas", replicas)
        assert code == 1 and out == "" and not out_path.exists()
        assert err == f"error: replicas must be at least 1, got {replicas}\n"


class TestErrorPaths:
    def test_missing_file_is_one_diagnostic_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "parse",
                             "--lexicon", str(tmp_path / "absent.lex"),
                             "Knife Cut Cucumber")
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_no_parse_reports_tokens(self, capsys):
        code, _, err = run(capsys, "parse",
                           "--lexicon", str(data_path("basic.lex")),
                           "Knife Cut")
        assert code == 1
        assert err == "error: no parse for: Knife Cut\n"

    def test_malformed_data_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.lex"
        bad.write_text("Knife N knife\n", encoding="utf-8")
        code, _, err = run(capsys, "parse", "--lexicon", str(bad),
                           "Knife Cut Cucumber")
        assert code == 1
        assert err.startswith("error:") and "line 1" in err

    @pytest.mark.parametrize("loader", ["lexicon", "corpus", "sequence",
                                        "gold", "rules"])
    def test_non_utf8_data_file_is_one_diagnostic_line(
            self, capsys, tmp_path, learned_lexicon_path, loader):
        sources = {"lexicon": "basic.lex", "corpus": "table1.corpus",
                   "sequence": "casestudy1.seq", "gold": "casestudy1.gold",
                   "rules": "axioms.rules"}
        for name in sources.values():
            shutil.copy(data_path(name), tmp_path / name)
        bad = tmp_path / sources[loader]
        lines = bad.read_bytes().split(b"\n")
        lines[2] += b"\xff"
        bad.write_bytes(b"\n".join(lines))
        lexicon, rules = str(learned_lexicon_path), str(tmp_path / "axioms.rules")
        argv = {
            "lexicon": ["parse", "--lexicon", str(bad), "Knife Cut Cucumber"],
            "corpus": ["learn", "--corpus", str(bad),
                       "--seed", str(data_path("seed.lex")),
                       "--out", str(tmp_path / "out.lex")],
            "sequence": ["reason", "--lexicon", lexicon,
                         "--sequence", str(bad), "--axioms", rules],
            "gold": ["eval", "--lexicon", lexicon, "--sequences", str(tmp_path),
                     "--gold", str(tmp_path), "--axioms", rules],
            "rules": ["reason", "--lexicon", lexicon,
                      "--sequence", str(tmp_path / "casestudy1.seq"),
                      "--axioms", rules],
        }[loader]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {bad}, line 3: byte 0xff is not valid UTF-8\n"

    @pytest.mark.parametrize("weight", ["inf", "nan", "1e400"])
    def test_non_finite_weight_is_one_diagnostic_line(self, capsys, tmp_path,
                                                      weight):
        bad = tmp_path / "weights.lex"
        bad.write_text(data_path("basic.lex").read_text(encoding="utf-8")
                       + f"Knife := N : knife @ {weight}\n", encoding="utf-8")
        code, out, err = run(capsys, "parse", "--lexicon", str(bad),
                             "Knife Cut Cucumber")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "non-finite weight" in err

    def test_non_finite_trained_weight_is_one_diagnostic_line(self, capsys,
                                                              tmp_path):
        # a finite rate that overflows a weighted entry at iteration 2
        out_path = tmp_path / "learned.lex"
        code, out, err = run(capsys, "learn",
                             "--corpus", str(data_path("table1.corpus")),
                             "--seed", str(weighted_seed(tmp_path)),
                             "--out", str(out_path), "--lr", "1e300",
                             "--l2", "-1", "--iters", "2")
        assert code == 1 and out == "" and not out_path.exists()
        assert err.startswith("error: non-finite weight")
        assert err.count("\n") == 1

    def test_divergent_learning_stops_at_the_first_bad_iteration(self, capsys,
                                                                 tmp_path):
        out_path = tmp_path / "learned.lex"
        code, out, err = run(capsys, "learn",
                             "--corpus", str(data_path("table1.corpus")),
                             "--seed", str(weighted_seed(tmp_path)),
                             "--out", str(out_path), "--lr", "1e6",
                             "--l2", "-1", "--iters", "1000000")
        assert code == 1 and out == "" and not out_path.exists()
        assert err == ("error: non-finite weight inf for Knife := N : knife "
                       "at training iteration 52\n")

    @pytest.mark.parametrize("option", [
        ("--iters", "-3"), ("--lr", "inf"), ("--lr", "nan"), ("--l2", "inf"),
        ("--l2", "nan")])
    def test_out_of_range_learn_option_is_one_diagnostic_line(self, capsys,
                                                              tmp_path, option):
        out_path = tmp_path / "learned.lex"
        code, out, err = run(capsys, "learn",
                             "--corpus", str(data_path("table1.corpus")),
                             "--seed", str(data_path("seed.lex")),
                             "--out", str(out_path), *option)
        assert code == 1 and out == "" and not out_path.exists()
        assert err.startswith("error:") and err.count("\n") == 1
        assert "must be" in err

    def test_deeply_nested_term_is_one_diagnostic_line(self, capsys, tmp_path):
        deep = tmp_path / "deep.lex"
        deep.write_text(data_path("basic.lex").read_text(encoding="utf-8")
                        + "Knife := N : " + "!" * 3000 + "knife\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "parse", "--lexicon", str(deep),
                             "Knife Cut Cucumber")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nested deeper than" in err

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000])
    @pytest.mark.parametrize("deep", [
        lambda depth: "(" * (depth - 1) + "N" + ")" * (depth - 1),
        lambda depth: "/".join(["N"] * depth),
        lambda depth: ("N/(" * (depth // 2) + "N/N" + ")" * (depth // 2)
                       + "/N" * (depth - depth // 2 - 2))],
        ids=["parentheses", "slashes", "mixed"])
    def test_deeply_nested_category_is_one_diagnostic_line(self, capsys,
                                                           tmp_path, deep,
                                                           depth):
        path = tmp_path / "deep.lex"
        path.write_text(data_path("basic.lex").read_text(encoding="utf-8")
                        + f"Spoon := {deep(depth)} : spoon\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "parse", "--lexicon", str(path),
                             "Knife Cut Cucumber")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"category nested deeper than {MAX_DEPTH} levels" in err

    def test_too_deep_reduct_is_one_diagnostic_line(self, capsys, tmp_path):
        # loading reduces Cut's Church-numeral power to 3,125 nested
        # applications, deeper than any recursive walker can go
        path = tmp_path / "power.lex"
        five = r"(\f.\z.f (f (f (f (f z)))))"
        path.write_text("Knife := N : knife\n"
                        "Cucumber := N : cucumber\n"
                        f"Cut := (AP\\NP)/NP : \\x.\\y. {five} {five} "
                        "(\\w.cut(w,y)) x\n", encoding="utf-8")
        code, out, err = run(capsys, "parse", "--lexicon", str(path),
                             "Knife Cut Cucumber")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_divergent_parse_stops_at_the_step_budget(self, capsys, tmp_path):
        # both entries are normal forms; only applying Cut to Cup diverges
        path = tmp_path / "omega.lex"
        path.write_text("Knife := N : knife\n"
                        "Cup := N : \\z.z z\n"
                        "Cut := (AP\\NP)/NP : \\x.\\y.y y\n",
                        encoding="utf-8")
        assert len(load_lexicon(path)) == 3
        code, out, err = run(capsys, "parse", "--lexicon", str(path),
                             "Knife Cut Cup")
        assert code == 1 and out == ""
        assert err == "error: no normal form within 10000 steps\n"

    @pytest.mark.parametrize("name, text, command", [
        ("omega.lex", "Knife := N : knife\nFoo := N : (\\x.x x)(\\x.x x)\n",
         "parse"),
        ("unbound.rules", "axiom ok: p(X) => q(X)\naxiom bad: p(X) => q(X,W)\n",
         "reason"),
    ])
    def test_a_record_error_names_its_file_and_line(self, capsys, tmp_path,
                                                    name, text, command):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        if command == "parse":
            argv = ["parse", "--lexicon", str(path), "Knife"]
        else:
            argv = ["reason", "--lexicon", str(data_path("basic.lex")),
                    "--sequence", str(data_path("casestudy1.seq")),
                    "--axioms", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}, line 2: ") and err.count("\n") == 1

    def test_a_rule_error_carries_no_offset_it_does_not_know(self, capsys,
                                                             tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("axiom a: p(X) => q(X)\n"
                        "axiom b: p(X) & q(X, Y Z) => r(X)\n", encoding="utf-8")
        code, out, err = run(capsys, "reason",
                             "--lexicon", str(data_path("basic.lex")),
                             "--sequence", str(data_path("casestudy1.seq")),
                             "--axioms", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}, line 2: malformed argument 'Y Z'\n"

    def test_variable_shaped_constant_is_one_diagnostic_line(self, capsys,
                                                             tmp_path):
        corpus = tmp_path / "short_names.corpus"
        corpus.write_text("Object_1 Hiding Object_0\t"
                          "hiding(o1,o0) -> contained(o1,o0)\n",
                          encoding="utf-8")
        out_path = tmp_path / "learned.lex"
        code, out, err = run(capsys, "learn", "--corpus", str(corpus),
                             "--seed", str(data_path("seed.lex")),
                             "--out", str(out_path))
        assert code == 1 and out == "" and not out_path.exists()
        assert err.startswith("error:") and err.count("\n") == 1
        assert "o0, o1 (one letter plus optional digits" in err
        assert "a constant needs a longer name" in err

    def test_learned_entry_too_deep_to_reload_is_not_written(self, capsys,
                                                             tmp_path):
        # the annotation sits at the depth bound; the learned entry puts two
        # binders on top of it, so its rendering would not load back
        seed = tmp_path / "seed.lex"
        seed.write_text("Knife := N : knife\nBread := N : bread\n",
                        encoding="utf-8")
        corpus = tmp_path / "deep.corpus"
        corpus.write_text("knife cut bread\tcut(knife,bread) -> "
                          + "!" * 96 + "divided(bread)\n", encoding="utf-8")
        out_path = tmp_path / "learned.lex"
        code, out, err = run(capsys, "learn", "--corpus", str(corpus),
                             "--seed", str(seed), "--out", str(out_path))
        assert code == 1 and out == "" and not out_path.exists()
        assert err == ("error: not written, would not load back: "
                       f"{out_path}, line 3: term nested deeper than 100 levels "
                       "(at offset 124)\n")

    def test_learned_entry_in_arity_conflict_with_the_seed_is_not_written(
            self, capsys, tmp_path):
        seed = tmp_path / "seed.lex"
        seed.write_text("Box := N : box\nCup := N : cup\n"
                        "Still := AP : moved(box)\n", encoding="utf-8")
        corpus = tmp_path / "push.corpus"
        corpus.write_text("box push cup\tpush(box,cup) -> moved(box,cup)\n",
                          encoding="utf-8")
        out_path = tmp_path / "learned.lex"
        code, out, err = run(capsys, "learn", "--corpus", str(corpus),
                             "--seed", str(seed), "--out", str(out_path))
        assert code == 1 and out == "" and not out_path.exists()
        assert err == ("error: not written, would not load back: "
                       f"{out_path}, line 4: predicate 'moved' used with 2 "
                       "arguments but with 1 on line 3\n")

    def test_synthetic_sample_too_deep_to_reload_is_not_written(self, capsys,
                                                                tmp_path):
        base = tmp_path / "deep.corpus"
        base.write_text(f"knife cut bread\t{RIGHT_NESTED_56}\n",
                        encoding="utf-8")
        out_path = tmp_path / "synthetic.corpus"
        code, out, err = run(capsys, "gen-corpus", "--base", str(base),
                             "--replicas", "2", "--out", str(out_path))
        assert code == 1 and out == "" and not out_path.exists()
        # line 1 is the header comment
        assert err == ("error: not written, would not load back: "
                       f"{out_path}, line 2: term nested deeper than 100 levels "
                       "(at offset 800)\n")

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
