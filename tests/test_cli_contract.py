"""The CLI's error contract on hostile input.

Every subcommand, run through ``cli.main`` on mutated copies of the shipped
data files with options in range, exits 0 or 1 and lets no exception
escape.  Its stderr holds ``warning:`` lines, then, on exit 1, exactly one
``error:`` line, which comes last.  The cases are drawn from a fixed seed.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from actionccg import cli
from actionccg.corpus import data_path

SEED = 20150101
CASES = 300  # about a second

# Pieces of every file format, so that mutations reach past the first check
# of a loader, and byte sequences that are not UTF-8.
PIECES = (b"\\", b".", b"(", b")", b",", b"&", b"|", b"!", b"->", b"=>",
          b":=", b":", b"@", b"#", b"/", b"\t", b"\n", b" ", b"x", b"X",
          b"o1", b"knife", b"Object_1", b"N", b"NP", b"AP", b"forall",
          b"exists", b"axiom", b"1e400", b"nan", b"-2.5", b"@ 3.0",
          b"\xff", b"\xc3", b"\xe2\x82", b"\x00", "é".encode())


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` after one to four random edits: a piece inserted, a span
    deleted, a line repeated, or two lines swapped."""
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        at = rng.randint(0, len(data))
        if roll < 0.4:
            data = data[:at] + rng.choice(PIECES) + data[at:]
        elif roll < 0.6:
            data = data[:at] + data[at + rng.randint(1, 8):]
        else:
            lines = data.split(b"\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            if roll < 0.8:
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
    return data


class Files:
    """Copies of the shipped files under ``root``, each mutated or kept."""

    def __init__(self, root, rng: random.Random):
        self.root, self.rng = root, rng

    def copy(self, name: str, as_name: str | None = None):
        data = data_path(name).read_bytes()
        if self.rng.random() < 0.7:
            data = mutate(data, self.rng)
        path = self.root / (as_name or name)
        path.write_bytes(data)
        return str(path)

    def lexicon(self):
        return self.copy(self.rng.choice(("seed.lex", "basic.lex",
                                          "quantifier.lex")))


def sentence(rng: random.Random) -> str:
    """A sentence that parses with a shipped lexicon, or a random one."""
    if rng.random() < 0.5:
        return rng.choice(("Knife Cut Cucumber", "Knife Cut every Tomato",
                           "Object_008 Hiding Object_009", "Cup Frobbing Bowl"))
    words = ("Knife", "Cut", "Cucumber", "every", "Tomato", "Object_008",
             "Hiding", "cup", "take_down", "bucket", "Frobbing", "x", "N")
    return " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))


def arguments(files: Files, rng: random.Random) -> list[str]:
    """One subcommand and its options, every option in range."""
    out = str(files.root / "out")
    command = rng.choice(("learn", "parse", "reason", "eval", "gen-corpus"))
    if command == "learn":
        return ["learn", "--corpus", files.copy("table1.corpus"),
                "--seed", files.copy("seed.lex"), "--out", out,
                "--iters", str(rng.randint(0, 5)),
                "--lr", rng.choice(("0.1", "1", "1e300")),
                "--l2", rng.choice(("0", "1"))]
    if command == "parse":
        return (["parse", "--lexicon", files.lexicon(), sentence(rng)]
                + ["--all-derivations"] * rng.randint(0, 1))
    if command == "reason":
        return (["reason", "--lexicon", files.lexicon(),
                 "--sequence", files.copy(rng.choice(("casestudy1.seq",
                                                      "casestudy2.seq"))),
                 "--axioms", files.copy("axioms.rules"),
                 "--format", rng.choice(("text", "tsv"))]
                + ["--chain-per-event"] * rng.randint(0, 1))
    if command == "eval":
        sequences = files.root / "seq"
        gold = files.root / "gold"
        sequences.mkdir()
        gold.mkdir()
        for name in ("casestudy1", "casestudy2")[:rng.randint(1, 2)]:
            files.copy(f"{name}.seq", f"seq/{name}.seq")
            files.copy(f"{name}.gold", f"gold/{name}.gold")
        return ["eval", "--lexicon", files.lexicon(),
                "--sequences", str(sequences), "--gold", str(gold),
                "--axioms", files.copy("axioms.rules"),
                "--format", rng.choice(("text", "tsv"))]
    return ["gen-corpus", "--out", out,
            "--base", files.copy("table1.corpus"),
            "--objects", files.lexicon(),
            "--replicas", str(rng.randint(1, 3)),
            "--rng-seed", str(rng.randint(0, 9))]


def run(argv):
    """``cli.main(argv)``'s exit code, stdout and stderr; an exception that
    escapes it fails the test with the command line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception as exc:
            pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    return code, stdout.getvalue(), stderr.getvalue()


def check_contract(argv, code, err):
    lines = err.splitlines()
    assert err == "" or err.endswith("\n"), argv
    assert code in (0, 1), (argv, code, err)
    warned = lines[:-1] if code == 1 else lines
    assert all(line.startswith("warning: ") for line in warned), (argv, err)
    if code == 1:
        assert lines and lines[-1].startswith("error: "), (argv, err)


def test_every_subcommand_keeps_the_contract_on_mutated_files(tmp_path):
    rng = random.Random(SEED)
    codes = set()
    for case in range(CASES):
        root = tmp_path / str(case)
        root.mkdir()
        argv = arguments(Files(root, rng), rng)
        code, _, err = run(argv)
        check_contract(argv, code, err)
        codes.add(code)
    assert codes == {0, 1}


def comments_only(tmp_path):
    """A ``.seq`` and a ``.gold`` directory holding one comment-only file
    each."""
    for kind in ("seq", "gold"):
        (tmp_path / kind).mkdir()
        (tmp_path / kind / f"empty.{kind}").write_text("# nothing here\n",
                                                      encoding="utf-8")
    return str(tmp_path / "seq"), str(tmp_path / "gold")


@pytest.mark.parametrize("fmt", ["text", "tsv"])
def test_eval_without_gold_literals_is_one_error_line(tmp_path, fmt):
    sequences, gold = comments_only(tmp_path)
    argv = ["eval", "--lexicon", str(data_path("basic.lex")),
            "--sequences", sequences, "--gold", gold,
            "--axioms", str(data_path("axioms.rules")), "--format", fmt]
    assert run(argv) == (1, "", f"error: no gold literals under {gold}\n")


def test_gen_corpus_from_one_object_name_is_one_error_line(tmp_path):
    objects = tmp_path / "one.lex"
    objects.write_text("Knife := N : knife\n", encoding="utf-8")
    out = tmp_path / "out.corpus"
    argv = ["gen-corpus", "--out", str(out), "--objects", str(objects),
            "--replicas", "2"]
    assert run(argv) == (1, "", "error: replicas above 1 need at least two "
                                "object names, got 1\n")
    assert not out.exists()


def test_a_warning_is_one_line_before_the_error(tmp_path):
    lexicon = tmp_path / "twice.lex"
    lexicon.write_text(data_path("basic.lex").read_text(encoding="utf-8")
                       + "Knife := N : knife\n", encoding="utf-8")
    argv = ["parse", "--lexicon", str(lexicon), "Knife Frobbing"]
    assert run(argv) == (1, "", "warning: duplicate entry for 'Knife': "
                                "N : knife\nerror: no parse for: Knife "
                                "Frobbing\n")
