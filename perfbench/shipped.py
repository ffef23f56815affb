"""Shipped-data check: the CLI's output on the shipped files, byte for byte.

Runs ``actionccg.cli.main`` in-process for ``learn`` on the Table-1
corpus, ``reason`` on both case studies (text and TSV, with and without
``--chain-per-event``) and ``eval`` on the shipped directory, and compares
each captured stdout with the output recorded in ``expected/`` on the
commit that added the benchmark.  The recorded ``eval`` totals are the
README's 14 / 9 / 14.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from actionccg import cli
from actionccg.corpus import data_path

EXPECTED = Path(__file__).resolve().parent / "expected"


def commands(workdir: Path):
    """(name, argv) pairs; ``learn`` comes first and writes the lexicon."""
    lexicon = str(workdir / "learned.lex")
    data = str(data_path(""))
    out = [("learn", ["learn", "--corpus", str(data_path("table1.corpus")),
                      "--seed", str(data_path("seed.lex")), "--out", lexicon])]
    for case in ("casestudy1", "casestudy2"):
        for fmt in ("text", "tsv"):
            for per_event in (False, True):
                argv = ["reason", "--lexicon", lexicon,
                        "--sequence", str(data_path(f"{case}.seq")),
                        "--axioms", str(data_path("axioms.rules")), "--format", fmt]
                if per_event:
                    argv.append("--chain-per-event")
                name = f"reason-{case}-{fmt}{'-per-event' if per_event else ''}"
                out.append((name, argv))
    for fmt in ("text", "tsv"):
        out.append((f"eval-{fmt}", ["eval", "--lexicon", lexicon, "--sequences", data,
                                    "--gold", data, "--axioms",
                                    str(data_path("axioms.rules")), "--format", fmt]))
    return out


def run(workdir: Path) -> list[tuple[str, str]]:
    """(name, stdout) per command; the learned-lexicon path reads ``<out>``."""
    workdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, argv in commands(workdir):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        text = stdout.getvalue().replace(str(workdir / "learned.lex"), "<out>")
        if code != 0:
            text += f"<exit {code}>\n{stderr.getvalue()}"
        outputs.append((name, text))
    return outputs


def check(workdir: Path) -> tuple[int, list[str]]:
    """(commands checked, one problem per command whose stdout differs)."""
    problems = []
    outputs = run(workdir)
    for name, text in outputs:
        expected = EXPECTED / f"{name}.out"
        if not expected.is_file():
            problems.append(f"{name}: no recorded output")
        elif expected.read_text(encoding="utf-8") != text:
            problems.append(f"{name}: stdout differs from {expected.name}")
    return len(outputs), problems
