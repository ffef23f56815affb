"""The real entry point: ``python -m actionccg`` run in a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

from actionccg.corpus import data_path

SRC = Path(__file__).resolve().parents[1] / "src"


def actionccg(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "actionccg", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_exit_codes_and_output_of_python_m_actionccg(tmp_path):
    done = actionccg("parse", "--lexicon", str(data_path("basic.lex")),
                     "Knife Cut Cucumber")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "cut(knife,cucumber) -> divided(cucumber)  p=1.000\n", "")

    malformed = tmp_path / "bad.lex"
    malformed.write_text("Bowl = N : bowl\n", encoding="utf-8")
    done = actionccg("parse", "--lexicon", str(malformed), "Bowl")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1

    done = actionccg("parse")
    assert done.returncode == 2 and done.stdout == ""
    assert "usage:" in done.stderr
