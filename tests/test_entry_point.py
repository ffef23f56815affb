"""The real entry point: ``python -m actionccg`` run in a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

from actionccg.corpus import data_path

SRC = Path(__file__).resolve().parents[1] / "src"


def actionccg(*argv, hash_seed=None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
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


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    """Set and dict order must never reach the output: parse keys, cache
    keys and rule indexes all hash strings."""
    outputs = []
    for hash_seed in ("0", "1"):
        lexicon = tmp_path / f"learned-{hash_seed}.lex"
        runs = [actionccg("learn", "--corpus", str(data_path("table1.corpus")),
                          "--seed", str(data_path("seed.lex")), "--out", str(lexicon),
                          hash_seed=hash_seed)]
        runs.append(actionccg("parse", "--lexicon", str(lexicon), "--all-derivations",
                              "Object_008 Hiding Object_009", hash_seed=hash_seed))
        runs.append(actionccg("parse", "--lexicon", str(data_path("quantifier.lex")),
                              "--all-derivations", "Knife Cut every Tomato",
                              hash_seed=hash_seed))
        runs.append(actionccg("reason", "--lexicon", str(lexicon),
                              "--sequence", str(data_path("casestudy1.seq")),
                              "--axioms", str(data_path("axioms.rules")),
                              "--chain-per-event", hash_seed=hash_seed))
        assert [done.returncode for done in runs] == [0, 0, 0, 0]
        outputs.append([lexicon.read_text(encoding="utf-8")]
                       + [done.stdout.replace(str(lexicon), "<out>") for done in runs])
    assert outputs[0] == outputs[1]
