"""File formats: lexicons, corpora, event sequences, rules, gold labels.

All files are UTF-8 text with LF line endings and ``#`` comments.  One
line holds one record:

    lexicon   Token := CATEGORY : TERM [@ weight]
    corpus    subject action patient<TAB>consequence-expression
    sequence  Subject Action Patient
    gold      literal, e.g. on_top(object_007,object_009)
    rules     axiom <name>: lit & lit ... => head

Loaders attach the file path and 1-based line number to any error and
audit predicate arities, rejecting a name used with two different
argument counts in the same file.  Savers write nothing that would not
load back as the records they were given.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from importlib import resources
from itertools import zip_longest
from pathlib import Path

from .errors import (ActionCCGError, ArityConflictError, InvalidConfigError,
                     SourceSyntaxError)
from .grammar import LexEntry, Lexicon, parse_category
from .learning import TrainingSample
from .reasoning import AxiomRule, Literal, parse_axiom, parse_literal
from .syntax import is_identifier, parse_term, variable_shape_note
from .terms import (beta_reduce, free_vars, predications, render,
                    rename_constants)


@dataclass(frozen=True)
class SequenceFile:
    """An ordered run of detector triplets from one observation."""

    name: str
    triplets: tuple[tuple[str, str, str], ...]


def data_path(name: str) -> Path:
    """Path of a sample file shipped inside the package."""
    return Path(str(resources.files(__package__).joinpath("data", name)))


def _literals(*literals: Literal):
    return [(literal.predicate, len(literal.args)) for literal in literals]


def _parsed(path, parse_line, arities=lambda value: (), text=None):
    """``parse_line(record)`` for each record of ``path`` (or of ``text``, read
    as that file), in order; any ActionCCGError from ``parse_line`` gains the
    path and line and keeps its type, and a logical form too deeply nested to
    process (a RecursionError, say from reducing a term whose normal form is
    deep) is a SourceSyntaxError with both.
    A file that is not UTF-8 is a SourceSyntaxError on the line of its first
    bad byte.  ``arities(value)`` names the ``(predicate, arity)`` pairs of a
    record; a predicate used with two arities in the file raises
    ArityConflictError."""
    seen: dict[str, tuple[int, int]] = {}
    if text is None:
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bytes before the bad one decode; the "." ends its line
            before = data[:exc.start].decode("utf-8") + "."
            raise SourceSyntaxError(
                f"byte {data[exc.start]:#04x} is not valid UTF-8").located(
                    path, len(before.splitlines())) from None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            value = parse_line(line)
        except ActionCCGError as exc:
            raise exc.located(path, number) from None
        except RecursionError:
            raise SourceSyntaxError("logical form nested too deeply to "
                                    "process").located(path, number) from None
        for name, arity in arities(value):
            first, first_line = seen.setdefault(name, (arity, number))
            if first != arity:
                raise ArityConflictError(
                    f"predicate {name!r} used with {arity} arguments but with "
                    f"{first} on line {first_line}").located(path, number)
        yield value


def _write(path, records, line_of, parse_line, arities, header=None,
           build=list) -> None:
    """Write ``line_of(record)`` for each of ``records`` to ``path``, after
    ``header`` as a comment, once the text is seen to load back as a file of
    ``parse_line`` records that ``build`` makes into ``records`` again, as
    the loader would; if it would not, write nothing and raise a
    SourceSyntaxError naming the first line that does not, with the
    loader's message when it fails."""
    records = list(records)
    lines = [f"# {header}"] if header else []
    lines += [line_of(record) for record in records]
    text = "\n".join(lines) + "\n"
    try:
        loaded = list(build(_parsed(path, parse_line, arities, text)))
    except ActionCCGError as exc:
        raise SourceSyntaxError(f"not written, would not load back: {exc}") from None
    for number, (record, back) in enumerate(zip_longest(records, loaded),
                                            start=len(lines) - len(records) + 1):
        if record != back:
            raise SourceSyntaxError(f"not written, would not load back: {path}, "
                                    f"line {number}: reads back as another record")
    Path(path).write_text(text, encoding="utf-8")


def load_lexicon(path) -> Lexicon:
    """Read a lexicon; duplicate entries merge with a warning."""
    entries = list(_parsed(path, *_LEXICON))
    return Lexicon().with_entries(entries, warn_duplicates=True)


def _parse_lexicon_line(line: str) -> LexEntry:
    token, sep, rest = line.partition(":=")
    if not sep:
        raise SourceSyntaxError(f"missing ':=' in {line!r}")
    token = token.strip()
    if not is_identifier(token):
        raise SourceSyntaxError(f"bad token {token!r}")
    category_text, sep, term_text = rest.partition(":")
    if not sep:
        raise SourceSyntaxError(f"missing ':' between category and term in {line!r}")
    weight = 0.0
    term_text, sep, weight_text = term_text.partition("@")
    if sep:
        try:
            weight = float(weight_text.strip())
        except ValueError:
            raise SourceSyntaxError(f"bad weight {weight_text.strip()!r}") from None
        if not math.isfinite(weight):
            raise SourceSyntaxError(f"non-finite weight {weight_text.strip()!r}")
    category = parse_category(category_text.strip())
    semantics = beta_reduce(parse_term(term_text.strip()))
    return LexEntry(token, category, semantics, weight)


# how a line of the file parses, and which predicates the arity audit reads
_LEXICON = (_parse_lexicon_line, lambda entry: predications(entry.semantics))


def save_lexicon(lexicon: Lexicon, path) -> None:
    """Write ``lexicon``; one that holds two entries of one key is refused,
    since loading merges them."""
    _write(path, lexicon, str, *_LEXICON, build=Lexicon().with_entries)


def load_corpus(path) -> list[TrainingSample]:
    """Read annotated triplets; annotations must be closed expressions."""
    return list(_parsed(path, *_CORPUS))


def _parse_corpus_line(line: str) -> TrainingSample:
    tokens_text, sep, term_text = line.partition("\t")
    if not sep:
        raise SourceSyntaxError("missing tab between tokens and annotation")
    tokens = tuple(tokens_text.split())
    if len(tokens) != 3:
        raise SourceSyntaxError(
            f"expected 'subject action patient', got {tokens_text!r}")
    gold = beta_reduce(parse_term(term_text.strip()))
    stray = free_vars(gold)
    if stray:
        raise SourceSyntaxError(
            f"annotation has free variables: "
            f"{variable_shape_note(sorted(stray))}")
    return TrainingSample(tokens, gold)


_CORPUS = (_parse_corpus_line, lambda sample: predications(sample.gold))


def save_corpus(samples, path, header: str | None = None) -> None:
    _write(path, samples, lambda s: f"{' '.join(s.tokens)}\t{render(s.gold)}",
           *_CORPUS, header=header)


def load_sequence(path) -> SequenceFile:
    triplets = tuple(_parsed(path, _parse_sequence_line))
    return SequenceFile(Path(path).stem, triplets)


def _parse_sequence_line(line: str) -> tuple[str, str, str]:
    tokens = tuple(line.split())
    if len(tokens) != 3:
        raise SourceSyntaxError(f"expected 'Subject Action Patient', got {line!r}")
    return tokens


def load_gold(path) -> tuple[Literal, ...]:
    """Read reference final consequences; a repeated literal counts once."""
    return tuple(dict.fromkeys(_parsed(path, parse_literal, _literals)))


def load_axioms(path) -> list[AxiomRule]:
    return list(_parsed(path, parse_axiom,
                        lambda rule: _literals(*rule.body, rule.head)))


def synthesize_corpus(base, objects, replicas: int = 15,
                      seed: int = 0) -> list[TrainingSample]:
    """Replicate each base sample with fresh object constants.

    The first replica keeps the original pairing; the rest draw distinct
    subject and patient names from ``objects`` with a seeded generator,
    so the output is reproducible byte for byte.  ``replicas`` below 1
    raises InvalidConfigError.
    """
    if replicas < 1:
        raise InvalidConfigError(f"replicas must be at least 1, got {replicas}")
    rng = random.Random(seed)
    pool = [name for name in objects]
    out: list[TrainingSample] = []
    for sample in base:
        subject_tok, action_tok, patient_tok = sample.tokens
        for replica in range(replicas):
            if replica == 0:
                out.append(sample)
                continue
            subject, patient = rng.sample(pool, 2)
            # one pass, so a new name equal to an old one is safe; when the
            # two tokens name one constant, the subject's new name wins
            gold = rename_constants(sample.gold, {
                patient_tok.lower(): patient, subject_tok.lower(): subject})
            out.append(TrainingSample((subject, action_tok, patient), gold))
    return out
