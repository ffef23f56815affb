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
argument counts in the same file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ArityConflictError, InvalidConfigError, SourceSyntaxError
from .grammar import LexEntry, Lexicon, parse_category
from .learning import TrainingSample
from .reasoning import AxiomRule, Literal, parse_axiom, parse_literal
from .syntax import is_identifier, parse_term, variable_shape_note
from .terms import Pred, Term, beta_reduce, free_vars, render, rename_constants


@dataclass(frozen=True)
class SequenceFile:
    """An ordered run of detector triplets from one observation."""

    name: str
    triplets: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class GoldConsequences:
    """Reference final consequences for one sequence."""

    name: str
    literals: tuple[Literal, ...]


def data_path(name: str) -> Path:
    """Path of a sample file shipped inside the package."""
    return Path(str(resources.files(__package__).joinpath("data", name)))


class _ArityAudit:
    def __init__(self, path):
        self.path = path
        self.seen: dict[str, tuple[int, int]] = {}

    def observe_term(self, term: Term, line: int) -> None:
        stack = [term]
        while stack:
            node = stack.pop()
            if isinstance(node, Pred):
                self._check(node.name, len(node.args), line)
            stack.extend(node.kids())

    def observe_literal(self, literal: Literal, line: int) -> None:
        self._check(literal.predicate, len(literal.args), line)

    def _check(self, name: str, arity: int, line: int) -> None:
        before = self.seen.setdefault(name, (arity, line))
        if before[0] != arity:
            raise ArityConflictError(
                f"{self.path}, line {line}: predicate {name!r} used with "
                f"{arity} arguments but with {before[0]} on line {before[1]}")


def _parsed(path, parse_line):
    """``(line number, parse_line(record))`` for each record of ``path``, in
    order; a SourceSyntaxError from ``parse_line`` gains the path and line,
    and so does a logical form too deeply nested to process (a RecursionError,
    say from reducing a term whose normal form is deep)."""
    text = Path(path).read_text(encoding="utf-8")
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            value = parse_line(line)
        except SourceSyntaxError as exc:
            raise SourceSyntaxError(str(exc), line=number, path=str(path)) from None
        except RecursionError:
            raise SourceSyntaxError("logical form nested too deeply to process",
                                    line=number, path=str(path)) from None
        yield number, value


def load_lexicon(path) -> Lexicon:
    """Read a lexicon; duplicate entries merge with a warning."""
    audit = _ArityAudit(path)
    entries = []
    for number, entry in _parsed(path, _parse_lexicon_line):
        audit.observe_term(entry.semantics, number)
        entries.append(entry)
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


def save_lexicon(lexicon: Lexicon, path) -> None:
    lines = [f"{e.token} := {e.category} : {render(e.semantics)} @ {e.weight!r}"
             for e in lexicon]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_corpus(path) -> list[TrainingSample]:
    """Read annotated triplets; annotations must be closed expressions."""
    audit = _ArityAudit(path)
    samples = []
    for number, sample in _parsed(path, _parse_corpus_line):
        audit.observe_term(sample.gold, number)
        samples.append(sample)
    return samples


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


def save_corpus(samples, path, header: str | None = None) -> None:
    lines = [f"# {header}"] if header else []
    lines += [f"{' '.join(s.tokens)}\t{render(s.gold)}" for s in samples]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_sequence(path) -> SequenceFile:
    triplets = tuple(triplet for _, triplet in _parsed(path, _parse_sequence_line))
    return SequenceFile(Path(path).stem, triplets)


def _parse_sequence_line(line: str) -> tuple[str, str, str]:
    tokens = tuple(line.split())
    if len(tokens) != 3:
        raise SourceSyntaxError(f"expected 'Subject Action Patient', got {line!r}")
    return tokens


def load_gold(path) -> GoldConsequences:
    audit = _ArityAudit(path)
    literals = []
    for number, literal in _parsed(path, parse_literal):
        audit.observe_literal(literal, number)
        if literal not in literals:
            literals.append(literal)
    return GoldConsequences(Path(path).stem, tuple(literals))


def load_axioms(path) -> list[AxiomRule]:
    audit = _ArityAudit(path)
    rules = []
    for number, rule in _parsed(path, parse_axiom):
        for literal in rule.body + (rule.head,):
            audit.observe_literal(literal, number)
        rules.append(rule)
    return rules


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
