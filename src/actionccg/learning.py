"""Lexicon learning: entry induction, templates, and weight estimation.

Induction abstracts the subject and patient constants out of an
annotated consequence, giving an action entry that reproduces the
annotation when the triplet is parsed.  Weight estimation is full-batch
gradient ascent on the conditional log-likelihood of the annotations,
with the per-entry usage counts of a derivation as its only features.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass

from .errors import (DegenerateCorpusError, InductionFailureError,
                     InvalidConfigError, NoParseError, NonFiniteWeightError,
                     SkippedSampleWarning, UnknownTokenError)
from .chart import exp_mass, parse_all
from .grammar import (AP, Backward, Forward, N, NP, LexEntry, Lexicon,
                      apply_argument)
from .syntax import parse_term
from .terms import Const, Lam, Term, alpha_eq, canonical, inverse_lambda

OBJECT_TOKEN_RE = re.compile(r"object_[0-9]+\Z", re.IGNORECASE)
ACTION_CATEGORY = Forward(Backward(AP, NP), NP)
UNKNOWN_WEIGHT = -1.0


@dataclass(frozen=True)
class TrainingSample:
    """A detector triplet and its annotated consequence expression."""

    tokens: tuple[str, str, str]
    gold: Term

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))


@dataclass(frozen=True)
class TrainConfig:
    """Settings of ``train``; building one out of range raises
    InvalidConfigError."""

    iterations: int = 100
    learning_rate: float = 0.1
    l2: float = 0.0

    def __post_init__(self):
        if self.iterations < 0:
            raise InvalidConfigError(
                f"iterations must be at least 0, got {self.iterations}")
        for name in ("learning_rate", "l2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfigError(
                    f"{name} must be finite, got {getattr(self, name)!r}")


def inject_templates(tokens, lexicon: Lexicon) -> Lexicon:
    """Cover unknown tokens with fallback entries.

    Segment identifiers such as ``Object_007`` become nouns denoting a
    fresh constant; any other unknown token is assumed to name an action
    and receives a two-argument entry with no stated consequence, at the
    penalty weight ``UNKNOWN_WEIGHT`` so known entries win when both
    apply.  Running the injection twice adds nothing new.
    """
    fresh = []
    for token in dict.fromkeys(tokens):
        if lexicon.has_token(token):
            continue
        if OBJECT_TOKEN_RE.fullmatch(token):
            fresh.append(LexEntry(token, N, Const(token.lower())))
        else:
            semantics = parse_term(f"\\x.\\y.{token.lower()}(x,y)")
            fresh.append(LexEntry(token, ACTION_CATEGORY, semantics,
                                  UNKNOWN_WEIGHT))
    return lexicon.with_entries(fresh) if fresh else lexicon


def _noun_constant(token: str, lexicon: Lexicon) -> Const:
    for entry in lexicon.lookup(token):
        if entry.category == N and isinstance(entry.semantics, Const):
            return entry.semantics
    raise InductionFailureError(f"no noun entry for token {token!r}")


def induce_entries(sample: TrainingSample, lexicon: Lexicon) -> list[LexEntry]:
    """Candidate action entries for one sample, minus known duplicates.

    The subject constant is abstracted first and the patient second, so
    the patient argument consumed through ``/NP`` fills the inner binder
    and reapplying patient then subject round-trips to the annotation.
    """
    if len(sample.tokens) != 3:
        raise InductionFailureError(
            f"expected a triplet, got {len(sample.tokens)} tokens")
    subject_tok, action_tok, patient_tok = sample.tokens
    subject = _noun_constant(subject_tok, lexicon)
    patient = _noun_constant(patient_tok, lexicon)
    outer = inverse_lambda(sample.gold, subject)
    candidate = Lam(outer.param, inverse_lambda(outer.body, patient))
    rebuilt = apply_argument(apply_argument(candidate, patient), subject)
    if not alpha_eq(rebuilt, sample.gold):
        raise InductionFailureError(
            f"candidate for {action_tok!r} does not reproduce the annotation: "
            f"{rebuilt} vs {sample.gold}")
    entry = LexEntry(action_tok, ACTION_CATEGORY, candidate)
    known = {e.key for e in lexicon.lookup(action_tok)}
    return [] if entry.key in known else [entry]


def induce_corpus_entries(corpus, lexicon: Lexicon) -> Lexicon:
    """Run induction over a whole corpus, skipping failed samples."""
    for sample in corpus:
        try:
            new = induce_entries(sample, lexicon)
        except InductionFailureError as exc:
            warnings.warn(f"skipping {' '.join(sample.tokens)}: {exc}",
                          SkippedSampleWarning, stacklevel=2)
            continue
        if new:
            lexicon = lexicon.with_entries(new)
    return lexicon


def _prepare(corpus, lexicon: Lexicon):
    """Parse each sample once; charts do not depend on weights."""
    prepared = []
    for sample in corpus:
        try:
            derivations = parse_all(sample.tokens, lexicon)
        except (UnknownTokenError, NoParseError) as exc:
            warnings.warn(f"skipping {' '.join(sample.tokens)}: {exc}",
                          SkippedSampleWarning, stacklevel=3)
            continue
        target = canonical(sample.gold)
        rows = [(dict(d.feature_counts()), canonical(d.semantics) == target)
                for d in derivations]
        if not any(gold for _, gold in rows):
            warnings.warn(
                f"skipping {' '.join(sample.tokens)}: no derivation matches "
                f"the annotation", SkippedSampleWarning, stacklevel=3)
            continue
        prepared.append(rows)
    return prepared


def _fit_row(rows, theta, grad=None) -> float:
    """log P(annotation | tokens) of one parsed sample under ``theta``, which
    holds every key of the lexicon the rows were parsed with.  Given
    ``grad``, also adds ``(P(d | annotation) - P(d)) * counts(d)`` for each
    derivation ``d``: exactly ``+0.0`` when every derivation matches."""
    scores = [sum(theta[k] * c for k, c in counts.items()) for counts, _ in rows]
    gold_top, gold_mass = exp_mass([s for s, (_, gold) in zip(scores, rows) if gold])
    top, mass = exp_mass(scores)
    if grad is not None:
        for (counts, gold), s in zip(rows, scores):
            delta = ((math.exp(s - gold_top) / gold_mass if gold else 0.0)
                     - math.exp(s - top) / mass)
            for key, count in counts.items():
                grad[key] += delta * count
    return (gold_top - top) + math.log(gold_mass / mass)


def log_likelihood(corpus, lexicon: Lexicon) -> float:
    """Sum over samples of log P(annotation | tokens); skips unusable ones."""
    return _total(_prepare(corpus, lexicon), lexicon)


def _total(prepared, lexicon: Lexicon) -> float:
    theta = {e.key: e.weight for e in lexicon}
    return sum(_fit_row(rows, theta) for rows in prepared)


def train(corpus, lexicon: Lexicon, config: TrainConfig = TrainConfig()) -> Lexicon:
    """Batch gradient ascent on the conditional log-likelihood.

    The gradient of each entry weight is the expected usage count under
    derivations matching the annotation minus the expectation under all
    derivations, less the l2 pull toward zero.  Returns the lexicon with
    updated weights; everything else is untouched.  Raises
    NonFiniteWeightError, naming the iteration, as soon as a weight turns
    infinite or NaN.

    ``config.iterations`` caps the passes: training stops early after a
    pass that leaves every weight bit for bit unchanged (``-0.0`` to
    ``0.0`` is a change), since every later pass would repeat it exactly.
    """
    return _descend(_prepare(corpus, lexicon), lexicon, config)


def fit(corpus, lexicon: Lexicon,
        config: TrainConfig = TrainConfig()) -> tuple[Lexicon, float]:
    """``train``, and the trained lexicon's ``log_likelihood`` on ``corpus``,
    from one parse of each sample: training changes only weights, and the
    charts do not depend on them."""
    prepared = _prepare(corpus, lexicon)
    trained = _descend(prepared, lexicon, config)
    return trained, _total(prepared, trained)


def _descend(prepared, lexicon: Lexicon, config: TrainConfig) -> Lexicon:
    if not prepared:
        raise DegenerateCorpusError("no training sample could be parsed "
                                    "to its annotation")
    # a row whose derivations all match its annotation adds exactly +0.0
    prepared = [rows for rows in prepared if not all(gold for _, gold in rows)]
    theta = {e.key: e.weight for e in lexicon}
    for iteration in range(1, config.iterations + 1):
        grad = defaultdict(float)
        for rows in prepared:
            _fit_row(rows, theta, grad)
        moved = False
        for key, weight in theta.items():
            new = weight + config.learning_rate * (grad[key] - config.l2 * weight)
            if not math.isfinite(new):
                token, category, semantics = key
                raise NonFiniteWeightError(
                    f"non-finite weight {new!r} for {token} := {category} "
                    f": {semantics} at training iteration {iteration}")
            moved = moved or new.hex() != float(weight).hex()
            theta[key] = new
        if not moved:
            break
    return lexicon.with_weights(theta)
