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

from .errors import (DegenerateCorpusError, InductionFailureError,
                     InvalidConfigError, NoParseError, NonFiniteWeightError,
                     SkippedSampleWarning, UnknownTokenError)
from .chart import exp_mass, parse_all
from .grammar import (AP, Backward, Forward, N, NP, LexEntry, Lexicon,
                      apply_argument)
from .syntax import KEYWORDS, is_identifier, parse_term
from .terms import (Const, Lam, Term, alpha_eq, canonical, fresh_name,
                    inverse_lambda)
from .value import Value, store

OBJECT_TOKEN_RE = re.compile(r"object_[0-9]+\Z", re.IGNORECASE)
ACTION_CATEGORY = Forward(Backward(AP, NP), NP)
UNKNOWN_WEIGHT = -1.0


class TrainingSample(Value):
    """A detector triplet and its annotated consequence expression."""

    __slots__ = _fields = ("tokens", "gold")

    def __init__(self, tokens: tuple[str, str, str], gold: Term):
        store(self, "tokens", tuple(tokens))
        store(self, "gold", gold)


class TrainConfig(Value):
    """Settings of ``train``; building one out of range raises
    InvalidConfigError."""

    __slots__ = _fields = ("iterations", "learning_rate", "l2")

    def __init__(self, iterations: int = 100, learning_rate: float = 0.1,
                 l2: float = 0.0):
        if iterations < 0:
            raise InvalidConfigError(
                f"iterations must be at least 0, got {iterations}")
        for name, value in (("learning_rate", learning_rate), ("l2", l2)):
            if not math.isfinite(value):
                raise InvalidConfigError(f"{name} must be finite, got {value!r}")
        store(self, "iterations", iterations)
        store(self, "learning_rate", learning_rate)
        store(self, "l2", l2)


def inject_templates(tokens, lexicon: Lexicon) -> Lexicon:
    """Cover unknown tokens with fallback entries.

    Segment identifiers such as ``Object_007`` become nouns denoting a
    fresh constant; any other unknown token is assumed to name an action
    and receives a two-argument entry with no stated consequence, its
    binders named apart from the action (``X`` reads ``x(x1,y)``), at the
    penalty weight ``UNKNOWN_WEIGHT`` so known entries win when both
    apply.  A token whose lower case is no predicate name (``Pick-up``,
    ``Forall``) gets no entry and stays unknown.  Running the injection
    twice adds nothing new.
    """
    fresh = []
    for token in dict.fromkeys(tokens):
        if lexicon.has_token(token):
            continue
        name = token.lower()
        if OBJECT_TOKEN_RE.fullmatch(token):
            fresh.append(LexEntry(token, N, Const(name)))
        elif is_identifier(name) and name not in KEYWORDS:
            x, y = fresh_name("x", {name}), fresh_name("y", {name})
            semantics = parse_term(f"\\{x}.\\{y}.{name}({x},{y})")
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
    new = []
    for sample in corpus:
        try:
            new += induce_entries(sample, lexicon)
        except InductionFailureError as exc:
            warnings.warn(f"skipping {' '.join(sample.tokens)}: {exc}",
                          SkippedSampleWarning, stacklevel=2)
    return lexicon.with_entries(new)


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
        gold, target = sample.gold, None
        rows = []
        for d in derivations:
            # equal values are alpha-equivalent; render only to tell the rest
            match = d.semantics == gold
            if not match:
                if target is None:
                    target = canonical(gold)
                match = canonical(d.semantics) == target
            rows.append((dict(d.feature_counts()), match))
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
    return _objective(prepared, {e.key: e.weight for e in lexicon}, 0.0)


def _objective(prepared, theta, l2: float, grad=None) -> float:
    """What ``train`` ascends: the log-likelihood of the ``prepared`` rows
    under ``theta`` less ``l2 / 2`` times its squared weights.  Given
    ``grad``, also adds the log-likelihood's gradient (``_fit_row``)."""
    value = sum(_fit_row(rows, theta, grad) for rows in prepared)
    if l2:
        value -= l2 / 2 * sum(weight * weight for weight in theta.values())
    return value


def train(corpus, lexicon: Lexicon, config: TrainConfig = TrainConfig()) -> Lexicon:
    """Batch gradient ascent on the conditional log-likelihood.

    The gradient of each entry weight is the expected usage count under
    derivations matching the annotation minus the expectation under all
    derivations, less the l2 pull toward zero.  Each iteration tries a
    step of ``config.learning_rate`` times that gradient and halves the
    step until the objective, the log-likelihood less ``l2 / 2`` times the
    squared weights, does not fall; so the objective never falls from one
    iteration to the next.  Returns the lexicon with updated weights;
    everything else is untouched.  Raises NonFiniteWeightError, naming the
    iteration, as soon as a step would turn a weight infinite or NaN.

    ``config.iterations`` caps the passes: training stops early after a
    pass that leaves every weight bit for bit unchanged (``-0.0`` to
    ``0.0`` is a change), as when no step size helps, since every later
    pass would repeat it exactly.
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
    l2 = config.l2
    theta = {e.key: e.weight for e in lexicon}
    for iteration in range(1, config.iterations + 1):
        grad = defaultdict(float)
        value = _objective(prepared, theta, l2, grad)
        ascent = {key: grad[key] - l2 * weight for key, weight in theta.items()}
        step = config.learning_rate
        while True:
            trial = {}
            for key, weight in theta.items():
                new = weight + step * ascent[key]
                if not math.isfinite(new):
                    token, category, semantics = key
                    raise NonFiniteWeightError(
                        f"non-finite weight {new!r} for {token} := {category} "
                        f": {semantics} at training iteration {iteration}")
                trial[key] = new
            # a step that moves no weight leaves the objective as it is
            if _objective(prepared, trial, l2) >= value:
                break
            step /= 2
        moved = any(new.hex() != float(theta[key]).hex() for key, new in trial.items())
        theta = trial
        if not moved:
            break
    return lexicon.with_weights(theta)
