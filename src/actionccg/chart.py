"""CKY chart parsing and log-linear scoring of derivations.

Each cell lists every derivation of its span, a binary one built from one
derivation of each of two adjacent cells.  Sentences are short detector
triplets, so cells stay small, and all probabilities are computed from
the full derivation list rather than by any dynamic-program
approximation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import NoParseError, UnknownTokenError
from .grammar import (GOAL_CATEGORY, Category, LexEntry, Lexicon, combine,
                      render_category, unary_project)
from .terms import Term, canonical

FeatureKey = tuple[str, str, str]


@dataclass(frozen=True)
class Derivation:
    """One parse tree node; ``entry`` for leaves, children otherwise."""

    category: Category
    semantics: Term
    span: tuple[int, int]
    entry: LexEntry | None = None
    child: "Derivation | None" = None
    left: "Derivation | None" = None
    right: "Derivation | None" = None

    def feature_counts(self) -> Counter:
        """Lexical entry usage counts; sums to the token count."""
        counts: Counter = Counter()
        stack = [self]
        while stack:
            node = stack.pop()
            if node.entry is not None:
                counts[node.entry.key] += 1
            elif node.child is not None:
                stack.append(node.child)
            else:
                stack.append(node.left)
                stack.append(node.right)
        return counts

    def score(self, lexicon: Lexicon) -> float:
        return sum(lexicon.weight_of(key) * count
                   for key, count in self.feature_counts().items())

    def tree(self) -> str:
        """Single-line bracketed rendering of the derivation."""
        cat = render_category(self.category)
        if self.entry is not None:
            return f"[{cat} {self.entry.token!r}]"
        if self.child is not None:
            return f"[{cat} {self.child.tree()}]"
        return f"[{cat} {self.left.tree()} {self.right.tree()}]"


@dataclass(frozen=True)
class ParseResult:
    """Highest-probability logical form with its supporting derivations."""

    logical_form: Term
    probability: float
    derivations: tuple[Derivation, ...]


def parse_all(tokens, lexicon: Lexicon) -> list[Derivation]:
    """Every full-span derivation of the goal category, in chart order.

    Chart order is CKY creation order: a cell lists its binary derivations
    by split point, then left, then right sub-derivation, and then the
    unary promotions of its derivations in that same order.

    Raises UnknownTokenError when a token has no entry and NoParseError
    when the chart holds no goal derivation over the whole span.
    """
    tokens = list(tokens)
    if not tokens:
        raise NoParseError(tokens)
    unknown = [t for t in dict.fromkeys(tokens) if not lexicon.has_token(t)]
    if unknown:
        raise UnknownTokenError(unknown)

    n = len(tokens)
    cells: dict[tuple[int, int], list[Derivation]] = {}
    for i, token in enumerate(tokens):
        span = (i, i + 1)
        cells[span] = _close_unary([
            Derivation(entry.category, entry.semantics, span, entry=entry)
            for entry in lexicon.lookup(token)])
    for width in range(2, n + 1):
        for start in range(0, n - width + 1):
            span = (start, start + width)
            cell = []
            for split in range(start + 1, start + width):
                for left in cells[(start, split)]:
                    for right in cells[(split, start + width)]:
                        made = combine((left.category, left.semantics),
                                       (right.category, right.semantics))
                        if made is not None:
                            cell.append(Derivation(made[0], made[1], span,
                                                   left=left, right=right))
            cells[span] = _close_unary(cell)

    derivations = [d for d in cells[(0, n)] if d.category == GOAL_CATEGORY]
    if not derivations:
        raise NoParseError(tokens)
    return derivations


def _close_unary(cell: list[Derivation]) -> list[Derivation]:
    # Promotions never chain (NP has no unary rule), so one pass suffices.
    for d in list(cell):
        made = unary_project(d.category, d.semantics)
        if made is not None:
            cell.append(Derivation(made[0], made[1], d.span, child=d))
    return cell


def exp_mass(scores) -> tuple[float, float]:
    """``(top, fsum(exp(s - top)))`` over ``scores``, ``top`` the largest:
    log-sum-exp in two parts, so that no ``exp`` overflows."""
    top = max(scores)
    return top, math.fsum(math.exp(s - top) for s in scores)


def _form_shares(derivations, lexicon: Lexicon) -> dict[str, tuple[float, list]]:
    """Each logical form's share of the derivations' probability mass, with
    the derivations that yield it, keyed by canonical string.

    Every share is taken from one ``exp_mass`` top, so forms of equal mass
    get equal shares whatever the size of the scores.
    """
    scores = [d.score(lexicon) for d in derivations]
    top, total = exp_mass(scores)
    groups: dict[str, list[int]] = {}
    for idx, derivation in enumerate(derivations):
        groups.setdefault(canonical(derivation.semantics), []).append(idx)
    return {key: (math.fsum(math.exp(scores[i] - top) for i in group) / total,
                  [derivations[i] for i in group])
            for key, group in groups.items()}


def parse_probability(logical_form: Term, tokens, lexicon: Lexicon) -> float:
    """Probability mass of derivations whose root matches ``logical_form``.

    The match is up to renaming of bound variables.  Mass is the
    normalized exponential of summed entry weights, so adding a constant
    to every weight leaves the value unchanged.
    """
    shares = _form_shares(parse_all(tokens, lexicon), lexicon)
    share, _ = shares.get(canonical(logical_form), (0.0, []))
    return share


def argmax_parse(tokens, lexicon: Lexicon) -> ParseResult:
    """Most probable logical form, marginalizing over its derivations.

    Ties break toward the lexicographically smallest canonical rendering,
    which keeps the choice independent of chart order; shares within a
    factor of 1 + 1e-12 tie.
    """
    shares = _form_shares(parse_all(tokens, lexicon), lexicon)
    best_key, best = None, -math.inf
    for key in sorted(shares):
        share = shares[key][0]
        if share > best * (1 + 1e-12):
            best_key, best = key, share
    chosen = shares[best_key][1]
    return ParseResult(chosen[0].semantics, best, tuple(chosen))
