"""CKY chart parsing and log-linear scoring of derivations.

Cells hold packed items keyed by (category, logical form up to renaming,
lexical feature counts); distinct subtrees behind one item survive as
backpointers, so enumeration recovers every derivation.  Sentences are
short detector triplets, which keeps exact enumeration cheap, and all
probabilities are computed from the full derivation list rather than by
any dynamic-program approximation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

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

    @property
    def kind(self) -> str:
        if self.entry is not None:
            return "leaf"
        if self.child is not None:
            return "unary"
        return "binary"

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


@dataclass(eq=False)
class _Item:
    category: Category
    semantics: Term
    counts: tuple  # the entry keys of its leaves, sorted
    span: tuple[int, int]
    backs: list = field(default_factory=list)


def parse_all(tokens, lexicon: Lexicon) -> list[Derivation]:
    """Every full-span derivation of the goal category, in chart order.

    Raises UnknownTokenError when a token has no entry and NoParseError
    when the chart holds no goal item over the whole span.
    """
    tokens = list(tokens)
    if not tokens:
        raise NoParseError(tokens)
    unknown = [t for t in dict.fromkeys(tokens) if not lexicon.has_token(t)]
    if unknown:
        raise UnknownTokenError(unknown)

    n = len(tokens)
    cells: dict[tuple[int, int], dict] = {}
    for i, token in enumerate(tokens):
        cell: dict = {}
        for entry in lexicon.lookup(token):
            _add(cell, entry.category, entry.semantics, (entry.key,),
                 (i, i + 1), ("leaf", entry))
        _close_unary(cell)
        cells[(i, i + 1)] = cell
    for width in range(2, n + 1):
        for start in range(0, n - width + 1):
            end = start + width
            cell = {}
            for split in range(start + 1, end):
                for litem in cells[(start, split)].values():
                    for ritem in cells[(split, end)].values():
                        made = combine((litem.category, litem.semantics),
                                       (ritem.category, ritem.semantics))
                        if made is None:
                            continue
                        counts = tuple(sorted(litem.counts + ritem.counts))
                        _add(cell, made[0], made[1], counts, (start, end),
                             ("binary", litem, ritem))
            _close_unary(cell)
            cells[(start, end)] = cell

    roots = [item for item in cells[(0, n)].values()
             if item.category == GOAL_CATEGORY]
    derivations = [d for item in roots for d in _enumerate(item)]
    if not derivations:
        raise NoParseError(tokens)
    return derivations


def _add(cell: dict, category: Category, semantics: Term, counts: tuple,
         span: tuple[int, int], back) -> None:
    key = (category, canonical(semantics), counts)
    item = cell.get(key)
    if item is None:
        item = _Item(category, semantics, counts, span)
        cell[key] = item
    item.backs.append(back)


def _close_unary(cell: dict) -> None:
    # Promotions never chain (NP has no unary rule), so one pass suffices.
    for item in list(cell.values()):
        made = unary_project(item.category, item.semantics)
        if made is not None:
            _add(cell, made[0], made[1], item.counts, item.span, ("unary", item))


def _enumerate(item: _Item) -> list[Derivation]:
    out: list[Derivation] = []
    for back in item.backs:
        if back[0] == "leaf":
            out.append(Derivation(item.category, item.semantics, item.span,
                                  entry=back[1]))
        elif back[0] == "unary":
            for child in _enumerate(back[1]):
                out.append(Derivation(item.category, item.semantics, item.span,
                                      child=child))
        else:
            _, litem, ritem = back
            for left in _enumerate(litem):
                for right in _enumerate(ritem):
                    out.append(Derivation(item.category, item.semantics,
                                          item.span, left=left, right=right))
    return out


def exp_mass(scores) -> tuple[float, float]:
    """``(top, fsum(exp(s - top)))`` over ``scores``, ``top`` the largest:
    log-sum-exp in two parts, so that no ``exp`` overflows."""
    top = max(scores)
    return top, math.fsum(math.exp(s - top) for s in scores)


def log_norm(scores) -> float:
    """``log(sum(exp(s)))`` over ``scores``."""
    top, mass = exp_mass(scores)
    return top + math.log(mass)


def parse_probability(logical_form: Term, tokens, lexicon: Lexicon) -> float:
    """Probability mass of derivations whose root matches ``logical_form``.

    The match is up to renaming of bound variables.  Mass is the
    normalized exponential of summed entry weights, so adding a constant
    to every weight leaves the value unchanged.
    """
    derivations = parse_all(tokens, lexicon)
    scores = [d.score(lexicon) for d in derivations]
    target = canonical(logical_form)
    matched = [s for d, s in zip(derivations, scores)
               if canonical(d.semantics) == target]
    if not matched:
        return 0.0
    return math.exp(log_norm(matched) - log_norm(scores))


def argmax_parse(tokens, lexicon: Lexicon) -> ParseResult:
    """Most probable logical form, marginalizing over its derivations.

    Ties break toward the lexicographically smallest canonical rendering,
    which keeps the choice independent of chart order.
    """
    derivations = parse_all(tokens, lexicon)
    scores = [d.score(lexicon) for d in derivations]
    total = log_norm(scores)
    groups: dict[str, list[int]] = {}
    for idx, derivation in enumerate(derivations):
        groups.setdefault(canonical(derivation.semantics), []).append(idx)
    best_key = None
    best_mass = -math.inf
    for key in sorted(groups):
        mass = log_norm([scores[i] for i in groups[key]])
        if mass > best_mass + 1e-12:
            best_key, best_mass = key, mass
    chosen = [derivations[i] for i in groups[best_key]]
    return ParseResult(chosen[0].semantics, math.exp(best_mass - total),
                       tuple(chosen))
