"""CKY chart parsing and log-linear scoring of derivations.

Each cell lists every derivation of its span, a binary one built from one
derivation of each of two adjacent cells.  Sentences are short detector
triplets, so cells stay small, and all probabilities are computed from
the full derivation list rather than by any dynamic-program
approximation; a chart with one goal derivation gives it probability 1
without scoring it.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import NoParseError, NonFiniteWeightError, UnknownTokenError
from .grammar import (GOAL_CATEGORY, Category, LexEntry, Lexicon, combine,
                      render_category, unary_project)
from .terms import (Const, Term, canonical, constants, predications,
                    rename_constants)
from .value import Value, store

FeatureKey = tuple[str, str, str]


class Derivation(Value):
    """One parse tree node over the tokens of ``span``: a leaf holds its
    ``entry``, any other node its ``kids``, ``(left, right)`` or ``(d,)``."""

    __slots__ = _fields = ("category", "semantics", "span", "entry", "kids")

    def __init__(self, category: Category, semantics: Term,
                 span: tuple[int, int], entry: LexEntry | None = None,
                 kids: tuple[Derivation, ...] = ()):
        store(self, "category", category)
        store(self, "semantics", semantics)
        store(self, "span", span)
        store(self, "entry", entry)
        store(self, "kids", kids)

    def feature_counts(self) -> Counter:
        """Lexical entry usage counts; sums to the token count."""
        counts: Counter = Counter()
        stack = [self]
        while stack:
            node = stack.pop()
            if node.entry is not None:
                counts[node.entry.key] += 1
            stack += node.kids
        return counts

    def score(self, lexicon: Lexicon) -> float:
        return sum(lexicon.weight_of(key) * count
                   for key, count in self.feature_counts().items())

    def tree(self) -> str:
        """Single-line bracketed rendering of the derivation."""
        cat = render_category(self.category)
        if self.entry is not None:
            return f"[{cat} {self.entry.token!r}]"
        return f"[{cat} {' '.join(kid.tree() for kid in self.kids)}]"


class ParseResult(Value):
    """Highest-probability logical form and its probability; its derivations
    are those of ``parse_all`` whose semantics share its ``canonical``."""

    __slots__ = _fields = ("logical_form", "probability")


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
    found = [lexicon.lookup(token) for token in tokens]
    unknown = [t for t, entries in zip(tokens, found) if not entries]
    if unknown:
        raise UnknownTokenError(list(dict.fromkeys(unknown)))

    n = len(tokens)
    cells: dict[tuple[int, int], list[Derivation]] = {}
    for i, entries in enumerate(found):
        span = (i, i + 1)
        cells[span] = _close_unary([
            Derivation(entry.category, entry.semantics, span, entry=entry)
            for entry in entries])
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
                                                   kids=(left, right)))
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
            cell.append(Derivation(made[0], made[1], d.span, kids=(d,)))
    return cell


def exp_mass(scores) -> tuple[float, float]:
    """``(top, fsum(exp(s - top)))`` over ``scores``, ``top`` the largest:
    log-sum-exp in two parts, so that no ``exp`` overflows.  Raises
    NonFiniteWeightError if either is not finite, as when a score's summed
    weights overflow; ``argmax_parse`` scores no one-derivation chart, so
    such a sentence still parses, at probability 1."""
    top = max(scores)
    total = math.fsum(math.exp(s - top) for s in scores)
    if not (math.isfinite(top) and math.isfinite(total)):
        raise NonFiniteWeightError(f"derivation score {top!r} is not finite: "
                                   f"the entry weights it sums overflow")
    return top, total


def _form_shares(derivations, lexicon: Lexicon) -> dict[str, tuple[float, Term]]:
    """Each logical form's share of the derivations' probability mass, with
    the semantics of the first derivation that yields it, keyed by
    canonical string.

    Every share is taken from one ``exp_mass`` top, so forms of equal mass
    get equal shares whatever the size of the scores.
    """
    scores = [d.score(lexicon) for d in derivations]
    top, total = exp_mass(scores)
    groups: dict[str, list[int]] = {}
    for idx, derivation in enumerate(derivations):
        groups.setdefault(canonical(derivation.semantics), []).append(idx)
    return {key: (math.fsum(math.exp(scores[i] - top) for i in group) / total,
                  derivations[group[0]].semantics)
            for key, group in groups.items()}


def parse_probability(logical_form: Term, tokens, lexicon: Lexicon) -> float:
    """Probability mass of derivations whose root matches ``logical_form``.

    The match is up to renaming of bound variables.  Mass is the
    normalized exponential of summed entry weights, so adding a constant
    to every weight leaves the value unchanged.
    """
    shares = _form_shares(parse_all(tokens, lexicon), lexicon)
    share, _ = shares.get(canonical(logical_form), (0.0, None))
    return share


def _argmax(tokens, lexicon: Lexicon) -> tuple[ParseResult, bool]:
    """The full parse's result, and whether its form's share beats every
    other form's by more than the tie margin, so that no name chose it."""
    derivations = parse_all(tokens, lexicon)
    if len(derivations) == 1:  # its share is 1 whatever its score
        return ParseResult(derivations[0].semantics, 1.0), True
    shares = _form_shares(derivations, lexicon)
    best_key, best = None, -math.inf
    for key in sorted(shares):
        share = shares[key][0]
        if share > best * (1 + 1e-12):
            best_key, best = key, share
    clear = all(best > share * (1 + 1e-12)
                for key, (share, _) in shares.items() if key != best_key)
    return ParseResult(shares[best_key][1], best), clear


def argmax_parse(tokens, lexicon: Lexicon) -> ParseResult:
    """Most probable logical form, marginalizing over its derivations.

    Ties break toward the lexicographically smallest canonical rendering,
    which keeps the choice independent of chart order; shares within a
    factor of 1 + 1e-12 tie.  A sentence with one goal derivation gets its
    form at probability 1.0 unscored, as scoring gives for any finite score.

    Results are kept in ``lexicon.parse_cache`` by sentence shape (see
    ``_cache_key``): a sentence that differs from one parsed before only in
    the names of its bare-constant entries gets that sentence's form with
    the names put back, and its probability, without a parse.  A form
    that won within the tie margin, or that uses such a name as a
    predicate (``every Tomato`` gives ``tomato(x)``), is never reused.
    """
    tokens = list(tokens)
    found = _cache_key(tokens, lexicon)
    cached = lexicon.parse_cache.get(found[0]) if found else ()
    if cached:
        form, probability, old = cached
        renames = {o: n for o, n in zip(old, found[1]) if o != n}
        if renames:
            form = rename_constants(form, renames)
        return ParseResult(form, probability)
    result, clear = _argmax(tokens, lexicon)
    if cached is None:
        key, names = found
        form = result.logical_form
        if clear and not any(name in names for name, _ in predications(form)):
            lexicon.parse_cache[key] = (form, result.probability, names)
        else:
            lexicon.parse_cache[key] = ()
    return result


def _cache_key(tokens, lexicon: Lexicon):
    """``(key, names)`` for the parse cache, or None when the sentence must
    be parsed in full.

    The key holds each token's shape (``_token_shape``) and the pattern of
    which bare-constant entries share a key and which share a name;
    ``names`` lists those names in order of first occurrence.  Any two
    sentences of one key parse alike up to those names, with two
    exceptions the callers handle: the tie-break, which reads names, and
    predicate names made from a constant.  No binder binds a constant, so
    no other choice reads a constant's name.  But ``rename_constants``
    renames every constant of a name, so a sentence whose bare constant is
    also a constant inside one of its other entries gets None, as does one
    with an unknown token.
    """
    cache = lexicon.parse_cache
    shapes, pattern, keys, names = [], [], {}, {}
    inside = set()
    for token in tokens:
        found = cache.get(token)
        if found is None:
            found = cache[token] = _token_shape(token, lexicon)
        if not found:
            return None
        shape, bare, others = found
        shapes.append(shape)
        inside |= others
        for key, name in bare:
            pattern.append((keys.setdefault(key, len(keys)),
                            names.setdefault(name, len(names))))
    if not inside.isdisjoint(names):
        return None
    return (tuple(shapes), tuple(pattern)), tuple(names)


def _token_shape(token: str, lexicon: Lexicon) -> tuple:
    """``()`` for an unknown token, else ``(shape, bare, others)``: the
    shape lists each entry, a bare-constant one as its category and weight
    and any other as its key; ``bare`` pairs each bare-constant entry's key
    with its name; ``others`` holds the constants inside the other
    entries."""
    entries = lexicon.lookup(token)
    if not entries:
        return ()
    shape, bare, others = [], [], set()
    for entry in entries:
        key = entry.key
        if isinstance(entry.semantics, Const):
            shape.append((key[1], lexicon.weight_of(key)))
            bare.append((key, entry.semantics.name))
        else:
            shape.append(key)
            others |= constants(entry.semantics)
    return tuple(shape), bare, others
