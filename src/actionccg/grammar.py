"""Categorial grammar: categories, lexical entries, and combination.

The category language is tiny: atoms N, NP, AP and the two slashes.
``X/Y`` wants a Y on its right, ``X\\Y`` normally wants a Y on its left.
A backslash function additionally accepts a right-adjacent argument,
which is how a quantifier entry of category ``NP\\NP`` attaches to the
noun phrase that follows it.  The only unary rule promotes a bare noun
to a noun phrase with unchanged semantics.

Semantic composition fills binders inside out: for a two-argument verb
``\\x.\\y.cut(x,y) -> divided(y)`` the patient consumed through ``/NP``
binds the inner ``y`` and the subject consumed through ``\\NP`` binds the
outer ``x``.  A quantified argument is hoisted: its quantifier wraps the
result and its restrictor lands in the antecedent of the consequence
implication (or is conjoined when there is none).
"""

from __future__ import annotations

import math

from .errors import NonFiniteWeightError, SourceSyntaxError
from .syntax import MAX_DEPTH, Tokens, check_depth
from .terms import (App, Binder, Exists, Forall, Implies, Lam, Term, Var, And,
                    beta_reduce, canonical, free_vars, fresh_name, substitute,
                    var_names)
from .value import Value, store

ATOMIC_CATEGORIES = ("N", "NP", "AP")


class Category(Value):
    __slots__ = ()

    def __str__(self) -> str:
        return render_category(self)


class Atom(Category):
    __slots__ = _fields = ("name",)


class _Slash(Category):
    __slots__ = _fields = ("result", "arg")


class Forward(_Slash):
    __slots__ = ()


class Backward(_Slash):
    __slots__ = ()


N = Atom("N")
NP = Atom("NP")
AP = Atom("AP")
GOAL_CATEGORY = AP


def render_category(cat: Category) -> str:
    if isinstance(cat, Atom):
        return cat.name
    slash = "/" if isinstance(cat, Forward) else "\\"
    return f"{_wrap(cat.result)}{slash}{_wrap(cat.arg)}"


def _wrap(cat: Category) -> str:
    text = render_category(cat)
    return text if isinstance(cat, Atom) else f"({text})"


def parse_category(text: str) -> Category:
    """Parse ``N``, ``NP``, ``AP`` and slash combinations thereof.

    Slashes associate to the left, so ``AP\\NP/NP`` equals ``(AP\\NP)/NP``.
    A category may nest at most ``MAX_DEPTH`` levels, each atom, each slash
    and each pair of parentheses around anything but a slash on its deepest
    path counting one.  Parentheses around a slash cost nothing, so every
    accepted category renders to text that parses back to it.
    """
    toks = Tokens(text)
    cat, _, _ = _category(toks, 1)
    toks.expect_end()
    return cat


# Like the term parser, each parser below takes the nesting depth it starts
# at and returns the category with its height, so that a long slash chain,
# parsed by a loop, is caught by its height.  Recursion stops at nesting
# depth 2 * MAX_DEPTH: a slash adds at most two levels of nesting (its
# argument position and the parentheses around it) and any other pair of
# parentheses one, so text nested deeper is higher than MAX_DEPTH, while
# the rendering of any category MAX_DEPTH high nests less deep.  The slash
# tokens are SLASH (``/``) and LAMBDA (``\``).

def _category(toks: Tokens, depth: int) -> tuple[Category, int, bool]:
    """The category, its height, and whether a slash at this level of
    parentheses built it."""
    cat, height, _ = _category_part(toks, depth)
    slashed = False
    while toks.peek()[0] in ("SLASH", "LAMBDA"):
        slash = toks.next()[1]
        arg, arg_height, end = _category_part(toks, depth + 1)
        cat = Forward(cat, arg) if slash == "/" else Backward(cat, arg)
        height = check_depth(max(height, arg_height) + 1, end, "category")
        slashed = True
    return cat, height, slashed


def _category_part(toks: Tokens, depth: int) -> tuple[Category, int, int]:
    """The category, its height, and the offset just past it."""
    kind, value, pos = toks.next()
    if depth > 2 * MAX_DEPTH:
        check_depth(MAX_DEPTH + 1, pos, "category")
    if kind == "EOF":
        raise SourceSyntaxError("unexpected end of category", offset=pos)
    if kind == "LPAR":
        cat, height, slashed = _category(toks, depth + 1)
        kind, _, pos = toks.next()
        if kind != "RPAR":
            raise SourceSyntaxError("unbalanced parenthesis", offset=pos)
        if not slashed:
            height = check_depth(height + 1, pos, "category")
        return cat, height, pos + 1
    if value not in ATOMIC_CATEGORIES:
        raise SourceSyntaxError(f"unknown category atom {value!r}", offset=pos)
    return Atom(value), 1, pos + len(value)


class LexEntry(Value):
    """One lexicon line: token, category, semantics, weight.  An infinite
    or NaN weight raises NonFiniteWeightError.

    ``key`` is its identity for feature counting, ``(token, rendered
    category, canonical semantics)``: a weight change keeps the key.  It is
    rendered when the entry is built from its fields; an entry that
    ``Lexicon`` reweights takes the key of the entry it reweights, unrendered.
    It takes no part in equality."""

    _fields = ("token", "category", "semantics", "weight")
    __slots__ = _fields + ("key",)

    def __init__(self, token: str, category: Category, semantics: Term,
                 weight: float = 0.0):
        self._store(token, category, semantics, weight,
                    (token, render_category(category), canonical(semantics)))

    def _store(self, token, category, semantics, weight, key) -> None:
        store(self, "token", token)
        store(self, "category", category)
        store(self, "semantics", semantics)
        store(self, "weight", weight)
        store(self, "key", key)
        if not math.isfinite(weight):
            raise NonFiniteWeightError(
                f"non-finite weight {weight!r} for {token} := {key[1]} : {key[2]}")

    def _reweighted(self, weight: float) -> LexEntry:
        """This entry at ``weight``, keeping its ``key``."""
        entry = object.__new__(LexEntry)
        entry._store(self.token, self.category, self.semantics, weight, self.key)
        return entry

    def __str__(self) -> str:
        return (f"{self.token} := {render_category(self.category)} : "
                f"{self.semantics} @ {self.weight!r}")


class Lexicon:
    """Immutable token-to-entries map holding one entry per ``key``.

    Entries of one key collapse into the first of them, at the highest
    weight among them.  Lookup ignores case: a token finds every entry
    whose token is the same in lower case, so detector output such as
    ``Chopping`` finds an entry learned from the corpus token
    ``chopping``, and an entry ``Knife`` hides no entry ``knife``.
    """

    def __init__(self, entries=()):
        merged: dict[tuple[str, str, str], LexEntry] = {}
        for entry in entries:
            first = merged.setdefault(entry.key, entry)
            if entry.weight > first.weight:
                merged[entry.key] = first._reweighted(entry.weight)
        self._by_key = merged
        self._folded: dict[str, list[LexEntry]] = {}
        for entry in merged.values():
            self._folded.setdefault(entry.token.lower(), []).append(entry)
        # ``chart.argmax_parse``'s memo for this lexicon alone; a lexicon
        # made from this one starts with an empty one
        self.parse_cache: dict = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self):
        return iter(self._by_key.values())

    def lookup(self, token: str) -> tuple[LexEntry, ...]:
        return tuple(self._folded.get(token.lower(), ()))

    def has_token(self, token: str) -> bool:
        return token.lower() in self._folded

    def weight_of(self, key: tuple[str, str, str]) -> float:
        return self._by_key[key].weight

    def with_entries(self, new_entries) -> "Lexicon":
        """This lexicon extended with ``new_entries``, merged by key."""
        return Lexicon((*self, *new_entries))

    def with_weights(self, weights: dict[tuple[str, str, str], float]) -> "Lexicon":
        """Reweight entries by key; an infinite or NaN weight is an error.
        Each entry keeps its ``key``: nothing is rendered again."""
        return Lexicon(e._reweighted(weights.get(e.key, e.weight)) for e in self)


def unary_project(category: Category, semantics: Term):
    """N promotes to NP, identity on semantics; anything else is None."""
    if category == N:
        return NP, semantics
    return None


def combine(left: tuple[Category, Term], right: tuple[Category, Term]):
    """Binary combination of adjacent items, or None when no rule fires.

    At most one rule can apply to an ordered pair: a category can never
    equal one of its own subcategories, so the trigger conditions below
    are mutually exclusive.
    """
    (lcat, lsem), (rcat, rsem) = left, right
    if isinstance(lcat, Forward) and lcat.arg == rcat:
        return lcat.result, apply_argument(lsem, rsem)
    if isinstance(rcat, Backward) and rcat.arg == lcat:
        return rcat.result, apply_argument(rsem, lsem)
    if isinstance(lcat, Backward) and lcat.arg == rcat:
        return lcat.result, apply_argument(lsem, rsem)
    return None


def apply_argument(fun: Term, arg: Term) -> Term:
    """Feed one syntactic argument to a function term.

    The innermost pending binder receives the argument; earlier binders
    stay pending for later arguments.  A function already wrapped in a
    quantifier is applied underneath it, and a quantified argument is
    hoisted as described in the module docstring.  The result is in
    beta-normal form: ``beta_reduce`` substitutes the argument in one
    walk and reduces further only where that walk met or made a redex.
    """
    if isinstance(fun, (Forall, Exists)):
        return _under_binder(fun, arg, apply_argument)
    if isinstance(arg, (Forall, Exists)):
        return _hoist_quantifier(fun, arg)
    if isinstance(fun, Lam) and isinstance(fun.body, Lam):
        return _under_binder(fun, arg, apply_argument)
    return beta_reduce(App(fun, arg))


def _under_binder(binder: Binder, outside: Term, inner) -> Term:
    """``binder`` over ``inner(body, outside)``, its variable first renamed
    away from the free variables of ``outside``."""
    name, body = binder.binds, binder.body
    taken = free_vars(outside)
    if name in taken:
        renamed = fresh_name(name, taken | var_names(body))
        body = substitute(body, name, Var(renamed))
        name = renamed
    return binder.rebind(name, inner(body, outside))


def _hoist_quantifier(fun: Term, arg: Term) -> Term:
    taken = (free_vars(arg.body) - {arg.var}) | var_names(fun)
    var = fresh_name(arg.var, taken)
    restrictor = (arg.body if var == arg.var
                  else substitute(arg.body, arg.var, Var(var)))
    core = apply_argument(fun, Var(var))
    return type(arg)(var, _push_restrictor(core, restrictor))


def _push_restrictor(target: Term, restrictor: Term) -> Term:
    if isinstance(target, Lam):
        return _under_binder(target, restrictor, _push_restrictor)
    if isinstance(target, Implies):
        return Implies(And(restrictor, target.left), target.right)
    return And(restrictor, target)
