"""Parser for the ASCII surface syntax of logical forms.

Grammar, loosest binding first::

    term  := '\\' IDENT '.' term
           | ('forall' | 'exists') IDENT '.' term
           | or_t ('->' term)?            right-associative
    or_t  := and_t ('|' and_t)*
    and_t := not_t ('&' not_t)*
    not_t := '!' not_t | app_t
    app_t := atom atom*                   juxtaposition, left-associative
    atom  := IDENT ('(' term (',' term)* ')')?
           | '(' term ')'

Lambda and quantifier bodies extend as far right as possible.  A bare
identifier is a variable when an enclosing binder captures it or when it
is a single letter with an optional digit suffix (``x``, ``f``, ``x1``);
anything longer is a constant.  ``name(args)`` builds a predication
unless ``name`` is bound, in which case it builds an application spine
so that reduction can substitute the functor.
"""

from __future__ import annotations

import re

from .errors import SourceSyntaxError
from .terms import (And, App, Const, Exists, Forall, Implies, Lam, Not, Or,
                    Pred, Term, Var)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VAR_SHAPE_RE = re.compile(r"[A-Za-z][0-9]*\Z")
_KEYWORDS = ("forall", "exists")
# Deepest nesting a term may have.  The parser spends up to six stack
# frames per level and the recursive term walkers up to two (their own
# and, in ``_subst`` and ``_render``, a list comprehension's), so a term
# this deep stays well inside Python's default recursion limit of 1,000.
MAX_DEPTH = 100


def is_variable_name(name: str) -> bool:
    """Shape rule for unbound identifiers: one letter plus optional digits."""
    return bool(_VAR_SHAPE_RE.fullmatch(name))


def variable_shape_note(names) -> str:
    """For a diagnostic: those of ``names`` the shape rule reads as
    variables, and why they are no constants; '' when there are none."""
    shaped = [name for name in names if is_variable_name(name)]
    if not shaped:
        return ""
    return (f"{', '.join(shaped)} (one letter plus optional digits is read "
            "as a variable, so a constant needs a longer name)")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        n = len(text)
        while pos < n:
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if text.startswith("->", pos):
                self.items.append(("ARROW", "->", pos))
                pos += 2
                continue
            if ch in "\\.(),&|!":
                kind = {"\\": "LAMBDA", ".": "DOT", "(": "LPAR", ")": "RPAR",
                        ",": "COMMA", "&": "AND", "|": "OR", "!": "NOT"}[ch]
                self.items.append((kind, ch, pos))
                pos += 1
                continue
            m = _IDENT_RE.match(text, pos)
            if m:
                word = m.group(0)
                kind = word.upper() if word in _KEYWORDS else "IDENT"
                self.items.append((kind, word, pos))
                pos = m.end()
                continue
            raise SourceSyntaxError(f"unexpected character {ch!r}", offset=pos)
        self.items.append(("EOF", "", n))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.items[self.i]

    def next(self) -> tuple[str, str, int]:
        item = self.items[self.i]
        self.i += 1
        return item

    def expect(self, kind: str) -> tuple[str, str, int]:
        item = self.next()
        if item[0] != kind:
            raise SourceSyntaxError(
                f"expected {kind}, found {item[1] or 'end of input'!r}",
                offset=item[2])
        return item


def parse_term(text: str) -> Term:
    """Parse one logical form; raises SourceSyntaxError with an offset.

    A term may nest at most ``MAX_DEPTH`` levels, each node and each pair
    of parentheses on its deepest path counting one.
    """
    toks = _Tokens(text)
    term, height = _term(toks, frozenset(), 1)
    kind, value, pos = toks.peek()
    if kind != "EOF":
        raise SourceSyntaxError(f"trailing input {value!r}", offset=pos)
    _check_depth(height, 0)
    return term


def _check_depth(depth: int, offset: int) -> None:
    if depth > MAX_DEPTH:
        raise SourceSyntaxError(
            f"term nested deeper than {MAX_DEPTH} levels", offset=offset)


# Each parser below takes the nesting depth it starts at and returns the
# term with its height, so that recursion stops at MAX_DEPTH and a long
# chain of operators, parsed by a loop, is caught by its height.

def _term(toks: _Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
    kind, _, pos = toks.peek()
    _check_depth(depth, pos)
    if kind == "LAMBDA":
        toks.next()
        _, name, _ = toks.expect("IDENT")
        toks.expect("DOT")
        body, height = _term(toks, bound | {name}, depth + 1)
        return Lam(name, body), height + 1
    if kind in ("FORALL", "EXISTS"):
        toks.next()
        _, name, _ = toks.expect("IDENT")
        toks.expect("DOT")
        body, height = _term(toks, bound | {name}, depth + 1)
        return (Forall(name, body) if kind == "FORALL"
                else Exists(name, body)), height + 1
    left, height = _or(toks, bound, depth)
    if toks.peek()[0] == "ARROW":
        toks.next()
        right, right_height = _term(toks, bound, depth + 1)
        return Implies(left, right), max(height, right_height) + 1
    return left, height


def _or(toks: _Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
    term, height = _and(toks, bound, depth)
    while toks.peek()[0] == "OR":
        toks.next()
        right, right_height = _and(toks, bound, depth + 1)
        term, height = Or(term, right), max(height, right_height) + 1
    return term, height


def _and(toks: _Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
    term, height = _not(toks, bound, depth)
    while toks.peek()[0] == "AND":
        toks.next()
        right, right_height = _not(toks, bound, depth + 1)
        term, height = And(term, right), max(height, right_height) + 1
    return term, height


def _not(toks: _Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
    kind, _, pos = toks.peek()
    _check_depth(depth, pos)
    if kind == "NOT":
        toks.next()
        body, height = _not(toks, bound, depth + 1)
        return Not(body), height + 1
    return _app(toks, bound, depth)


def _app(toks: _Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
    term, height = _atom(toks, bound, depth)
    while toks.peek()[0] in ("IDENT", "LPAR"):
        arg, arg_height = _atom(toks, bound, depth + 1)
        term, height = App(term, arg), max(height, arg_height) + 1
    return term, height


def _atom(toks: _Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
    kind, value, pos = toks.next()
    if kind == "LPAR":
        term, height = _term(toks, bound, depth + 1)
        toks.expect("RPAR")
        return term, height + 1
    if kind != "IDENT":
        raise SourceSyntaxError(
            f"expected a term, found {value or 'end of input'!r}", offset=pos)
    if toks.peek()[0] == "LPAR":
        toks.next()
        parsed = [_term(toks, bound, depth + 1)]
        while toks.peek()[0] == "COMMA":
            toks.next()
            parsed.append(_term(toks, bound, depth + 1))
        toks.expect("RPAR")
        args = [arg for arg, _ in parsed]
        height = max(arg_height for _, arg_height in parsed)
        if value in bound:
            spine: Term = Var(value)
            for a in args:
                spine = App(spine, a)
            return spine, height + len(args)
        return Pred(value, tuple(args)), height + 1
    if value in bound or is_variable_name(value):
        return Var(value), 1
    return Const(value), 1
