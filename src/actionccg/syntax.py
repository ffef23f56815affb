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

``Tokens`` lexes terms, and categories for ``grammar`` too.
"""

from __future__ import annotations

import re

from .errors import SourceSyntaxError
from .terms import (And, App, Const, Exists, Forall, Implies, Lam, Not, Or,
                    Pred, Term, Var, is_variable_name)

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENT)
# One token per match, after any whitespace: the group that matched names
# its kind.  EOF matches only at the end; BAD is any other character.
_SCAN_RE = re.compile(rf"""\s*(?:
    (?P<IDENT>{IDENT}) | (?P<ARROW>->) | (?P<LAMBDA>\\) | (?P<SLASH>/)
  | (?P<DOT>\.) | (?P<LPAR>\() | (?P<RPAR>\)) | (?P<COMMA>,) | (?P<AND>&)
  | (?P<OR>\|) | (?P<NOT>!) | (?P<EOF>\Z) | (?P<BAD>.))""",
                      re.VERBOSE | re.DOTALL)
_KEYWORDS = ("forall", "exists")
# Deepest nesting a term may have.  The parser spends up to six stack
# frames per level and the recursive term walkers up to two (their own
# and, in ``_subst`` and ``_render``, a list comprehension's), so a term
# this deep stays well inside Python's default recursion limit of 1,000.
MAX_DEPTH = 100


def variable_shape_note(names) -> str:
    """For a diagnostic: those of ``names`` the shape rule reads as
    variables, and why they are no constants; '' when there are none."""
    shaped = [name for name in names if is_variable_name(name)]
    if not shaped:
        return ""
    return (f"{', '.join(shaped)} (one letter plus optional digits is read "
            "as a variable, so a constant needs a longer name)")


def is_identifier(text: str) -> bool:
    """Whether ``text`` is one identifier, the name rule of every format."""
    return _IDENT_RE.fullmatch(text) is not None


class Tokens:
    """The ``(kind, text, offset)`` tokens of a term or a category, ending
    in ``("EOF", "", len(text))``; a character no token starts with is a
    SourceSyntaxError.  ``forall`` and ``exists`` are keyword tokens."""

    def __init__(self, text: str):
        self.items: list[tuple[str, str, int]] = []
        kind, pos = "", 0
        while kind != "EOF":
            m = _SCAN_RE.match(text, pos)
            kind, pos = m.lastgroup, m.end()
            word, offset = m[kind], m.start(kind)
            if kind == "BAD":
                raise SourceSyntaxError(f"unexpected character {word!r}",
                                        offset=offset)
            self.items.append((word.upper() if word in _KEYWORDS else kind,
                               word, offset))
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

    def expect_end(self) -> None:
        kind, value, pos = self.peek()
        if kind != "EOF":
            raise SourceSyntaxError(f"trailing input {value!r}", offset=pos)


def parse_term(text: str) -> Term:
    """Parse one logical form; raises SourceSyntaxError with an offset.

    A term may nest at most ``MAX_DEPTH`` levels, each node and each pair
    of parentheses on its deepest path counting one.
    """
    toks = Tokens(text)
    term, height = _term(toks, frozenset(), 1)
    toks.expect_end()
    check_depth(height, 0)
    return term


def check_depth(depth: int, offset: int, what: str = "term") -> int:
    """``depth``, or a SourceSyntaxError naming ``what`` when it is deeper
    than ``MAX_DEPTH``."""
    if depth > MAX_DEPTH:
        raise SourceSyntaxError(
            f"{what} nested deeper than {MAX_DEPTH} levels", offset=offset)
    return depth


# Each parser below takes the nesting depth it starts at and returns the
# term with its height, so that recursion stops at MAX_DEPTH and a long
# chain of operators, parsed by a loop, is caught by its height.

def _term(toks: Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
    kind, _, pos = toks.peek()
    check_depth(depth, pos)
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


def _or(toks: Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
    term, height = _and(toks, bound, depth)
    while toks.peek()[0] == "OR":
        toks.next()
        right, right_height = _and(toks, bound, depth + 1)
        term, height = Or(term, right), max(height, right_height) + 1
    return term, height


def _and(toks: Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
    term, height = _not(toks, bound, depth)
    while toks.peek()[0] == "AND":
        toks.next()
        right, right_height = _not(toks, bound, depth + 1)
        term, height = And(term, right), max(height, right_height) + 1
    return term, height


def _not(toks: Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
    kind, _, pos = toks.peek()
    check_depth(depth, pos)
    if kind == "NOT":
        toks.next()
        body, height = _not(toks, bound, depth + 1)
        return Not(body), height + 1
    return _app(toks, bound, depth)


def _app(toks: Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
    term, height = _atom(toks, bound, depth)
    while toks.peek()[0] in ("IDENT", "LPAR"):
        arg, arg_height = _atom(toks, bound, depth + 1)
        term, height = App(term, arg), max(height, arg_height) + 1
    return term, height


def _atom(toks: Tokens, bound: frozenset[str], depth: int) -> tuple[Term, int]:
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
