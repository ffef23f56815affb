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

The binders, ``!`` and the connectives take their text, precedence and
associativity from ``terms.SYNTAX``, the table ``render`` writes them by,
and one precedence-climbing loop (``_term``) parses them all.  Lambda and
quantifier bodies extend as far right as possible.  A bare
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
from .terms import (P_BODY, P_IMPL, SYNTAX, App, Const, Not, Pred, Term, Var,
                    is_variable_name)

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
# Deepest nesting a term may have.  The parser spends up to three stack
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


# Each operator of the term grammar by the text of its token: the node it
# builds, its precedence and whether it nests to the right.  Binders and
# ``!`` come before their parts, the connectives between them.
_PREFIX = {before.strip(): (node, prec, right)
           for node, (before, _, prec, right) in SYNTAX.items() if before}
_INFIX = {between.strip(): (node, prec, right)
          for node, (before, between, prec, right) in SYNTAX.items()
          if not before}
_NO_OPERATOR = (None, 0, False)


# Each parser below takes the nesting depth it starts at and returns the
# term with its height, so that recursion stops at MAX_DEPTH and a long
# chain of operators, parsed by a loop, is caught by its height.

def _term(toks: Tokens, bound: frozenset[str], depth: int,
          power: int = P_BODY) -> tuple[Term, int]:
    """A binder or ``!`` node or an application, extended to the right by
    each connective no looser than ``power`` (precedence climbing)."""
    _, word, pos = toks.peek()
    check_depth(depth, pos)
    node, prec, right = _PREFIX.get(word, _NO_OPERATOR)
    # a binder's body reaches as far right as it can, so a binder opens
    # only an operand that every connective may continue
    if node is Not or node is not None and power <= P_IMPL:
        toks.next()
        name = []  # the name a binder binds
        if node is not Not:
            name.append(toks.expect("IDENT")[1])
            toks.expect("DOT")
        body, height = _term(toks, bound.union(name), depth + 1,
                             prec + (not right))
        term, height = node(*name, body), height + 1
    else:
        term, height = _app(toks, bound, depth)
    while True:
        node, prec, right = _INFIX.get(toks.peek()[1], _NO_OPERATOR)
        if node is None or prec < power:
            return term, height
        toks.next()
        kid, kid_height = _term(toks, bound, depth + 1, prec + (not right))
        term, height = node(term, kid), max(height, kid_height) + 1


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
