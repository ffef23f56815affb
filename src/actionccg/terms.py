"""Lambda-calculus terms used as logical forms for manipulation actions.

Terms are immutable trees of ``value.Value`` nodes.  ``Pred`` covers
saturated predications such as ``cut(knife,cucumber)``; an application
whose function is still unknown (a bound name, as in
``\\f.forall x.f(x)``) is kept as an ``App`` spine and collapses into a
``Pred`` as soon as reduction reveals an atomic head.
All operations are pure, so sharing terms across threads is safe.

One naming rule holds throughout: a binder binds variables only.  The
name of a ``Const`` or of a ``Pred`` functor is a constant of the logic,
so ``\\f.f(a)`` built as ``Lam("f", Pred("f", ...))`` is a constant
function, as ``canonical``, ``alpha_eq`` and ``free_vars`` read it, and a
binder is renamed only to keep a free variable free.

Every node lists its direct subterms from left to right with ``kids()``
and rebuilds itself around new ones with ``remake(kids)``; a ``Binder``
(``Lam``, ``Forall``, ``Exists``) also names the variable it ``binds``, and
``rebind(name, body)`` builds the same kind of binder over a new name and
body.  The walkers below handle only the nodes they treat specially and
recurse through that pair for the rest, so the node classes alone decide
which fields are subterms.
"""

from __future__ import annotations

import re
import warnings
from operator import attrgetter

from .errors import ConstantFunctionWarning, NonTerminationError
from .value import Value, store

DEFAULT_STEP_BUDGET = 10_000
# The shape rule lives here, not in ``syntax`` (which imports this module),
# because ``canonical`` needs it too.
_VAR_SHAPE_RE = re.compile(r"[A-Za-z][0-9]*\Z")


def is_variable_name(name: str) -> bool:
    """Shape rule for unbound identifiers: one letter plus optional digits."""
    return bool(_VAR_SHAPE_RE.fullmatch(name))


class Term(Value):
    """Base class for logical-form nodes; a leaf has no kids."""

    __slots__ = ()

    def kids(self) -> tuple[Term, ...]:
        """Direct subterms, left to right."""
        return ()

    def remake(self, kids) -> Term:
        """This node around ``kids`` in place of its own subterms."""
        return self

    def __str__(self) -> str:
        return render(self)


class Var(Term):
    __slots__ = _fields = ("name",)


class Const(Term):
    __slots__ = _fields = ("name",)


class Pred(Term):
    __slots__ = _fields = ("name", "args")

    def __init__(self, name: str, args: tuple[Term, ...]):
        store(self, "name", name)
        store(self, "args", tuple(args))

    def kids(self) -> tuple[Term, ...]:
        return self.args

    def remake(self, kids) -> Term:
        return Pred(self.name, kids)


class App(Term):
    __slots__ = _fields = ("fun", "arg")

    def kids(self) -> tuple[Term, ...]:
        return (self.fun, self.arg)

    def remake(self, kids) -> Term:
        return App(*kids)


class Not(Term):
    __slots__ = _fields = ("body",)

    def kids(self) -> tuple[Term, ...]:
        return (self.body,)

    def remake(self, kids) -> Term:
        return Not(*kids)


class _Connective(Term):
    __slots__ = _fields = ("left", "right")

    def kids(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def remake(self, kids) -> Term:
        return type(self)(*kids)


class And(_Connective):
    __slots__ = ()


class Or(_Connective):
    __slots__ = ()


class Implies(_Connective):
    __slots__ = ()


class Binder(Term):
    """A node that binds the name ``binds`` over its ``body``."""

    __slots__ = ()

    def kids(self) -> tuple[Term, ...]:
        return (self.body,)

    def remake(self, kids) -> Term:
        return self.rebind(self.binds, *kids)

    def rebind(self, name: str, body: Term) -> Term:
        """This binder binding ``name`` over ``body``."""
        return type(self)(name, body)


class Lam(Binder):
    __slots__ = _fields = ("param", "body")

    binds = property(attrgetter("param"))


class _Quantifier(Binder):
    __slots__ = _fields = ("var", "body")

    binds = property(attrgetter("var"))


class Forall(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


def free_vars(term: Term) -> frozenset[str]:
    """Names of variables occurring free in ``term``.

    Predicate functors (``cut`` in ``cut(x,y)``) are constants, never
    variables, so they are not reported.
    """
    out: set[str] = set()
    _free(term, frozenset(), out)
    return frozenset(out)


def _free(t: Term, bound: frozenset[str], out: set[str]) -> None:
    if isinstance(t, Binder):
        _free(t.body, bound | {t.binds}, out)
        return
    if isinstance(t, Var) and t.name not in bound:
        out.add(t.name)
    for kid in t.kids():
        _free(kid, bound, out)


def var_names(term: Term) -> frozenset[str]:
    """Every variable and binder name in ``term``, free or bound: what a
    fresh binder name avoids.  No binder binds a constant or a functor, so
    no binder name depends on theirs."""
    return _names(term, (Var, Binder))


def constants(term: Term) -> frozenset[str]:
    """The name of each ``Const`` in ``term``."""
    return _names(term, Const)


def _names(term: Term, kinds) -> frozenset[str]:
    """The name of each node of ``kinds`` in ``term``, a binder's being the
    name it binds."""
    return frozenset([t.binds if isinstance(t, Binder) else t.name
                      for t in _preorder(term) if isinstance(t, kinds)])


def predications(term: Term):
    """``(name, arity)`` of each predication in ``term``."""
    return ((t.name, len(t.args)) for t in _preorder(term)
            if isinstance(t, Pred))


def _preorder(term: Term):
    """Every node of ``term``, each before its kids, the last kid's
    subtree first."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(t.kids())


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """First of ``base``, ``base1``, ``base2``, ... not in ``avoid``.

    The counter restarts at every call, which keeps renaming deterministic
    for a given input term.
    """
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def substitute(term: Term, var: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of ``replacement`` for free ``var``.

    Only variables are substituted: a ``Const`` or a ``Pred`` functor is a
    constant of the logic, and no binder binds it."""
    return _subst(term, var, replacement, free_vars(replacement))[0]


def _subst(t: Term, var: str, rep: Term,
           fvr: frozenset[str]) -> tuple[Term, bool]:
    """``t`` with ``rep`` for free ``var``, and whether the walk met or made
    a redex: an application of a ``Lam``, ``Const`` or ``Pred``, or a binder
    of ``var``, kept unwalked, that is not normal.  Copies of ``rep`` are not
    looked into."""
    if isinstance(t, Var):
        return (rep if t.name == var else t), False
    if isinstance(t, Binder):
        if t.binds == var:
            return t, not is_beta_normal(t)
        name, body = t.binds, t.body
        if name in fvr and var in free_vars(body):
            name = fresh_name(name, fvr | var_names(body))
            # a renaming makes no redex, and the walk below meets every
            # redex it keeps
            body = _subst(body, t.binds, Var(name), frozenset({name}))[0]
        body, redex = _subst(body, var, rep, fvr)
        return t.rebind(name, body), redex
    redex = False
    kids = []
    for kid in t.kids():
        kid, met = _subst(kid, var, rep, fvr)
        kids.append(kid)
        redex = redex or met
    if isinstance(t, App):
        return App(*kids), redex or isinstance(kids[0], (Lam, Const, Pred))
    return t.remake(kids), redex


def _step(t: Term) -> tuple[Term, bool]:
    """One leftmost-outermost reduction step; returns (term, stepped)."""
    if isinstance(t, App):
        fun = t.fun
        if isinstance(fun, Lam):
            return substitute(fun.body, fun.param, t.arg), True
        if isinstance(fun, Const):
            return Pred(fun.name, (t.arg,)), True
        if isinstance(fun, Pred):
            return Pred(fun.name, fun.args + (t.arg,)), True
    kids = t.kids()
    for i, kid in enumerate(kids):
        new, stepped = _step(kid)
        if stepped:
            return t.remake(kids[:i] + (new,) + kids[i + 1:]), True
    return t, False


def beta_reduce(term: Term, budget: int = DEFAULT_STEP_BUDGET) -> Term:
    """Normalize ``term`` by leftmost-outermost reduction.

    Aborts with NonTerminationError once ``budget`` steps have been spent,
    which bounds divergent self-applications.  A lambda applied at the
    root is substituted in one walk, whose result is the normal form when
    the walk met or made no redex and the argument is normal; otherwise
    reduction goes on from it, one step spent, as it would have anyway.
    """
    if isinstance(term, App) and isinstance(term.fun, Lam):
        fun, arg = term.fun, term.arg
        term, redex = _subst(fun.body, fun.param, arg, free_vars(arg))
        if not redex and budget >= 1 and (
                isinstance(arg, (Var, Const)) or is_beta_normal(arg)):
            return term
    else:
        term, stepped = _step(term)
        if not stepped:
            return term
    steps = 1
    while True:
        if steps > budget:
            raise NonTerminationError(f"no normal form within {budget} steps")
        term, stepped = _step(term)
        if not stepped:
            return term
        steps += 1


def is_beta_normal(term: Term) -> bool:
    """True when no reduction step applies anywhere in ``term``."""
    return not _step(term)[1]


def canonical(term: Term) -> str:
    """Rendering with bound variables renumbered ``^0``, ``^1``, ... in
    binder order, and with a ``'`` before each free name that the shape
    rule would read as the other kind (a constant ``x``, a variable
    ``knife``).

    No identifier starts with ``^`` or ``'``, so the renumbered names never
    meet a free name, and two terms produce the same canonical string
    exactly when they are alpha-equivalent: the string doubles as a
    dictionary key for grouping derivations by logical form.  Every term
    ``parse_term`` returns names its free leaves by the shape rule, so
    none of its canonical strings has a ``'``.
    """
    return _render(term, P_BODY, {}, [0])


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to consistent renaming of bound variables.

    Equal values are alpha-equivalent, so ``a == b`` answers first; only
    terms that differ as values are compared by canonical string."""
    return a == b or canonical(a) == canonical(b)


def inverse_lambda(result: Term, arg: Term) -> Lam:
    """Abstract ``arg`` out of ``result``: the function that maps ``arg``
    back to ``result`` under application.

    Every subterm alpha-equivalent to ``arg`` is replaced, which yields the
    most general candidate.  When ``arg`` does not occur the outcome is a
    constant function and a ConstantFunctionWarning is emitted.
    """
    v = fresh_name("v", var_names(result) | var_names(arg))
    kind = type(arg)
    # a constant's canonical string is a function of its name alone
    key = None if kind is Const else canonical(arg)
    replaced, hits = _replace(result, (kind, arg, key, free_vars(arg)), v,
                              frozenset())
    if hits == 0:
        warnings.warn(f"argument {arg} does not occur in {result}",
                      ConstantFunctionWarning, stacklevel=2)
    return Lam(v, replaced)


def _replace(t: Term, target: tuple[type, Term, str | None, frozenset[str]],
             v: str, bound: frozenset[str]) -> tuple[Term, int]:
    """``target`` is the argument's node type, the argument, its canonical
    string (None for a constant, which matches by ``==``) and its free
    variables."""
    kind, arg, key, free = target
    if (type(t) is kind and not (free & bound)
            and (t == arg if key is None else canonical(t) == key)):
        return Var(v), 1
    if isinstance(t, Binder):
        body, hits = _replace(t.body, target, v, bound | {t.binds})
        return t.rebind(t.binds, body), hits
    total = 0
    kids = []
    for kid in t.kids():
        new, hits = _replace(kid, target, v, bound)
        kids.append(new)
        total += hits
    return t.remake(kids), total


def rename_constants(term: Term, names: dict[str, str]) -> Term:
    """``term`` with each constant named in ``names`` renamed to its value,
    all in one pass, so a new name may equal an old one."""
    if isinstance(term, Const):
        return Const(names.get(term.name, term.name))
    return term.remake([rename_constants(kid, names) for kid in term.kids()])


# Rendering.  Precedence, loosest first: lambda and quantifier bodies,
# implication (right-associative), disjunction, conjunction, negation,
# juxtaposition, atoms.  ``a & b -> c`` therefore reads ((a & b) -> c).

P_BODY, P_IMPL, P_OR, P_AND, P_NOT, P_APP, P_ATOM = range(7)

# Binder, negation and connective nodes, for ``render`` and for
# ``syntax.parse_term``: (text before the parts, text between them, the
# node's own precedence, whether it nests to the right, that is whether
# its last part rather than its first may share that precedence).  A
# binder's parts are the name it binds and its body; any other node's
# parts are its kids.
SYNTAX = {
    Lam: ("\\", ".", P_BODY, True),
    Forall: ("forall ", ".", P_BODY, True),
    Exists: ("exists ", ".", P_BODY, True),
    Implies: ("", " -> ", P_IMPL, True),
    Or: ("", " | ", P_OR, False),
    And: ("", " & ", P_AND, False),
    Not: ("!", "", P_NOT, True),
}


def render(term: Term) -> str:
    """ASCII surface form; ``parse_term`` inverts it.

    A binder whose body holds a constant or functor of its own name would
    read back as binding it, so it is written under a ``fresh_name``
    instead.  No term that ``parse_term`` returns has such a binder."""
    return _render(term, P_BODY, {}, None)


def _render(t: Term, ctx: int, env: dict[str, str],
            counter: list[int] | None) -> str:
    """``t`` in context ``ctx``.  ``env`` maps each bound name in scope to
    its rendering: itself, or with a ``counter`` the next ``^0``, ``^1``,
    ... in binder order."""
    if isinstance(t, Var) and t.name in env:
        return env[t.name]
    if isinstance(t, (Var, Const)):
        # canonical marks a free name whose kind the shape rule would misread
        if counter is not None and isinstance(t, Var) != is_variable_name(t.name):
            return f"'{t.name}"
        return t.name
    if isinstance(t, Pred):
        args = ",".join([_render(a, P_BODY, env, counter) for a in t.args])
        return f"{t.name}({args})"
    if isinstance(t, App):
        # ``f(a,b)`` reads back as a spine only when ``f`` is bound; any
        # other head is juxtaposed, as ``f a b``.
        head, args = _spine(t)
        if isinstance(head, Var) and head.name in env:
            args = ",".join([_render(a, P_BODY, env, counter) for a in args])
            return f"{env[head.name]}({args})"
        out = _render(head, P_APP, env, counter)
        for arg in args:
            text = _render(arg, P_ATOM, env, counter)
            if text.startswith("(") and not out.endswith(")"):
                out = f"({out})"  # ``f (a)`` would read back as ``f(a)``
            out = f"{out} {text}"
        return f"({out})" if ctx > P_APP else out
    before, between, prec, right = SYNTAX[type(t)]
    # the last kid's context; the others are rendered in ``prec + right``
    last = prec + (not right)
    if isinstance(t, Binder):
        name = t.binds
        if counter is not None:
            name = f"^{counter[0]}"
            counter[0] += 1
        elif name in _names(t.body, (Const, Pred)):
            name = fresh_name(name, _names(t.body, (Var, Const, Pred, Binder))
                              | set(env.values()))
        body = _render(t.body, last, {**env, t.binds: name}, counter)
        out = f"{before}{name}{between}{body}"
    else:
        *init, tail = t.kids()
        out = before + between.join(
            [_render(kid, prec + right, env, counter) for kid in init]
            + [_render(tail, last, env, counter)])
    return f"({out})" if ctx > prec else out


def _spine(t: App) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    head: Term = t
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fun
    args.reverse()
    return head, args
