"""Lambda-calculus terms used as logical forms for manipulation actions.

Terms are immutable trees of ``value.Value`` nodes.  ``Pred`` covers
saturated predications such as ``cut(knife,cucumber)``; an application
whose function is still unknown (a bound name, as in
``\\f.forall x.f(x)``) is kept as an ``App`` spine and collapses into a
``Pred`` as soon as reduction reveals an atomic head.
All operations are pure, so sharing terms across threads is safe.

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

    def __init__(self, name: str):
        store(self, "name", name)


class Const(Term):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        store(self, "name", name)


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

    def __init__(self, fun: Term, arg: Term):
        store(self, "fun", fun)
        store(self, "arg", arg)

    def kids(self) -> tuple[Term, ...]:
        return (self.fun, self.arg)

    def remake(self, kids) -> Term:
        return App(*kids)


class Not(Term):
    __slots__ = _fields = ("body",)

    def __init__(self, body: Term):
        store(self, "body", body)

    def kids(self) -> tuple[Term, ...]:
        return (self.body,)

    def remake(self, kids) -> Term:
        return Not(*kids)


class _Connective(Term):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Term, right: Term):
        store(self, "left", left)
        store(self, "right", right)

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

    def __init__(self, param: str, body: Term):
        store(self, "param", param)
        store(self, "body", body)

    binds = property(attrgetter("param"))


class _Quantifier(Binder):
    __slots__ = _fields = ("var", "body")

    def __init__(self, var: str, body: Term):
        store(self, "var", var)
        store(self, "body", body)

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
    if isinstance(t, Var):
        if t.name not in bound:
            out.add(t.name)
    elif isinstance(t, Binder):
        _free(t.body, bound | {t.binds}, out)
    else:
        for kid in t.kids():
            _free(kid, bound, out)


def all_names(term: Term) -> frozenset[str]:
    """Every identifier in ``term``: variables, constants, functors, binders."""
    out: set[str] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, (Var, Const, Pred)):
            out.add(t.name)
        elif isinstance(t, Binder):
            out.add(t.binds)
        stack.extend(t.kids())
    return frozenset(out)


def predications(term: Term):
    """``(name, arity)`` of each predication in ``term``."""
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Pred):
            yield node.name, len(node.args)
        stack.extend(node.kids())


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


def stem(name: str) -> str:
    """``name`` less its trailing digits: every name that ``fresh_name``
    returns has the stem of its ``base``."""
    return name.rstrip("0123456789")


def substitute(term: Term, var: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of ``replacement`` for free ``var``.

    A ``Pred`` functor equal to ``var`` is rewritten too: with an atomic
    replacement the predication is renamed in place, otherwise it unfolds
    into an application spine for later reduction.
    """
    fvr = free_vars(replacement)
    return _subst(term, var, replacement, fvr)


def _subst(t: Term, var: str, rep: Term, fvr: frozenset[str]) -> Term:
    if isinstance(t, Var):
        return rep if t.name == var else t
    if isinstance(t, Binder):
        if t.binds == var:
            return t
        name, body = t.binds, t.body
        if name in fvr and var in free_vars(body):
            name = fresh_name(name, fvr | all_names(body) | {var})
            body = _subst(body, t.binds, Var(name), frozenset({name}))
        return t.rebind(name, _subst(body, var, rep, fvr))
    kids = [_subst(kid, var, rep, fvr) for kid in t.kids()]
    if isinstance(t, Pred) and t.name == var:
        if isinstance(rep, (Var, Const)):
            return Pred(rep.name, kids)
        spine = rep
        for arg in kids:
            spine = App(spine, arg)
        return spine
    return t.remake(kids)


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
    which bounds divergent self-applications.
    """
    steps = 0
    while True:
        term, stepped = _step(term)
        if not stepped:
            return term
        steps += 1
        if steps > budget:
            raise NonTerminationError(f"no normal form within {budget} steps")


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
    """Structural equality up to consistent renaming of bound variables."""
    return canonical(a) == canonical(b)


def inverse_lambda(result: Term, arg: Term) -> Lam:
    """Abstract ``arg`` out of ``result``: the function that maps ``arg``
    back to ``result`` under application.

    Every subterm alpha-equivalent to ``arg`` is replaced, which yields the
    most general candidate.  When ``arg`` does not occur the outcome is a
    constant function and a ConstantFunctionWarning is emitted.
    """
    v = fresh_name("v", all_names(result) | all_names(arg))
    target = (type(arg), canonical(arg), free_vars(arg))
    replaced, hits = _replace(result, target, v, frozenset())
    if hits == 0:
        warnings.warn(f"argument {arg} does not occur in {result}",
                      ConstantFunctionWarning, stacklevel=2)
    return Lam(v, replaced)


def _replace(t: Term, target: tuple[type, str, frozenset[str]], v: str,
             bound: frozenset[str]) -> tuple[Term, int]:
    """``target`` is the argument's node type, canonical string and free
    variables."""
    kind, key, free = target
    if type(t) is kind and not (free & bound) and canonical(t) == key:
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
    """ASCII surface form; ``parse_term`` inverts it."""
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
