"""Independent references for the benchmark's output gate.

Nothing here calls the package's term algebra, parser or rule engine:
logical forms are compared through their de Bruijn encoding, rule closures
are recomputed by a naive full re-scan after every event, and the long
containment episode has a closed-form closure.  Literals are plain
``(positive, predicate, args)`` tuples and are compared with the package
output through their text form, ``pred(a,b)`` or ``!pred(a,b)``.
"""

from __future__ import annotations

import re

from actionccg.terms import (And, App, Const, Exists, Forall, Implies, Lam,
                             Not, Or, Pred, Var)

# What each action used by the workloads does, as the shipped Table-1
# annotations (plus the benchmark's own lifting row) state it.  S is the
# subject, P the patient.
CONSEQUENCES = {
    "hiding": ((True, "contained", "SP"), (True, "moved", "S")),
    "put_on_top": ((True, "on_top", "SP"), (True, "moved", "S")),
    "cutting": ((True, "divided", "P"),),
    "pushing": ((True, "moved", "P"),),
    "lifting": ((False, "contained", "SP"), (True, "moved", "S")),
}

_LITERAL_RE = re.compile(r"([A-Za-z_]\w*)\(([^()]*)\)")


def de_bruijn(term, env=()):
    """Nested-tuple encoding in which alpha-equivalent terms are equal."""
    if isinstance(term, Var):
        if term.name in env:
            return ("var", env.index(term.name))
        return ("free", term.name)
    if isinstance(term, Const):
        return ("const", term.name)
    if isinstance(term, Pred):
        return ("pred", term.name, tuple(de_bruijn(a, env) for a in term.args))
    if isinstance(term, Lam):
        return ("lam", de_bruijn(term.body, (term.param,) + env))
    if isinstance(term, (Forall, Exists)):
        return (type(term).__name__, de_bruijn(term.body, (term.var,) + env))
    if isinstance(term, App):
        return ("app", de_bruijn(term.fun, env), de_bruijn(term.arg, env))
    if isinstance(term, (And, Or, Implies)):
        return (type(term).__name__, de_bruijn(term.left, env),
                de_bruijn(term.right, env))
    if isinstance(term, Not):
        return ("not", de_bruijn(term.body, env))
    raise TypeError(f"not a term: {term!r}")


def text(literal) -> str:
    positive, predicate, args = literal
    return f"{'' if positive else '!'}{predicate}({','.join(args)})"


def parse_rules(source: str):
    """``(body, head)`` pairs from rules text; a pattern is ``(pred, args)``."""
    rules = []
    for line in source.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        body, head = line.split(":", 1)[1].split("=>")
        rules.append(([_pattern(m) for m in _LITERAL_RE.finditer(body)],
                      _pattern(_LITERAL_RE.search(head))))
    return rules


def _pattern(match):
    return match.group(1), tuple(a.strip() for a in match.group(2).split(","))


def event_literals(triplet):
    """The action atom, then its consequences, for a detector triplet."""
    subject, action, patient = (t.lower() for t in triplet)
    role = {"S": subject, "P": patient}
    return [(True, action, (subject, patient))] + [
        (positive, predicate, tuple(role[r] for r in roles))
        for positive, predicate, roles in CONSEQUENCES[action]]


def _assert(literals: list, retracted: list, literal) -> None:
    # A negative literal retracts the positive fact it denies; the latest
    # assertion wins.
    if literal in literals:
        return
    contrary = (not literal[0],) + literal[1:]
    if contrary in literals:
        literals.remove(contrary)
        if contrary[0]:
            retracted.append(contrary)
    literals.append(literal)


def _bindings(body, binding, atoms):
    if not body:
        yield binding
        return
    predicate, pattern = body[0]
    for fact_predicate, args in atoms:
        if fact_predicate != predicate or len(args) != len(pattern):
            continue
        extended = dict(binding)
        if all(extended.setdefault(p, a) == a if p[:1].isupper() else p == a
               for p, a in zip(pattern, args)):
            yield from _bindings(body[1:], extended, atoms)


def _close(literals: list, rules) -> None:
    """Add every derivable positive atom not blocked by a negative record."""
    atoms = {(l[1], l[2]) for l in literals if l[0]}
    blocked = {(l[1], l[2]) for l in literals if not l[0]}
    changed = True
    while changed:
        changed = False
        for body, (predicate, pattern) in rules:
            for binding in list(_bindings(body, {}, list(atoms))):
                atom = (predicate, tuple(binding.get(a, a) for a in pattern))
                if atom not in atoms and atom not in blocked:
                    atoms.add(atom)
                    literals.append((True,) + atom)
                    changed = True


def replay_episode(triplets, rules):
    """Naive per-event replay of ``reason --chain-per-event``.

    Returns (observed literals in order, closed literal set, retracted
    literals in order), all as text.
    """
    observed, observed_retracted = [], []
    closed, retracted = [], []
    for triplet in triplets:
        for literal in event_literals(triplet):
            _assert(observed, observed_retracted, literal)
            _assert(closed, retracted, literal)
        _close(closed, rules)
    return ([text(l) for l in observed], {text(l) for l in closed},
            [text(l) for l in retracted])


def chain_closure(triplets):
    """Closed form for a nested-hiding episode capped by one placement.

    ``o_0 Hiding o_1, ..., o_{n-1} Hiding o_n, top Put_on_top o_0`` closes
    to ``contained(o_i,o_j)`` for all i<j and ``on_top(top,o_j)`` for every
    j, plus the observed facts.  Returns (observed set, closure set).
    """
    *hidings, placement = triplets
    nested = [hidings[0][0].lower()] + [h[2].lower() for h in hidings]
    top = placement[0].lower()
    if ([h[0].lower() for h in hidings] != nested[:-1]
            or placement[2].lower() != nested[0]):
        raise ValueError("episode is not a nested-hiding chain")
    observed = {text(l) for triplet in triplets for l in event_literals(triplet)}
    closure = set(observed)
    closure.update(f"contained({a},{b})" for i, a in enumerate(nested)
                   for b in nested[i + 1:])
    closure.update(f"on_top({top},{o})" for o in nested)
    return observed, closure
