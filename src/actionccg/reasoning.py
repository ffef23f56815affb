"""Ground facts, Horn rules, and forward chaining over event consequences.

Events arrive as ground logical forms: a bare action atom, or an
implication from the action atom to a conjunction of possibly negated
consequence literals.  A negative consequence retracts its positive
counterpart before being recorded, so the fact base never holds a
contradiction and the latest assertion wins.  Rules are range-restricted
Horn clauses with positive bodies; chaining is monotone and runs to a
fixpoint under a derivation cap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (BudgetExceededError, MalformedEventError,
                     RangeRestrictionError, SourceSyntaxError)
from .terms import And, Const, Implies, Not, Pred, Term

MAX_DERIVED = 100_000

_LITERAL_RE = re.compile(
    r"\s*(!?)\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)\s*\Z")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_AXIOM_RE = re.compile(
    r"\s*axiom\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*?)\s*=>\s*(.*?)\s*\Z")


@dataclass(frozen=True)
class Literal:
    """A ground or pattern literal; uppercase-initial args are variables."""

    positive: bool
    predicate: str
    args: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))

    def negated(self) -> "Literal":
        return Literal(not self.positive, self.predicate, self.args)

    @property
    def atom(self) -> tuple[str, tuple[str, ...]]:
        return (self.predicate, self.args)

    def __str__(self) -> str:
        sign = "" if self.positive else "!"
        return f"{sign}{self.predicate}({','.join(self.args)})"


def is_rule_variable(name: str) -> bool:
    return name[:1].isupper()


def parse_literal(text: str, *, allow_negation: bool = True,
                  allow_variables: bool = False) -> Literal:
    """Parse ``pred(a,b)`` or ``!pred(a,b)``."""
    m = _LITERAL_RE.match(text)
    if m is None:
        raise SourceSyntaxError(f"malformed literal {text.strip()!r}",
                                offset=0)
    sign, name, argtext = m.groups()
    if sign and not allow_negation:
        raise SourceSyntaxError(
            f"negation is not allowed here: {text.strip()!r}", offset=0)
    args = tuple(a.strip() for a in argtext.split(",")) if argtext.strip() else ()
    if not args:
        raise SourceSyntaxError(f"literal {name!r} has no arguments", offset=0)
    for arg in args:
        if not _NAME_RE.fullmatch(arg):
            raise SourceSyntaxError(f"malformed argument {arg!r}", offset=0)
        if not allow_variables and is_rule_variable(arg):
            raise SourceSyntaxError(
                f"variable {arg!r} in a ground literal", offset=0)
    return Literal(not sign, name, args)


@dataclass(frozen=True)
class AxiomRule:
    """Horn rule: positive body literals implying one positive head."""

    name: str
    body: tuple[Literal, ...]
    head: Literal


def parse_axiom(text: str) -> AxiomRule:
    """Parse ``axiom <name>: lit & lit ... => head``.

    Every head variable must occur in the body (range restriction), and
    negation is rejected on both sides.
    """
    m = _AXIOM_RE.match(text)
    if m is None:
        raise SourceSyntaxError(f"malformed axiom {text.strip()!r}", offset=0)
    name, body_text, head_text = m.groups()
    if not body_text:
        raise SourceSyntaxError(f"axiom {name!r} has an empty body", offset=0)
    body = tuple(parse_literal(part, allow_negation=False, allow_variables=True)
                 for part in body_text.split("&"))
    head = parse_literal(head_text, allow_negation=False, allow_variables=True)
    bound = {a for lit in body for a in lit.args if is_rule_variable(a)}
    loose = [a for a in head.args if is_rule_variable(a) and a not in bound]
    if loose:
        raise RangeRestrictionError(
            f"axiom {name!r}: head variables {', '.join(loose)} never "
            f"occur in the body")
    return AxiomRule(name, body, head)


@dataclass(frozen=True)
class FactBase:
    """Insertion-ordered set of ground literals plus a retraction log.

    ``closed`` is ``(rules, count)``: the first ``count`` literals are
    closed under ``rules``, so every rule instantiation over their
    positive facts has a head that is a positive or negative literal of
    the fact base.  ``forward_chain`` sets it and ``with_literal`` keeps
    it, lowering ``count`` when a retraction removes a literal inside
    that prefix.  It takes no part in equality, hashing or ``repr``.
    """

    literals: tuple[Literal, ...] = ()
    retracted: tuple[Literal, ...] = ()
    closed: tuple = field(default=((), 0), compare=False, repr=False)

    def __contains__(self, literal: Literal) -> bool:
        return literal in self.literals

    def with_literal(self, literal: Literal) -> "FactBase":
        """Record one ground literal, resolving any contradiction.

        A negative literal retracts the positive fact it denies; a
        positive literal simply replaces a stale negative record.
        """
        present = set(self.literals)
        if literal in present:
            return self
        contrary = literal.negated()
        literals = self.literals
        retracted = self.retracted
        rules, closed = self.closed
        if contrary in present:
            position = literals.index(contrary)
            literals = literals[:position] + literals[position + 1:]
            closed -= position < closed
            if contrary.positive:
                retracted = retracted + (contrary,)
        return FactBase(literals + (literal,), retracted, (rules, closed))


def _event_literals(form: Term) -> list[Literal]:
    if isinstance(form, Pred):
        return [_ground_atom(form)]
    if isinstance(form, Implies):
        if not isinstance(form.left, Pred):
            raise MalformedEventError(
                f"event antecedent must be a single action atom: {form}")
        literals = [_ground_atom(form.left)]
        _flatten_consequence(form.right, literals)
        return literals
    raise MalformedEventError(f"not an event form: {form}")


def _flatten_consequence(term: Term, out: list[Literal]) -> None:
    if isinstance(term, And):
        _flatten_consequence(term.left, out)
        _flatten_consequence(term.right, out)
    elif isinstance(term, Not):
        if not isinstance(term.body, Pred):
            raise MalformedEventError(f"negation of a non-atom: {term}")
        out.append(_ground_atom(term.body).negated())
    elif isinstance(term, Pred):
        out.append(_ground_atom(term))
    else:
        raise MalformedEventError(
            f"consequences must be a conjunction of literals: {term}")


def _ground_atom(pred: Pred) -> Literal:
    args = []
    for arg in pred.args:
        if not isinstance(arg, Const):
            raise MalformedEventError(
                f"event atom {pred} is not ground")
        args.append(arg.name)
    return Literal(True, pred.name, tuple(args))


def assert_event(form: Term, kb: FactBase) -> FactBase:
    """Ingest one parsed event: action atom first, then its consequences."""
    for literal in _event_literals(form):
        kb = kb.with_literal(literal)
    return kb


def _match(pattern: Literal, fact: Literal, binding: dict):
    if pattern.predicate != fact.predicate or len(pattern.args) != len(fact.args):
        return None
    out = dict(binding)
    for p, f in zip(pattern.args, fact.args):
        if is_rule_variable(p):
            if out.setdefault(p, f) != f:
                return None
        elif p != f:
            return None
    return out


def _instantiate(literal: Literal, binding: dict) -> Literal:
    return Literal(literal.positive, literal.predicate,
                   tuple(binding.get(a, a) for a in literal.args))


def forward_chain(kb: FactBase, rules, max_derived: int = MAX_DERIVED) -> FactBase:
    """Close ``kb`` under ``rules``; derived facts keep discovery order.

    Semi-naive evaluation: each round only explores rule instantiations
    that use at least one fact new to that round; joins probe an
    ``_index`` of all facts and one of the new facts.  The first round
    joins each rule once (``_join_first``); later rounds join once per
    body position that can take one of the previous round's facts.

    The first round's new facts are those after the prefix that
    ``kb.closed`` marks as closed under these same ``rules``, or every
    fact when the marker names other rules.  Chaining the result again
    after a few ``with_literal`` calls thus starts from what they added.
    The result is marked closed under ``rules`` in full and equals, tuple
    for tuple, the result of chaining ``FactBase(kb.literals,
    kb.retracted)``, which has no marker: the closed prefix alone
    derives nothing new, and new facts sit at the end of every bucket.

    Raises BudgetExceededError once more than ``max_derived`` new facts
    appear, which catches runaway rule sets.
    """
    rules = tuple(rules)
    facts: list[Literal] = [l for l in kb.literals if l.positive]
    known = {l.atom for l in facts}
    negative = {l.atom for l in kb.literals if not l.positive}
    closed_rules, closed = kb.closed
    old = sum(l.positive for l in kb.literals[:closed]) if closed_rules == rules else 0
    everything = _index(facts, {})
    # with nothing closed every fact is new, so both joins share one index
    delta = _index(facts[old:], {}) if old else everything
    derived: list[Literal] = []
    first_round = True
    while True:
        fresh: list[Literal] = []
        fresh_atoms: set = set()
        for rule in rules:
            # only positions whose predicate has new facts can use one
            pivots = [i for i, p in enumerate(rule.body)
                      if (p.predicate, len(p.args)) in delta]
            if not pivots:
                continue
            if first_round:
                bindings = _join_first(rule.body, 0, {}, everything, delta,
                                       pivots[-1])
            else:
                bindings = (b for pivot in pivots
                            for b in _join(rule.body, 0, pivot, {}, everything, delta))
            for binding in bindings:
                head = _instantiate(rule.head, binding)
                if head.atom in known or head.atom in fresh_atoms:
                    continue
                # a retracted fact stays retracted: the event outranks it
                if head.atom in negative:
                    continue
                fresh.append(head)
                fresh_atoms.add(head.atom)
                if len(derived) + len(fresh) > max_derived:
                    raise BudgetExceededError(
                        f"more than {max_derived} derived literals")
        if not fresh:
            break
        _index(fresh, everything)
        known.update(fresh_atoms)
        derived.extend(fresh)
        delta = _index(fresh, {})
        first_round = False
    literals = kb.literals + tuple(derived)
    return FactBase(literals, kb.retracted, (rules, len(literals)))


def _index(facts, index: dict) -> dict:
    """Append ``facts`` under (predicate, arity) and (predicate, position, value)."""
    for fact in facts:
        index.setdefault((fact.predicate, len(fact.args)), []).append(fact)
        for position, value in enumerate(fact.args):
            index.setdefault((fact.predicate, position, value), []).append(fact)
    return index


def _key(pattern: Literal, binding: dict):
    """The bucket of the first constant or bound argument, else of
    predicate and arity."""
    for position, arg in enumerate(pattern.args):
        if arg in binding or not is_rule_variable(arg):
            return (pattern.predicate, position, binding.get(arg, arg))
    return (pattern.predicate, len(pattern.args))


def _join_first(body, index, binding, everything, new, last):
    """First-round bindings, left to right, that use a fact from ``new``.

    Every position reads the all-facts index, except ``last``, the last
    position whose predicate has new facts: while no earlier position
    has matched a new fact it reads only new ones, since a binding that
    has none by then never gets one.  ``last`` turns to -1 once one has
    matched.  New facts end every bucket, so this is the full join's
    order with the bindings over old facts alone left out.
    """
    if index == len(body):
        yield binding
        return
    pattern = body[index]
    key = _key(pattern, binding)
    bucket = everything.get(key, ())
    split = len(bucket) - len(new.get(key, ()))
    for position in range(split if index == last else 0, len(bucket)):
        extended = _match(pattern, bucket[position], binding)
        if extended is not None:
            yield from _join_first(body, index + 1, extended, everything, new,
                                   last if position < split else -1)


def _join(body, index, pivot, binding, everything, delta):
    """Bindings matching body literals left to right.

    The pivot literal takes candidates from the delta index, the others
    from the all-facts index, each from the bucket ``_key`` picks.  A
    bucket lists the facts a full scan would visit, in scan order, so
    keeping the written join order (never reordering by selectivity)
    keeps discovery order.
    """
    if index == len(body):
        yield binding
        return
    pattern = body[index]
    for fact in (delta if index == pivot else everything).get(_key(pattern, binding), ()):
        extended = _match(pattern, fact, binding)
        if extended is not None:
            yield from _join(body, index + 1, pivot, extended, everything, delta)


@dataclass(frozen=True)
class ConsequenceReport:
    """What a sequence ended up asserting, deducing, and retracting."""

    observed: tuple[Literal, ...]
    deduced: tuple[Literal, ...]
    retracted: tuple[Literal, ...]

    def tsv_lines(self) -> list[str]:
        lines = [f"observed\t{l}" for l in self.observed]
        lines += [f"deduced\t{l}" for l in self.deduced]
        lines += [f"retracted\t{l}" for l in self.retracted]
        return lines


def report(kb_before: FactBase, kb_after: FactBase) -> ConsequenceReport:
    """Split ``kb_after`` into observed and deduced parts, in stable order."""
    before = set(kb_before.literals)
    deduced = tuple(l for l in kb_after.literals if l not in before)
    return ConsequenceReport(kb_before.literals, deduced, kb_after.retracted)
