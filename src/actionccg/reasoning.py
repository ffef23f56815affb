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
from itertools import chain
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import (BudgetExceededError, MalformedEventError,
                     RangeRestrictionError, SourceSyntaxError)
from .syntax import IDENT, is_identifier, variable_shape_note
from .terms import And, Const, Implies, Not, Pred, Term, Var

MAX_DERIVED = 100_000

_LITERAL_RE = re.compile(rf"\s*(!?)\s*({IDENT})\s*\(([^()]*)\)\s*\Z")
_AXIOM_RE = re.compile(rf"\s*axiom\s+({IDENT})\s*:\s*(.*?)\s*=>\s*(.*?)\s*\Z")


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
        if not is_identifier(arg):
            raise SourceSyntaxError(f"malformed argument {arg!r}", offset=0)
        if not allow_variables and is_rule_variable(arg):
            raise SourceSyntaxError(
                f"variable {arg!r} in a ground literal", offset=0)
    return Literal(not sign, name, args)


class _Step(NamedTuple):
    """One body literal of a join plan, fixed when the rule is built."""

    predicate: str
    arity: int
    position: int | None  # argument whose bucket is probed; None: (predicate, arity)
    slot: int  # the binding slot that holds the probed argument's value
    check: Callable | None  # other arguments whose value is known, or None
    expect: Callable  # binding -> those values
    repeat: Callable | None  # later occurrences of variables repeated here, or None
    first: Callable  # the first occurrences of those variables
    bind: Callable  # arguments that bind new variables, as a tuple


class _Plan(NamedTuple):
    """A rule compiled for ``forward_chain``: a binding is a tuple whose
    first slots hold the rule's constants and whose later slots hold its
    variables in order of first occurrence."""

    seed: tuple[str, ...]
    steps: tuple[_Step, ...]
    shapes: tuple[tuple[str, int], ...]  # (predicate, arity) of each step
    head: Callable  # binding -> head arguments


@dataclass(frozen=True)
class AxiomRule:
    """Horn rule: positive body literals implying one positive head.

    Building one compiles its join plan, and raises RangeRestrictionError
    if a head variable occurs in no body literal.
    """

    name: str
    body: tuple[Literal, ...]
    head: Literal
    plan: _Plan = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "plan", _compile(self))


def _compile(rule: AxiomRule) -> _Plan:
    """Fix, for each body literal in written order, the bucket it probes
    (its first constant or earlier-bound argument, else its predicate and
    arity), the arguments left to check and those that bind variables."""
    slots: dict[str, int] = {}
    for literal in rule.body + (rule.head,):
        for arg in literal.args:
            if not is_rule_variable(arg):
                slots.setdefault(arg, len(slots))
    seed = tuple(slots)
    steps = []
    for literal in rule.body:
        key = None
        checks, repeats, binds = [], [], []
        here: dict[str, int] = {}
        for position, arg in enumerate(literal.args):
            if arg in here:
                repeats.append((position, here[arg]))
            elif arg not in slots:
                here[arg] = position
                slots[arg] = len(slots)
                binds.append(position)
            elif key is None:
                key = (position, slots[arg])
            else:
                checks.append((position, slots[arg]))
        position, slot = key or (None, 0)
        steps.append(_Step(
            literal.predicate, len(literal.args), position, slot,
            _take(p for p, _ in checks) if checks else None,
            _take(s for _, s in checks),
            _take(p for p, _ in repeats) if repeats else None,
            _take(p for _, p in repeats),
            _take(binds)))
    loose = [a for a in rule.head.args if a not in slots]
    if loose:
        raise RangeRestrictionError(
            f"axiom {rule.name!r}: head variables {', '.join(loose)} never "
            f"occur in the body")
    return _Plan(seed, tuple(steps),
                 tuple((l.predicate, len(l.args)) for l in rule.body),
                 _take(slots[a] for a in rule.head.args))


def _take(indexes) -> Callable:
    """A C-level getter for ``tuple(seq[i] for i in indexes)``."""
    indexes = tuple(indexes)
    start = indexes[0] if indexes else 0
    if indexes == tuple(range(start, start + len(indexes))):
        return itemgetter(slice(start, start + len(indexes)))
    return itemgetter(*indexes)


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
            note = variable_shape_note(
                [a.name for a in pred.args if isinstance(a, Var)])
            raise MalformedEventError(f"event atom {pred} is not ground"
                                      + (f"; variables: {note}" if note else ""))
        args.append(arg.name)
    return Literal(True, pred.name, tuple(args))


def assert_event(form: Term, kb: FactBase) -> FactBase:
    """Ingest one parsed event: action atom first, then its consequences."""
    for literal in _event_literals(form):
        kb = kb.with_literal(literal)
    return kb


def forward_chain(kb: FactBase, rules, max_derived: int = MAX_DERIVED) -> FactBase:
    """Close ``kb`` under ``rules``; derived facts keep discovery order.

    Semi-naive evaluation: each round only explores rule instantiations
    that use at least one fact new to that round; joins probe an
    ``_index`` of all facts and one of the new facts.  The first round
    joins each rule once, through ``_join_first``, which is the full join
    when no part of ``kb`` is marked closed.  Later rounds join once per
    body position that can take one of the previous round's facts.

    Each rule carries a join plan compiled when it was built
    (``AxiomRule.plan``).  Body literals are joined in written order, so
    the plan fixes for each one the bucket it probes (its first constant
    or earlier-bound argument, else its predicate and arity), the arity
    test, the arguments left to check (a variable repeated within the
    literal among them) and the arguments that bind new variables.  A
    binding is a tuple of values, the rule's constants first, then its
    variables in order of first occurrence; the head is a getter over
    it, and a head becomes a ``Literal`` only once it is known to be new.
    Each body position is one flat loop in a chain of generators, so a
    runaway rule hits the budget before its cross product exists.

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
    # a head is new unless it is a known fact or a retracted (negative) one:
    # the event outranks the rules
    seen = {l.atom for l in kb.literals}
    closed_rules, closed = kb.closed
    old = sum(l.positive for l in kb.literals[:closed]) if closed_rules == rules else 0
    everything = _index(facts, {})
    # with nothing closed every fact is new, so both joins share one index
    delta = _index(facts[old:], {}) if old else everything
    derived: list[Literal] = []
    first_round = True
    while True:
        fresh: list[Literal] = []
        for rule in rules:
            plan = rule.plan
            # only positions whose predicate has new facts can use one
            pivots = [i for i, shape in enumerate(plan.shapes) if shape in delta]
            if not pivots:
                continue
            if first_round:
                joins = (_join_first(plan, everything, delta, pivots[-1]),)
            else:
                joins = (_join(plan.steps, [plan.seed], everything, delta, p)
                         for p in pivots)
            head, predicate, positive = plan.head, rule.head.predicate, rule.head.positive
            for bindings in joins:
                for binding in bindings:
                    args = head(binding)
                    atom = (predicate, args)
                    if atom in seen:
                        continue
                    seen.add(atom)
                    fresh.append(Literal(positive, predicate, args))
                    if len(derived) + len(fresh) > max_derived:
                        raise BudgetExceededError(
                            f"more than {max_derived} derived literals")
        if not fresh:
            break
        _index(fresh, everything)
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


def _join(steps, bindings, everything, delta=None, pivot=-1):
    """Extend ``bindings`` by the body literals of ``steps``, left to right.

    The ``pivot`` position takes candidates from the delta index, the
    others from the all-facts index.  A bucket lists the facts a full
    scan would visit, in scan order, so keeping the written join order
    (never reordering by selectivity) keeps discovery order.  Each
    position is one generator reading the one before it, so nothing is
    built ahead of the budget check.
    """
    for position, step in enumerate(steps):
        bindings = _matches(step, bindings,
                            delta if position == pivot else everything)
    return bindings


def _matches(step: _Step, bindings, index):
    """Extend each binding, in order, by every fact of its bucket in
    ``index`` that fits ``step``."""
    predicate, arity, position, slot, check, expect, repeat, first, bind = step
    shape = (predicate, arity)
    for binding in bindings:
        key = shape if position is None else (predicate, position, binding[slot])
        want = expect(binding)
        for fact in index.get(key, ()):
            args = fact.args
            if (len(args) == arity and (check is None or check(args) == want)
                    and (repeat is None or repeat(args) == first(args))):
                yield binding + bind(args)


def _join_first(plan: _Plan, everything, new, last):
    """First-round bindings, left to right, that use a fact from ``new``.

    Every position reads the all-facts index, except ``last``, the last
    position whose predicate has new facts: a binding that has matched
    no new fact before it reads only new ones there, since it never gets
    one later.  New facts end every bucket, so this is the full join's
    order with the bindings over old facts alone left out.
    """
    pairs = [(plan.seed, False)]  # (binding, whether it matched a new fact)
    for step in plan.steps[:last]:
        pairs = _marked_matches(step, pairs, everything, new)
    step = plan.steps[last]
    bindings = chain.from_iterable(
        _matches(step, (binding,), everything if used else new)
        for binding, used in pairs)
    return _join(plan.steps[last + 1:], bindings, everything)


def _marked_matches(step: _Step, pairs, everything, new):
    """``_matches`` over the all-facts index for (binding, used) pairs,
    marking as used each extension by a fact from the tail of a bucket
    that ``new`` holds."""
    predicate, arity, position, slot, check, expect, repeat, first, bind = step
    shape = (predicate, arity)
    for binding, used in pairs:
        key = shape if position is None else (predicate, position, binding[slot])
        want = expect(binding)
        bucket = everything.get(key, ())
        split = len(bucket) - len(new.get(key, ()))
        for number, fact in enumerate(bucket):
            args = fact.args
            if (len(args) == arity and (check is None or check(args) == want)
                    and (repeat is None or repeat(args) == first(args))):
                yield binding + bind(args), used or number >= split


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
