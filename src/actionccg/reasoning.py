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
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import (BudgetExceededError, MalformedEventError,
                     RangeRestrictionError, SourceSyntaxError)
from .syntax import IDENT, is_identifier, variable_shape_note
from .terms import And, Const, Implies, Not, Pred, Term, Var

MAX_DERIVED = 100_000
# a rule joins as one nested loop per body literal, and Python compiles at
# most 20 statically nested blocks
MAX_BODY = 20

_LITERAL_RE = re.compile(rf"\s*(!?)\s*({IDENT})\s*\(([^()]*)\)\s*\Z")
_AXIOM_RE = re.compile(rf"\s*axiom\s+({IDENT})\s*:\s*(.*?)\s*=>\s*(.*?)\s*\Z")


class _LiteralFields(NamedTuple):
    positive: bool
    predicate: str
    args: tuple[str, ...]


class Literal(_LiteralFields):
    """A ground or pattern literal; uppercase-initial args are variables.

    An immutable tuple ``(positive, predicate, args)``, so equality,
    hashing and set membership run in C.
    """

    __slots__ = ()

    def __new__(cls, positive: bool, predicate: str, args) -> "Literal":
        return tuple.__new__(cls, (positive, predicate, tuple(args)))

    def negated(self) -> "Literal":
        return Literal(not self.positive, self.predicate, self.args)

    atom = property(itemgetter(1, 2), doc="``(predicate, args)``")

    def __str__(self) -> str:
        sign = "" if self.positive else "!"
        return f"{sign}{self.predicate}({','.join(self.args)})"


def is_rule_variable(name: str) -> bool:
    return name[:1].isupper()


def parse_literal(text: str, *, allow_variables: bool = False) -> Literal:
    """Parse ``pred(a,b)`` or ``!pred(a,b)``."""
    m = _LITERAL_RE.match(text)
    if m is None:
        raise SourceSyntaxError(f"malformed literal {text.strip()!r}",
                                offset=0)
    sign, name, argtext = m.groups()
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
    check: tuple[tuple[int, int], ...]  # (argument, slot) of the others already known
    bind: tuple[tuple[int, int], ...]  # (argument, slot) of each new variable


class _Plan(NamedTuple):
    """A rule compiled for ``forward_chain``.  Its values are numbered in
    slots, the rule's constants first and then its variables in order of
    first occurrence; ``joins`` caches the join of each pivot position."""

    seed: tuple[str, ...]  # the constants
    steps: tuple[_Step, ...]
    shapes: tuple[tuple[str, int], ...]  # (predicate, arity) of each step
    head: tuple[int, ...]  # the slot of each head argument
    joins: list  # pivot position -> join function, or None until first use


@dataclass(frozen=True)
class AxiomRule:
    """Horn rule: positive body literals implying one positive head.

    Building one plans its joins, and raises SourceSyntaxError for a
    negated literal or more than ``MAX_BODY`` body literals, and
    RangeRestrictionError if a head variable occurs in no body literal.
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
    negated = [str(l) for l in rule.body + (rule.head,) if not l.positive]
    if negated:
        raise SourceSyntaxError(
            f"axiom {rule.name!r}: negation is not allowed in a rule: "
            f"{', '.join(negated)}")
    if len(rule.body) > MAX_BODY:
        raise SourceSyntaxError(f"axiom {rule.name!r}: more than {MAX_BODY} "
                                f"body literals")
    slots: dict[str, int] = {}
    for literal in rule.body + (rule.head,):
        for arg in literal.args:
            if not is_rule_variable(arg):
                slots.setdefault(arg, len(slots))
    seed = tuple(slots)
    steps = []
    for literal in rule.body:
        key = None
        checks, binds = [], []
        here = set()
        for position, arg in enumerate(literal.args):
            if arg not in slots:
                here.add(arg)
                slots[arg] = len(slots)
                binds.append((position, slots[arg]))
            elif key is None and arg not in here:
                key = (position, slots[arg])
            else:
                checks.append((position, slots[arg]))
        position, slot = key or (None, 0)
        steps.append(_Step(literal.predicate, len(literal.args), position, slot,
                           tuple(checks), tuple(binds)))
    loose = [a for a in rule.head.args if a not in slots]
    if loose:
        raise RangeRestrictionError(
            f"axiom {rule.name!r}: head variables {', '.join(loose)} never "
            f"occur in the body")
    return _Plan(seed, tuple(steps),
                 tuple((l.predicate, len(l.args)) for l in rule.body),
                 tuple(slots[a] for a in rule.head.args), [None] * len(steps))


def _join(plan: _Plan, pivot: int) -> Callable:
    """The join of ``plan`` for ``pivot``, compiled and cached on first use."""
    source, values = _join_source(plan, pivot)
    namespace: dict = {}
    exec(compile(source, "<join>", "exec"), namespace)
    join = plan.joins[pivot] = namespace["bind"](**values)
    return join


def _join_source(plan: _Plan, pivot: int) -> tuple[str, dict]:
    """Python source of ``join(everything, new, marked)`` for ``pivot``,
    and the values it binds.

    The join is one ``for`` loop per body literal, nested in written
    order, over the literal's bucket in ``everything``; the innermost
    yields the head's arguments.  The ``pivot`` loop reads ``new``
    instead, unless a loop before it matched a fact from the tail of its
    bucket that ``marked`` holds.  Predicates, constants and bucket keys
    enter as arguments of ``bind``, so the source holds only generated
    names (``v`` and a slot for a value, ``k``/``p`` and a step for a
    key/predicate) and integer positions.
    """
    values = {f"v{slot}": value for slot, value in enumerate(plan.seed)}
    lines = ["def join(everything, new, marked):",
             " eget, nget, mget = everything.get, new.get, marked.get"]
    tails = []  # for each loop before the pivot: whether its fact is new
    for i, step in enumerate(plan.steps):
        pad = " " * (i + 1)
        if step.position is None:
            key, values[f"k{i}"] = f"k{i}", (step.predicate, step.arity)
        elif step.slot < len(plan.seed):
            key, values[f"k{i}"] = f"k{i}", (step.predicate, step.arity, step.position,
                                             plan.seed[step.slot])
        else:
            values[f"p{i}"] = step.predicate
            key = f"(p{i}, {step.arity}, {step.position}, v{step.slot})"
        names = ["_"] * step.arity
        for position, slot in step.bind:
            names[position] = f"v{slot}"
        for position, _ in step.check:
            names[position] = f"t{position}"
        target = ", ".join(names) + ","
        if i < pivot:
            lines += [f"{pad}q{i} = {key}", f"{pad}b{i} = eget(q{i}, ())",
                      f"{pad}s{i} = len(b{i}) - len(mget(q{i}, ()))",
                      f"{pad}for n{i}, ({target}) in enumerate(b{i}):"]
            tails.append(f"n{i} >= s{i}")
        elif i == pivot and tails:
            lines.append(f"{pad}for {target} in (eget if {' or '.join(tails)} "
                         f"else nget)({key}, ()):")
        else:
            lines.append(f"{pad}for {target} in {'nget' if i == pivot else 'eget'}"
                         f"({key}, ()):")
        if step.check:
            tests = " or ".join(f"t{p} != v{slot}" for p, slot in step.check)
            lines.append(f"{pad} if {tests}: continue")
    lines.append(" " * (len(plan.steps) + 1) + "yield "
                 + "".join(f"v{slot}," for slot in plan.head))
    lines.append("return join")
    body = "\n".join(" " + line for line in lines)
    return f"def bind({', '.join(values)}):\n{body}\n", values


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
    body = tuple(parse_literal(part, allow_variables=True)
                 for part in body_text.split("&"))
    head = parse_literal(head_text, allow_variables=True)
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
    joins each rule once, with the last body position whose predicate
    has new facts as pivot, which is the full join when no part of
    ``kb`` is marked closed.  Later rounds join once per body position
    that can take one of the previous round's facts, that position
    reading only those.

    Each rule carries a join plan made when it was built
    (``AxiomRule.plan``).  Body literals are joined in written order, so
    the plan fixes for each one the bucket it probes (its first constant
    or earlier-bound argument, else its predicate and arity), the
    arguments left to check and the arguments that bind new variables.
    On first use for a pivot position, the plan is compiled into a
    generator function of nested ``for`` loops, one per body literal,
    that yields the head's arguments (``_join_source``); it is cached on
    the plan, so loading rules compiles nothing.  No rule text reaches
    the generated source: predicates and constants enter as bound
    values.  A head becomes a ``Literal`` only once it is known to be
    new, and a runaway rule hits the budget before its cross product
    exists.

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
    # a head is new unless it is a known fact or a retracted (negative) one:
    # the event outranks the rules
    seen: dict[str, set[tuple[str, ...]]] = defaultdict(set)
    for _, predicate, args in kb.literals:
        seen[predicate].add(args)
    closed_rules, closed = kb.closed
    if closed_rules != rules:
        closed = 0
    # only the buckets that some body literal probes
    probes: dict[tuple[str, int], set[int]] = {}
    for rule in rules:
        for step in rule.plan.steps:
            positions = probes.setdefault((step.predicate, step.arity), set())
            if step.position is not None:
                positions.add(step.position)
    everything = _index(kb.literals, probes)
    # with nothing closed every fact is new, so both joins share one index
    delta = _index(kb.literals[closed:], probes) if closed else everything
    # the first round's pivot reads new facts only after old ones before it;
    # later rounds count nothing before the pivot as new
    marked = delta
    derived: list[Literal] = []
    while True:
        fresh: list[Literal] = []
        for rule in rules:
            plan = rule.plan
            # only positions whose predicate has new facts can use one
            pivots = [i for i, shape in enumerate(plan.shapes) if shape in delta]
            if marked:  # the first round: one join, at the last pivot
                pivots = pivots[-1:]
            predicate = rule.head.predicate
            heads = seen[predicate]
            for pivot in pivots:
                join = plan.joins[pivot] or _join(plan, pivot)
                for args in join(everything, delta, marked):
                    if args in heads:
                        continue
                    heads.add(args)
                    fresh.append(Literal(True, predicate, args))
                    if len(derived) + len(fresh) > max_derived:
                        raise BudgetExceededError(
                            f"more than {max_derived} derived literals")
        if not fresh:
            break
        _index(fresh, probes, everything)
        derived.extend(fresh)
        delta = _index(fresh, probes)
        marked = {}
    literals = kb.literals + tuple(derived)
    return FactBase(literals, kb.retracted, (rules, len(literals)))


def _index(facts, probes, index=None) -> dict:
    """Append the arguments of each positive fact of ``facts`` whose
    (predicate, arity) ``probes`` holds under that key and under
    (predicate, arity, position, value) for each position it names."""
    if index is None:
        index = defaultdict(list)
    for positive, predicate, args in facts:
        arity = len(args)
        positions = probes.get((predicate, arity))
        if positions is None or not positive:
            continue
        index[predicate, arity].append(args)
        for position in positions:
            index[predicate, arity, position, args[position]].append(args)
    return index


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
