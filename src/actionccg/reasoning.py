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
from collections import defaultdict, namedtuple
from collections.abc import Callable
from operator import itemgetter

from .errors import (BudgetExceededError, MalformedEventError,
                     RangeRestrictionError, SourceSyntaxError)
from .syntax import IDENT, is_identifier, variable_shape_note
from .terms import And, Const, Implies, Not, Pred, Term, Var
from .value import Value, store

MAX_DERIVED = 100_000
# a rule joins as one nested loop per body literal, and Python compiles at
# most 20 statically nested blocks
MAX_BODY = 20

_new = tuple.__new__  # builds a Literal from a ready tuple, unchecked
_LITERAL_RE = re.compile(rf"\s*(!?)\s*({IDENT})\s*\(([^()]*)\)\s*\Z")
_AXIOM_RE = re.compile(rf"\s*axiom\s+({IDENT})\s*:\s*(.*?)\s*=>\s*(.*?)\s*\Z")


class Literal(namedtuple("_LiteralFields", ("positive", "predicate", "args"))):
    """A ground or pattern literal; uppercase-initial args are variables.

    An immutable tuple ``(positive, predicate, args)``, so equality,
    hashing and set lookups run in C.
    """

    __slots__ = ()

    def __new__(cls, positive: bool, predicate: str, args) -> "Literal":
        if isinstance(args, str):
            raise TypeError(f"Literal args must be a sequence of names, "
                            f"not the string {args!r}")
        return _new(cls, (positive, predicate, tuple(args)))

    def negated(self) -> "Literal":
        return _new(Literal, (not self.positive, self.predicate, self.args))

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
        raise SourceSyntaxError(f"malformed literal {text.strip()!r}")
    sign, name, argtext = m.groups()
    args = tuple(a.strip() for a in argtext.split(",")) if argtext.strip() else ()
    if not args:
        raise SourceSyntaxError(f"literal {name!r} has no arguments")
    for arg in args:
        if not is_identifier(arg):
            raise SourceSyntaxError(f"malformed argument {arg!r}")
        if not allow_variables and is_rule_variable(arg):
            raise SourceSyntaxError(f"variable {arg!r} in a ground literal")
    return Literal(not sign, name, args)


# One body literal of a join plan, fixed when the rule is built:
# key: the index key read, (predicate, arity[, position]);
# position: the argument whose bucket is probed, or None to scan them all;
# slot: the binding slot that holds the probed argument's value;
# check: (argument, slot) of the other arguments already known;
# bind: (argument, slot) of each new variable.
_Step = namedtuple("_Step", ("key", "position", "slot", "check", "bind"))

# A rule compiled for ``forward_chain``.  Its values are numbered in slots,
# the rule's constants first and then its variables in order of first
# occurrence.  seed: the constants; steps: one _Step per body literal;
# shapes: (predicate, arity) of each step; head: the slot of each head
# argument; joins: pivot position -> join function, or None until first use.
_Plan = namedtuple("_Plan", ("seed", "steps", "shapes", "head", "joins"))


class AxiomRule(Value):
    """Horn rule: positive body literals implying one positive head.

    Building one plans its joins (``plan``, which takes no part in
    equality, hashing or ``repr``), and raises SourceSyntaxError for a
    negated literal or more than ``MAX_BODY`` body literals, and
    RangeRestrictionError if a head variable occurs in no body literal.
    It pickles as its fields and plans its joins again on load.
    """

    _fields = ("name", "body", "head")
    __slots__ = _fields + ("plan",)

    def __init__(self, name: str, body: tuple[Literal, ...], head: Literal):
        store(self, "name", name)
        store(self, "body", body)
        store(self, "head", head)
        store(self, "plan", _compile(self))


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
        shape = (literal.predicate, len(literal.args))
        steps.append(_Step(shape if position is None else shape + (position,), position,
                           slot, tuple(checks), tuple(binds)))
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
    """Python source of ``join(everything, new, first, heads, out, room)``
    for ``pivot``, and the values it binds.

    The join is a plain function of one ``for`` loop per body literal,
    nested in written order.  A loop reads its literal's bucket: the
    ``(predicate, arity)`` list of an ``_index``, or the list that the
    ``(predicate, arity, position)`` family of the index holds under the
    probed value.  Each family is looked up once per call, so a probe
    inside a loop is one ``dict.get``.  The ``pivot`` loop reads ``new``
    and the later loops ``everything``.  The loops before the pivot read
    ``everything`` too; in the ``first`` round, the pivot reads all facts
    once one of them has matched a fact from the tail of its bucket that
    ``new`` holds, and in a later round each of them stops where that
    tail starts, so a binding with a new fact before the pivot is left to
    the earlier pivot, which is joined first.  The innermost loop checks
    the head's arguments against the sign map ``heads``, records a new
    one there as positive, appends it to ``out``, and returns once ``out``
    holds more than ``room``.  Predicates, constants and index keys enter
    as arguments of ``bind``, so the source holds only generated names
    (``v`` and a slot for a value, ``x`` and a position for an argument to
    check, and a letter and a step: ``k`` for a key, ``a``/``n`` for what
    ``everything``/``new`` hold under it, ``b`` a bucket, ``s`` a tail
    start, ``j`` a loop counter) and integer positions.
    """
    values = {f"v{slot}": value for slot, value in enumerate(plan.seed)}
    values["e"] = {}
    lines = ["def join(everything, new, first, heads, out, room):",
             " put, add = out.append, heads.__setitem__"]
    lookups = []  # for each step: what turns its ``a``/``n`` into its bucket
    for i, step in enumerate(plan.steps):
        values[f"k{i}"] = step.key
        if step.position is None:
            read, probe = f".get(k{i}, ())", ""
        elif step.slot < len(plan.seed):
            read, probe = f".get(k{i}, e).get(v{step.slot}, ())", ""
        else:
            read, probe = f".get(k{i}, e)", f".get(v{step.slot}, ())"
        if i != pivot or pivot:
            lines.append(f" a{i} = everything{read}")
        if i <= pivot:
            lines.append(f" n{i} = new{read}")
        lookups.append(probe)
    if pivot:
        lines.append(" if first:")
        lines += _nest(plan, pivot, lookups, first=True, depth=2)
        lines.append(" else:")
        lines += _nest(plan, pivot, lookups, first=False, depth=2)
    else:
        lines += _nest(plan, pivot, lookups, first=False, depth=1)
    lines.append("return join")
    body = "\n".join(" " + line for line in lines)
    return f"def bind({', '.join(values)}):\n{body}\n", values


def _nest(plan: _Plan, pivot: int, lookups, *, first: bool, depth: int) -> list[str]:
    """The nested loops of one join, ``depth`` spaces in (``_join_source``)."""
    lines = []
    tails = []  # in the first round, for each loop before the pivot: its fact is new
    for i, step in enumerate(plan.steps):
        pad = " " * (depth + i)
        names = ["_"] * step.key[1]
        for position, slot in step.bind:
            names[position] = f"v{slot}"
        for position, _ in step.check:
            names[position] = f"x{position}"
        target = ", ".join(names) + ","
        every, new = f"a{i}{lookups[i]}", f"n{i}{lookups[i]}"
        if i < pivot:
            if lookups[i]:  # look the bucket up once
                lines.append(f"{pad}b{i} = {every}")
                every = f"b{i}"
            if first:
                lines += [f"{pad}s{i} = len({every}) - len({new})",
                          f"{pad}for j{i}, ({target}) in enumerate({every}):"]
                tails.append(f"j{i} >= s{i}")
            else:
                lines.append(f"{pad}for {target} in {every}[:len({every}) - len({new})]:")
        elif i == pivot:
            if tails:
                new = f"(a{i} if {' or '.join(tails)} else n{i}){lookups[i]}"
            lines.append(f"{pad}for {target} in {new}:")
        else:
            lines.append(f"{pad}for {target} in {every}:")
        if step.check:
            tests = " or ".join(f"x{p} != v{slot}" for p, slot in step.check)
            lines.append(f"{pad} if {tests}: continue")
    pad = " " * (depth + len(plan.steps))
    lines += [f"{pad}h = " + "".join(f"v{slot}," for slot in plan.head),
              f"{pad}if h not in heads:",
              f"{pad} add(h, True)",
              f"{pad} put(h)",
              f"{pad} if len(out) > room: return"]
    return lines


def parse_axiom(text: str) -> AxiomRule:
    """Parse ``axiom <name>: lit & lit ... => head``.

    Every head variable must occur in the body (range restriction), and
    negation is rejected on both sides.
    """
    m = _AXIOM_RE.match(text)
    if m is None:
        raise SourceSyntaxError(f"malformed axiom {text.strip()!r}")
    name, body_text, head_text = m.groups()
    if not body_text:
        raise SourceSyntaxError(f"axiom {name!r} has an empty body")
    body = tuple(parse_literal(part, allow_variables=True)
                 for part in body_text.split("&"))
    head = parse_literal(head_text, allow_variables=True)
    return AxiomRule(name, body, head)


class _Work:
    """The working set of one fact base (see ``FactBase``)."""

    __slots__ = ("signs", "rules", "probes", "index", "pending")

    def __init__(self, literals: tuple[Literal, ...]):
        self.signs = defaultdict(dict)
        for positive, predicate, args in literals:
            self.signs[predicate][args] = positive
        self.rules, self.probes, self.index, self.pending = (), {}, {}, {}

    def hand(self, literals: tuple[Literal, ...], retracted) -> "FactBase":
        kb = FactBase(literals, retracted)
        store(kb, "work", self)
        return kb

    def unindex(self, fact: Literal) -> None:
        """Take a retracted fact out of the join index."""
        _, predicate, args = fact
        shape = predicate, len(args)
        if shape in self.probes:
            self.index[shape].remove(args)
            for position, key in self.probes[shape]:
                self.index[key][args[position]].remove(args)


class FactBase(Value):
    """Insertion-ordered set of ground literals plus a retraction log; it
    never holds both signs of one atom (every path here keeps that, and a
    fact base built directly must too).

    An immutable value with a hidden working set that takes no part in
    equality, hashing or ``repr``: one sign map, predicate -> {args:
    positive}, that is both the member test of ``with_literal`` and the
    known heads of ``forward_chain``; the join index for the rules of the
    last chain; and the positive facts added since.  ``with_literal``,
    ``assert_event`` and ``forward_chain`` take it from the fact base they
    read, update it in place, without a lock, and hand it to the fact base
    they return.  It moves with the value: the fact base read is left
    without one, so an older value used again, an input whose chain
    raised, a copy or a pickle rebuilds its own from its two tuples once.
    """

    _fields = ("literals", "retracted")
    __slots__ = _fields + ("work",)

    def __init__(self, literals: tuple[Literal, ...] = (),
                 retracted: tuple[Literal, ...] = ()):
        store(self, "literals", literals)
        store(self, "retracted", retracted)
        store(self, "work", None)

    def _work(self) -> _Work:
        """Take the working set, building it if this value has none."""
        work = self.work or _Work(self.literals)
        store(self, "work", None)
        return work

    def with_literal(self, literal: Literal) -> "FactBase":
        """Record one ground literal, resolving any contradiction.

        A negative literal retracts the positive fact it denies; a
        positive literal simply replaces a stale negative record.
        """
        return self._with((literal,))

    def _with(self, new) -> "FactBase":
        """``with_literal`` for each of ``new`` in turn, as one fact base."""
        work = self._work()
        signs, pending = work.signs, work.pending
        literals, retracted = list(self.literals), self.retracted
        for literal in new:
            positive, predicate, args = literal
            held = signs[predicate]
            sign = held.get(args)
            if sign == positive:
                continue
            if sign is not None:  # the other sign is held
                contrary = literal.negated()
                literals.remove(contrary)
                if sign:
                    retracted += (contrary,)
                    # a fact not waiting for the next chain is in the index
                    if pending.pop(contrary, True):
                        work.unindex(contrary)
            held[args] = positive
            literals.append(literal)
            if positive:
                pending[literal] = False
        return work.hand(tuple(literals), retracted)


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
    return _new(Literal, (True, pred.name, tuple(args)))


def assert_event(form: Term, kb: FactBase) -> FactBase:
    """Ingest one parsed event: action atom first, then its consequences."""
    return kb._with(_event_literals(form))


def forward_chain(kb: FactBase, rules, max_derived: int = MAX_DERIVED) -> FactBase:
    """Close ``kb`` under ``rules``; derived facts keep discovery order.

    Semi-naive evaluation (Bancilhon & Ramakrishnan, SIGMOD 1986): each
    round offers each rule instantiation that uses a fact new to that
    round once, and no other.  Joins read an ``_index`` of all facts and
    one of the new facts; an index holds, for each probed (predicate,
    arity), the list of its facts' arguments, and for each probed
    argument position a dict from the value there to such a list, each
    list in fact order.  The first round joins each rule once, with the
    last body position whose predicate has new facts as pivot, which is
    the full join when every fact is new.  Later rounds
    join once per body position that can take one of the previous
    round's facts, in written order: that position reads only those
    facts, the positions before it only older ones, and the positions
    after it all facts.  Each binding thus comes once, at its first
    position that holds a new fact, and the heads come in the order they
    would if it came at every such position.

    Each rule carries a join plan made when it was built
    (``AxiomRule.plan``).  Body literals are joined in written order, so
    the plan fixes for each one the bucket it probes (its first constant
    or earlier-bound argument, else its predicate and arity), the
    arguments left to check and the arguments that bind new variables.
    On first use for a pivot position, the plan is compiled into a plain
    function of nested ``for`` loops, one per body literal, that checks
    each head against the sign map of its predicate and collects the new
    ones (``_join_source``); it is cached on the plan,
    so loading rules compiles nothing.  No rule text reaches the
    generated source: predicates and constants enter as bound values.  A
    head becomes a ``Literal`` only once it is known to be new, and a
    join returns as soon as its new heads pass the budget, so a runaway
    rule stops before its cross product exists.  The heads a rule derives
    in a round share its head's shape, so they enter both indexes as one
    group (``_index``), in rule order and then discovery order; the first
    round's new facts enter grouped by shape (``_by_shape``).

    The working set of ``kb`` (see ``FactBase``) keeps the index and the
    sign map from one call to the next; a head is new unless its atom is
    held with either sign, as the event outranks the rules.  The first
    round's new facts are those added since the last chain, or every fact
    at the first chain and under other rules.  The result takes the
    working set over and equals, tuple for tuple, the result of chaining
    ``FactBase(kb.literals, kb.retracted)``: facts of earlier chains
    derive nothing new, and new facts end every bucket.

    Raises BudgetExceededError once more than ``max_derived`` new facts
    appear, which catches runaway rule sets.
    """
    rules = tuple(rules)
    work = kb._work()
    if work.rules != rules:
        # only the buckets that some body literal probes: for each shape,
        # each probed position with its family's key
        probes: dict[tuple[str, int], tuple[tuple[int, tuple], ...]] = {}
        for rule in rules:
            for step, shape in zip(rule.plan.steps, rule.plan.shapes):
                families = probes.setdefault(shape, ())
                if step.position is not None and (step.position, step.key) not in families:
                    probes[shape] = families + ((step.position, step.key),)
        work.rules, work.probes, work.index = rules, probes, {}
        work.pending = dict.fromkeys(kb.literals, False)  # every fact is new
    probes, everything = work.probes, work.index
    delta = _index(_by_shape(work.pending), probes, everything)
    work.pending = {}
    first = True
    derived: list[Literal] = []
    while True:
        fresh: list[Literal] = []
        groups = []  # each rule's new heads, one shape each
        for rule in rules:
            plan = rule.plan
            # only positions whose predicate has new facts can use one
            pivots = [i for i, shape in enumerate(plan.shapes) if shape in delta]
            if first:  # one join, at the last pivot
                pivots = pivots[-1:]
            heads, out = work.signs[rule.head.predicate], []
            room = max_derived - len(derived) - len(fresh)
            for pivot in pivots:
                join = plan.joins[pivot] or _join(plan, pivot)
                join(everything, delta, first, heads, out, room)
                if len(out) > room:
                    raise BudgetExceededError(
                        f"more than {max_derived} derived literals")
            if out:
                groups.append(((rule.head.predicate, len(plan.head)), out))
                fresh += [_new(Literal, (True, rule.head.predicate, args)) for args in out]
        if not fresh:
            break
        derived += fresh
        delta = _index(groups, probes, everything)
        first = False
    return work.hand(kb.literals + tuple(derived), kb.retracted)


def _by_shape(facts):
    """The positive ones of ``facts`` as ``_index`` groups: their argument
    tuples listed under their (predicate, arity), in fact order."""
    groups = defaultdict(list)
    for positive, predicate, args in facts:
        if positive:
            groups[predicate, len(args)].append(args)
    return groups.items()


def _index(groups, probes, everything) -> dict:
    """For each ``(shape, args list)`` of ``groups`` whose shape ``probes``
    holds, append the list to the list under that shape in ``everything``
    and in a new delta, and each args to the list under its argument in
    the dict under (predicate, arity, position) for each position
    ``probes`` names; returns the delta.  A group looks each up once."""
    delta: dict = {}
    for shape, facts in groups:
        positions = probes.get(shape)
        if positions is None:
            continue
        for index in (everything, delta):
            scan = index.get(shape)
            if scan is None:
                scan = index[shape] = []
                index.update((key, {}) for _, key in positions)
            scan += facts
            for position, key in positions:
                family = index[key]
                for args in facts:
                    family.setdefault(args[position], []).append(args)
    return delta


class ConsequenceReport(Value):
    """What a sequence ended up asserting, deducing, and retracting."""

    __slots__ = _fields = ("observed", "deduced", "retracted")

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
