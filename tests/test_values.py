"""The value contract every immutable class of the package keeps: equality
and hashing by class and fields, the ``repr`` a dataclass would write,
which reads back as an equal value, pickling and copying as its fields,
and no assignment."""

import copy
import pickle

import pytest

from actionccg.chart import Derivation, ParseResult
from actionccg.corpus import SequenceFile
from actionccg.grammar import Atom, Backward, Forward, LexEntry
from actionccg.learning import TrainConfig, TrainingSample
from actionccg.reasoning import (ConsequenceReport, FactBase, Literal,
                                 forward_chain, parse_axiom)
from actionccg.terms import (And, App, Const, Exists, Forall, Implies, Lam,
                             Not, Or, Pred, Var)
from actionccg.value import Value

box, cup = Const("box"), Const("cup")
moved = Literal(True, "moved", ("box",))
on_top = Literal(True, "on_top", ("box", "cup"))
knife = LexEntry("Knife", Atom("N"), Const("knife"), 0.5)
KNIFE_REPR = ("LexEntry(token='Knife', category=Atom(name='N'), "
              "semantics=Const(name='knife'), weight=0.5)")

# one instance of every value class, with its pinned ``repr``
EXAMPLES = [
    (Var("x"), "Var(name='x')"),
    (Const("knife"), "Const(name='knife')"),
    (Pred("on_top", (box, Var("y"))),
     "Pred(name='on_top', args=(Const(name='box'), Var(name='y')))"),
    (App(Var("f"), box), "App(fun=Var(name='f'), arg=Const(name='box'))"),
    (Not(Pred("moved", (box,))),
     "Not(body=Pred(name='moved', args=(Const(name='box'),)))"),
    (And(Var("p"), Var("q")), "And(left=Var(name='p'), right=Var(name='q'))"),
    (Or(Var("p"), Var("q")), "Or(left=Var(name='p'), right=Var(name='q'))"),
    (Implies(Var("p"), Var("q")),
     "Implies(left=Var(name='p'), right=Var(name='q'))"),
    (Lam("x", Var("x")), "Lam(param='x', body=Var(name='x'))"),
    (Forall("x", Pred("cup", (Var("x"),))),
     "Forall(var='x', body=Pred(name='cup', args=(Var(name='x'),)))"),
    (Exists("x", Pred("cup", (Var("x"),))),
     "Exists(var='x', body=Pred(name='cup', args=(Var(name='x'),)))"),
    (Atom("NP"), "Atom(name='NP')"),
    (Forward(Atom("AP"), Atom("NP")),
     "Forward(result=Atom(name='AP'), arg=Atom(name='NP'))"),
    (Backward(Atom("AP"), Atom("NP")),
     "Backward(result=Atom(name='AP'), arg=Atom(name='NP'))"),
    (knife, KNIFE_REPR),
    (Derivation(Atom("NP"), Const("knife"), (0, 1),
                kids=(Derivation(Atom("N"), Const("knife"), (0, 1), entry=knife),)),
     "Derivation(category=Atom(name='NP'), semantics=Const(name='knife'), "
     "span=(0, 1), entry=None, kids=(Derivation(category=Atom(name='N'), "
     "semantics=Const(name='knife'), span=(0, 1), entry=" + KNIFE_REPR
     + ", kids=()),))"),
    (ParseResult(Pred("moved", (box,)), 0.75),
     "ParseResult(logical_form=Pred(name='moved', args=(Const(name='box'),)), "
     "probability=0.75)"),
    (SequenceFile("episode", (("Knife", "Cut", "Cup"),)),
     "SequenceFile(name='episode', triplets=(('Knife', 'Cut', 'Cup'),))"),
    (TrainingSample(["knife", "cutting", "cup"], Pred("divided", (cup,))),
     "TrainingSample(tokens=('knife', 'cutting', 'cup'), "
     "gold=Pred(name='divided', args=(Const(name='cup'),)))"),
    (TrainConfig(5, 0.5, 0.25),
     "TrainConfig(iterations=5, learning_rate=0.5, l2=0.25)"),
    (parse_axiom("axiom up: on_top(X,Y) & on_top(Y,Z) => on_top(X,Z)"),
     "AxiomRule(name='up', body=(Literal(positive=True, predicate='on_top', "
     "args=('X', 'Y')), Literal(positive=True, predicate='on_top', "
     "args=('Y', 'Z'))), head=Literal(positive=True, predicate='on_top', "
     "args=('X', 'Z')))"),
    (FactBase((moved,), (on_top,)),
     "FactBase(literals=(Literal(positive=True, predicate='moved', "
     "args=('box',)),), retracted=(Literal(positive=True, predicate='on_top', "
     "args=('box', 'cup')),))"),
    (ConsequenceReport((moved,), (on_top,), ()),
     "ConsequenceReport(observed=(Literal(positive=True, predicate='moved', "
     "args=('box',)),), deduced=(Literal(positive=True, predicate='on_top', "
     "args=('box', 'cup')),), retracted=())"),
]
VALUES = [value for value, _ in EXAMPLES]
IDS = [type(value).__name__ for value in VALUES]


def fields(value):
    return [getattr(value, name) for name in value._fields]


def rebuilt(value):
    return type(value)(*fields(value))


def value_classes():
    """Every subclass of ``Value`` that has no subclass of its own."""
    found, todo = set(), [Value]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if not cls.__subclasses__():
            found.add(cls)
    return found


def test_every_value_class_has_an_example():
    assert value_classes() == {type(value) for value in VALUES}


@pytest.mark.parametrize("value, text", EXAMPLES, ids=IDS)
def test_repr_is_pinned(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_repr_reads_back(value):
    # each constructor, written by the base or by hand, takes its fields by
    # the names the ``repr`` gives them
    namespace = {cls.__name__: cls for cls in value_classes() | {Literal}}
    again = eval(repr(value), namespace)
    assert type(again) is type(value) and again == value


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equality_and_hash_follow_the_fields(value):
    again = rebuilt(value)
    assert again is not value
    assert again == value and not again != value
    assert hash(again) == hash(value)
    assert len({value, again}) == 1
    assert value != fields(value) and value != tuple(fields(value))


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_a_changed_field_breaks_equality(value):
    for position, name in enumerate(value._fields):
        values = fields(value)
        values[position] = Const("other") if name != "weight" else 7.0
        try:
            changed = type(value)(*values)
        except (TypeError, AttributeError):  # a field of another type
            continue
        assert changed != value


def test_classes_with_equal_fields_compare_unequal():
    pairs = 0
    for one in VALUES:
        for other in VALUES:
            if type(one) is not type(other) and one._fields == other._fields:
                twin = type(other)(*fields(one))
                assert one != twin and twin != one
                assert len({one, twin}) == 2
                pairs += 1
    # Var/Const/Atom, And/Or/Implies, Forall/Exists, Forward/Backward
    assert pairs == 6 + 6 + 2 + 2


@pytest.mark.parametrize("value", VALUES, ids=IDS)
@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy,
                                 lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_round_trip(value, how):
    again = how(value)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value)
    assert repr(again) == repr(value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_assignment_raises(value):
    before = repr(value)
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before
    assert not hasattr(value, "__dict__")


def test_hidden_state_takes_no_part():
    rule = parse_axiom("axiom up: on_top(X,Y) & on_top(Y,Z) => on_top(X,Z)")
    kb = FactBase((Literal(True, "on_top", ("a", "b")),
                   Literal(True, "on_top", ("b", "c"))))
    closed = forward_chain(kb, [rule])
    plain = FactBase(closed.literals, closed.retracted)
    assert closed.work is not None and plain.work is None
    assert closed == plain and hash(closed) == hash(plain)
    assert repr(closed) == repr(plain)
    # a copy or a pickle drops the working set and a rule's plan is rebuilt
    for again in (copy.copy(closed), pickle.loads(pickle.dumps(closed))):
        assert again.work is None and again == closed
    again = pickle.loads(pickle.dumps(rule))
    assert again.plan is not rule.plan and again.plan.steps == rule.plan.steps
    entry = pickle.loads(pickle.dumps(knife))
    assert entry.key == knife.key == ("Knife", "N", "knife")
