"""Independent reference implementations the tests check the package against.

Nothing here reuses the package's substitution, reduction, chart packing,
or semi-naive join machinery.  Terms are converted to a de Bruijn tuple
encoding and manipulated with textbook index shifting; parsing is redone
by recursive enumeration of every bracketing; chaining is a naive
re-scan, or an unindexed semi-naive loop where discovery order matters;
gradients come from central finite differences.
"""

from collections import Counter

from actionccg.grammar import GOAL_CATEGORY, combine, render_category, unary_project
from actionccg.learning import TrainConfig, log_likelihood, train
from actionccg.terms import (And, App, Const, Exists, Forall, Implies, Lam,
                             Not, Or, Pred, Var, canonical)


class OracleBudgetError(Exception):
    pass


# --- de Bruijn encoding ------------------------------------------------
# Bound variables become ("var", index); free ones keep their name as
# ("free", name), so substituting for a free name can never capture.

def to_debruijn(term):
    def go(t, env):
        if isinstance(t, Var):
            for back, name in enumerate(reversed(env)):
                if name == t.name:
                    return ("var", back)
            return ("free", t.name)
        if isinstance(t, Const):
            return ("const", t.name)
        if isinstance(t, Pred):
            return ("pred", t.name, tuple(go(a, env) for a in t.args))
        if isinstance(t, Lam):
            return ("lam", go(t.body, env + [t.param]))
        if isinstance(t, App):
            return ("app", go(t.fun, env), go(t.arg, env))
        if isinstance(t, And):
            return ("and", go(t.left, env), go(t.right, env))
        if isinstance(t, Or):
            return ("or", go(t.left, env), go(t.right, env))
        if isinstance(t, Implies):
            return ("implies", go(t.left, env), go(t.right, env))
        if isinstance(t, Not):
            return ("not", go(t.body, env))
        if isinstance(t, Forall):
            return ("forall", go(t.body, env + [t.var]))
        if isinstance(t, Exists):
            return ("exists", go(t.body, env + [t.var]))
        raise TypeError(t)
    return go(term, [])


def db_alpha_eq(a, b):
    return to_debruijn(a) == to_debruijn(b)


_BINDERS = ("lam", "forall", "exists")
_PAIRS = ("app", "and", "or", "implies")


def _shift(t, d, cutoff=0):
    kind = t[0]
    if kind == "var":
        return ("var", t[1] + d) if t[1] >= cutoff else t
    if kind in ("free", "const"):
        return t
    if kind == "pred":
        return ("pred", t[1], tuple(_shift(a, d, cutoff) for a in t[2]))
    if kind in _BINDERS:
        return (kind, _shift(t[1], d, cutoff + 1))
    if kind in _PAIRS:
        return (kind, _shift(t[1], d, cutoff), _shift(t[2], d, cutoff))
    if kind == "not":
        return ("not", _shift(t[1], d, cutoff))
    raise TypeError(t)


def _subst_index(t, j, s):
    """Contracting substitution: index j becomes s, higher indices drop."""
    kind = t[0]
    if kind == "var":
        if t[1] == j:
            return s
        return ("var", t[1] - 1) if t[1] > j else t
    if kind in ("free", "const"):
        return t
    if kind == "pred":
        return ("pred", t[1], tuple(_subst_index(a, j, s) for a in t[2]))
    if kind in _BINDERS:
        return (kind, _subst_index(t[1], j + 1, _shift(s, 1)))
    if kind in _PAIRS:
        return (kind, _subst_index(t[1], j, s), _subst_index(t[2], j, s))
    if kind == "not":
        return ("not", _subst_index(t[1], j, s))
    raise TypeError(t)


def db_subst_free(t, name, rep):
    """Replace free occurrences of ``name``; also rewrites a matching
    predicate head, mirroring the package's convention."""
    kind = t[0]
    if kind == "free":
        return rep if t[1] == name else t
    if kind in ("var", "const"):
        return t
    if kind == "pred":
        args = tuple(db_subst_free(a, name, rep) for a in t[2])
        if t[1] == name:
            if rep[0] in ("free", "const"):
                return ("pred", rep[1], args)
            spine = rep
            for a in args:
                spine = ("app", spine, a)
            return spine
        return ("pred", t[1], args)
    if kind in _BINDERS:
        return (kind, db_subst_free(t[1], name, _shift(rep, 1)))
    if kind in _PAIRS:
        return (kind, db_subst_free(t[1], name, rep),
                db_subst_free(t[2], name, rep))
    if kind == "not":
        return ("not", db_subst_free(t[1], name, rep))
    raise TypeError(t)


def _db_step_innermost(t):
    """One applicative-order step: children first, then the node itself."""
    kind = t[0]
    if kind in ("var", "free", "const"):
        return t, False
    if kind == "pred":
        for i, a in enumerate(t[2]):
            na, stepped = _db_step_innermost(a)
            if stepped:
                return ("pred", t[1], t[2][:i] + (na,) + t[2][i + 1:]), True
        return t, False
    if kind in _BINDERS:
        body, stepped = _db_step_innermost(t[1])
        return (kind, body), stepped
    if kind == "not":
        body, stepped = _db_step_innermost(t[1])
        return ("not", body), stepped
    if kind in ("and", "or", "implies"):
        left, stepped = _db_step_innermost(t[1])
        if stepped:
            return (kind, left, t[2]), True
        right, stepped = _db_step_innermost(t[2])
        return (kind, t[1], right), stepped
    # application: normalize operands, then contract
    fun, stepped = _db_step_innermost(t[1])
    if stepped:
        return ("app", fun, t[2]), True
    arg, stepped = _db_step_innermost(t[2])
    if stepped:
        return ("app", t[1], arg), True
    if t[1][0] == "lam":
        return _subst_index(t[1][1], 0, t[2]), True
    if t[1][0] == "const":
        return ("pred", t[1][1], (t[2],)), True
    if t[1][0] == "pred":
        return ("pred", t[1][1], t[1][2] + (t[2],)), True
    return t, False


def db_normal_form(t, budget=500):
    for _ in range(budget):
        t, stepped = _db_step_innermost(t)
        if not stepped:
            return t
    raise OracleBudgetError("no normal form within the oracle budget")


def count_free_occurrences(term, name):
    t = to_debruijn(term)

    def go(t):
        kind = t[0]
        if kind == "free":
            return 1 if t[1] == name else 0
        if kind in ("var", "const"):
            return 0
        if kind == "pred":
            return sum(go(a) for a in t[2])
        if kind in _BINDERS or kind == "not":
            return go(t[1])
        return go(t[1]) + go(t[2])
    return go(t)


# --- brute-force parsing -----------------------------------------------

def brute_force_roots(tokens, lexicon):
    """Signatures of every goal derivation, by exhaustive recursion.

    A signature is (rendered category, canonical semantics, sorted
    feature counts); the list carries multiplicity, so comparing it to
    the chart as a multiset checks packing and enumeration at once.
    """
    tokens = list(tokens)

    def closed(cat, sem, counts):
        items = [(cat, sem, counts)]
        made = unary_project(cat, sem)
        if made is not None:
            items.append((made[0], made[1], counts))
        return items

    def span(i, j):
        if j - i == 1:
            out = []
            for entry in lexicon.lookup(tokens[i]):
                out.extend(closed(entry.category, entry.semantics,
                                  Counter((entry.key,))))
            return out
        out = []
        for k in range(i + 1, j):
            for lcat, lsem, lcounts in span(i, k):
                for rcat, rsem, rcounts in span(k, j):
                    made = combine((lcat, lsem), (rcat, rsem))
                    if made is not None:
                        out.extend(closed(made[0], made[1],
                                          lcounts + rcounts))
        return out

    return [(render_category(cat), canonical(sem), tuple(sorted(counts.items())))
            for cat, sem, counts in span(0, len(tokens))
            if cat == GOAL_CATEGORY]


def derivation_signature(derivation):
    return (render_category(derivation.category),
            canonical(derivation.semantics),
            tuple(sorted(derivation.feature_counts().items())))


def walk(derivation):
    """Every node of a derivation, parent before kids."""
    yield derivation
    for kid in derivation.kids:
        yield from walk(kid)


def supporting(derivations, form):
    """The derivations whose semantics are ``form`` up to bound names, in
    their given order."""
    key = canonical(form)
    return tuple(d for d in derivations if canonical(d.semantics) == key)


# --- naive forward chaining --------------------------------------------

def naive_chain_atoms(kb, rules):
    """Positive atoms of the fixpoint, by full re-scan each round."""
    facts = [l for l in kb.literals if l.positive]
    atoms = {(l.predicate, l.args) for l in facts}
    blocked = {(l.predicate, l.args) for l in kb.literals if not l.positive}

    def bindings(body, binding):
        if not body:
            yield binding
            return
        pattern = body[0]
        for fact in list(facts):
            if fact.predicate != pattern.predicate:
                continue
            if len(fact.args) != len(pattern.args):
                continue
            extended = dict(binding)
            ok = True
            for p, f in zip(pattern.args, fact.args):
                if p[:1].isupper():
                    if extended.setdefault(p, f) != f:
                        ok = False
                        break
                elif p != f:
                    ok = False
                    break
            if ok:
                yield from bindings(body[1:], extended)

    changed = True
    while changed:
        changed = False
        for rule in rules:
            for binding in list(bindings(list(rule.body), {})):
                head = (rule.head.predicate,
                        tuple(binding.get(a, a) for a in rule.head.args))
                if head in atoms or head in blocked:
                    continue
                atoms.add(head)
                facts.append(type(rule.head)(True, head[0], head[1]))
                changed = True
    return atoms


def seminaive_chain_literals(kb, rules):
    """Closed literals in discovery order, from an unindexed semi-naive loop.

    Every body position scans the whole fact list and the pivot position
    keeps only facts from the previous round, so the order in which
    bindings, and hence derived facts, appear is the written join order
    over the facts in insertion order.
    """
    rules = list(rules)
    facts = [l for l in kb.literals if l.positive]
    known = {l.atom for l in facts}
    negative = {l.atom for l in kb.literals if not l.positive}
    delta = list(facts)
    derived = []
    while delta:
        fresh = []
        fresh_atoms = set()
        delta_set = {l.atom for l in delta}
        for rule in rules:
            for pivot in range(len(rule.body)):
                for binding in _scan_join(rule.body, 0, pivot, {}, facts,
                                          delta_set):
                    head = type(rule.head)(
                        rule.head.positive, rule.head.predicate,
                        tuple(binding.get(a, a) for a in rule.head.args))
                    if head.atom in known or head.atom in fresh_atoms:
                        continue
                    if head.atom in negative:
                        continue
                    fresh.append(head)
                    fresh_atoms.add(head.atom)
        facts.extend(fresh)
        known.update(fresh_atoms)
        derived.extend(fresh)
        delta = fresh
    return kb.literals + tuple(derived)


def _scan_join(body, index, pivot, binding, facts, delta_set):
    if index == len(body):
        yield binding
        return
    for fact in facts:
        if index == pivot and fact.atom not in delta_set:
            continue
        extended = _scan_match(body[index], fact, binding)
        if extended is not None:
            yield from _scan_join(body, index + 1, pivot, extended, facts,
                                  delta_set)


def _scan_match(pattern, fact, binding):
    if pattern.predicate != fact.predicate or len(pattern.args) != len(fact.args):
        return None
    out = dict(binding)
    for p, f in zip(pattern.args, fact.args):
        if p[:1].isupper():
            if out.setdefault(p, f) != f:
                return None
        elif p != f:
            return None
    return out


# --- gradients ----------------------------------------------------------

def analytic_gradient(corpus, lexicon):
    """Exact likelihood gradient, read off one unit-rate ascent step."""
    before = {e.key: e.weight for e in lexicon}
    after = train(corpus, lexicon,
                  TrainConfig(iterations=1, learning_rate=1.0, l2=0.0))
    return {key: after.weight_of(key) - before[key] for key in before}


def numeric_gradient(corpus, lexicon, eps=1e-5):
    base = {e.key: e.weight for e in lexicon}
    out = {}
    for key in base:
        up = dict(base)
        up[key] = base[key] + eps
        down = dict(base)
        down[key] = base[key] - eps
        out[key] = (log_likelihood(corpus, lexicon.with_weights(up))
                    - log_likelihood(corpus, lexicon.with_weights(down))) / (2 * eps)
    return out
