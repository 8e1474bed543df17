"""Canonical rule keys: exact variant equality with no cut-off.

The key is the least rendering over every order of same-shape body atoms.
`enumerated_key` computes that definition by brute force, trying every
order, and is the reference for the search in `syntax`.
"""

import random
import time
from itertools import permutations, product
from math import factorial

from hornalg import syntax
from hornalg.parser import parse_rule
from hornalg.syntax import (Atom, Compound, Program, Rule, Var, canonical_key,
                            cons, render_atom, rule_vars)
from hornalg.unify import apply

CASES = 3000


# ---------------------------------------------------------------------------
# reference: the key by enumerating every order of same-shape atoms


def _text(t, var_text):
    if isinstance(t, Var):
        return var_text(t)
    if t.functor == "nil" and not t.args:
        return "[]"
    if not t.args:
        return t.functor
    return t.functor + "(" + ",".join(_text(a, var_text) for a in t.args) + ")"


def _shape(a):
    seen = {}
    skeleton = ",".join(_text(t, lambda v: "_") for t in a.args)
    pattern = ",".join(_text(t, lambda v: seen.setdefault(v, f"#{len(seen)}")) for t in a.args)
    return a.pred + "(" + skeleton + ")", a.pred + "(" + pattern + ")"


def _rename(t, mapping):
    if isinstance(t, Var):
        name = len(mapping)
        return mapping.setdefault(t, Var(chr(65 + name) if name < 26 else f"_{len(str(name))}{name}"))
    return Compound(t.functor, tuple(_rename(a, mapping) for a in t.args))


def shape_groups(rule):
    groups = {}
    for a in rule.body:
        groups.setdefault(_shape(a), []).append(a)
    return [groups[k] for k in sorted(groups)]


def enumerated_orders(rule):
    n = 1
    for g in shape_groups(rule):
        n *= factorial(len(g))
    return n


def enumerated_key(rule):
    best = None
    for combo in product(*(permutations(g) for g in shape_groups(rule))):
        mapping = {}
        atoms = [Atom(a.pred, tuple(_rename(t, mapping) for t in a.args))
                 for a in (rule.head, *(a for g in combo for a in g))]
        text = render_atom(atoms[0])
        if len(atoms) > 1:
            text += " :- " + ", ".join(map(render_atom, atoms[1:]))
        best = text + "." if best is None else min(best, text + ".")
    return best


# ---------------------------------------------------------------------------
# rules


def rand_term(rng, names, depth):
    roll = rng.random()
    if roll < 0.9 or depth == 0:
        return Var(rng.choice(names)) if roll < 0.85 else Compound(rng.choice(("a", "nil")))
    if roll < 0.95:
        return cons(rand_term(rng, names, depth - 1), rand_term(rng, names, depth - 1))
    return Compound("f", (rand_term(rng, names, depth - 1),))


def rand_rule(rng, n_vars=6, max_body=7):
    """Mostly variable arguments, so that same-shape body atoms are common."""
    names = [f"X{i}" for i in range(rng.randint(1, n_vars))]
    preds = (("e", 2), ("q", 1), ("r", 3))[:rng.randint(1, 3)]

    def atom(pred, arity):
        return Atom(pred, tuple(rand_term(rng, names, 1) for _ in range(arity)))

    body = frozenset(atom(*rng.choice(preds)) for _ in range(rng.randint(1, max_body)))
    return Rule(atom("p", rng.randint(0, 2)), body)


def rand_ground_term(rng, depth):
    roll = rng.random()
    if roll < 0.4 or depth == 0:
        return Compound(rng.choice(("a", "b", "nil")))
    if roll < 0.8:
        return cons(rand_ground_term(rng, depth - 1), rand_ground_term(rng, depth - 1))
    return Compound("f", (rand_ground_term(rng, depth - 1),))


def rand_ground_rule(rng):
    """Lists, whose shape `cons(a,[])` sorts unlike their rendering `[a]`,
    `nil`, and 0-ary heads and body atoms."""
    def atom(pred, arity):
        return Atom(pred, tuple(rand_ground_term(rng, 2) for _ in range(arity)))

    preds = (("e", 2), ("q", 1), ("s", 0))
    body = frozenset(atom(*rng.choice(preds)) for _ in range(rng.randint(0, 5)))
    return Rule(atom("p", rng.randint(0, 2)), body)


def renamed(rule, rng):
    """A variant of `rule` under a random bijection onto fresh names; the
    body's iteration order changes with the names."""
    old = sorted(rule_vars(rule), key=lambda v: v.name)
    new = [Var(f"R{i}") for i in range(len(old))]
    rng.shuffle(new)
    return apply(dict(zip(old, new)), rule)


def is_variant(r1, r2):
    """Brute force: some bijection of variables maps r1 onto r2."""
    v1, v2 = sorted(rule_vars(r1), key=repr), sorted(rule_vars(r2), key=repr)
    return len(v1) == len(v2) and any(
        apply(dict(zip(v1, image)), r1) == r2 for image in permutations(v2))


def e(x, y):
    return Atom("e", (Var(x), Var(y)))


def rule_of(body, head=()):
    return Rule(Atom("p", tuple(Var(v) for v in head)), frozenset(body))


FAMILIES = {
    "chain-9": rule_of([e(f"X{i}", f"X{i + 1}") for i in range(9)]),
    "chain-14": rule_of([e(f"X{i}", f"X{i + 1}") for i in range(14)]),
    "headed chain-10": rule_of([e(f"X{i}", f"X{i + 1}") for i in range(10)], head=["X5"]),
    "cycle-10": rule_of([e(f"X{i}", f"X{(i + 1) % 10}") for i in range(10)]),
    "two cycles of 4": rule_of([e(f"{c}{i}", f"{c}{(i + 1) % 4}") for c in "XY" for i in range(4)]),
    "star-12": rule_of([e("C", f"X{i}") for i in range(12)]),
    "in-out star-10": rule_of([e("C", f"X{i}") for i in range(5)] + [e(f"Y{i}", "C") for i in range(5)]),
    "directed 5-clique": rule_of([e(f"X{i}", f"X{j}") for i in range(5) for j in range(5) if i != j]),
    "6-clique": rule_of([e(f"X{i}", f"X{j}") for i in range(6) for j in range(i + 1, 6)]),
    "10 disjoint e/2": rule_of([e(f"X{i}", f"Y{i}") for i in range(10)]),
    "40 disjoint e/2": rule_of([e(f"X{i}", f"Y{i}") for i in range(40)]),
}


# ---------------------------------------------------------------------------
# tests


def test_key_is_the_least_enumerated_rendering():
    rng, ground_rng = random.Random(6), random.Random(7)
    tied = unlike = 0
    for _ in range(CASES):
        rule = rand_rule(rng)  # at most 7 body atoms, so at most 7! orders
        assert canonical_key(rule) == enumerated_key(rule), rule
        tied += enumerated_orders(rule) > 1
        ground = rand_ground_rule(ground_rng)
        assert canonical_key(ground) == enumerated_key(ground), ground
        unlike += sorted(ground.body, key=_shape) != sorted(ground.body, key=render_atom)
    assert tied > CASES * 0.4 and unlike > CASES * 0.1


def test_ground_skeleton_is_the_shape_skeleton():
    # Ground keys sort body atoms by a walk that works out no pattern; it
    # must give `_shape`'s skeleton, lists as `cons(...)` and nil as `[]`.
    rng = random.Random(8)
    atoms = [a for _ in range(CASES) for r in [rand_ground_rule(rng)] for a in (r.head, *r.body)]
    assert all(syntax._ground_skeleton(a) == syntax._shape(a)[0] for a in atoms)
    assert any("cons(" in syntax._ground_skeleton(a) for a in atoms)


def test_variants_past_seven_factorial_orders_share_one_key():
    rng = random.Random(11)
    for name, rule in FAMILIES.items():
        assert enumerated_orders(rule) > 5040, name
        key = canonical_key(rule)
        for _ in range(2):
            twin = renamed(rule, rng)
            assert canonical_key(twin) == key, name
            assert len(Program([rule, twin])) == 1, name


def test_keys_differ_exactly_for_non_variants():
    rng = random.Random(12)
    same = different = 0
    for _ in range(CASES):
        r1 = rand_rule(rng, n_vars=4, max_body=4)
        if rng.random() < 0.5:
            r2 = rand_rule(rng, n_vars=4, max_body=4)
        else:  # a variant, perhaps with one argument list reversed
            r2 = renamed(r1, rng)
            if r2.body and rng.random() < 0.7:
                a = rng.choice(sorted(r2.body, key=render_atom))
                r2 = Rule(r2.head, (r2.body - {a}) | {Atom(a.pred, a.args[::-1])})
        variant = is_variant(r1, r2)
        assert (canonical_key(r1) == canonical_key(r2)) == variant, (r1, r2)
        same += variant
        different += not variant
    assert same > CASES * 0.3 and different > CASES * 0.3


def test_renamed_shuffled_chain_of_eight_is_one_rule():
    r1 = parse_rule("p(X0) :- " + ", ".join(f"e(X{i},X{i + 1})" for i in range(8)) + ".")
    shuffled = [6, 2, 7, 0, 4, 1, 5, 3]
    r2 = parse_rule("p(Y3) :- " + ", ".join(
        f"e(Y{(i + 3) % 9},Y{(i + 4) % 9})" for i in shuffled) + ".")
    assert canonical_key(r1) == canonical_key(r2)
    assert len(Program([r1, r2])) == 1


def test_chain_past_twenty_six_variables_is_keyed_quickly():
    # Names past Z sort after it and in the order given, so no unnamed atom
    # of the chain ties with the next link.
    r1 = rule_of([e(f"X{i}", f"X{i + 1}") for i in range(150)], head=["X0"])
    r2 = renamed(r1, random.Random(5))
    started = time.perf_counter()
    assert canonical_key(r1) == canonical_key(r2)
    assert time.perf_counter() - started < 2.0


def test_long_body_of_distinct_predicates_is_keyed_without_recursion():
    n = 3000
    body = [Atom(f"q{i}", (Var(f"X{i}"), Var(f"X{i + 1}"))) for i in range(n)]
    r1 = rule_of(body, head=["X0"])
    r2 = renamed(r1, random.Random(3))
    assert canonical_key(r1) == canonical_key(r2)
    assert len(canonical_key(r1).split(" :- ")[1].split(", ")) == n
