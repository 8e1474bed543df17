"""Randomized law checks.  Each suite runs at least 500 pinned-seed cases."""

import contextlib
import copy
import pickle
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, islice, product

import pytest

from hornalg import algebra, corpus, sld
from hornalg.algebra import compose, concatenate, omega
from hornalg.errors import (
    BudgetError,
    CompositionOverflowError,
    FixpointBudgetError,
    FormEvalError,
    ProportionError,
)
from hornalg.forms import (PROBE_PROGRAMS, Evaluator, form_to_text, free_vars, is_nonconstant,
                          make_binding)
from hornalg.parser import parse_program
from hornalg.proportion import (
    DomainSig,
    ProportionProblem,
    ProportionWitness,
    SolveBudget,
    check_proportion,
    fixed_material_offences,
    form_pool,
    solve_proportion,
    vector_pool,
)
from hornalg.semantics import (
    GroundingBound,
    closed_instances,
    ground,
    herbrand_universe,
    least_model,
    list_universe,
    ordered_subterms,
    tp_step,
)
from hornalg.sld import DerivationStep, Query, answer_substitution, proves, render_trace
from hornalg.syntax import (NIL, Atom, Compound, Program, Rule, Var, atom_vars, body_order,
                            canonical_key, cons, is_ground, program_vars_ordered, render_atom,
                            render_program, rule_vars, term_vars)
from hornalg.unify import FreshNames, apply, fresh_variant, mgu_atoms

CASES = 500


# ---------------------------------------------------------------------------
# random program generators


def rand_term(rng, depth):
    roll = rng.random()
    if roll < 0.35:
        return Var(rng.choice(("X", "Y")))
    if roll < 0.65 or depth == 0:
        return Compound(rng.choice(("0", "a")))
    if roll < 0.9:
        return Compound("f", (rand_term(rng, depth - 1),))
    return Compound("g", (rand_term(rng, depth - 1), rand_term(rng, depth - 1)))


def rand_atom(rng, depth=1):
    pred, arity = rng.choice((("p", 1), ("q", 1), ("r", 2)))
    return Atom(pred, tuple(rand_term(rng, depth) for _ in range(arity)))


def rand_rule(rng, max_body=2, depth=1):
    body = frozenset(rand_atom(rng, depth) for _ in range(rng.randint(0, max_body)))
    return Rule(rand_atom(rng, depth), body)


def rand_program(rng, max_rules=2, max_body=2, depth=1):
    return Program(rand_rule(rng, max_body, depth) for _ in range(rng.randint(1, max_rules)))


def rand_ground_atom(rng, universe):
    pred, arity = rng.choice((("p", 1), ("q", 1), ("r", 2)))
    return Atom(pred, tuple(rng.choice(universe) for _ in range(arity)))


# ---------------------------------------------------------------------------
# 1. composition is associative up to variants


def test_compose_associativity():
    rng = random.Random(1101)
    checked = 0
    for _ in range(CASES):
        a = rand_program(rng)
        b = rand_program(rng)
        c = rand_program(rng)
        try:
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
        except CompositionOverflowError:
            continue
        assert left == right, (render_program(a), render_program(b), render_program(c))
        checked += 1
    assert checked >= CASES * 0.95


# ---------------------------------------------------------------------------
# 1b. the head index of compose emits what offering every rule emits


def reference_compose(p, r, cap=100_000, copies=None):
    """Composition with no head index: every rule of r is offered to every
    goal, and every rule with variables is copied apart before it is
    unified.  `copies`, a Counter, counts the copies made."""
    fresh = FreshNames(prefix="_C")
    fresh.reserve(v.name for v in program_vars_ordered(p))
    fresh.reserve(v.name for v in program_vars_ordered(r))
    out = []

    def assign(rho, goals, theta, bodies):
        if not goals:
            out.append(Rule(apply(theta, rho.head), frozenset(apply(theta, a) for a in bodies)))
            if len(out) > cap:
                raise CompositionOverflowError(cap)
            return
        for cand in r:
            if rule_vars(cand):
                cand = apply({v: fresh.fresh() for v in rule_vars(cand)}, cand)
                if copies is not None:
                    copies["copies"] += 1
            s = mgu_atoms(apply(theta, goals[0]), cand.head)
            if s is not None:
                composed = {v: apply(s, t) for v, t in theta.items()}
                assign(rho, goals[1:], {**s, **composed}, bodies + body_order(cand))

    for rho in p:
        assign(rho, body_order(rho), {}, ())
    return Program(out)


_SIGNATURES = (("p", 0), ("q", 1), ("q", 2), ("r", 2))


def _rand_sig_program(rng):
    """Rules over predicates that share a name but not an arity, or
    neither, one of them 0-ary; about half the drawn rules are ground.  A
    rule with a repeated head variable and one with a variable only in its
    body are often added."""
    def atom(p_var):
        pred, arity = rng.choice(_SIGNATURES)
        return Atom(pred, tuple(rand_open_term(rng, 1, False, p_var) for _ in range(arity)))

    rules = []
    for _ in range(rng.randint(1, 4)):
        p_var = rng.choice((0.0, 0.4))
        rules.append(Rule(atom(p_var), frozenset(atom(p_var) for _ in range(rng.randint(0, 2)))))
    if rng.random() < 0.4:
        x = Var(rng.choice(("X", "Y")))
        rules.append(Rule(Atom(rng.choice(("q", "r")), (x, x)),
                          frozenset(atom(0.0) for _ in range(rng.randint(0, 1)))))
    if rng.random() < 0.4:
        body = Atom("r", (rand_open_term(rng, 1, False, 0.0), Var("W")))
        rules.append(Rule(atom(0.0), frozenset([body])))
    return Program(rules)


def test_compose_matches_offering_every_rule(monkeypatch):
    rng = random.Random(1111)
    copies = Counter()
    fresh_variant, unify_atoms = algebra.fresh_variant, algebra._unify_atoms
    copied_heads = {}  # id -> the head of a copy compose made

    def counted_fresh_variant(rule, fresh):
        copies["index"] += 1
        copy = fresh_variant(rule, fresh)
        copied_heads[id(copy.head)] = copy.head
        return copy

    def counted_unify_atoms(goal, head, s):
        ground = next(term_vars(*goal.args, *head.args), None) is None
        copies["ground rule unified"] += ground and id(head) not in copied_heads
        return unify_atoms(goal, head, s)

    monkeypatch.setattr(algebra, "fresh_variant", counted_fresh_variant)
    monkeypatch.setattr(algebra, "_unify_atoms", counted_unify_atoms)
    for _ in range(CASES):
        p, r = _rand_sig_program(rng), _rand_sig_program(rng)
        shown = (render_program(p), render_program(r))
        heads = {c.head for c in r if not rule_vars(c)}
        copies["ground lane"] += sum(g in heads for rho in p for g in rho.body)
        for cap in (2, 100_000):
            try:
                expected = reference_compose(p, r, cap, copies)
            except CompositionOverflowError:
                with pytest.raises(CompositionOverflowError):
                    compose(p, r, cap=cap)
                copies["overflow"] += 1
                continue
            got = compose(p, r, cap=cap)
            assert render_program(got) == render_program(expected), (cap, shown)
            assert len(got) == len(expected), (cap, shown)
            copies["equal"] += 1
    assert copies["equal"] > CASES and copies["overflow"] > CASES // 20, copies
    # the index skips rules whose head cannot resolve the goal
    assert copies["index"] < copies["copies"], copies
    # a ground goal takes a ground rule's body with no unification: only
    # copies of rules with variables are unified
    assert copies["ground lane"] > CASES // 10 and copies["ground rule unified"] == 0, copies


# ---------------------------------------------------------------------------
# 2. concatenation is associative


def test_concat_associativity():
    rng = random.Random(1202)
    for _ in range(CASES):
        a = rand_program(rng)
        b = rand_program(rng)
        c = rand_program(rng)
        left = concatenate(concatenate(a, b), c)
        right = concatenate(a, concatenate(b, c))
        assert left == right, (render_program(a), render_program(b), render_program(c))


# ---------------------------------------------------------------------------
# 3. one bottom-up step equals composing the grounding with the input facts


def test_tp_step_matches_composition_with_facts():
    rng = random.Random(1303)
    bound = GroundingBound(max_term_depth=1)
    seen = Counter()
    for _ in range(CASES):
        p = rand_program(rng, max_rules=2, max_body=2, depth=1)
        if rng.random() < 0.5:  # a rule with a condition that a head of p can meet
            h = rng.choice(list(p)).head
            p = p | Program([Rule(rand_atom(rng), {Atom(h.pred, (Var("V"), Var("W"))[:h.arity])})])
        universe = sorted(herbrand_universe(p, bound), key=str)
        n_atoms = rng.randint(0, 4) if universe else 0
        i = frozenset(rand_ground_atom(rng, universe) for _ in range(n_atoms))
        stepped = tp_step(p, i, bound)
        composed = compose(ground(p, bound), Program(Rule(a) for a in sorted(i, key=str)))
        assert all(r.is_fact for r in composed)
        assert stepped == frozenset(r.head for r in composed), render_program(p)
        seen.update(_condition_kinds(p, bound, i, i | stepped))
    assert all(seen[k] > CASES // 10 for k in ("at_once", "later", "never")), seen


# ---------------------------------------------------------------------------
# 4. the bounded least model is the omega closure of the grounding


def _omega_by_powers(p, cap, compose_cap=algebra.DEFAULT_COMPOSE_CAP):
    """omega as the paper writes it, plus_closure(p) ∘ ∅: every power of p,
    their union, then the facts; the reference for `omega`'s fact route."""
    return compose(algebra.plus_closure(p, cap, compose_cap), Program(), cap=compose_cap)


def _or_none(route, *args):
    try:
        return route(*args)
    except (FixpointBudgetError, CompositionOverflowError):
        return None


def test_least_model_matches_omega_of_grounding():
    # Both routes to omega give the least model of the grounding, and the fact
    # route returns wherever the power route does.
    rng = random.Random(1404)
    bound = GroundingBound(max_term_depth=1)
    checked = 0
    attempts = 0
    while checked < CASES and attempts < CASES * 4:
        attempts += 1
        p = rand_program(rng, max_rules=3, max_body=2, depth=1)
        g = ground(p, bound)
        model = least_model(p, bound)
        closure = _or_none(omega, g, 40)
        if closure is not None:
            assert all(r.is_fact for r in closure)
            assert frozenset(r.head for r in closure) == model, render_program(p)
        reference = _or_none(_omega_by_powers, g, 40)
        if reference is None:
            continue
        assert closure == reference, render_program(p)
        checked += 1
    assert checked == CASES


def test_omega_matches_the_power_route_on_open_programs():
    # On programs with variables the powers need not stabilise where the facts
    # do (`p(X) :- p(f(X)). q.`), so the fact route may return where the power
    # route raises, but never the other way, and never with another program.
    rng = random.Random(1405)
    outcomes = Counter()
    for _ in range(CASES):
        p = rand_program(rng, max_rules=3, max_body=2, depth=1)
        facts, powers = (_or_none(route, p, 3, 200) for route in (omega, _omega_by_powers))
        if powers is not None:
            assert facts == powers, render_program(p)
        outcomes[facts is not None, powers is not None] += 1
    assert outcomes[False, True] == 0
    assert outcomes[True, False] > 0 and outcomes[True, True] > CASES * 9 // 10, outcomes


# ---------------------------------------------------------------------------
# 4b. the least model is the naive fixpoint of the grounding, over list
# universes and at Herbrand depth 2


# one term deeper than each kind of universe the suite uses
_OUTSIDE = {False: Compound("f", (Compound("f", (Compound("f", (Compound("a"),)),)),)),
            True: cons(Compound("a"), cons(Compound("a"), cons(Compound("a"), NIL)))}


def rand_open_term(rng, depth, lists, p_var=0.4, names=("X", "Y", "U")):
    if rng.random() < p_var:
        return Var(rng.choice(names))
    roll = rng.random()
    if roll < 0.4 or depth == 0:
        return Compound(rng.choice(("a", "b", "nil") if lists else ("a", "0")))
    if lists and roll < 0.75:
        return cons(rand_open_term(rng, depth - 1, lists, names=names),
                    rand_open_term(rng, depth - 1, lists, names=names))
    return Compound("f", (rand_open_term(rng, depth - 1, lists, names=names),))


def rand_open_program(rng, lists, conditions=False):
    """Rules whose heads often carry variables the body leaves open, nested
    in lists or f(...), plus variable-free rules over atoms outside any
    of the suite's universes.  With `conditions`, some bodies get a
    condition, an atom s(...) over variables no head has (V, W), which the
    rules that derive s from p and r atoms can meet only from the second
    round on."""
    def atom(depth=2, p_var=0.4):
        pred, arity = rng.choice((("p", 1), ("r", 2)))
        return Atom(pred, tuple(rand_open_term(rng, depth, lists, p_var) for _ in range(arity)))

    rules = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.2:
            outside = Atom("p", (_OUTSIDE[lists],))
            rules.append(rng.choice((Rule(outside), Rule(atom(0), {outside}))))
        else:
            body = {atom(1, 0.6) for _ in range(rng.randint(0, 2))}
            if conditions and rng.random() < 0.3:
                body.add(Atom("s", (rand_open_term(rng, 1, lists, 0.7, ("V", "W")),)))
            rules.append(Rule(atom(), frozenset(body)))
    if any(a.pred == "s" for r in rules for a in r.body):
        rules += [Rule(Atom("s", (Var("X"),)), {Atom("p", (Var("X"),))}),
                  Rule(Atom("s", (Var("X"),)), {Atom("r", (Var("X"), Var("Y")))})]
    return Program(rules)


def naive_fixpoint(g):
    model = set()
    while True:
        step = {r.head for r in g if r.body <= model}
        if step <= model:
            return frozenset(model)
        model |= step


def _nested_head_only(rule):
    open_vars = set(atom_vars(rule.head)).difference(*map(atom_vars, rule.body))
    return any(not isinstance(t, Var) and not open_vars.isdisjoint(term_vars(t))
               for t in rule.head.args)


def _conditions(rule):
    """The body parts that no chain of shared variables links to the head,
    each a set of atoms; the head's part is marked by None."""
    parts = [(set(atom_vars(rule.head)), {None})]
    for a in rule.body:
        vs = set(atom_vars(a))
        joined = [q for q in parts if vs & q[0]]
        parts = [q for q in parts if not vs & q[0]]
        parts.append((vs.union(*(q[0] for q in joined)), {a}.union(*(q[1] for q in joined))))
    return [atoms for _, atoms in parts if None not in atoms]


def _condition_kinds(p, bound, first, last):
    """The kinds of condition in p's rules with variables: "at_once" for one
    with a universe-closed instance inside `first`, "later" for one with
    such an instance only inside `last`, "never" for one with neither.
    Instances come from `closed_instances`, not from a matcher."""
    universe = herbrand_universe(p, bound)
    subterms = ordered_subterms(universe)
    kinds = set()
    for rule in p:
        for atoms in _conditions(rule) if rule_vars(rule) else ():
            bodies = [r.body for r in closed_instances(Rule(Atom("c"), atoms), universe, subterms)]
            kinds.add("at_once" if any(b <= first for b in bodies) else
                      "later" if any(b <= last for b in bodies) else "never")
    return kinds


def test_least_model_matches_fixpoint_of_grounding():
    rng = random.Random(1414)
    seen = Counter()
    for i in range(CASES):
        lists = i % 2 == 0
        p = rand_open_program(rng, lists, conditions=True)
        if lists:
            bound = GroundingBound(universe=list_universe(rng.choice(("a", "ab")), rng.randint(1, 2)))
        else:
            bound = GroundingBound(max_term_depth=2)
        g = ground(p, bound)
        model = least_model(p, bound)
        assert model == naive_fixpoint(g), render_program(p)
        universe = herbrand_universe(p, bound)
        seen["nested_head_only"] += any(_nested_head_only(r) for r in p)
        seen["outside"] += any(not all(t in universe for t in a.args) for a in model)
        seen["derived"] += model != {r.head for r in g if r.is_fact}
        seen.update(_condition_kinds(p, bound, {r.head for r in g if r.is_fact}, model))
    assert all(seen[k] > CASES // 10 for k in ("nested_head_only", "outside", "derived")), seen
    assert all(seen[k] > CASES // 10 for k in ("at_once", "later", "never")), seen


# ---------------------------------------------------------------------------
# 4c. the pruned walk of `closed_instances` yields the filtered product, in
# its order


def _reference_instances(rule, universe, subterms):
    """Every assignment of `subterms` to the rule's variables, in product
    order, applied, then kept when its argument terms lie in the universe."""
    rvars = rule_vars(rule)
    if not rvars:
        yield rule
        return
    for combo in product(subterms, repeat=len(rvars)):
        inst = apply(dict(zip(rvars, combo)), rule)
        if all(t in universe for a in (inst.head, *inst.body) for t in a.args):
            yield inst


def _reference_counterinstance(p, rule, bound, max_depth):
    universe = herbrand_universe(p | Program([rule]), bound)
    for inst in _reference_instances(rule, universe, ordered_subterms(universe)):
        if (all(proves(p, b, max_depth) for b in sorted(inst.body, key=render_atom))
                and not proves(p, inst.head, max_depth)):
            return inst
    return None


def _rand_instance_rule(rng, lists):
    """Atoms of arity 0 to 2 whose arguments are often ground and whose
    variables (X, Y, U) often repeat."""
    def atom():
        pred, arity = rng.choice((("e", 0), ("p", 1), ("r", 2)))
        return Atom(pred, tuple(rand_open_term(rng, 2, lists) for _ in range(arity)))

    return Rule(atom(), frozenset(atom() for _ in range(rng.randint(0, 2))))


def test_closed_instances_match_the_filtered_product():
    rng = random.Random(1717)
    seen = Counter()
    for i in range(CASES):
        lists = i % 2 == 0
        rule = _rand_instance_rule(rng, lists)
        if lists:
            bound = GroundingBound(universe=list_universe(rng.choice(("a", "ab")), rng.randint(0, 2)))
        else:
            bound = GroundingBound(max_term_depth=rng.randint(0, 2), constants=frozenset({"0", "a"}))
        universe = herbrand_universe(Program([rule]), bound)
        if i % 4 < 2:  # drop constants but keep the terms built from them
            universe = frozenset(t for t in universe if t.args or rng.random() < 0.5)
        subterms = ordered_subterms(universe)
        got = list(closed_instances(rule, universe, subterms))
        assert got == list(_reference_instances(rule, universe, subterms)), repr(rule)
        if rule_vars(rule):
            assert all(is_ground(inst) and rule_vars(inst) == () for inst in got)
        seen["instances"] += bool(got)
        seen["none"] += not got
        seen["not_subterm_closed"] += len(subterms) > len(universe)
        args = [t for a in (rule.head, *rule.body) for t in a.args]
        seen["repeated_var"] += len(list(term_vars(*args))) > len(rule_vars(rule))
        seen["ground_arg"] += any(next(term_vars(t), None) is None for t in args)
        seen["zero_ary"] += any(a.arity == 0 for a in (rule.head, *rule.body))

        p = rand_open_program(rng, lists)
        max_depth = rng.randint(0, 3)
        counter = sld.find_rule_counterinstance(p, rule, bound, max_depth)
        assert counter == _reference_counterinstance(p, rule, bound, max_depth), render_program(p)
        seen["counter"] += counter is not None
    assert all(n > CASES // 10 for n in seen.values()), seen


# ---------------------------------------------------------------------------
# 5. goal-directed proof agrees with the least model at matched bounds


def _nat_universe(max_depth):
    out = [Compound("0")]
    for _ in range(max_depth):
        out.append(Compound("s", (out[-1],)))
    return frozenset(out)


_AGREEMENT_SETUPS = [
    ("nat", GroundingBound(max_term_depth=4), 6),
    ("even", GroundingBound(max_term_depth=4), 4),
    ("plus", GroundingBound(max_term_depth=3), 8),
    ("times_nat", GroundingBound(max_term_depth=2), 8),
    ("member", GroundingBound(universe=list_universe("ab", 2)), 4),
    ("pluslist", GroundingBound(universe=list_universe("ab", 2)), 6),
    ("pluslist_prime", GroundingBound(universe=list_universe("ab", 2)), 6),
    ("plus_list_inst", GroundingBound(universe=list_universe("ab", 2)), 6),
    ("reverse", GroundingBound(universe=list_universe("ab", 2)), 8),
    ("length", GroundingBound(universe=list_universe("a", 2) | _nat_universe(2)), 6),
]


def test_sld_and_least_model_agree():
    rng = random.Random(1505)
    prepared = []
    for name, bound, depth in _AGREEMENT_SETUPS:
        p = corpus.program(name)
        lm = least_model(p, bound)
        universe = sorted(herbrand_universe(p, bound), key=str)
        space = sorted({(a.pred, a.arity) for a in lm})
        prepared.append((name, p, lm, universe, space, depth))
    per_program = CASES // len(prepared) + 1
    for name, p, lm, universe, space, depth in prepared:
        members = sorted(lm, key=str)
        for i in range(per_program):
            if i % 2 == 0 and members:
                atom = members[rng.randrange(len(members))]
            else:
                pred, arity = space[rng.randrange(len(space))]
                atom = Atom(pred, tuple(
                    universe[rng.randrange(len(universe))] for _ in range(arity)
                ))
            expected = atom in lm
            assert proves(p, atom, max_depth=depth) == expected, (name, atom)


# ---------------------------------------------------------------------------
# 5b. breadth-first SLD search with its clash test and early exit gives the
# proofs of plain iterative deepening


def _reference_steps(p, q, fresh):
    """The steps below q, rule by rule, with no clash test: every rule of
    the goal's predicate is renamed and unified; its body goes first in
    `body_order`."""
    goal = q.goals[0]
    for rule in p:
        if rule.head.pred != goal.pred or rule.head.arity != goal.arity:
            continue
        renaming = {v: fresh.fresh() for v in rule_vars(rule)}
        s = mgu_atoms(goal, apply(renaming, rule.head))
        if s is None:
            continue
        inserted = tuple(apply(renaming, a) for a in body_order(rule))
        resolvent = Query(tuple(apply(s, g) for g in inserted + q.goals[1:]))
        yield DerivationStep(apply(renaming, rule), s, "", resolvent)


def _reference_dfs(p, q, remaining, fresh):
    """Depth-bounded SLD over `_reference_steps`."""
    if q.is_empty:
        return []
    if remaining == 0:
        return None
    for step in _reference_steps(p, q, fresh):
        rest = _reference_dfs(p, step.resolvent, remaining - 1, fresh)
        if rest is not None:
            return [step] + rest
    return None


def _reference_names(p, q):
    fresh = FreshNames(prefix="_S")
    fresh.reserve(v.name for v in program_vars_ordered(p))
    fresh.reserve(v.name for g in q.goals for v in atom_vars(g))
    return fresh


def _reference_proof(p, q, max_depth):
    """Plain iterative deepening: every bound up to `max_depth` is run
    until one gives a proof."""
    fresh = _reference_names(p, q)
    for limit in range(max_depth + 1):
        steps = _reference_dfs(p, q, limit, fresh)
        if steps is not None:
            return steps
    return None


def _reference_too_wide(p, q, levels, cap):
    """Whether one of the first `levels` levels below q, counted by a plain
    breadth-first walk over `_reference_steps`, holds more than `cap`
    non-empty resolvents."""
    fresh, level = _reference_names(p, q), [q]
    for _ in range(levels):
        if len(level) > cap:
            return True
        level = [st.resolvent for node in level for st in _reference_steps(p, node, fresh)
                 if not st.resolvent.is_empty]
    return False


def _rand_goal(rng, p, lists, p_var):
    """A random atom, or an instance of a random rule head of `p`."""
    if rng.random() < 0.5:
        head = rng.choice(list(p)).head
        return apply({v: rand_open_term(rng, 1, lists, p_var) for v in atom_vars(head)}, head)
    pred, arity = rng.choice((("p", 1), ("r", 2)))
    return Atom(pred, tuple(rand_open_term(rng, 2, lists, p_var) for _ in range(arity)))


def _shown(steps, q):
    return None if steps is None else (render_trace(steps, q), answer_substitution(steps, q))


def _sld_cases():
    """CASES seeded (program, query, max_depth) triples."""
    rng = random.Random(1606)
    for i in range(CASES):
        lists = i % 2 == 0
        p = rand_open_program(rng, lists)
        query = Query(tuple(_rand_goal(rng, p, lists, 0.3 * (i % 3))
                            for _ in range(rng.randint(1, 2))))
        yield p, query, rng.randint(0, 8)


def test_sld_search_matches_plain_iterative_deepening(monkeypatch):
    # A failed search that makes as many copies at max_depth + 3 as at
    # max_depth has exited early: some level within the bound was empty.
    seen = Counter()
    clashes, copies = sld._clashes, []

    def counted_clashes(s, t):
        out = clashes(s, t)
        seen["clash"] += out
        return out

    def counted_copy(rule, fresh):
        copies.append(rule)
        return fresh_variant(rule, fresh)

    monkeypatch.setattr(sld, "_clashes", counted_clashes)
    monkeypatch.setattr(sld, "fresh_variant", counted_copy)
    for p, query, max_depth in _sld_cases():
        copies.clear()
        steps = sld.prove_with_trace(p, query, max_depth)
        expected = _reference_proof(p, query, max_depth)
        assert _shown(steps, query) == _shown(expected, query), (render_program(p), query)
        seen["proved"] += steps is not None
        seen["open_goal"] += steps is not None and bool(answer_substitution(steps, query))
        if steps is None:
            made = len(copies)
            copies.clear()
            with contextlib.suppress(BudgetError):  # a wide level is no early exit
                sld.prove_with_trace(p, query, max_depth + 3)
            seen["early_exit"] += len(copies) == made
    assert all(seen[k] > CASES // 10 for k in ("proved", "open_goal", "early_exit")), seen
    assert seen["clash"], seen


@pytest.mark.parametrize("cap", [1, 3])
def test_sld_search_raises_exactly_past_a_small_frontier_cap(monkeypatch, cap):
    # The levels expanded are those above the proof and within the bound;
    # the search raises where one of them is wider than the cap.
    monkeypatch.setattr(sld, "_FRONTIER_CAP", cap)
    seen = Counter()
    for p, query, max_depth in _sld_cases():
        expected = _reference_proof(p, query, max_depth)
        levels = max_depth if expected is None else len(expected)
        if _reference_too_wide(p, query, levels, cap):
            with pytest.raises(BudgetError, match=f"more than the frontier cap of {cap}$"):
                sld.prove_with_trace(p, query, max_depth)
            seen["raised"] += 1
        else:
            steps = sld.prove_with_trace(p, query, max_depth)
            assert _shown(steps, query) == _shown(expected, query), (render_program(p), query)
            seen["proved"] += steps is not None
    assert seen["raised"] > CASES // 20 and seen["proved"] > CASES // 20, seen


def _small_programs():
    """Every program of one rule, and of two rules one of which is a fact,
    over p/1 and q/1 with arguments a, X, Y, f(a), f(X) and f(Y) and bodies
    of at most two atoms, rules told apart by `canonical_key`.  A program
    with no fact proves nothing, since each step leaves a goal, so the two
    rules with bodies are left out."""
    args = [Compound("a"), Var("X"), Var("Y")]
    args += [Compound("f", (t,)) for t in args]
    atoms = [Atom(pred, (t,)) for pred in ("p", "q") for t in args]
    bodies = [()] + [(a,) for a in atoms] + list(combinations(atoms, 2))
    rules = {}
    for head, body in product(atoms, bodies):
        rule = Rule(head, frozenset(body))
        rules.setdefault(canonical_key(rule), rule)
    pairs = [[r, s] for r, s in combinations(rules.values(), 2) if not (r.body and s.body)]
    return [Program(rs) for rs in [[r] for r in rules.values()] + pairs]


def test_sld_search_matches_plain_deepening_on_every_small_program():
    programs = _small_programs()
    goals = [Query((Atom("p", (t,)),)) for t in (Var("X"), Compound("f", (Compound("a"),)))]
    proved = 0
    for p, q in product(programs, goals):
        steps = sld.prove_with_trace(p, q, 4)
        assert _shown(steps, q) == _shown(_reference_proof(p, q, 4), q), (render_program(p), q)
        proved += steps is not None
    assert (len(programs), proved) == (4500, 3838)


# ---------------------------------------------------------------------------
# 6. every solver answer passes independent verification


def _rand_prop_program(rng, preds, max_rules=2, max_atoms=3):
    rules = []
    atoms = 0
    for _ in range(rng.randint(1, max_rules)):
        head = Atom(rng.choice(preds), ())
        body_size = rng.randint(0, 1)
        body = frozenset(Atom(rng.choice(preds), ()) for _ in range(body_size))
        atoms += 1 + len(body)
        if atoms > max_atoms:
            break
        rules.append(Rule(head, body))
    return Program(rules)


def _rand_problem(rng, target_preds=("c", "d")):
    source = DomainSig("A", frozenset({"a", "b"}), frozenset())
    target = DomainSig("B", frozenset(target_preds), frozenset())
    p = _rand_prop_program(rng, ("a", "b"))
    q = _rand_prop_program(rng, ("a", "b"))
    r = _rand_prop_program(rng, target_preds)
    return ProportionProblem(p, q, r, source, target)


def test_solver_answers_verify():
    rng = random.Random(1606)
    budget = SolveBudget(max_form_depth=1, max_vector_rules=2, max_solutions=16)
    solved = 0
    for _ in range(CASES):
        problem = _rand_problem(rng)
        for sol in solve_proportion(problem, budget):
            report = check_proportion(problem, sol.witness, s=sol.s,
                                      evaluator=Evaluator())
            assert report.ok, render_program(sol.s)
            solved += 1
    assert solved > 0


# ---------------------------------------------------------------------------
# 7. the solver equals a brute-force search on propositional problems


def _oracle_solutions(problem, budget, rejections=None):
    """Exhaustive enumeration sharing only the pools and the checker with
    the solver; candidate generation and pruning are reimplemented.  The
    codes of the items failing on each rejected candidate, and `dominated`
    for each verified candidate that domination drops, are counted into
    `rejections` when it is given."""
    ev = Evaluator()
    forms = form_pool(problem, budget)
    svecs = vector_pool((problem.p | problem.q).rules, budget)
    tvecs = vector_pool(problem.r.rules, budget)

    def values_on(prog):
        out = []
        for fm in forms:
            try:
                out.append(ev.eval(fm, {"X1": make_binding(prog)}))
            except (FormEvalError, BudgetError):
                out.append(None)
        return out

    sval = {sv: values_on(sv) for sv in svecs}
    tval = {tv: values_on(tv) for tv in tvecs}
    indices = range(len(forms))

    verified = []
    for line in ("fgfg", "fggf", "ffgg"):
        for sv in svecs:
            vs = sval[sv]
            for tv in tvecs:
                vt = tval[tv]
                if line == "fgfg":
                    f_idx = [i for i in indices if vs[i] == problem.p and vt[i] == problem.r]
                    g_idx = [i for i in indices if vs[i] == problem.q and vt[i] is not None]
                elif line == "fggf":
                    f_idx = [i for i in indices if vs[i] == problem.p and vt[i] is not None]
                    g_idx = [i for i in indices if vs[i] == problem.q and vt[i] == problem.r]
                else:  # ffgg
                    f_idx = [i for i in indices if vs[i] == problem.p and vt[i] == problem.q]
                    g_idx = [i for i in indices if vs[i] == problem.r and vt[i] is not None]
                for fi in f_idx:
                    for gi in g_idx:
                        s_out = vt[fi] if line == "fggf" else vt[gi]
                        witness = ProportionWitness(
                            forms[fi], forms[gi],
                            (make_binding(sv),), (make_binding(tv),), line,
                        )
                        report = check_proportion(problem, witness, s=s_out, evaluator=ev)
                        if report.ok:
                            verified.append((line, forms[fi], forms[gi], sv, tv, s_out))
                        elif rejections is not None:
                            rejections.update(item.code for item in report.items if not item.ok)

    groups = {}
    for entry in verified:
        groups.setdefault((entry[0], entry[1], entry[2]), []).append(entry)
    kept = set()
    for group in groups.values():
        for line, fm, gm, sv, tv, s_out in group:
            dominated = any(
                (sv2, tv2) != (sv, tv) and sv2.issubset(sv) and tv2.issubset(tv)
                for _, _, _, sv2, tv2, _ in group
            )
            if not dominated:
                kept.add((line, form_to_text(fm), form_to_text(gm),
                          render_program(sv), render_program(tv), render_program(s_out)))
            elif rejections is not None:
                rejections["dominated"] += 1
    return kept


def _solution_row(sol):
    """(line, F, G, source vector, target vector, S) of a solution, as text."""
    w = sol.witness
    return (w.line, form_to_text(w.f), form_to_text(w.g), render_program(w.pvec[0].program),
            render_program(w.rvec[0].program), render_program(sol.s))


def _solver_set(problem, budget):
    return {_solution_row(sol) for sol in solve_proportion(problem, budget)}


def test_solver_matches_brute_force_oracle():
    rng = random.Random(1707)
    budget = SolveBudget(
        max_form_depth=2,
        max_vector_rules=1,
        max_solutions=100_000,
        witnesses_per_s=100_000,
    )
    agreements = 0
    for _ in range(CASES):
        problem = _rand_problem(rng)
        solver_set = _solver_set(problem, budget)
        oracle_set = _oracle_solutions(problem, budget)
        assert solver_set == oracle_set, render_program(problem.p)
        if solver_set:
            agreements += 1
    assert agreements > 0


def test_solver_matches_oracle_on_overlapping_domains():
    # With a shared predicate the checks the disjoint draw never fails come
    # into play: constant forms, vectors outside the domain and ffgg
    # programs outside the intersection must each be rejected.
    rng = random.Random(1808)
    budget = SolveBudget(
        max_form_depth=1,
        max_vector_rules=2,
        max_solutions=100_000,
        witnesses_per_s=100_000,
    )
    rejections = Counter()
    for _ in range(150):
        problem = _rand_problem(rng, target_preds=("b", "c"))
        oracle_set = _oracle_solutions(problem, budget, rejections)
        assert _solver_set(problem, budget) == oracle_set, render_program(problem.p)
    for code in ("f_nonconstant", "g_nonconstant", "pvec_in_domain", "ffgg_intersection"):
        assert rejections[code] > 0, code


def _check_vector_bound(problem, budget, table=None) -> int:
    """Checks the symbol bound the solver skips vectors by, over the public
    pools and the evaluator: every pool form passes the fixed material
    check, and no non-constant form gives P, Q or R on a vector whose
    symbols outside the domain intersection miss some of that program's.
    Returns how many (vector, program) pairs the bound rules out."""
    inter = problem.source.intersection(problem.target)
    ev = Evaluator(table)
    forms = form_pool(problem, budget)
    assert fixed_material_offences(forms, inter, ev.table) == []
    nonconstant = [(ev.position(fm), fm) for fm in forms if is_nonconstant(fm, ev)]
    vecs = vector_pool((problem.p | problem.q).rules, budget) + vector_pool(problem.r.rules, budget)
    ruled_out = 0
    for vec in vecs:
        value = ev.values({"X1": make_binding(vec)})
        for want in (problem.p, problem.q, problem.r):
            if (want.predicates() <= vec.predicates() | inter.preds
                    and want.functors() <= vec.functors() | inter.functors):
                continue
            ruled_out += 1
            for i, fm in nonconstant:
                assert value(i) != want, (form_to_text(fm), render_program(vec))
    return ruled_out


@pytest.mark.parametrize("depth", [1, 2])
def test_solver_vector_bound_is_exact_on_bundled_problems(depth):
    ruled_out = 0
    for name in corpus.names("proportions"):
        spec = corpus.problem_spec(name)
        ruled_out += _check_vector_bound(spec.problem, SolveBudget(max_form_depth=depth), spec.table)
    assert ruled_out > 0


@pytest.mark.parametrize("target_preds", [("c", "d"), ("b", "c")])
def test_solver_vector_bound_is_exact_on_random_problems(target_preds):
    rng = random.Random(2626)
    budget = SolveBudget(max_form_depth=2, max_vector_rules=2)
    ruled_out = sum(_check_vector_bound(_rand_problem(rng, target_preds), budget)
                    for _ in range(300))
    assert ruled_out > 0


def _ranked(kept, witnesses_per_s, max_solutions):
    """The oracle's kept rows capped as the solver caps them: S groups in
    the order of their text, each with its smallest witnesses by the key
    (F and G text length, line, F, G, source vector, target vector)."""
    by_s = {}
    for row in kept:
        by_s.setdefault(row[5], []).append(row)
    out = []
    for s in sorted(by_s):
        if len(out) >= max_solutions:
            break
        ranked = sorted(by_s[s], key=lambda row: (len(row[1]) + len(row[2]), *row[:5]))
        out += ranked[:witnesses_per_s]
    return out[:max_solutions]


def test_capped_solver_output_is_the_ranked_oracle():
    rng = random.Random(2525)
    rejections = Counter()
    capped = 0
    for target_preds in (("c", "d"), ("b", "c")):
        for depth, vector_rules in ((1, 2), (2, 1)):
            full = SolveBudget(max_form_depth=depth, max_vector_rules=vector_rules,
                               max_solutions=100_000, witnesses_per_s=100_000)
            for _ in range(12):
                problem = _rand_problem(rng, target_preds)
                kept = _oracle_solutions(problem, full, rejections)
                for per_s, max_solutions in product((1, 4), (3, 64)):
                    budget = replace(full, max_solutions=max_solutions, witnesses_per_s=per_s)
                    solved = [_solution_row(sol) for sol in solve_proportion(problem, budget)]
                    assert solved == _ranked(kept, per_s, max_solutions), \
                        render_program(problem.p)
                    capped += len(solved) < len(kept)
    assert capped > 0
    assert rejections["dominated"] > 0


# ---------------------------------------------------------------------------
# 8. the solver's values by position are what a fresh evaluator gives


def _assert_pool_values_match_evaluator(problem, table, budget):
    ev = Evaluator(table)
    forms = {}
    for fm in form_pool(problem, budget):
        forms.setdefault(ev.position(fm), fm)
    svecs = vector_pool((problem.p | problem.q).rules, budget)
    tvecs = vector_pool(problem.r.rules, budget)
    # The solver reads a source vector in pool order and a target vector
    # wherever a lookup points; reading backwards evaluates each position
    # before the positions it depends on.  One evaluator serves every vector,
    # sharing its operation memo; a fresh one per vector shares nothing.
    positions = list(forms)
    for prog, order in [(sv, positions) for sv in svecs] + [(tv, positions[::-1]) for tv in tvecs]:
        fresh = Evaluator(table)
        env = {"X1": make_binding(prog)}
        value = ev.values(env)
        for i in order:
            fm, got = forms[i], value(i)
            try:
                want = fresh.eval(fm, env)
            except (FormEvalError, BudgetError):
                assert got is None, form_to_text(fm)
            else:
                # equal down to variable names, which concatenation sees
                assert got is not None and got.name_key() == want.name_key(), form_to_text(fm)


def _assert_nonconstancy_ignores_sharing(problem, table, budget):
    shared = Evaluator(table)
    solve_proportion(problem, budget, shared)
    for fm in form_pool(problem, budget):
        assert is_nonconstant(fm, shared) == is_nonconstant(fm, Evaluator(table)), \
            form_to_text(fm)


def _pool_problems():
    """Every bundled problem with its table, then 20 seeded random ones."""
    for name in corpus.names("proportions"):
        spec = corpus.problem_spec(name)
        yield spec.problem, spec.table
    rng = random.Random(2323)
    for _ in range(20):
        yield _rand_problem(rng), {}


def test_pool_values_match_the_evaluator():
    budget = SolveBudget(max_form_depth=2)
    for problem, table in _pool_problems():
        _assert_pool_values_match_evaluator(problem, table, budget)


def test_nonconstancy_is_the_same_on_an_evaluator_shared_with_a_solve():
    budget = SolveBudget(max_form_depth=2)
    for problem, table in _pool_problems():
        _assert_nonconstancy_ignores_sharing(problem, table, budget)


def test_nonconstancy_reads_as_if_every_probe_were_evaluated():
    # `is_nonconstant` stops at the second distinct value, so the probe
    # order decides only how much it evaluates.
    budget = SolveBudget(max_form_depth=2)
    for problem, table in _pool_problems():
        ev, reference = Evaluator(table), Evaluator(table)
        for fm in form_pool(problem, budget):
            names = free_vars(fm)
            values = set()
            for prog in PROBE_PROGRAMS:
                try:
                    values.add(reference.eval(fm, {n: make_binding(prog) for n in names}))
                except (FormEvalError, BudgetError):
                    pass
            assert is_nonconstant(fm, ev) == (len(values) >= 2), form_to_text(fm)


# ---------------------------------------------------------------------------
# the ffgg line needs matching constraints in both tools; pin its meaning


def test_ffgg_constraint_shape():
    # one hand-built ffgg case keeps the oracle's reading of the line honest
    source = DomainSig("A", frozenset({"a"}), frozenset())
    target = DomainSig("B", frozenset({"a"}), frozenset())
    p = parse_program("a.")
    problem = ProportionProblem(p, p, p, source, target)
    budget = SolveBudget(max_form_depth=1, max_vector_rules=1)
    sols = solve_proportion(problem, budget)
    assert any(sol.witness.line == "ffgg" for sol in sols)
    for sol in sols:
        assert check_proportion(problem, sol.witness, s=sol.s, evaluator=Evaluator()).ok


# ---------------------------------------------------------------------------
# the syntax caches agree with the structure they cache


def _structural(x):
    """Plain tuples (and frozensets of bodies) whose hashes are those the
    syntax objects have by their fields."""
    if isinstance(x, Var):
        return (x.name,)
    if isinstance(x, Compound):
        return (x.functor, tuple(map(_structural, x.args)))
    if isinstance(x, Atom):
        return (x.pred, tuple(map(_structural, x.args)))
    return (_structural(x.head), frozenset(map(_structural, x.body)))


def _rebuilt(x):
    if isinstance(x, Var):
        return Var(x.name)
    if isinstance(x, Compound):
        return Compound(x.functor, tuple(map(_rebuilt, x.args)))
    if isinstance(x, Atom):
        return Atom(x.pred, tuple(map(_rebuilt, x.args)))
    return Rule(_rebuilt(x.head), frozenset(map(_rebuilt, x.body)))


def _subterms(t):
    yield t
    for a in getattr(t, "args", ()):
        yield from _subterms(a)


def _first_occurrence(rule):
    out = []
    for a in (rule.head, *sorted(rule.body, key=render_atom)):
        for v in (v for t in a.args for v in _subterms(t) if isinstance(v, Var)):
            if v not in out:
                out.append(v)
    return tuple(out)


def test_syntax_caches_agree_with_structure():
    rng = random.Random(2718)
    for i in range(CASES):
        for rule in rand_open_program(rng, lists=i % 2 == 0):
            twin = _rebuilt(rule)
            assert twin == rule and twin is not rule and repr(twin) == repr(rule)
            assert hash(twin) == hash(rule) == hash(_structural(rule))
            for a in (rule.head, *rule.body):
                assert hash(a) == hash(_structural(a))
                assert all(hash(t) == hash(_structural(t)) for u in a.args for t in _subterms(u))
            assert rule_vars(rule) == _first_occurrence(rule) == rule_vars(twin)
            assert body_order(rule) == tuple(sorted(rule.body, key=render_atom))


def _walked_ground(x):
    """No variable occurs in x, by a recursive walk that reads no flag."""
    if isinstance(x, Var):
        return False
    if isinstance(x, Rule):
        return all(map(_walked_ground, (x.head, *x.body)))
    return all(map(_walked_ground, x.args))


def test_groundness_and_hashes_are_fixed_where_terms_are_built():
    rng = random.Random(3141)
    fresh = FreshNames(prefix="_T")
    s = {Var("X"): Compound("a"), Var("Y"): cons(Var("U"), NIL)}
    seen = Counter()
    for i in range(CASES):
        lists = i % 2 == 0
        p, q = rand_open_program(rng, lists), rand_open_program(rng, lists)
        bound = (GroundingBound(universe=list_universe("ab", 1)) if lists
                 else GroundingBound(max_term_depth=1, constants=frozenset({"0", "a"})))
        universe = herbrand_universe(p, bound)
        made = {
            "parser": list(parse_program(render_program(p))),
            "apply": [apply(s, r) for r in p],
            "fresh_variant": [fresh_variant(r, fresh) for r in p],
            "closed_instances": [inst for r in p for inst in islice(
                closed_instances(r, universe, ordered_subterms(universe)), 5)],
        }
        copies = [fresh_variant(r, fresh) for r in q]
        unifiers = [mgu_atoms(a.head, b.head) for a in p for b in copies]
        made["mgu_atoms"] = [Atom("t", tuple(u.values())) for u in unifiers if u]
        try:
            made["compose"] = list(compose(p, q)) + list(compose(p, p))
        except CompositionOverflowError:
            made["compose"] = []
        made["pickle"] = [pickle.loads(pickle.dumps(r)) for r in p]
        made["deepcopy"] = [copy.deepcopy(r) for r in p]
        for source, rules in made.items():
            for rule in rules:
                if isinstance(rule, Rule):
                    assert is_ground(rule) == _walked_ground(rule), (source, rule)
                    if is_ground(rule):
                        assert apply(s, rule) == rule
                    atoms = (rule.head, *rule.body)
                else:
                    atoms = (rule,)
                for a in atoms:
                    for x in (a, *(t for u in a.args for t in _subterms(u))):
                        ground = _walked_ground(x)
                        assert is_ground(x) == ground, (source, x)
                        if isinstance(x, Var):
                            assert hash(x) == hash((x.name,))
                            continue
                        assert hash(x) == hash((x.pred if isinstance(x, Atom) else x.functor, x.args))
                        if ground:
                            assert apply(s, x) is x, (source, x)
                        seen[source, ground] += bool(x.args)
    for source in made:  # each source built ground and open terms with arguments
        assert seen[source, True] and (seen[source, False] or source == "closed_instances"), source
