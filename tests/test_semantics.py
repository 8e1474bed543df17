from __future__ import annotations

import time
from itertools import product

import pytest

from hornalg import corpus, semantics
from hornalg.errors import GroundingOverflowError
from hornalg.parser import parse_atom, parse_program, parse_rule
from hornalg.semantics import (
    GroundingBound,
    closed_instances,
    entails,
    equivalent,
    ground,
    herbrand_universe,
    least_model,
    list_universe,
    ordered_subterms,
    tp_step,
)
from hornalg.syntax import NIL, Compound, Program, render_term
from test_properties import naive_fixpoint


def pg(text):
    return parse_program(text)


def term(text):
    return parse_atom(f"w({text})").args[0]


NAT = pg("nat(0). nat(s(X)) :- nat(X).")


def test_universe_collects_functors_by_depth():
    u = herbrand_universe(NAT, GroundingBound(max_term_depth=2))
    assert u == frozenset({term("0"), term("s(0)"), term("s(s(0))")})


def test_universe_includes_extra_constants():
    u = herbrand_universe(pg("p(X)."), GroundingBound(max_term_depth=0, constants=frozenset({"a", "b"})))
    assert u == frozenset({Compound("a"), Compound("b")})


def test_universe_override_wins():
    given = frozenset({Compound("x")})
    u = herbrand_universe(NAT, GroundingBound(universe=given))
    assert u == given


def test_universe_overflow():
    wide = pg("p(f(X,Y),g(X)). p(a,b). p(c,d).")
    with pytest.raises(GroundingOverflowError):
        herbrand_universe(wide, GroundingBound(max_term_depth=4, max_atoms=50))


def _universe_by_full_products(p, bound):
    """The reference construction: each level is built from every argument
    tuple over all the terms found so far."""
    arities = {}

    def collect(t):
        if isinstance(t, Compound):
            arities.setdefault(t.functor, set()).add(len(t.args))
            for a in t.args:
                collect(a)

    for atom in p.all_atoms():
        for t in atom.args:
            collect(t)
    universe = dict.fromkeys(Compound(f) for f, ns in sorted(arities.items()) if 0 in ns)
    for _ in range(bound.max_term_depth):
        prev = list(universe)
        for f, ns in sorted(arities.items()):
            for n in sorted(ns - {0}):
                for args in product(prev, repeat=n):
                    universe.setdefault(Compound(f, args))
                    if len(universe) > bound.max_atoms:
                        raise GroundingOverflowError(bound.max_atoms)
        if len(universe) == len(prev):
            break
    return frozenset(universe)


def test_universe_levels_agree_with_full_products():
    # Same terms in the same order, and an overflow exactly where the full
    # products overflow.
    for name in corpus.names("programs"):
        p = corpus.program(name)
        for depth in range(7):
            bound = GroundingBound(max_term_depth=depth, max_atoms=5000)
            try:
                want = _universe_by_full_products(p, bound)
            except GroundingOverflowError:
                with pytest.raises(GroundingOverflowError):
                    herbrand_universe(p, bound)
                continue
            got = herbrand_universe(p, bound)
            assert list(got) == list(want), (name, depth)


def test_universe_work_grows_with_its_size():
    # Building every tuple over the whole universe at each level is
    # quadratic in the depth: seconds, not milliseconds, for these terms.
    start = time.perf_counter()
    u = herbrand_universe(NAT, GroundingBound(max_term_depth=2000))
    assert len(u) == 2001
    assert time.perf_counter() - start < 1.0


def test_list_universe_contents():
    u = list_universe("ab", 2)
    assert Compound("a") in u and Compound("b") in u
    assert NIL in u
    assert term("[a,b]") in u and term("[b,a]") in u
    assert term("[a,b,a]") not in u
    # 2 constants + [] + 2 singletons + 4 pairs
    assert len(u) == 9


def test_ground_instantiates_over_universe():
    g = ground(NAT, GroundingBound(max_term_depth=2))
    assert g == pg("nat(0). nat(s(0)) :- nat(0). nat(s(s(0))) :- nat(s(0)).")


def test_ground_keeps_variable_free_rules():
    p = pg("p(f(f(f(a)))).")
    g = ground(p, GroundingBound(max_term_depth=0))
    assert parse_rule("p(f(f(f(a)))).") in g


def test_ground_of_ground_program_is_identity():
    p = pg("e(a,b). path(a,b) :- e(a,b).")
    assert ground(p, GroundingBound(max_term_depth=1)) == p


def test_ground_stops_at_its_budget(monkeypatch):
    # 12^5 instances of the rule; the budget must stop the enumeration early.
    # `ground` builds each instance as one `Rule` and calls no `apply`.
    p = pg(" ".join(f"p(c{i})." for i in range(12)) + " q(X1,X2,X3,X4,X5) :- p(X1).")
    built = 0
    real_rule = semantics.Rule

    def counting_rule(*args):
        nonlocal built
        built += 1
        return real_rule(*args)

    monkeypatch.setattr(semantics, "Rule", counting_rule)
    with pytest.raises(GroundingOverflowError):
        ground(p, GroundingBound(max_term_depth=0, max_atoms=1000))
    assert 900 <= built <= 1001


def test_ground_walks_a_long_rule_without_recursion():
    p = pg("p(" + ",".join(f"X{i}" for i in range(1200)) + ") :- q(a).")
    g = ground(p, GroundingBound(max_term_depth=0))
    assert g == pg("p(" + ",".join(["a"] * 1200) + ") :- q(a).")


def test_ground_drops_a_rule_with_a_ground_argument_outside_the_universe():
    p = pg("p(a). q(X, f(a)) :- p(X).")
    assert ground(p, GroundingBound(max_term_depth=0, constants=frozenset("b"))) == pg("p(a).")
    u = frozenset({term("a"), term("b")})
    assert list(closed_instances(parse_rule("q(X, f(a)) :- p(X)."), u, ordered_subterms(u))) == []


def test_tp_step_from_empty():
    assert tp_step(NAT, []) == frozenset({parse_atom("nat(0)")})


def test_tp_step_applies_rules_once():
    out = tp_step(NAT, [parse_atom("nat(0)")], GroundingBound(max_term_depth=3))
    assert out == frozenset({parse_atom("nat(0)"), parse_atom("nat(s(0))")})


def test_tp_step_overflows_past_its_atom_budget():
    # An explicit universe builds nothing, so only the step's heads can pass
    # the budget: three instances of p(X) fit under 3 atoms and not under 2.
    p, u = pg("p(X)."), frozenset({term("a"), term("b"), term("c")})
    assert len(tp_step(p, [], GroundingBound(universe=u, max_atoms=3))) == 3
    with pytest.raises(GroundingOverflowError):
        tp_step(p, [], GroundingBound(universe=u, max_atoms=2))


def test_least_model_nat():
    lm = least_model(NAT, GroundingBound(max_term_depth=3))
    assert lm == frozenset(
        parse_atom(a) for a in ["nat(0)", "nat(s(0))", "nat(s(s(0)))", "nat(s(s(s(0))))"]
    )


def test_least_model_is_tp_fixpoint():
    bound = GroundingBound(max_term_depth=3)
    lm = least_model(NAT, bound)
    assert tp_step(NAT, lm, bound) == lm


def test_least_model_with_joins():
    p = pg("e(a,b). e(b,c). path(X,Y) :- e(X,Y). path(X,Z) :- e(X,Y), path(Y,Z).")
    lm = least_model(p, GroundingBound(max_term_depth=0))
    assert parse_atom("path(a,c)") in lm
    assert parse_atom("path(c,a)") not in lm


def test_least_model_overflow():
    with pytest.raises(GroundingOverflowError):
        least_model(NAT, GroundingBound(max_term_depth=6, max_atoms=3))


def test_least_model_stops_at_its_budget(monkeypatch):
    # 41^3 head instances; the budget must stop their enumeration early
    p = pg("p(a). r(X,Y,Z) :- p(a).")
    consts = frozenset(f"c{i}" for i in range(40))
    matched = 0
    real_match = semantics._match_term

    def counting_match(pat, tgt, s):
        nonlocal matched
        matched += 1
        return real_match(pat, tgt, s)

    monkeypatch.setattr(semantics, "_match_term", counting_match)
    with pytest.raises(GroundingOverflowError):
        least_model(p, GroundingBound(max_term_depth=0, max_atoms=1000, constants=consts))
    # one match of Z per instance, plus one per value tried for X and Y
    assert matched <= 2 * 1001


def test_least_model_checks_a_condition_once(monkeypatch):
    # q(B) shares no variable with the head: one match of it is enough, and
    # A ranges over the 40 constants once, not once per q atom.
    facts = " ".join(f"q(c{i})." for i in range(40))
    calls = {"term": 0, "atom": 0}
    real_term, real_atom = semantics._match_term, semantics.match_atom

    def counting_term(*args):
        calls["term"] += 1
        return real_term(*args)

    def counting_atom(*args):
        calls["atom"] += 1
        return real_atom(*args)

    monkeypatch.setattr(semantics, "_match_term", counting_term)
    monkeypatch.setattr(semantics, "match_atom", counting_atom)
    bound = GroundingBound(max_term_depth=0)
    lm = least_model(pg(facts + " p(A) :- q(B)."), bound)
    assert {a for a in lm if a.pred == "p"} == {parse_atom(f"p(c{i})") for i in range(40)}
    assert calls["term"] <= 100 and calls["atom"] <= 40, calls
    never = least_model(pg(facts + " p(A) :- q(B), r(B,B). r(c0,c1)."), bound)
    assert not any(a.pred == "p" for a in never)


def test_least_model_tests_a_condition_only_after_its_atoms_change(monkeypatch):
    # r(Y,Y) never holds; only the first round adds an r atom, so it is
    # tested once, not once in each of the 11 rounds of the nat chain.
    calls = []
    real_holds = semantics._Plan.holds

    def counting_holds(plan, cond, idx):
        calls.append(cond)
        return real_holds(plan, cond, idx)

    monkeypatch.setattr(semantics._Plan, "holds", counting_holds)
    p = pg("nat(0). nat(s(X)) :- nat(X). p(X) :- nat(X), r(Y,Y). r(0,s(0)).")
    lm = least_model(p, GroundingBound(max_term_depth=10))
    assert {a.pred for a in lm} == {"nat", "r"} and len(lm) == 12
    assert len(calls) == 1


def test_least_model_of_nat_at_depth_1000():
    # Derived s(...) terms are the universe's own, so no comparison of two
    # equal terms recurses through all 1000 levels.
    assert len(least_model(NAT, GroundingBound(max_term_depth=1000))) == 1001


def test_head_only_variables_range_over_universe():
    # U occurs in the head only; it takes every value keeping [U] in the universe
    p = pg("p(a). q([U]) :- p(a).")
    lm = least_model(p, GroundingBound(universe=list_universe("ab", 1)))
    assert parse_atom("q([a])") in lm
    assert parse_atom("q([b])") in lm
    assert parse_atom("q([[]])") not in lm  # [[]] itself is outside the universe
    assert sum(1 for a in lm if a.pred == "q") == 2


def test_head_only_variables_take_values_by_position():
    u = list_universe("ab", 2)
    lm = least_model(pg("p(a). plus([U|X],Y) :- p(a)."), GroundingBound(universe=u))
    plus = [a for a in lm if a.pred == "plus"]
    assert {a.args[0].args[0] for a in plus} == {Compound("a"), Compound("b")}
    assert {a.args[0].args[1] for a in plus} == {NIL, term("[a]"), term("[b]")}
    assert {a.args[1] for a in plus} == u  # a bare argument is unconstrained
    assert len(plus) == 6 * len(u)


def test_head_only_variable_takes_one_value_across_positions():
    u = frozenset({term("f(a)"), term("g(b)"), Compound("a"), Compound("b")})
    assert least_model(pg("p(f(X),g(X))."), GroundingBound(universe=u)) == frozenset()
    lm = least_model(pg("p(f(X),g(X))."), GroundingBound(universe=u | {term("g(a)")}))
    assert lm == frozenset({parse_atom("p(f(a),g(a))")})


NOT_SUBTERM_CLOSED = (pg("q([U|X]) :- r(X). r([])."),
                      GroundingBound(universe=frozenset({NIL, term("[a]")})))


def test_least_model_admits_instances_by_their_argument_terms():
    # [a] is in the universe though its element a is not
    assert least_model(*NOT_SUBTERM_CLOSED) == frozenset(
        {parse_atom("r([])"), parse_atom("q([a])")}
    )


def test_ground_agrees_with_least_model_off_subterm_closed_universes():
    p, bound = NOT_SUBTERM_CLOSED
    assert pg("q([a]) :- r([]).").issubset(ground(p, bound))
    assert naive_fixpoint(ground(p, bound)) == least_model(p, bound)


def test_list_addition_model():
    p = corpus.program("plus_list_inst")
    bound = GroundingBound(universe=list_universe("ab", 2))
    lm = least_model(p, bound)
    assert parse_atom("plus([a],[b],[a,b])") in lm
    assert parse_atom("plus([a],[b],[b,a])") not in lm


def test_entails_requires_ground_atom():
    assert entails(NAT, parse_atom("nat(s(0))"), GroundingBound(max_term_depth=2))
    assert not entails(NAT, parse_atom("even(0)"), GroundingBound(max_term_depth=2))
    with pytest.raises(ValueError):
        entails(NAT, parse_atom("nat(X)"))


def test_equivalent_at_bound():
    p = pg("p(a). p(b).")
    r = pg("p(a). p(b). p(X) :- q(X).")
    assert equivalent(p, r, GroundingBound(max_term_depth=0))
    assert not equivalent(p, pg("p(a)."), GroundingBound(max_term_depth=0))


def test_empty_program_has_empty_model():
    assert least_model(Program()) == frozenset()


def test_render_of_universe_terms():
    u = sorted(render_term(t) for t in list_universe("a", 1))
    assert u == ["[]", "[a]", "a"]
