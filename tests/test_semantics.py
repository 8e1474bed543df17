from __future__ import annotations

import pytest

from hornalg import corpus, semantics
from hornalg.errors import GroundingOverflowError
from hornalg.parser import parse_atom, parse_program, parse_rule
from hornalg.semantics import (
    GroundingBound,
    entails,
    equivalent,
    ground,
    herbrand_universe,
    least_model,
    list_universe,
    tp_step,
)
from hornalg.syntax import NIL, Program, const, render_term
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
    assert u == frozenset({const("a"), const("b")})


def test_universe_override_wins():
    given = frozenset({const("x")})
    u = herbrand_universe(NAT, GroundingBound(universe=given))
    assert u == given


def test_universe_overflow():
    wide = pg("p(f(X,Y),g(X)). p(a,b). p(c,d).")
    with pytest.raises(GroundingOverflowError):
        herbrand_universe(wide, GroundingBound(max_term_depth=4, max_atoms=50))


def test_list_universe_contents():
    u = list_universe("ab", 2)
    assert const("a") in u and const("b") in u
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
    # 12^5 instances of the rule; the budget must stop the enumeration early
    p = pg(" ".join(f"p(c{i})." for i in range(12)) + " q(X1,X2,X3,X4,X5) :- p(X1).")
    built = 0
    real_apply = semantics.apply

    def counting_apply(s, obj):
        nonlocal built
        built += 1
        return real_apply(s, obj)

    monkeypatch.setattr(semantics, "apply", counting_apply)
    with pytest.raises(GroundingOverflowError):
        ground(p, GroundingBound(max_term_depth=0, max_atoms=1000))
    assert built <= 1001


def test_tp_step_from_empty():
    assert tp_step(NAT, []) == frozenset({parse_atom("nat(0)")})


def test_tp_step_applies_rules_once():
    out = tp_step(NAT, [parse_atom("nat(0)")], GroundingBound(max_term_depth=3))
    assert out == frozenset({parse_atom("nat(0)"), parse_atom("nat(s(0))")})


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
    assert {a.args[0].args[0] for a in plus} == {const("a"), const("b")}
    assert {a.args[0].args[1] for a in plus} == {NIL, term("[a]"), term("[b]")}
    assert {a.args[1] for a in plus} == u  # a bare argument is unconstrained
    assert len(plus) == 6 * len(u)


def test_head_only_variable_takes_one_value_across_positions():
    u = frozenset({term("f(a)"), term("g(b)"), const("a"), const("b")})
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
