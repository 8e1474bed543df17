"""Program composition, closures, concatenation, and representation checks."""

import pytest

from hornalg import corpus
from hornalg.algebra import (
    DecompositionWitness,
    check_representation,
    compose,
    concat_atoms,
    concat_rules,
    concatenate,
    identity_program,
    omega,
    plus_closure,
    power,
    star,
)
from hornalg.errors import CompositionOverflowError, FixpointBudgetError
from hornalg.parser import parse_atom, parse_program, parse_rule
from hornalg.syntax import Compound, Program, Var, is_ground, render_program, render_rule
from test_properties import reference_compose


def pg(text):
    return parse_program(text)


NAT = pg("nat(0). nat(s(X)) :- nat(X).")


def test_compose_resolves_bodies_against_heads():
    assert compose(NAT.proper(), NAT.proper()) == pg("nat(s(s(X))) :- nat(X).")


def test_compose_facts_pass_through():
    assert compose(NAT, Program()) == pg("nat(0).")
    assert compose(NAT, NAT) == pg("nat(0). nat(s(0)). nat(s(s(X))) :- nat(X).")


def test_compose_empty_left_is_empty():
    assert compose(Program(), NAT) == Program()


def test_compose_with_identity():
    ident = identity_program(NAT)
    assert compose(NAT, ident) == NAT
    assert compose(ident, NAT) == NAT


def test_identity_covers_body_only_predicates():
    p = pg("p(X) :- q(X,Y).")
    ident = identity_program(p)
    assert ident == pg("p(X) :- p(X). q(X,Y) :- q(X,Y).")


def test_compose_tries_every_rule_per_goal():
    p = pg("r(X) :- q(X).")
    q = pg("q(a). q(f(Y)) :- q(Y).")
    assert compose(p, q) == pg("r(a). r(f(Y)) :- q(Y).")


def test_compose_multi_atom_bodies_mix_assignments():
    p = pg("r(X,Y) :- q(X), q(Y).")
    q = pg("q(a). q(b).")
    assert compose(p, q) == pg("r(a,a). r(a,b). r(b,a). r(b,b).")


def test_compose_bridge_recovers_list_addition():
    q1 = corpus.program("q1")
    pluslist = corpus.program("pluslist")
    assert compose(q1, pluslist) == corpus.program("plus")
    assert compose(q1.reverse(), corpus.program("plus")) == pluslist


def test_compose_overflow_raises():
    p = pg("r(X,Y) :- q(X), q(Y).")
    q = pg("q(a). q(b).")
    with pytest.raises(CompositionOverflowError):
        compose(p, q, cap=3)


def test_compose_keeps_copies_apart():
    r = pg("r(X,Y) :- s(Y,X). r(a,Y) :- s(Y,Y).")
    assert compose(pg("q(X) :- r(X,Y)."), r) == pg("q(X) :- s(Y,X). q(a) :- s(Y,Y).")
    # two copies of one rule get distinct names: else Y and Z would meet
    assert compose(pg("q(X,Z) :- r(X,Y), r(Y,Z)."), r) == pg(
        "q(X,Z) :- s(Y,X), s(Z,Y). q(X,Z) :- s(a,X), s(Z,Z)."
        "q(a,Z) :- s(Y,Y), s(Z,Y). q(a,Z) :- s(a,a), s(Z,Z).")
    # names already drawn by an earlier compose are not drawn again
    assert compose(pg("q(_C1,_C2) :- r(_C1,_C3), r(_C2,_C4)."), r) == pg(
        "q(X,Z) :- s(Y,X), s(U,Z). q(X,a) :- s(Y,Y), s(U,X)."
        "q(a,Z) :- s(Y,Y), s(U,Z). q(a,a) :- s(Y,Y), s(U,U).")


def test_compose_resolves_ground_goals_against_the_identity():
    # copies of the identity's rules bind every variable, so no fresh name is left
    p = pg("p(a) :- q(a,[b]), p(f(a)). p(f(a)) :- s. q(a,[b]). s.")
    assert compose(p, identity_program(p)).strict_equals(p)


def test_compose_keeps_a_body_only_variable_fresh_for_a_ground_goal():
    p, r = pg("p :- q(a)."), pg("q(X) :- r(X,Y).")
    (rule,) = compose(p, r)
    (body,) = rule.body
    assert body.pred == "r" and body.args[0] == Compound("a")
    assert isinstance(body.args[1], Var) and body.args[1].name not in ("X", "Y")


def test_compose_resolvents_know_whether_they_are_ground():
    # a resolvent is ground from its atoms alone, whether its goals took a
    # ground body with no copy or a copied rule whose variables got bound
    p = pg("s :- q(a), t. s :- q(b). u(X) :- q(X).")
    r = pg("q(a). q(X) :- w(X). t. q(b) :- v(Y).")
    out = compose(p, r)
    assert out == pg("s. s :- w(a). s :- w(b). s :- v(Y). u(a). u(X) :- w(X). u(b) :- v(Y).")
    assert sorted(render_rule(x) for x in out if is_ground(x)) == ["s :- w(a).", "s :- w(b).", "s.", "u(a)."]


def test_compose_matches_a_repeated_head_variable_consistently():
    r = pg("q(X,X) :- s(X).")
    assert compose(pg("p :- q(a,b)."), r) == Program()
    assert compose(pg("p :- q(a,a)."), r) == pg("p :- s(a).")


@pytest.mark.parametrize("name", ["plus", "reverse", "times_nat"])
def test_power_matches_a_fold_of_the_reference_compose(name):
    # each power composes p with the previous one, whose `_C` names are
    # those compose draws
    p = corpus.program(name)
    acc = identity_program(p)
    for n in range(1, 6):
        acc = reference_compose(p, acc)
        assert render_program(power(p, n)) == render_program(acc), n


@pytest.mark.parametrize("text", [
    "p(X) :- q(X). q(X) :- p(X).",
    "p(a).",
    "p(X) :- q(X). q(X) :- r(X). r(X) :- p(X).",
    "p(X) :- p(X), q(X). q(a).",
    "p(X,Y) :- q(Y,Z). q(A,B) :- p(B,A).",
    "p(f(X)) :- p(X).",
])
def test_power_reads_repeating_powers_off_their_cycle(text):
    # once a power's stored rules repeat an earlier one's, names included,
    # every later power repeats too: `power` must give what the plain loop
    # gives, and a huge n must not run n rounds
    p = pg(text)
    plain = [identity_program(p)]
    for n in range(40):
        plain.append(compose(p, plain[-1]))
    for n, acc in enumerate(plain):
        assert power(p, n).name_key() == acc.name_key(), n
    if text != "p(f(X)) :- p(X).":  # the one whose powers never repeat
        # every cycle here is 1, 2 or 6 long and starts by power 2
        assert power(p, 10**14).name_key() == plain[10**14 % 6 + 6].name_key()


def test_power_zero_is_identity():
    assert power(NAT, 0) == identity_program(NAT)
    assert power(NAT, 1) == NAT
    assert power(NAT, 2) == compose(NAT, NAT)
    with pytest.raises(ValueError):
        power(NAT, -1)


def test_star_stabilises_on_idempotent_program():
    p = pg("a :- a.")
    assert star(p) == p
    assert plus_closure(p) == p


def test_star_of_empty_program_is_empty():
    assert star(Program()) == Program()


def test_star_budget_error_carries_partial():
    with pytest.raises(FixpointBudgetError) as info:
        star(NAT, cap=3)
    partial = info.value.partial
    assert pg("nat(0). nat(s(0)). nat(s(s(0))).").issubset(partial)


def test_omega_diverges_with_star():
    # p(f^k(a)) is a new fact in every round, so omega's own facts never
    # stabilise and its cap is spent
    p = pg("p(a). p(f(X)) :- p(X). p(g(X)) :- q(X).")
    with pytest.raises(FixpointBudgetError):
        omega(p, cap=4)


def test_omega_stops_where_powers_do_not():
    # p^k holds p(X) :- p(f^k(X)) for every k, but no fact ever reaches p
    p = pg("p(X) :- p(f(X)). q.")
    assert omega(p) == pg("q.")
    with pytest.raises(FixpointBudgetError):
        star(p, cap=8)


def test_omega_budget_error_carries_the_facts_so_far():
    with pytest.raises(FixpointBudgetError) as info:
        omega(pg("p(a). p(f(X)) :- p(X)."), cap=4)
    # the facts of round 4, p^4 ∘ ∅, and no rule of a power
    assert info.value.cap == 4
    assert info.value.partial == pg("p(a). p(f(a)). p(f(f(a))). p(f(f(f(a)))).")


def test_omega_on_finite_program():
    p = pg("e(a,b). e(b,c). path(X,Y) :- e(X,Y). path(X,Z) :- e(X,Y), path(Y,Z).")
    om = omega(p)
    assert pg("e(a,b). e(b,c). path(a,b). path(b,c). path(a,c).").issubset(om)
    assert parse_rule("path(c,a).") not in om


def test_concat_atoms_appends_arguments():
    a = parse_atom("plus(0)")
    b = parse_atom("plus(s(0),s(0))")
    assert concat_atoms(a, b) == parse_atom("plus(0,s(0),s(0))")
    with pytest.raises(ValueError):
        concat_atoms(parse_atom("plus(0)"), parse_atom("times(0)"))


def test_concat_rules_requires_same_predicate_shape():
    r1 = parse_rule("length([]).")
    r2 = parse_rule("length(0).")
    assert concat_rules(r1, r2) == parse_rule("length([],0).")
    # head predicates differ -> no result
    assert concat_rules(parse_rule("length([])."), parse_rule("nat(0).")) is None
    # body predicate sets differ -> no result
    assert concat_rules(parse_rule("p(a) :- q(a)."), parse_rule("p(b) :- r(b).")) is None


def test_concat_rules_ignores_arity():
    # same head and body predicate names, different arities: they concatenate
    r1 = parse_rule("p(X) :- q(X,Y).")
    r2 = parse_rule("p(X,Y,Z) :- q(a).")
    assert concat_rules(r1, r2) == parse_rule("p(X,X,Y,Z) :- q(X,Y,a).")


def test_concat_shares_variable_names():
    r1 = parse_rule("plus([U|X]) :- plus(X).")
    r2 = parse_rule("plus([U|Z]) :- plus(Z).")
    joined = concat_rules(r1, r2)
    assert joined == parse_rule("plus([U|X],[U|Z]) :- plus(X,Z).")
    # the shared U is one variable in the result, not two
    assert len({v.name for v in joined.head.args[0].args} | set()) >= 1
    assert render_program(Program([joined])) == render_program(
        pg("plus([A|B],[A|C]) :- plus(B,C).")
    )


def test_concatenate_builds_length_from_factors():
    lists = corpus.program("list_as_length")
    nats = corpus.program("nat_as_length")
    assert concatenate(lists, nats) == corpus.program("length")


def test_concatenate_ground_triples():
    p0 = pg("plus(0).")
    ps = pg("plus(s(0)).")
    assert concatenate(concatenate(p0, ps), ps) == pg("plus(0,s(0),s(0)).")


def test_concatenate_pairs_all_matching_rules():
    p = pg("p(a). p(b).")
    q = pg("p(c).")
    assert concatenate(p, q) == pg("p(a,c). p(b,c).")


def test_concatenate_skips_mismatched_rules():
    p = pg("p(a). q(a).")
    r = pg("p(b).")
    assert concatenate(p, r) == pg("p(a,b).")


def test_zero_arity_concat_is_idempotent():
    p = pg("a :- b.")
    assert concatenate(p, p) == p


def test_check_representation_member_chain():
    member = corpus.program("member")
    pluslist = corpus.program("pluslist")
    w = DecompositionWitness(corpus.program("member_q"), corpus.program("member_s"))
    assert check_representation(member, pluslist, w)
    bad = DecompositionWitness(corpus.program("member_q"), Program())
    assert not check_representation(member, pluslist, bad)


def test_compose_is_deterministic():
    q1 = corpus.program("q1")
    pluslist = corpus.program("pluslist")
    a = render_program(compose(q1, pluslist))
    b = render_program(compose(q1, pluslist))
    assert a == b
