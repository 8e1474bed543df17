from __future__ import annotations

from hornalg.parser import parse_atom, parse_program, parse_rule
from hornalg.syntax import Var, canonical_key, render_term, rule_vars
from hornalg.unify import (
    FreshNames,
    apply,
    fresh_variant,
    match_atom,
    mgu_atoms,
    mgu_terms,
)


def t(text):
    return parse_atom(f"w({text})").args[0]


def test_mgu_binds_var_to_term():
    s = mgu_terms(Var("X"), t("f(a)"))
    assert s is not None
    assert apply(s, Var("X")) == t("f(a)")


def test_mgu_symmetric_on_success():
    s1 = mgu_terms(t("f(X,b)"), t("f(a,Y)"))
    s2 = mgu_terms(t("f(a,Y)"), t("f(X,b)"))
    assert s1 is not None and s2 is not None
    assert apply(s1, t("f(X,b)")) == apply(s2, t("f(a,Y)")) == t("f(a,b)")


def test_mgu_clash_returns_none():
    assert mgu_terms(t("f(a)"), t("g(a)")) is None
    assert mgu_terms(t("f(a)"), t("f(a,b)")) is None
    assert mgu_terms(t("a"), t("b")) is None


def test_occurs_check():
    assert mgu_terms(Var("X"), t("f(X)")) is None
    assert mgu_terms(t("f(X,X)"), t("f(Y,g(Y))")) is None


def test_mgu_is_idempotent():
    s = mgu_terms(t("f(X,g(Y))"), t("f(g(Z),Z)"))
    assert s is not None
    once = apply(s, t("f(X,g(Y))"))
    assert apply(s, once) == once


def test_chained_bindings_resolve():
    s = mgu_terms(t("p(X,Y,Z)"), t("p(Y,Z,a)"))
    assert s is not None
    assert apply(s, Var("X")) == t("a")


def test_mgu_atoms_respects_predicate_and_arity():
    assert mgu_atoms(parse_atom("p(X)"), parse_atom("q(X)")) is None
    assert mgu_atoms(parse_atom("p(X)"), parse_atom("p(X,Y)")) is None
    s = mgu_atoms(parse_atom("p(X,b)"), parse_atom("p(a,Y)"))
    assert apply(s, parse_atom("p(X,b)")) == parse_atom("p(a,b)")


def test_apply_walks_rules_and_programs():
    s = {Var("X"): t("a")}
    r = parse_rule("p(X) :- q(X).")
    assert apply(s, r) == parse_rule("p(a) :- q(a).")
    p = parse_program("p(X) :- q(X). r(X).")
    assert apply(s, p) == parse_program("p(a) :- q(a). r(a).")
    assert apply({}, r) is r


def test_match_is_one_way():
    s = match_atom(parse_atom("p(X,b)"), parse_atom("p(a,b)"))
    assert s is not None and apply(s, Var("X")) == t("a")
    # the target's variables are constants to the matcher
    assert match_atom(parse_atom("p(a)"), parse_atom("p(X)")) is None


def test_match_with_seed():
    seed = match_atom(parse_atom("p(X)"), parse_atom("p(a)"))
    assert match_atom(parse_atom("q(X)"), parse_atom("q(b)"), seed) is None
    assert match_atom(parse_atom("q(X)"), parse_atom("q(a)"), seed) is not None
    extended = match_atom(parse_atom("q(Y)"), parse_atom("q(b)"), seed)
    assert extended == {Var("X"): t("a"), Var("Y"): t("b")}
    assert seed == {Var("X"): t("a")}  # the seed is not modified


def test_fresh_variant_renames_consistently():
    names = FreshNames()
    r = parse_rule("plus(s(X),Y,s(Z)) :- plus(X,Y,Z).")
    v1 = fresh_variant(r, names)
    v2 = fresh_variant(r, names)
    assert canonical_key(v1) == canonical_key(v2) == canonical_key(r)
    assert set(rule_vars(v1)).isdisjoint(rule_vars(v2))


def test_render_term_after_subst():
    s = mgu_terms(t("[U|X]"), t("[a,b]"))
    assert s is not None
    assert render_term(apply(s, t("[U|X]"))) == "[a,b]"
