"""Terms, atoms, rules, list sugar, rendering, and program identity."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from hornalg.errors import ParseError
from hornalg.parser import parse_atom, parse_program, parse_rule
from hornalg.syntax import (
    NIL,
    Atom,
    Compound,
    Program,
    Rule,
    Var,
    atom_vars,
    body_order,
    canonical_key,
    cons,
    is_ground,
    program_vars_ordered,
    render_atom,
    render_program,
    render_rule,
    render_term,
    rule_vars,
    term_vars,
)


def pg(text):
    return parse_program(text)


def test_list_sugar_round_trip():
    a = parse_atom("plus([a,b|X],Y)")
    assert a.args[0] == cons(Compound("a"), cons(Compound("b"), Var("X")))
    assert render_atom(a) == "plus([a,b|X],Y)"


def test_nil_renders_as_empty_list():
    assert render_term(NIL) == "[]"
    assert render_term(cons(Compound("a"), cons(Compound("b"), NIL))) == "[a,b]"


def test_improper_tail_kept():
    t = cons(Compound("a"), Compound("b"))
    assert render_term(t) == "[a|b]"


def test_nested_lists():
    a = parse_atom("p([[a],[],[b,c]])")
    assert render_atom(a) == "p([[a],[],[b,c]])"


def test_zero_ary_atom_renders_bare():
    assert render_atom(parse_atom("halt")) == "halt"
    assert render_rule(parse_rule("a :- b.")) == "a :- b."


def test_rule_body_is_a_set():
    r = parse_rule("p(X) :- q(X), q(X), r(X).")
    assert len(r.body) == 2


def test_fact_predicate():
    assert parse_rule("p(a).").is_fact
    assert not parse_rule("p(a) :- q.").is_fact


def test_vars_of_spans_head_and_body():
    r = parse_rule("p(X,f(Y)) :- q(Z).")
    assert {v.name for v in rule_vars(r)} == {"X", "Y", "Z"}
    assert is_ground(parse_rule("p(a) :- q(b)."))


def test_variable_walks_take_any_depth():
    deep, ground = Var("X"), Compound("0")
    for _ in range(5000):
        deep, ground = Compound("s", (deep,)), Compound("s", (ground,))
    head = Atom("p", (deep, Var("Y"), ground))
    assert list(term_vars(deep)) == [Var("X")]
    assert list(term_vars(ground, deep, Var("Y"))) == [Var("X"), Var("Y")]
    assert list(atom_vars(head)) == [Var("X"), Var("Y")]
    assert rule_vars(Rule(head)) == (Var("X"), Var("Y"))
    assert is_ground(ground)
    assert not any(map(is_ground, (deep, head, Rule(head))))


def test_canonical_key_identifies_variants():
    r1 = parse_rule("plus(s(X),Y,s(Z)) :- plus(X,Y,Z).")
    r2 = parse_rule("plus(s(A),B,s(C)) :- plus(A,B,C).")
    r3 = parse_rule("plus(s(X),Y,s(Z)) :- plus(Y,X,Z).")
    assert canonical_key(r1) == canonical_key(r2)
    assert canonical_key(r1) != canonical_key(r3)


def test_canonical_rule_uses_positional_names():
    assert canonical_key(parse_rule("p(Foo,Bar) :- q(Bar).")) == "p(A,B) :- q(B)."


def test_program_dedups_variants():
    p = pg("p(X) :- q(X). p(Y) :- q(Y).")
    assert len(p) == 1


def test_program_equality_is_variant_equality():
    p = pg("q(X) :- p(X).")
    r = pg("q(A) :- p(A).")
    assert p == r
    assert hash(p) == hash(r)
    assert not p.strict_equals(r)
    assert p.strict_equals(p)


def test_program_keeps_original_variable_names():
    p = pg("q(Foo) :- p(Foo).")
    (rule,) = p.rules
    assert {v.name for v in rule_vars(rule)} == {"Foo"}


def test_program_union_and_containment():
    p = pg("a. b :- a.")
    q = pg("b :- a. c.")
    u = p | q
    assert len(u) == 3
    assert p.issubset(u)
    assert parse_rule("b :- a.") in u
    assert parse_rule("d.") not in u


def test_facts_and_proper_split():
    p = pg("nat(0). nat(s(X)) :- nat(X).")
    assert p.facts() == pg("nat(0).")
    assert p.proper() == pg("nat(s(X)) :- nat(X).")


def test_rename_predicate_touches_heads_and_bodies():
    p = pg("nat(0). nat(s(X)) :- nat(X).")
    e = p.rename_predicate("nat", "even")
    assert e == pg("even(0). even(s(X)) :- even(X).")
    assert p.rename_predicate("nat", "nat") == p


def test_reverse_flips_each_body_atom():
    p = pg("p(0). q(s(X)) :- p(X), r(X).")
    rev = p.reverse()
    assert rev == pg("p(0). p(X) :- q(s(X)). r(X) :- q(s(X)).")


def test_reverse_is_an_involution_on_single_body_rules():
    p = pg("plus(0,Y,Y) :- plus([],Y,Y). plus(s(X),Y,s(Z)) :- plus([U|X],Y,[V|Z]).")
    assert p.reverse().reverse() == p


def test_render_program_is_sorted_and_stable():
    p = pg("b. a. c :- a, b.")
    assert render_program(p) == "a.\nb.\nc :- a, b."
    assert render_program(pg(render_program(p))) == render_program(p)


def test_program_vars_ordered_first_occurrence():
    p = pg("p(Y,X) :- q(X).")
    assert tuple(v.name for v in program_vars_ordered(p)) == ("Y", "X")


def test_predicates_and_functors():
    p = pg("plus([U|X],Y,[U|Z]) :- plus(X,Y,Z).")
    assert p.predicates() == frozenset({"plus"})
    assert ("plus", 3) in p.pred_signature()
    assert "cons" in p.functors()


def test_empty_program_is_falsy():
    assert not Program()
    assert len(Program()) == 0
    assert render_program(Program()) == ""


def test_atom_arity():
    assert parse_atom("p(a,b)").arity == 2
    assert Atom("p", ()).arity == 0


def test_compound_equality_is_structural():
    assert Compound("f", (Compound("a"),)) == Compound("f", (Compound("a"),))
    assert Compound("f", ()) != Compound("g", ())


def test_rule_constructor_freezes_body():
    r = Rule(parse_atom("p"), [parse_atom("q"), parse_atom("q")])
    assert isinstance(r.body, frozenset)
    assert len(r.body) == 1


def test_program_union_keeps_the_left_representative():
    u = pg("q(X) :- p(X). a.") | pg("q(Y) :- p(Y). b.")
    assert len(u) == 3
    assert u.strict_equals(pg("q(X) :- p(X). a. b."))
    assert u.rules == pg("b. a. q(X) :- p(X).").rules


def test_rule_vars_are_distinct_in_first_occurrence_order():
    r = parse_rule("p(Y,f(X,Y)) :- r(Z,X), q(W,Z,Y).")
    assert body_order(r) == (parse_atom("q(W,Z,Y)"), parse_atom("r(Z,X)"))
    assert [v.name for v in rule_vars(r)] == ["Y", "X", "W", "Z"]
    assert rule_vars(r) is rule_vars(r) and body_order(r) is body_order(r)
    assert rule_vars(parse_rule("p(a) :- q(b).")) == ()


def test_is_ground_on_a_new_rule_leaves_its_body_unsorted():
    ground, opened = parse_rule("p(a) :- r(b), q([a]), s."), parse_rule("p(a) :- r(b), q(X).")
    assert is_ground(ground) and not is_ground(opened)
    for r in (ground, opened):
        with pytest.raises(AttributeError):
            r._order
    assert rule_vars(ground) == () and canonical_key(ground) == "p(a) :- q([a]), r(b), s."


def test_caches_show_in_neither_repr_nor_equality():
    text = "p(f(X),[a|Y]) :- q(X), r(Y,g(Z))."
    hashed, fresh = parse_rule(text), parse_rule(text)
    before = repr(hashed)
    hash(hashed), rule_vars(hashed), [hash(a) for a in hashed.body]
    assert repr(hashed) == repr(fresh) == before
    assert hashed == fresh and fresh == hashed
    for cls in (Var, Compound, Atom, Rule):
        assert all(not f.name.startswith("_") for f in dataclasses.fields(cls))


def test_terms_and_rules_pickle_and_copy_without_their_caches():
    text = "p(f(X),[a|Y]) :- q(X), r(Y,g(Z))."
    r = parse_rule(text)
    hash(r), rule_vars(r), is_ground(r), hash(r.head.args[0]), hash(Var("X"))
    p = pg(text + " s(a).")
    for obj in (r, r.head, r.head.args[0], r.head.args[0].args[0], p):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)
    assert pickle.loads(pickle.dumps(p)).strict_equals(p)
    assert rule_vars(copy.deepcopy(r)) == rule_vars(r)
    # a hash or a variable tuple is never part of the pickled state
    assert pickle.dumps(r) == pickle.dumps(parse_rule(text))


_PICKLE = """
import pickle, sys
from hornalg.parser import parse_program
p = parse_program(sys.argv[1])
(r,) = p.proper().rules
objs = [p, r, r.head, r.head.args[0]]
set(objs), [hash(a) for a in r.body]
sys.stdout.write(pickle.dumps(objs).hex())
"""

_UNPICKLE = """
import pickle, sys
from hornalg.parser import parse_program
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
p = parse_program(sys.argv[1])
(r,) = p.proper().rules
built = [p, r, r.head, r.head.args[0]]
for a, b in zip(loaded, built):
    assert a == b and hash(a) == hash(b) and a in set(built) and b in {a}, (a, b)
assert r.body == loaded[1].body and all(x in r.body for x in loaded[1].body)
"""


def test_pickled_terms_hash_afresh_under_another_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    text = "p(f(X),[a|Y]) :- q(X), r(Y,g(Z)). s(a)."

    def run(script, seed, stdin=None):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, text], env=env, input=stdin,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    run(_UNPICKLE, 2, stdin=run(_PICKLE, 1))



@pytest.mark.parametrize("parse, text, message", [
    (parse_atom, "p(", "<string>:1:3: expected a term (at end of input)"),
    (parse_atom, "p(;)", "<string>:1:3: expected a term (got ';')"),
    (parse_rule, "p. q.", "<string>:1:4: trailing input after rule (got 'q')"),
])
def test_parser_reports_an_unfinished_or_misplaced_term(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, got", [
    ("p ^ q.", "^"), ("p(a) / q.", "/"), ("p; q.", ";"),
    ("p = q.", "="), ("p(X) := q.", ":="), ("p {q.}", "{q.}"),
])
def test_form_tokens_in_a_program_fail_in_the_parser(text, got):
    # One token table serves `.lp` and `.lpf` text, so form tokens in a
    # program are rejected by the rule grammar, where they stand.
    with pytest.raises(ParseError) as info:
        parse_program(text)
    col = text.index(got) + 1
    assert str(info.value) == f"<string>:1:{col}: expected '.' after rule (got {got!r})"
