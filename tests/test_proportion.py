from __future__ import annotations

import pytest

from hornalg import corpus
from hornalg.errors import ProportionError
from hornalg.forms import Evaluator, FormCall, VarRef, expr_key, make_binding, parse_forms
from hornalg.parser import parse_program
from hornalg.proportion import (
    CheckReport,
    DomainSig,
    ProportionProblem,
    ProportionWitness,
    SolveBudget,
    alien_symbols,
    check_proportion,
    derived_proportions,
    form_pool,
    in_domain,
    make_witness,
    parse_binding_spec,
    parse_proportion_file,
    solve_proportion,
    vector_pool,
)
from hornalg.syntax import render_program


def pg(text):
    return parse_program(text)


AB = DomainSig("A", frozenset({"a", "b"}), frozenset())
CD = DomainSig("B", frozenset({"c", "d"}), frozenset())
ABCD = AB.union(CD)


def ev_for(spec):
    return Evaluator(table=spec.table)


def joint_spec():
    return corpus.problem_spec("ex43_joint")


def disjoint_spec():
    return corpus.problem_spec("ex43_disjoint")


# ---------------------------------------------------------------------------
# domains


def test_domain_union_and_intersection():
    assert ABCD.preds == frozenset({"a", "b", "c", "d"})
    both = DomainSig("X", frozenset({"b", "c"}), frozenset({"f"}))
    inter = both.intersection(ABCD)
    assert inter.preds == frozenset({"b", "c"})
    assert inter.functors == frozenset()


def test_in_domain_checks_preds_and_functors():
    assert in_domain(pg("a :- b."), AB)
    assert not in_domain(pg("a :- c."), AB)
    nat_sig = DomainSig("N", frozenset({"nat"}), frozenset({"0", "s"}))
    assert in_domain(pg("nat(s(0))."), nat_sig)
    assert not in_domain(pg("nat(f(0))."), nat_sig)


def test_alien_symbols_are_named():
    assert alien_symbols(pg("a :- c, d."), AB) == ["c", "d"]


def test_problem_validates_membership_on_construction():
    with pytest.raises(ProportionError):
        ProportionProblem(pg("c."), pg("a."), pg("c."), AB, CD)
    with pytest.raises(ProportionError):
        ProportionProblem(pg("a."), pg("a."), pg("a."), AB, CD)


# ---------------------------------------------------------------------------
# witnesses


def test_witness_validates_line():
    with pytest.raises(ProportionError):
        make_witness(VarRef("X1"), VarRef("X1"), (pg("a."),), (pg("c."),), "fgg")


def test_witness_validates_vector_arity():
    with pytest.raises(ProportionError):
        make_witness(VarRef("X1"), VarRef("X1"), (pg("a."),), (), "fgfg")


def test_witness_rejects_stray_variables():
    with pytest.raises(ProportionError):
        make_witness(VarRef("X2"), VarRef("X1"), (pg("a."),), (pg("c."),), "fgfg")


def test_make_witness_coerces_programs_to_bindings():
    w = make_witness(VarRef("X1"), VarRef("X1"), (pg("a."),), (pg("c."),), "FGFG")
    assert w.line == "fgfg"
    assert w.pvec[0].program == pg("a.")
    assert w.arity == 1


# ---------------------------------------------------------------------------
# verification


def test_joint_witness_verifies():
    spec = joint_spec()
    report = check_proportion(spec.problem, spec.witness, evaluator=ev_for(spec))
    assert report.ok
    codes = [item.code for item in report.items]
    assert codes == [
        "alien_literal",
        "f_nonconstant",
        "g_nonconstant",
        "pvec_in_domain",
        "rvec_in_domain",
        "s_in_target",
        "p_identity",
        "q_identity",
        "r_identity",
        "s_identity",
    ]
    text = report.format_lines()
    assert text[-1] == "verified"
    assert all(line.startswith("ok ") for line in text[:-1])


def test_joint_witness_verifies_strictly():
    spec = joint_spec()
    report = check_proportion(spec.problem, spec.witness, strict=True,
                              evaluator=ev_for(spec))
    assert report.ok


def test_disjoint_domains_reject_the_shared_fact():
    spec = disjoint_spec()
    report = check_proportion(spec.problem, spec.witness, evaluator=ev_for(spec))
    assert not report.ok
    failed = {item.code for item in report.items if not item.ok}
    assert "alien_literal" in failed
    alien = next(item for item in report.items if item.code == "alien_literal")
    assert "b" in alien.detail
    assert report.format_lines()[-1] == "not verified"


def test_check_needs_a_fourth_program():
    spec = joint_spec()
    bare = ProportionProblem(spec.problem.p, spec.problem.q, spec.problem.r,
                             spec.problem.source, spec.problem.target)
    with pytest.raises(ProportionError):
        check_proportion(bare, spec.witness)


def test_explicit_s_overrides_problem_s():
    spec = joint_spec()
    report = check_proportion(spec.problem, spec.witness, s=pg("a."),
                              evaluator=ev_for(spec))
    assert not report.ok
    assert not next(i for i in report.items if i.code == "s_identity").ok


def test_wrong_line_fails_identities():
    spec = joint_spec()
    w = spec.witness
    flipped = ProportionWitness(w.f, w.g, w.pvec, w.rvec, "fggf", w.probe)
    report = check_proportion(spec.problem, flipped, evaluator=ev_for(spec))
    assert not report.ok


# ---------------------------------------------------------------------------
# derived rearrangements


def test_derived_proportions_all_verify():
    spec = joint_spec()
    derived = derived_proportions(spec.problem, spec.witness)
    assert [name for name, _, _ in derived] == ["q:p::s:r", "r:s::p:q", "p:r::q:s"]
    for name, problem, witness in derived:
        report = check_proportion(problem, witness, evaluator=ev_for(spec))
        assert report.ok, f"{name}: {report.format_lines()}"


def test_derived_proportions_between_counting_and_lists():
    spec = corpus.problem_spec("nat_plus_list")
    for name, problem, witness in derived_proportions(spec.problem, spec.witness):
        report = check_proportion(problem, witness, evaluator=ev_for(spec))
        assert report.ok, f"{name}: {report.format_lines()}"


def test_derived_proportions_need_s():
    spec = joint_spec()
    bare = ProportionProblem(spec.problem.p, spec.problem.q, spec.problem.r,
                             spec.problem.source, spec.problem.target)
    with pytest.raises(ProportionError):
        derived_proportions(bare, spec.witness)


# ---------------------------------------------------------------------------
# solving


def test_solver_finds_the_disjoint_answer():
    spec = disjoint_spec()
    problem = ProportionProblem(spec.problem.p, spec.problem.q, spec.problem.r,
                                spec.problem.source, spec.problem.target)
    solutions = solve_proportion(problem)
    rendered = {render_program(sol.s) for sol in solutions}
    assert "c :- d.\nd." in rendered


def test_solver_output_is_verified():
    spec = disjoint_spec()
    problem = ProportionProblem(spec.problem.p, spec.problem.q, spec.problem.r,
                                spec.problem.source, spec.problem.target)
    for sol in solve_proportion(problem, SolveBudget(max_solutions=12)):
        report = check_proportion(problem, sol.witness, s=sol.s,
                                  evaluator=ev_for(spec))
        assert report.ok


def test_solver_caps_witnesses_per_candidate():
    spec = disjoint_spec()
    problem = ProportionProblem(spec.problem.p, spec.problem.q, spec.problem.r,
                                spec.problem.source, spec.problem.target)
    budget = SolveBudget(witnesses_per_s=2)
    per_s: dict = {}
    for sol in solve_proportion(problem, budget):
        per_s[render_program(sol.s)] = per_s.get(render_program(sol.s), 0) + 1
    assert per_s and max(per_s.values()) <= 2


def test_solver_respects_max_solutions():
    spec = disjoint_spec()
    problem = ProportionProblem(spec.problem.p, spec.problem.q, spec.problem.r,
                                spec.problem.source, spec.problem.target)
    assert len(solve_proportion(problem, SolveBudget(max_solutions=3))) <= 3


@pytest.mark.parametrize("p, q, r", [
    ("q(X).", "q(X,X).", "q(Y). q(Y,Y)."),
    # the source vector {q(X).} equals the target vector {q(Y).}, but
    # concatenation gives them different values
    ("q(X). q(X,Z).", "q(X). q(X,X).", "q(Y)."),
])
def test_solver_output_verifies_when_programs_are_variants(p, q, r):
    sig = DomainSig("Q", frozenset({"q"}), frozenset())
    problem = ProportionProblem(pg(p), pg(q), pg(r), sig, sig)
    pool = form_pool(problem, SolveBudget())
    assert len(set(pool)) < len(pool)  # {q(X).} from P equals {q(Y).} from R
    solutions = solve_proportion(problem, SolveBudget(max_solutions=1000, witnesses_per_s=100))
    assert solutions
    keys = set()
    for sol in solutions:
        w = sol.witness
        assert check_proportion(problem, w, s=sol.s, evaluator=Evaluator()).ok
        # the pool keeps {q(X).} and {q(Y).} apart, so witnesses are told
        # apart by name, not up to variants
        keys.add((w.line, expr_key(w.f), expr_key(w.g),
                  w.pvec[0].program.name_key(), w.rvec[0].program.name_key()))
    assert len(keys) == len(solutions)


@pytest.mark.parametrize("p, q, r, count", [
    ("q(X).", "q(X,X).", "q(Y). q(Y,Y).", 12),
    ("q(X). q(X,Z).", "q(X). q(X,X).", "q(Y).", 4),
])
def test_solver_keeps_pool_forms_equal_only_up_to_names(p, q, r, count):
    # The brute-force oracle over the raw pool (tests/test_properties.py,
    # `_oracle_solutions`) verifies this many distinct S on each problem;
    # merging {q(X).} with {q(Y).} lost some of them.
    sig = DomainSig("Q", frozenset({"q"}), frozenset())
    problem = ProportionProblem(pg(p), pg(q), pg(r), sig, sig)
    budget = SolveBudget(max_form_depth=2, max_solutions=100_000, witnesses_per_s=100_000)
    assert len({sol.s for sol in solve_proportion(problem, budget)}) == count


def test_form_pool_respects_domain_intersection():
    spec = disjoint_spec()
    pool = form_pool(spec.problem, SolveBudget(max_form_depth=1))
    assert VarRef("X1") in pool
    # no literal mentioning a or b survives: those predicates are source-only
    from hornalg.forms import Lit

    for expr in pool:
        if isinstance(expr, Lit):
            assert expr.program.predicates() <= {"c", "d"} or not expr.program


def test_vector_pool_sizes():
    rules = pg("a. b :- a.").rules
    vecs = vector_pool(rules, SolveBudget(max_vector_rules=2))
    assert pg("") in vecs
    assert pg("a. b :- a.") in vecs
    assert len(vecs) == 4


# ---------------------------------------------------------------------------
# parsing


def test_parse_binding_spec_plain():
    b = parse_binding_spec("corpus:nat", corpus.program)
    assert b.program == corpus.program("nat")
    assert b.main_pred == "nat"


def test_parse_binding_spec_rename():
    b = parse_binding_spec("corpus:nat[nat/even]", corpus.program)
    assert b.program == corpus.program("even").facts() | corpus.program("nat").rename_predicate("nat", "even").proper()
    assert b.main_pred == "even"


def test_parse_binding_spec_tuple():
    b = parse_binding_spec("corpus:tree(U,X,X)", corpus.program)
    assert b.program == pg("tree(void). tree(t(U,X,X)) :- tree(X), tree(X).")


def test_parse_binding_spec_rejects_bad_tuple():
    with pytest.raises(ProportionError):
        parse_binding_spec("corpus:tree(U,x,X)", corpus.program)


def test_problem_file_round_trip():
    spec = corpus.problem_spec("nat_plus_list")
    assert spec.problem.p == corpus.program("nat")
    assert spec.problem.s == corpus.program("plus_list_inst")
    assert spec.witness is not None
    assert spec.witness.line == "fgfg"
    assert spec.witness.f == FormCall("Plus", ("X1",)) or spec.witness.f == FormCall("Id", ("X1",))


def test_problem_file_unknown_s_is_none():
    text = """
p: corpus:ex43_p
q: corpus:ex43_q
r: corpus:ex43_r
s: ?
source-preds: a b
target-preds: c d
"""
    spec = parse_proportion_file(text, corpus.program, corpus.forms_table)
    assert spec.problem.s is None
    assert spec.witness is None


def test_problem_file_requires_core_keys():
    with pytest.raises(ProportionError):
        parse_proportion_file("p: corpus:nat\n", corpus.program, corpus.forms_table)


def test_problem_file_rejects_duplicate_keys():
    text = "p: corpus:nat\np: corpus:list\nq: corpus:nat\nr: corpus:nat\n"
    with pytest.raises(ProportionError):
        parse_proportion_file(text, corpus.program, corpus.forms_table)


def test_report_formatting_shape():
    report = CheckReport("fgfg", ())
    assert report.format_lines() == ["verified"]
