from __future__ import annotations

import random
from collections import Counter

import pytest

from hornalg import corpus
from hornalg.errors import FormEvalError, ProportionError
from hornalg.forms import (
    ComposeOf,
    Evaluator,
    FactsOf,
    FormCall,
    Lit,
    UnionOf,
    VarRef,
    expr_key,
    form_to_text,
    make_binding,
    parse_forms,
)
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
    pool_values,
    solve_proportion,
    vector_pool,
)
from hornalg.syntax import render_program
from test_properties import _rand_problem


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
    flipped = ProportionWitness(w.f, w.g, w.pvec, w.rvec, "fggf")
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


def test_rearrangements_of_solver_witnesses_verify_on_every_line():
    # every bundled problem is fgfg, so derive from solver witnesses instead
    rng = random.Random(2024)
    budget = SolveBudget(max_form_depth=1, max_vector_rules=2)
    lines: Counter = Counter()
    for k in range(60):
        # target predicates disjoint from the source ones, then shared
        problem = _rand_problem(rng, ("c", "d") if k % 2 else ("a", "b"))
        for sol in solve_proportion(problem, budget):
            lines[sol.witness.line] += 1
            for name, derived, witness in derived_proportions(problem, sol.witness, sol.s):
                report = check_proportion(derived, witness, evaluator=Evaluator())
                assert report.ok, f"{sol.witness.line} {name}: {report.format_lines()}"
    assert set(lines) == {"fgfg", "fggf", "ffgg"}


A = DomainSig("A", frozenset({"a"}), frozenset())
C = DomainSig("C", frozenset({"c"}), frozenset())
AC = DomainSig("AC", frozenset({"a", "c"}), frozenset())
X1 = VarRef("X1")
V = "a. b :- a."


@pytest.mark.parametrize("f, g, pvec, rvec, line, programs, source, target", [
    # F and G are one form
    (X1, X1, "a.", "c.", "fgfg", ("a.", "a.", "c.", "c."), A, C),
    (X1, X1, "a.", "c.", "fggf", ("a.", "a.", "c.", "c."), A, C),
    (X1, X1, "a.", "c.", "ffgg", ("a.", "c.", "a.", "c."), AC, AC),
    # the two vectors are equal
    (X1, FactsOf(X1), V, V, "fgfg", (V, "a.", V, "a."), AB, AB),
    (X1, FactsOf(X1), V, V, "fggf", (V, "a.", "a.", V), AB, AB),
    (X1, FactsOf(X1), V, V, "ffgg", (V, V, "a.", "a."), AB, AB),
])
def test_rearrangements_verify_when_forms_or_vectors_coincide(
        f, g, pvec, rvec, line, programs, source, target):
    p, q, r, s = map(pg, programs)
    problem = ProportionProblem(p, q, r, source, target, s)
    witness = make_witness(f, g, [pg(pvec)], [pg(rvec)], line)
    assert check_proportion(problem, witness).ok
    for name, derived, w in derived_proportions(problem, witness):
        report = check_proportion(derived, w)
        assert report.ok, f"{name}: {report.format_lines()}"


# Each rearrangement of a witness on `line`: its line, then the original
# forms and vectors in the order the rearranged witness takes them; None
# for the two-entry witness of P : R :: Q : S on fggf.
@pytest.mark.parametrize("line, expected", [
    ("fgfg", [("fgfg", "gf", "pr"), ("fgfg", "fg", "rp"), ("ffgg", "fg", "pr")]),
    ("fggf", [("fggf", "gf", "pr"), ("fggf", "gf", "rp"), None]),
    ("ffgg", [("ffgg", "fg", "rp"), ("ffgg", "gf", "pr"), ("fgfg", "fg", "pr")]),
])
def test_derived_witnesses_follow_the_rearranged_equations(line, expected):
    f, g = X1, FactsOf(X1)
    pvec, rvec = (make_binding(pg("a.")),), (make_binding(pg("b.")),)
    problem = ProportionProblem(pg("a."), pg("a."), pg("a."), AB, AB, pg("a."))
    forms, vecs = {"f": f, "g": g}, {"p": pvec, "r": rvec}
    derived = derived_proportions(problem, ProportionWitness(f, g, pvec, rvec, line))
    for (name, _, w), want in zip(derived, expected):
        if want is None:
            assert (w.line, w.f, form_to_text(w.g)) == ("fggf", f, "facts(X2)")
            assert (w.pvec, w.rvec) == (pvec + rvec, rvec + pvec)
            continue
        new_line, (wf, wg), (wp, wr) = want
        assert (w.line, w.f, w.g, w.pvec, w.rvec) == (
            new_line, forms[wf], forms[wg], vecs[wp], vecs[wr]), name


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


def _rows(solutions):
    return [(sol.s.name_key(), sol.witness.line, form_to_text(sol.witness.f),
             form_to_text(sol.witness.g), [b.program.name_key() for b in sol.witness.pvec],
             [b.program.name_key() for b in sol.witness.rvec]) for sol in solutions]


@pytest.mark.parametrize("name", corpus.names("proportions"))
def test_solution_cap_keeps_a_prefix(name):
    # Witnesses are built only for the solutions returned; capping must not
    # change which ones come first.
    spec = corpus.problem_spec(name)

    def solve(**caps):
        budget = SolveBudget(max_form_depth=2, **caps)
        return _rows(solve_proportion(spec.problem, budget, Evaluator(spec.table)))

    full = solve()
    for k in (1, 3, 10):
        assert solve(max_solutions=k) == full[:k]


def test_pool_values_fall_back_to_the_evaluator():
    table = parse_forms("form F(X) = X o X;")
    x1, lit = VarRef("X1"), Lit(pg("p(a)."))
    outside = Lit(pg("q(b)."))  # an operand that is no pool form
    pool = [x1, lit, FormCall("F", ("X1",)), FactsOf(FormCall("F", ("X1",))),
            UnionOf(x1, outside), FormCall("G", ("X1",)), ComposeOf(lit, FormCall("G", ("X1",))),
            FactsOf(lit), UnionOf(x1, lit)]
    forms, values_on = pool_values(pool, Evaluator(table))
    assert forms == pool  # no two share an expr_key
    prog = pg("p(a). p(X) :- p(X).")
    values = values_on(prog)
    ev = Evaluator(table)
    for fm, got in zip(forms, values, strict=True):
        try:
            want = ev.eval(fm, {"X1": make_binding(prog)}, {})
        except FormEvalError:
            assert got is None  # G is no form of the table
        else:
            assert got == want and got.name_key() == want.name_key()
    assert values[5] is None and values[6] is None


def test_pool_values_keep_the_first_form_of_each_expr_key():
    x1, a, b, c = VarRef("X1"), Lit(pg("q(X).")), Lit(pg("q(X).")), Lit(pg("q(Y)."))
    u = UnionOf(x1, b)
    forms, values_on = pool_values([x1, a, b, c, u], Evaluator())
    # b repeats a's key; {q(Y).} equals {q(X).} as a program, not by key
    assert [id(fm) for fm in forms] == [id(x1), id(a), id(c), id(u)]
    assert values_on(pg("r."))[3] == pg("r. q(X).")


def test_form_pool_respects_domain_intersection():
    spec = disjoint_spec()
    pool = form_pool(spec.problem, SolveBudget(max_form_depth=1))
    assert VarRef("X1") in pool
    # no literal mentioning a or b survives: those predicates are source-only
    from hornalg.forms import Lit

    for expr in pool:
        if isinstance(expr, Lit):
            assert expr.program.predicates() <= {"c", "d"} or not expr.program


def test_form_pool_stops_at_max_forms():
    problem = joint_spec().problem
    full = form_pool(problem, SolveBudget(max_form_depth=2, max_forms=10**9))
    assert len(full) > 1000
    for k in (0, 3, 100, 1000):
        assert form_pool(problem, SolveBudget(max_form_depth=2, max_forms=k)) == full[:k]
    # a depth no pool could reach costs what the forms budget allows
    assert form_pool(problem, SolveBudget(max_form_depth=10**20, max_forms=1000)) == full[:1000]


def test_solve_budget_rejects_negative_bounds():
    with pytest.raises(ProportionError, match="max_solutions, witnesses_per_s"):
        SolveBudget(max_solutions=-1, witnesses_per_s=-4)


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
