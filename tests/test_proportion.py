from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from hornalg import algebra, corpus, proportion
from hornalg.errors import FormEvalError, ProportionError
from hornalg.forms import (
    Binary,
    Evaluator,
    FormCall,
    Lit,
    Unary,
    VarRef,
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
    fixed_material_offences,
    form_pool,
    in_domain,
    make_witness,
    parse_binding_spec,
    parse_proportion_file,
    solve_proportion,
    vector_pool,
)
from hornalg.syntax import Program, render_program
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


def test_identity_that_fails_to_evaluate_is_a_failed_item():
    # F reads the main predicate of its argument, and the target vector
    # has two head predicates.
    spec = joint_spec()
    table = parse_forms("form Main(X[q]) = X[q/c];")
    witness = make_witness(FormCall("Main", ("X1",)), VarRef("X1"), spec.witness.pvec,
                           (pg("c :- d. d."),), "fgfg")
    report = check_proportion(spec.problem, witness, evaluator=Evaluator(table))
    item = next(i for i in report.items if i.code == "r_identity")
    assert not item.ok
    assert item.detail == ("F on the target vector failed to evaluate: "
                           "placeholder q has no main predicate to resolve against")


def test_fixed_material_of_an_unknown_form_is_a_proportion_error():
    with pytest.raises(ProportionError, match="call of unknown form Nope"):
        fixed_material_offences((FormCall("Nope", ("X1",)),), ABCD, {})


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
    (X1, Unary("facts", X1), V, V, "fgfg", (V, "a.", V, "a."), AB, AB),
    (X1, Unary("facts", X1), V, V, "fggf", (V, "a.", "a.", V), AB, AB),
    (X1, Unary("facts", X1), V, V, "ffgg", (V, V, "a.", "a."), AB, AB),
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
    f, g = X1, Unary("facts", X1)
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


def _chain(pred: str, n: int = 20):
    return pg(" ".join(f"{pred}{i} :- {pred}{i + 1}." for i in range(n)))


def test_solver_skips_vectors_that_give_no_program(monkeypatch):
    # Over disjoint predicates no form value on a source vector is P, Q or
    # R, so no vector pair is tried, and no vector's contents are worked out.
    calls = Counter()
    issubset = Program.issubset

    def counting(self, other):
        calls["issubset"] += 1
        return issubset(self, other)

    monkeypatch.setattr(Program, "issubset", counting)
    preds = {c: frozenset(f"{c}{i}" for i in range(21)) for c in "abc"}
    source = DomainSig("S", preds["a"] | preds["b"], frozenset())
    target = DomainSig("T", preds["c"], frozenset())
    problem = ProportionProblem(_chain("a"), _chain("b"), _chain("c"), source, target)
    assert solve_proportion(problem) == []
    assert calls["issubset"] <= 300


def test_solver_evaluates_no_form_on_the_disjoint_chain(monkeypatch):
    # No vector reaches the symbols of P, Q or R through forms whose fixed
    # material is shared, so no form is evaluated on any vector.
    calls = Counter()
    eval_ = Evaluator._eval

    def counting(self, *args, **kwargs):
        calls["eval"] += 1
        return eval_(self, *args, **kwargs)

    monkeypatch.setattr(Evaluator, "_eval", counting)
    n = 40
    preds = {c: frozenset(f"{c}{i}" for i in range(n + 1)) for c in "abc"}
    source = DomainSig("S", preds["a"] | preds["b"], frozenset())
    target = DomainSig("T", preds["c"], frozenset())
    problem = ProportionProblem(_chain("a", n), _chain("b", n), _chain("c", n), source, target)
    ev = Evaluator()
    assert solve_proportion(problem, evaluator=ev) == []
    assert calls["eval"] == 0
    assert not ev._envs  # no vector's environment is made


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
        keys.add((w.line, form_to_text(w.f), form_to_text(w.g),
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


def test_pool_positions_evaluate_any_node():
    # Operators apply their table entry to their operands' values; calls,
    # unknown calls and operands that are no pool form evaluate too.
    table = parse_forms("form F(X) = X o X;")
    x1, lit = VarRef("X1"), Lit(pg("p(a)."))
    outside = Lit(pg("q(b)."))  # an operand that is no pool form
    pool = [x1, lit, FormCall("F", ("X1",)), Unary("facts", FormCall("F", ("X1",))),
            Binary("|", x1, outside), FormCall("G", ("X1",)),
            Binary("o", lit, FormCall("G", ("X1",))), Unary("facts", lit), Binary("|", x1, lit)]
    ev = Evaluator(table)
    positions = [ev.position(fm) for fm in pool]
    assert len(set(positions)) == len(pool)  # no two share an expr_key
    prog = pg("p(a). p(X) :- p(X).")
    env = {"X1": make_binding(prog)}
    value = ev.values(env)
    got = [value(i) for i in positions]
    twice = algebra.compose(prog, prog)
    want = [prog, pg("p(a)."), twice, twice.facts(), prog | pg("q(b)."), None, None,
            pg("p(a)."), prog]
    for fm, g, w in zip(pool, got, want, strict=True):
        assert g == w and (w is None or g.name_key() == w.name_key()), form_to_text(fm)
    # `eval` raises what the position's value failed with
    for fm in (pool[5], pool[6]):
        with pytest.raises(FormEvalError, match="unknown form G"):
            ev.eval(fm, env)


def test_pool_values_keep_the_first_form_of_each_expr_key():
    x1, a, b, c = VarRef("X1"), Lit(pg("q(X).")), Lit(pg("q(X).")), Lit(pg("q(Y)."))
    u = Binary("|", x1, b)
    ev = Evaluator()
    # b repeats a's key; {q(Y).} equals {q(X).} as a program, not by key
    assert [ev.position(fm) for fm in (x1, a, b, c, u)] == [0, 1, 1, 2, 3]
    assert ev.values({"X1": make_binding(pg("r."))})(3) == pg("r. q(X).")


def test_solver_walks_no_pool_form_from_its_root(monkeypatch):
    # `form_pool` hands each form to `Evaluator.place` with its operands'
    # positions as it makes it, so `position` is only asked for forms that
    # have one already, and never descends into an operand.
    calls, nested, depth = [], [], [0]
    position = Evaluator.position

    def watched(self, expr):
        calls.append(expr)
        if depth[0]:
            nested.append(expr)
        depth[0] += 1
        try:
            return position(self, expr)
        finally:
            depth[0] -= 1

    checked, is_nonconstant = [], proportion.is_nonconstant

    def counted(expr, ev):
        checked.append(expr)
        return is_nonconstant(expr, ev)

    monkeypatch.setattr(Evaluator, "position", watched)
    monkeypatch.setattr(proportion, "is_nonconstant", counted)
    spec = joint_spec()
    budget = SolveBudget(max_form_depth=2)
    assert len(form_pool(spec.problem, budget)) == 1905
    assert solve_proportion(spec.problem, budget, Evaluator(spec.table))
    assert nested == []
    # what is left is `is_nonconstant` reading back the forms it checks
    assert calls == checked and calls


def test_operation_memo_tells_operands_apart_by_name():
    # {q(X).} and {q(Y).} are equal programs, but concatenation sees the
    # names, so the memo must not hand one's result to the other.
    ev = Evaluator()
    i = ev.position(Binary(".", VarRef("X1"), Lit(pg("q(X)."))))
    on_x = ev.values({"X1": make_binding(pg("q(X)."))})
    on_y = ev.values({"X1": make_binding(pg("q(Y)."))})
    assert on_x(i).name_key() == ("q(X,X).",)
    assert on_y(i).name_key() == ("q(Y,X).",)


def test_solver_composes_each_operand_pair_once(monkeypatch):
    # Wrapped on its module, as the benchmark's tracer wraps it: form
    # evaluation looks `algebra.compose` up at each call.
    calls = Counter()
    compose = algebra.compose

    def counting(p, r, *args, **kwargs):
        calls[p.name_key(), r.name_key()] += 1
        return compose(p, r, *args, **kwargs)

    monkeypatch.setattr(algebra, "compose", counting)
    spec = joint_spec()
    problems = [(spec.problem, spec.table)]
    rng = random.Random(2424)
    problems += [(_rand_problem(rng), {}) for _ in range(10)]
    composed = 0
    for problem, table in problems:
        calls.clear()
        solve_proportion(problem, SolveBudget(max_form_depth=2), Evaluator(table))
        assert max(calls.values(), default=1) == 1, calls.most_common(1)
        composed += len(calls)
    assert composed > 0


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", corpus.names("proportions"))
def test_solver_checks_only_the_forms_it_returns(monkeypatch, name, depth):
    # Non-constancy runs on the pairs the ranking pulls, not on every
    # form that fits a block.
    checked = set()
    is_nonconstant = proportion.is_nonconstant

    def counting(form, ev):
        checked.add(form_to_text(form))
        return is_nonconstant(form, ev)

    monkeypatch.setattr(proportion, "is_nonconstant", counting)
    spec = corpus.problem_spec(name)
    solutions = solve_proportion(spec.problem, SolveBudget(max_form_depth=depth),
                                 Evaluator(spec.table))
    assert checked == {form_to_text(f) for sol in solutions
                       for f in (sol.witness.f, sol.witness.g)}


def _output_digest(solutions) -> str:
    h = hashlib.sha256()
    for sol in solutions:
        w = sol.witness
        for part in (w.line, form_to_text(w.f), form_to_text(w.g),
                     *(render_program(b.program) for b in w.pvec + w.rvec), render_program(sol.s)):
            h.update(part.encode() + b"\0")
    return h.hexdigest()[:16]


# Digests of the solver's output on each bundled problem by form depth:
# line, F and G text, vector texts and S text of each solution, in order.
_NO_SOLUTIONS = "e3b0c44298fc1c14"
_OUTPUT_DIGESTS = {
    ("even_reverse", 1): _NO_SOLUTIONS,
    ("even_reverse", 2): _NO_SOLUTIONS,
    ("even_reverse", 3): _NO_SOLUTIONS,
    ("ex43_disjoint", 1): "d3a06b24dbfce3bd",
    ("ex43_disjoint", 2): "8834980e8fd4c87d",
    ("ex43_disjoint", 3): "6d2b6d6a1b3642ab",
    ("ex43_joint", 1): "417f417d73a2d77a",
    ("ex43_joint", 2): "f9dd590b68a9113c",
    ("ex43_joint", 3): "d9b4daee79ba53e3",
    ("nat_plus_list", 1): _NO_SOLUTIONS,
    ("nat_plus_list", 2): _NO_SOLUTIONS,
    ("nat_plus_list", 3): _NO_SOLUTIONS,
    ("one_plus_one", 1): _NO_SOLUTIONS,
    ("one_plus_one", 2): _NO_SOLUTIONS,
    ("one_plus_one", 3): _NO_SOLUTIONS,
}


@pytest.mark.parametrize("name,depth", sorted(_OUTPUT_DIGESTS))
def test_solver_output_is_pinned(name, depth):
    spec = corpus.problem_spec(name)
    solutions = solve_proportion(spec.problem, SolveBudget(max_form_depth=depth),
                                 Evaluator(spec.table))
    assert _output_digest(solutions) == _OUTPUT_DIGESTS[name, depth]


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


@pytest.mark.parametrize("spec", [
    "corpus:nat[nat/]", "corpus:nat[nat/Even]", "corpus:nat[Nat]", "corpus:nat[]",
    "corpus:tree()", "corpus:tree(U,X,)", "corpus:nat[nat/even] x", "corpus:nat[a/b/c]",
])
def test_parse_binding_spec_reads_names_as_program_tokens(spec):
    with pytest.raises(ProportionError, match=r"^binding spec "):
        parse_binding_spec(spec, corpus.program)


def test_parse_binding_spec_main_predicate():
    b = parse_binding_spec("corpus:ex43_p[b]", corpus.program)
    assert b.program == corpus.program("ex43_p")
    assert b.main_pred == "b"


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


_CORE = ("p: corpus:ex43_p\nq: corpus:ex43_q\nr: corpus:ex43_r\n"
         "source-preds: a b c d\ntarget-preds: a b c d\n")


@pytest.mark.parametrize("extra, message", [
    ("no colon here\n", "<string>:6: expected `key: value`"),
    ("line: fgfg\nform-f: Id\n", "witness needs key form-g"),
    ("forms: corpus:ex43.lpf\nline: fgfg\nform-f: Id\nform-g: Nope\npvec: corpus:ex43_p\n",
     "unknown form Nope"),
    ("forms: corpus:ex43.lpf\nline: fgfg\nform-f: Id\nform-g: Id\n",
     "form Id needs 1 arguments, vectors have 0"),
    ("source-pred: a b\n", "<string>:6: unknown key source-pred"),
])
def test_problem_file_errors_are_proportion_errors(extra, message):
    with pytest.raises(ProportionError, match=message):
        parse_proportion_file(_CORE + extra, corpus.program, corpus.forms_table)


def test_report_formatting_shape():
    report = CheckReport("fgfg", ())
    assert report.format_lines() == ["verified"]
