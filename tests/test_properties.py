"""Randomized law checks.  Each suite runs at least 500 pinned-seed cases."""

import random
from collections import Counter

from hornalg import corpus
from hornalg.algebra import compose, concatenate, omega
from hornalg.errors import (
    BudgetError,
    CompositionOverflowError,
    FixpointBudgetError,
    FormEvalError,
    ProportionError,
)
from hornalg.forms import Evaluator, form_to_text, make_binding
from hornalg.parser import parse_program
from hornalg.proportion import (
    DomainSig,
    ProportionProblem,
    ProportionWitness,
    SolveBudget,
    check_proportion,
    form_pool,
    pool_values,
    solve_proportion,
    vector_pool,
)
from hornalg.semantics import (
    GroundingBound,
    ground,
    herbrand_universe,
    least_model,
    list_universe,
    tp_step,
)
from hornalg.sld import proves
from hornalg.syntax import (NIL, Atom, Compound, Program, Rule, Var, body_order, cons,
                            render_atom, render_program, rule_vars, vars_of)

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
    for _ in range(CASES):
        p = rand_program(rng, max_rules=2, max_body=2, depth=1)
        universe = sorted(herbrand_universe(p, bound), key=str)
        n_atoms = rng.randint(0, 4) if universe else 0
        i = frozenset(rand_ground_atom(rng, universe) for _ in range(n_atoms))
        stepped = tp_step(p, i, bound)
        composed = compose(ground(p, bound), Program(Rule(a) for a in sorted(i, key=str)))
        assert all(r.is_fact for r in composed)
        assert stepped == frozenset(r.head for r in composed), render_program(p)


# ---------------------------------------------------------------------------
# 4. the bounded least model is the omega closure of the grounding


def test_least_model_matches_omega_of_grounding():
    rng = random.Random(1404)
    bound = GroundingBound(max_term_depth=1)
    checked = 0
    attempts = 0
    while checked < CASES and attempts < CASES * 4:
        attempts += 1
        p = rand_program(rng, max_rules=3, max_body=2, depth=1)
        g = ground(p, bound)
        try:
            closure = omega(g, cap=40)
        except (FixpointBudgetError, CompositionOverflowError):
            continue
        assert all(r.is_fact for r in closure)
        assert frozenset(r.head for r in closure) == least_model(p, bound), render_program(p)
        checked += 1
    assert checked == CASES


# ---------------------------------------------------------------------------
# 4b. the least model is the naive fixpoint of the grounding, over list
# universes and at Herbrand depth 2


# one term deeper than each kind of universe the suite uses
_OUTSIDE = {False: Compound("f", (Compound("f", (Compound("f", (Compound("a"),)),)),)),
            True: cons(Compound("a"), cons(Compound("a"), cons(Compound("a"), NIL)))}


def rand_open_term(rng, depth, lists, p_var=0.4):
    if rng.random() < p_var:
        return Var(rng.choice(("X", "Y", "U")))
    roll = rng.random()
    if roll < 0.4 or depth == 0:
        return Compound(rng.choice(("a", "b", "nil") if lists else ("a", "0")))
    if lists and roll < 0.75:
        return cons(rand_open_term(rng, depth - 1, lists), rand_open_term(rng, depth - 1, lists))
    return Compound("f", (rand_open_term(rng, depth - 1, lists),))


def rand_open_program(rng, lists):
    """Rules whose heads often carry variables the body leaves open, nested
    in lists or f(...), plus variable-free rules over atoms outside any
    of the suite's universes."""
    def atom(depth=2, p_var=0.4):
        pred, arity = rng.choice((("p", 1), ("r", 2)))
        return Atom(pred, tuple(rand_open_term(rng, depth, lists, p_var) for _ in range(arity)))

    rules = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.2:
            outside = Atom("p", (_OUTSIDE[lists],))
            rules.append(rng.choice((Rule(outside), Rule(atom(0), {outside}))))
        else:
            rules.append(Rule(atom(), frozenset(atom(1, 0.6) for _ in range(rng.randint(0, 2)))))
    return Program(rules)


def naive_fixpoint(g):
    model = set()
    while True:
        step = {r.head for r in g if r.body <= model}
        if step <= model:
            return frozenset(model)
        model |= step


def _nested_head_only(rule):
    open_vars = vars_of(rule.head).difference(*map(vars_of, rule.body))
    return any(not isinstance(t, Var) and vars_of(t) & open_vars for t in rule.head.args)


def test_least_model_matches_fixpoint_of_grounding():
    rng = random.Random(1414)
    seen = Counter()
    for i in range(CASES):
        lists = i % 2 == 0
        p = rand_open_program(rng, lists)
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
    assert all(seen[k] > CASES // 10 for k in ("nested_head_only", "outside", "derived")), seen


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
    codes of the items failing on each rejected candidate are counted into
    `rejections` when it is given."""
    ev = Evaluator()
    forms = form_pool(problem, budget)
    svecs = vector_pool((problem.p | problem.q).rules, budget)
    tvecs = vector_pool(problem.r.rules, budget)

    def values_on(prog):
        out = []
        for fm in forms:
            try:
                out.append(ev.eval(fm, {"X1": make_binding(prog)}, {}))
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
    return kept


def _solver_set(problem, budget):
    return {
        (
            sol.witness.line,
            form_to_text(sol.witness.f),
            form_to_text(sol.witness.g),
            render_program(sol.witness.pvec[0].program),
            render_program(sol.witness.rvec[0].program),
            render_program(sol.s),
        )
        for sol in solve_proportion(problem, budget)
    }


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


# ---------------------------------------------------------------------------
# 8. the solver's values by pool position are what the evaluator gives


def _assert_pool_values_match_evaluator(problem, table, budget):
    forms, values_on = pool_values(form_pool(problem, budget), Evaluator(table))
    vectors = (vector_pool((problem.p | problem.q).rules, budget)
               + vector_pool(problem.r.rules, budget))
    for prog in vectors:
        ev = Evaluator(table)
        env = {"X1": make_binding(prog)}
        for fm, got in zip(forms, values_on(prog), strict=True):
            try:
                want = ev.eval(fm, env, {})
            except (FormEvalError, BudgetError):
                assert got is None, form_to_text(fm)
            else:
                # equal down to variable names, which concatenation sees
                assert got is not None and got.name_key() == want.name_key(), form_to_text(fm)


def test_pool_values_match_the_evaluator():
    budget = SolveBudget(max_form_depth=2)
    for name in corpus.names("proportions"):
        spec = corpus.problem_spec(name)
        _assert_pool_values_match_evaluator(spec.problem, spec.table, budget)
    rng = random.Random(2323)
    for _ in range(20):
        _assert_pool_values_match_evaluator(_rand_problem(rng), {}, budget)


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
