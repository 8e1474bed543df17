"""The four workloads: their op populations and the oracles that check them.

Each workload is a fixed population of ops drawn once from a constant
base seed, so every run measures the same mix of op shapes and the
quantiles repeat across seeds.  The run's `--seed` renames the symbols
of the randomly drawn programs (predicates, functors and constants) and
orders the ops.  A renamed program is new text to the engine, but does
the same work as the base draw (see `symbol_names`), so one pinned digest
serves all seeds: results are renamed back before they are digested.

Every call into the engine goes through a module attribute
(`algebra.omega`, not a name imported from it), so that the traced run's
wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
from dataclasses import dataclass
from typing import Callable, Optional

from hornalg import algebra, corpus, parser, proportion, semantics, sld
from hornalg.forms import Evaluator, form_to_text
from hornalg.semantics import GroundingBound, list_universe
from hornalg.sld import Query
from hornalg.syntax import (
    Atom,
    Compound,
    Program,
    Rule,
    Var,
    render_atom,
    render_program,
    render_term,
)

# Random closure ops stop composing past this many rules per composition.
# Runaway draws then end in a pinned CompositionOverflowError in under a
# second, instead of running 8-14 s to the library default of 100,000.
CLOSURE_COMPOSE_CAP = 5000


@dataclass
class Op:
    """One call of the workload's operation.

    `run` performs the call.  `digest` maps its result to a text that
    does not depend on the run's symbol names; it is compared with the
    pinned value.  `oracle`, where one exists, checks the result
    independently and returns None or a description of the fault.
    """

    id: str
    run: Callable[[], object]
    digest: Callable[[object], str]
    oracle: Optional[Callable[[object], Optional[str]]] = None


# ---------------------------------------------------------------------------
# Renaming and digests


def rename(obj, names: dict):
    """The program, rule, atom or term with predicate and function symbols
    mapped through `names`; symbols not in `names` are kept."""
    if isinstance(obj, Var):
        return obj
    if isinstance(obj, Compound):
        return Compound(names.get(obj.functor, obj.functor),
                        tuple(rename(a, names) for a in obj.args))
    if isinstance(obj, Atom):
        return Atom(names.get(obj.pred, obj.pred), tuple(rename(a, names) for a in obj.args))
    if isinstance(obj, Rule):
        return Rule(rename(obj.head, names), frozenset(rename(a, names) for a in obj.body))
    if isinstance(obj, Program):
        return Program(rename(r, names) for r in obj)
    raise TypeError(f"cannot rename {type(obj).__name__}")


def symbol_names(rng: random.Random, symbols) -> dict:
    """A new name for each one-character base symbol: the symbol and a
    random suffix (of digits after a digit).  The renamed texts sort
    exactly as the base texts do, so the engine, which orders goals,
    bodies and universes by rendered text, does the same work."""
    out = {}
    for sym in symbols:
        alphabet = string.digits if sym.isdigit() else string.ascii_lowercase
        name = sym
        while name == sym or name in ("cons", "nil", "void"):
            name = sym + "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        out[sym] = name
    return out


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _program_text(p: Program, back: dict) -> str:
    return render_program(rename(p, back) if back else p)


def _atoms_digest(atoms, back: dict) -> str:
    return _sha(sorted(render_atom(rename(a, back) if back else a) for a in atoms))


def _parse(text: str, source: str) -> Program:
    return parser.parse_program(text, source=source)


# ---------------------------------------------------------------------------
# Random programs (the distributions of the project's property suites)


def _rand_term(rng, depth):
    roll = rng.random()
    if roll < 0.35:
        return Var(rng.choice(("X", "Y")))
    if roll < 0.65 or depth == 0:
        return Compound(rng.choice(("0", "a")))
    if roll < 0.9:
        return Compound("f", (_rand_term(rng, depth - 1),))
    return Compound("g", (_rand_term(rng, depth - 1), _rand_term(rng, depth - 1)))


def _rand_atom(rng, depth):
    pred, arity = rng.choice((("p", 1), ("q", 1), ("r", 2)))
    return Atom(pred, tuple(_rand_term(rng, depth) for _ in range(arity)))


def _rand_program(rng, max_rules=3, max_body=2, depth=1) -> Program:
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        body = frozenset(_rand_atom(rng, depth) for _ in range(rng.randint(0, max_body)))
        rules.append(Rule(_rand_atom(rng, depth), body))
    return Program(rules)


_TERM_SYMBOLS = ("p", "q", "r", "0", "a", "f", "g")


def _rand_prop_program(rng, preds, max_rules=2, max_atoms=3) -> Program:
    rules = []
    atoms = 0
    for _ in range(rng.randint(1, max_rules)):
        head = Atom(rng.choice(preds), ())
        body = frozenset(Atom(rng.choice(preds), ()) for _ in range(rng.randint(0, 1)))
        atoms += 1 + len(body)
        if atoms > max_atoms:
            break
        rules.append(Rule(head, body))
    return Program(rules)


def _population_rng(workload: str) -> random.Random:
    return random.Random(f"hornalg-perfbench:{workload}")


# ---------------------------------------------------------------------------
# solve


def _solutions_digest(sols, back: dict) -> str:
    texts: dict = {}  # solutions share their programs; render each once

    def text(p: Program) -> str:
        if p not in texts:
            texts[p] = _program_text(p, back)
        return texts[p]

    return _sha(sorted(
        [sol.witness.line, form_to_text(sol.witness.f), form_to_text(sol.witness.g),
         text(sol.witness.pvec[0].program), text(sol.witness.rvec[0].program), text(sol.s)]
        for sol in sols
    ))


def _reverify(problem, table) -> Callable:
    def oracle(sols) -> Optional[str]:
        ev = Evaluator(table)  # shares no memo with the solver's evaluator
        for sol in sols:
            report = proportion.check_proportion(problem, sol.witness, s=sol.s, evaluator=ev)
            if not report.ok:
                return f"solution {render_program(sol.s)!r} fails check_proportion"
        return None
    return oracle


def _solve_op(op_id, problem, budget, table, back) -> Op:
    def run():
        return proportion.solve_proportion(problem, budget, evaluator=Evaluator(table))
    return Op(op_id, run, lambda sols: _solutions_digest(sols, back), _reverify(problem, table))


def setup_solve(rng: random.Random, oracle_scope) -> list:
    """The five bundled problems at form depths 1 and 2 (the CLI's default
    budget otherwise), plus 120 random propositional problems at depth 2,
    half with vectors of one rule and half of two."""
    ops = []
    for name in corpus.names("proportions"):
        spec = corpus.problem_spec(name)
        for depth in (1, 2):
            ops.append(_solve_op(f"{name}-d{depth}", spec.problem,
                                 proportion.SolveBudget(max_form_depth=depth), spec.table, {}))
    names = symbol_names(rng, ("a", "b", "c", "d"))
    back = {v: k for k, v in names.items()}
    source = proportion.DomainSig("A", frozenset({names["a"], names["b"]}), frozenset())
    target = proportion.DomainSig("B", frozenset({names["c"], names["d"]}), frozenset())
    pop = _population_rng("solve")
    for i in range(120):
        progs = [_rand_prop_program(pop, preds) for preds in (("a", "b"), ("a", "b"), ("c", "d"))]
        p, q, r = (_parse(render_program(rename(prog, names)), f"solve-{i}") for prog in progs)
        vec = 1 + i % 2
        budget = proportion.SolveBudget(max_form_depth=2, max_vector_rules=vec)
        problem = proportion.ProportionProblem(p, q, r, source, target)
        ops.append(_solve_op(f"random-{i:03d}-v{vec}", problem, budget, {}, back))
    return ops


# ---------------------------------------------------------------------------
# closure

_DEPTH1 = GroundingBound(max_term_depth=1)
_POWER_PROGRAMS = ("plus", "pluslist", "times_nat", "reverse", "member", "nat_proper")


def _closure_op(op_id, p, model, back) -> Op:
    def run():
        return algebra.omega(semantics.ground(p, _DEPTH1), cap=40,
                             compose_cap=CLOSURE_COMPOSE_CAP)

    def oracle(closure) -> Optional[str]:
        if not all(r.is_fact for r in closure):
            return "omega returned a rule with a body"
        if frozenset(r.head for r in closure) != model:
            return "omega of the grounding differs from the least model"
        return None
    return Op(op_id, run, lambda c: _atoms_digest((r.head for r in c), back), oracle)


def _power_op(name, n) -> Op:
    p = corpus.program(name)
    return Op(f"power-{name}-{n}", lambda: algebra.power(p, n), lambda r: _sha(render_program(r)))


def setup_closure(rng: random.Random, oracle_scope) -> list:
    """150 random 3-rule programs (body <= 2, term depth 1), each grounded
    at depth 1 and closed with omega, plus powers 1-5 of six corpus
    programs.  The least models behind the oracle are computed here."""
    names = symbol_names(rng, _TERM_SYMBOLS)
    back = {v: k for k, v in names.items()}
    pop = _population_rng("closure")
    ops = []
    for i in range(150):
        p = _parse(render_program(rename(_rand_program(pop), names)), f"closure-{i}")
        with oracle_scope():
            model = semantics.least_model(p, _DEPTH1)
        ops.append(_closure_op(f"random-{i:03d}", p, model, back))
    ops += [_power_op(name, n) for name in _POWER_PROGRAMS for n in range(1, 6)]
    return ops


# ---------------------------------------------------------------------------
# model


def _nat_universe(max_depth: int) -> frozenset:
    out = [Compound("0")]
    for _ in range(max_depth):
        out.append(Compound("s", (out[-1],)))
    return frozenset(out)


def _tree_universe(labels: str, depth: int) -> frozenset:
    """The labels, `void`, and trees t(L, X, Y) of at most `depth` levels."""
    trees = [Compound("void")]
    for _ in range(depth):
        trees = [Compound("void")] + [
            Compound("t", (Compound(label), x, y)) for label in labels for x in trees for y in trees
        ]
    return frozenset(trees) | {Compound(label) for label in labels}


_LIST_PROGRAMS = ("member", "pluslist", "pluslist_prime", "plus_list_inst", "reverse")


def _ladder() -> list:
    """(program name, bound tag, bound): corpus programs over ladders of bounds."""
    depths = {"nat": (4, 8, 12, 16), "even": (8, 16, 24, 32), "plus": (2, 4, 6, 8),
              "times_nat": (2, 3, 4, 5)}
    out = [(name, f"d{d}", GroundingBound(max_term_depth=d))
           for name, ds in depths.items() for d in ds]
    for name in _LIST_PROGRAMS:
        out += [(name, f"ab{k}", GroundingBound(universe=list_universe("ab", k))) for k in (1, 2, 3)]
        out += [(name, f"abc{k}", GroundingBound(universe=list_universe("abc", k))) for k in (1, 2)]
    out += [("length", f"k{k}", GroundingBound(universe=list_universe("a", k) | _nat_universe(k)))
            for k in (2, 4, 6, 8, 12)]
    # An explicit universe, so tree's head-only label variable is
    # enumerated through head_var_pools.
    out += [("tree", f"{labels}{d}", GroundingBound(universe=_tree_universe(labels, d)))
            for labels, d in (("a", 1), ("ab", 1), ("abc", 1), ("a", 2))]
    return out


def _model_op(op_id, p, bound, back) -> Op:
    return Op(op_id, lambda: semantics.least_model(p, bound), lambda m: _atoms_digest(m, back))


def runaway_op() -> Op:
    """`tree` at term depth 3: a 730-term universe whose head-variable
    product ran for more than 60 s.  Kept out of the timed mix; the
    self-test runs it to check the per-op limit."""
    tree = corpus.program("tree")
    return _model_op("tree-d3", tree, GroundingBound(max_term_depth=3), {})


def _rand_database(rng) -> Program:
    """Five random rules over twenty random ground facts of term depth 1."""
    rules = list(_rand_program(rng, max_rules=5))
    facts = []
    for _ in range(20):
        pred, arity = rng.choice((("p", 1), ("q", 1), ("r", 2)))
        facts.append(Rule(Atom(pred, tuple(_rand_ground_term(rng) for _ in range(arity)))))
    return Program(rules + facts)


def _rand_ground_term(rng):
    roll = rng.random()
    if roll < 0.5:
        return Compound(rng.choice(("0", "a")))
    if roll < 0.8:
        return Compound("f", (Compound(rng.choice(("0", "a"))),))
    return Compound("g", tuple(Compound(rng.choice(("0", "a"))) for _ in range(2)))


def setup_model(rng: random.Random, oracle_scope) -> list:
    """Least models of corpus programs over ladders of bounds, plus 60
    random programs (five rules over twenty facts) at term depths 1 and 2."""
    ops = [_model_op(f"{name}-{tag}", corpus.program(name), bound, {})
           for name, tag, bound in _ladder()]
    names = symbol_names(rng, _TERM_SYMBOLS)
    back = {v: k for k, v in names.items()}
    pop = _population_rng("model")
    for i in range(60):
        p = _parse(render_program(rename(_rand_database(pop), names)), f"model-{i}")
        depth = 1 + i % 2
        ops.append(_model_op(f"random-{i:03d}-d{depth}", p, GroundingBound(max_term_depth=depth), back))
    return ops


# ---------------------------------------------------------------------------
# query

# (program, bound, proof depth): depths at which SLD agrees with the
# bounded least model, as in the project's agreement property suite.
_QUERY_SETUPS = (
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
)
_GOALS_PER_PROGRAM = 20


def _query_op(op_id, p, atom, depth, expected) -> Op:
    def run():
        return sld.prove_with_trace(p, Query((atom,)), max_depth=depth)

    def oracle(steps) -> Optional[str]:
        if (steps is not None) != expected:
            return f"{render_atom(atom)}: proof found = {steps is not None}, least model says {expected}"
        return None
    return Op(op_id, run, lambda steps: "proved" if steps is not None else "unproved", oracle)


def setup_query(rng: random.Random, oracle_scope) -> list:
    """Ground goals against ten corpus programs: half drawn from the
    least model, half random atoms over the universe.  The least models
    are the oracle and are computed here."""
    pop = _population_rng("query")
    ops = []
    for name, bound, depth in _QUERY_SETUPS:
        p = corpus.program(name)
        with oracle_scope():
            model = semantics.least_model(p, bound)
            universe = sorted(semantics.herbrand_universe(p, bound), key=render_term)
        members = sorted(model, key=render_atom)
        space = sorted({(a.pred, a.arity) for a in model})
        for i in range(_GOALS_PER_PROGRAM):
            if i % 2 == 0:
                atom = members[pop.randrange(len(members))]
            else:
                pred, arity = space[pop.randrange(len(space))]
                atom = Atom(pred, tuple(universe[pop.randrange(len(universe))] for _ in range(arity)))
            ops.append(_query_op(f"{name}-{i:02d}", p, atom, depth, atom in model))
    return ops


SETUPS = {
    "solve": setup_solve,
    "closure": setup_closure,
    "model": setup_model,
    "query": setup_query,
}
