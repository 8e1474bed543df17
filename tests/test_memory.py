"""Engine calls build no reference cycles.

Reference counting frees acyclic data the moment it dies; whatever a call
leaves in a cycle waits for the cyclic collector, which then walks it on
every pass.  Each test here runs one entry point with the collector off
and asks it for the cycles left behind, which must be none.  The CLI is
left out: argparse's own objects are cyclic.  A static check beside them
rejects a nested function that refers to itself, the commonest such cycle.
"""

import ast
import gc
import types
from collections import Counter
from importlib import resources

import pytest

from hornalg import corpus
from hornalg.algebra import compose, concatenate, omega, plus_closure, power, star
from hornalg.errors import (
    BudgetError,
    CompositionOverflowError,
    FixpointBudgetError,
    FormEvalError,
    GroundingOverflowError,
    ParseError,
)
from hornalg.forms import (
    Evaluator,
    FormCall,
    Unary,
    VarRef,
    eval_form,
    is_nonconstant,
    make_binding,
    parse_forms,
)
from hornalg.parser import parse_atom, parse_program, parse_query, parse_rule
from hornalg.proportion import SolveBudget, check_proportion, make_witness, solve_proportion
from hornalg.semantics import GroundingBound, ground, least_model, tp_step
from hornalg.sld import Query, prove_with_trace, proves_rule

PLUS = corpus.program("plus")
TIMES = corpus.program("times_nat")
PROBLEMS = corpus.names("proportions")


def _describe(garbage: list) -> str:
    kinds = Counter(type(o).__name__ for o in garbage)
    funcs = sorted({o.__qualname__ for o in garbage if isinstance(o, types.FunctionType)})
    return f"{dict(kinds.most_common())}; functions: {funcs}"


def assert_no_cycles(call) -> None:
    """Run `call` with the collector off; fail if it left cyclic garbage,
    naming the garbage's types and the functions in it."""
    gc.collect()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, f"{found} objects in cycles: {_describe(garbage)}"


def raising(error: type, fn, *args, **kwargs):
    """A call of `fn` that must raise `error`.  Not `pytest.raises`, whose
    `ExceptionInfo` forms a cycle with the traceback's frame."""
    def call():
        try:
            fn(*args, **kwargs)
        except error:
            return
        raise AssertionError(f"{fn.__name__} did not raise {error.__name__}")
    return call


def _solve(name: str, depth: int):
    spec = corpus.problem_spec(name)
    solve_proportion(spec.problem, SolveBudget(max_form_depth=depth), Evaluator(spec.table))


def _check(name: str):
    spec = corpus.problem_spec(name)
    check_proportion(spec.problem, spec.witness, evaluator=Evaluator(spec.table))


@pytest.mark.parametrize("call", [
    lambda: parse_program("plus(0,X,X). plus(s(X),Y,s(Z)) :- plus(X,Y,Z)."),
    lambda: compose(PLUS, PLUS),
    lambda: concatenate(PLUS, PLUS),
    lambda: PLUS.reverse(),
    lambda: power(PLUS, 3),
    lambda: star(corpus.program("q1")),
    lambda: plus_closure(corpus.program("q1")),
    lambda: omega(parse_program("e(a,b). e(b,c). t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z).")),
    lambda: ground(TIMES, GroundingBound(max_term_depth=1)),
    lambda: tp_step(PLUS, least_model(PLUS, GroundingBound(max_term_depth=2))),
    lambda: least_model(PLUS, GroundingBound(max_term_depth=3)),
    lambda: prove_with_trace(PLUS, Query(parse_query("plus(X, s(0), s(s(0)))"))),
    lambda: proves_rule(PLUS, parse_rule("plus(X,0,X) :- plus(X,0,X).")),
    lambda: corpus.eval_form("Even", PLUS),
    lambda: is_nonconstant(Unary("rev", VarRef("X")), Evaluator()),
], ids=["parse_program", "compose", "concatenate", "reverse", "power", "star", "plus_closure",
        "omega", "ground", "tp_step", "least_model", "prove_with_trace", "proves_rule",
        "eval_form", "is_nonconstant"])
def test_entry_point_leaves_no_cycles(call):
    assert_no_cycles(call)


@pytest.mark.parametrize("name", PROBLEMS)
def test_check_proportion_leaves_no_cycles(name):
    assert_no_cycles(lambda: _check(name))


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", PROBLEMS)
def test_solve_proportion_leaves_no_cycles(name, depth):
    assert_no_cycles(lambda: _solve(name, depth))


def _check_failing_identity():
    # F reads the main predicate of its argument, and the target vector has two.
    spec = corpus.problem_spec("ex43_joint")
    f = FormCall("Main", ("X1",))
    witness = make_witness(f, VarRef("X1"), spec.witness.pvec,
                           (parse_program("c :- d. d."),), "fgfg")
    report = check_proportion(spec.problem, witness,
                              evaluator=Evaluator(parse_forms("form Main(X[q]) = X[q/c];")))
    assert not report.ok


_BRANCHING = parse_program("a :- a, x. a :- a, y. a :- a, z. x :- x. y :- y. z :- z.")
_FAILING_FORMS = parse_forms("form F(X[q]) = X[q/r] | X; form G(X) = gnd(X);")


@pytest.mark.parametrize("call", [
    raising(CompositionOverflowError, compose, parse_program("r(X,Y) :- q(X), q(Y)."),
            parse_program("q(a). q(b)."), cap=3),
    raising(FixpointBudgetError, omega, parse_program("p(a). p(f(X)) :- p(X)."), cap=4),
    raising(FixpointBudgetError, star, corpus.program("nat"), cap=3),
    raising(GroundingOverflowError, least_model, PLUS, GroundingBound(max_atoms=10)),
    raising(GroundingOverflowError, ground, TIMES, GroundingBound(max_atoms=50)),
    raising(BudgetError, prove_with_trace, _BRANCHING, Query(parse_query("a")), max_depth=12),
    raising(FormEvalError, eval_form, _FAILING_FORMS, "F",
            {"X": make_binding(parse_program("p(a). q(b)."))}),
    raising(BudgetError, eval_form, _FAILING_FORMS, "G",
            {"X": make_binding(parse_program("p(f(a,b))."))}),
    raising(FormEvalError, Evaluator().eval, VarRef("X")),
    _check_failing_identity,
    raising(ParseError, parse_program, "p(X :- q."),
    raising(ParseError, parse_atom, "p(,"),
], ids=["compose_overflow", "omega_budget", "star_budget", "least_model_overflow",
        "ground_overflow", "sld_frontier_cap", "placeholder_form", "overflowing_form",
        "unbound_form_variable", "failing_identity", "parse_program_error", "parse_atom_error"])
def test_failure_path_leaves_no_cycles(call):
    assert_no_cycles(call)


def _self_recursive_closures(tree: ast.AST) -> list:
    """The nested functions whose body names the function itself."""
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(n, ast.Name) and n.id == inner.name
                   for stmt in inner.body for n in ast.walk(stmt)):
                found.append((inner.name, inner.lineno))
    return found


def test_no_nested_function_calls_itself():
    # A nested function that refers to itself holds its own closure cell,
    # so it and everything it closes over form a cycle on every call.
    offenders = []
    for entry in resources.files("hornalg").iterdir():
        if entry.name.endswith(".py"):
            tree = ast.parse(entry.read_text(), filename=entry.name)
            offenders += [f"{entry.name}:{line}: {name}"
                          for name, line in sorted(set(_self_recursive_closures(tree)))]
    assert offenders == []


def test_the_static_check_finds_a_self_recursive_closure():
    tree = ast.parse("def outer():\n    def walk(t):\n        return [walk(x) for x in t]\n"
                     "    def flat(t):\n        return t\n    return walk, flat\n")
    assert _self_recursive_closures(tree) == [("walk", 2)]
