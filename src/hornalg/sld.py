"""SLD-resolution: derivations, proofs, and labeled traces.

Search is determinized: leftmost atom selection, rules tried in canonical
program order (a rule whose head clashes with the goal is not renamed),
body goals put first in their rule's `body_order`, iterative deepening on
the number of steps.  Each bound starts from the non-empty resolvents the
last bound cut off, kept in depth-first order with their paths: while a
level fits under `_FRONTIER_CAP` nodes each node is expanded once, and a
level past the cap is dropped, so later bounds start again from the last
level kept.  Memory stays bounded, no bound does more work than plain
deepening, and the first proof found is still the leftmost of least
length.  Deepening stops once a bound prunes nothing, so a
finitely failed goal costs the same at any depth and gives None (`no`).
A trace records every step; when the program was assembled as a labeled
union, each step carries the label of the sub-program its rule came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .semantics import GroundingBound, closed_instances, herbrand_universe, ordered_subterms
from .syntax import (
    Atom,
    Program,
    Rule,
    Var,
    atom_vars,
    body_order,
    canonical_key,
    program_vars_ordered,
    render_atom,
    render_term,
    term_vars,
)
from .unify import FreshNames, apply, fresh_variant, mgu_atoms

DEFAULT_MAX_DEPTH = 16
_FRONTIER_CAP = 4096  # nodes a kept level may hold


@dataclass(frozen=True, slots=True)
class Query:
    """An ordered goal sequence; the empty sequence is the success state."""

    goals: tuple = ()

    @property
    def is_empty(self) -> bool:
        return not self.goals

    def __repr__(self) -> str:
        return "Query(" + ", ".join(render_atom(g) for g in self.goals) + ")"


@dataclass(frozen=True, slots=True)
class DerivationStep:
    """One resolution step on the query's first goal: the
    (standardized-apart) rule used, the unifier, the label of the rule's
    source sub-program, and the resolvent it produced."""

    rule_used: Rule
    unifier: dict
    source_label: str
    resolvent: Query


def _clashes(s, t) -> bool:
    """True when the terms differ in functor or arity where neither is a variable."""
    return (type(s) is not Var and type(t) is not Var
            and (s.functor != t.functor or len(s.args) != len(t.args)
                 or any(map(_clashes, s.args, t.args))))


def _dfs(p: Program, q: Query, path: tuple, remaining: int, fresh: FreshNames,
         cut: list) -> Optional[tuple]:
    """The path to the first empty resolvent within `remaining` steps below
    q, or None.  A path is () at the root, else (parent path, rule, copy,
    unifier, resolvent).  The non-empty resolvents the bound cuts off go to
    `cut` as (resolvent, path) in depth-first order, until it holds one more
    than `_FRONTIER_CAP`."""
    if q.is_empty:
        return path
    if remaining == 0:
        if len(cut) <= _FRONTIER_CAP:
            cut.append((q, path))
        return None
    goal = q.goals[0]
    for rule in p:
        if (rule.head.pred != goal.pred or rule.head.arity != goal.arity
                or any(map(_clashes, goal.args, rule.head.args))):
            continue
        copy = fresh_variant(rule, fresh)
        s = mgu_atoms(goal, copy.head)
        if s is None:
            continue
        resolvent = Query(tuple(apply(s, g) for g in body_order(copy) + q.goals[1:]))
        found = _dfs(p, resolvent, (path, rule, copy, s, resolvent), remaining - 1, fresh, cut)
        if found is not None:
            return found
    return None


def _steps(path: tuple, labels: Optional[Mapping[str, str]]) -> list:
    """The derivation steps along a path, from the root on."""
    steps = []
    while path:
        path, rule, copy, s, resolvent = path
        label = labels.get(canonical_key(rule), "") if labels else ""
        steps.append(DerivationStep(copy, s, label, resolvent))
    return steps[::-1]


def prove_with_trace(p: Program, q: Query, max_depth: int = DEFAULT_MAX_DEPTH,
                     labels: Optional[Mapping[str, str]] = None) -> Optional[list]:
    """Iterative-deepening SLD search; returns the first (shortest) successful
    derivation as a list of steps, or None within the depth budget.

    Bound k searches below the last level kept, at depth d <= k, for k - d
    steps.  The nodes of a level are their parents' children in depth-first
    order, so the proof found is the one plain deepening from the root finds.
    """
    fresh = FreshNames(prefix="_S")
    fresh.reserve(v.name for v in program_vars_ordered(p))
    fresh.reserve(v.name for g in q.goals for v in atom_vars(g))
    level, depth = [(q, ())], 0
    for limit in range(max_depth + 1):
        cut: list = []
        for node, path in level:
            found = _dfs(p, node, path, limit - depth, fresh, cut)
            if found is not None:
                return _steps(found, labels)
        if not cut:
            return None
        if len(cut) <= _FRONTIER_CAP:
            level, depth = cut, limit
    return None


def proves(p: Program, a: Atom, max_depth: int = DEFAULT_MAX_DEPTH) -> bool:
    return prove_with_trace(p, Query((a,)), max_depth) is not None


def label_rules(parts: Iterable) -> tuple:
    """Union the (label, program) parts into one program plus a label table
    keyed by canonical rule; a rule occurring in several parts keeps the
    first label."""
    total = Program()
    labels: dict = {}
    for label, prog in parts:
        total = total | prog
        for rule in prog:
            labels.setdefault(canonical_key(rule), label)
    return total, labels


def _answers(steps: list, q: Query, shown: Iterable[Atom] = ()) -> tuple:
    """The query's variables with their final bindings, and a renaming of
    the other variables in those bindings, then in the `shown` atoms, to _1,
    _2, ... in first-occurrence order, avoiding the query's own names."""
    answers = {v: v for g in q.goals for v in atom_vars(g)}
    for v in answers:
        for st in steps:
            answers[v] = apply(st.unifier, answers[v])
    fresh = FreshNames(prefix="_")
    fresh.reserve(v.name for v in answers)
    others = term_vars(*answers.values(), *(t for a in shown for t in a.args))
    return answers, {w: fresh.fresh() for w in dict.fromkeys(others) if w not in answers}


def answer_substitution(steps: Iterable[DerivationStep], q: Query) -> dict:
    """The bindings a successful derivation assigns to the query's own
    variables, in first-occurrence order; empty for a ground query.  Other
    variables left in the answers are renamed _1, _2, ... in order of first
    occurrence, avoiding the query's own names."""
    answers, renaming = _answers(list(steps), q)
    return {v.name: apply(renaming, t) for v, t in answers.items()}


def render_answer(answers: Mapping) -> str:
    """Bindings as `{X = t, ...}`; the empty mapping renders as {}."""
    inner = ", ".join(f"{name} = {render_term(t)}" for name, t in answers.items())
    return "{" + inner + "}"


def render_trace(steps: Iterable[DerivationStep], q: Query) -> str:
    """One line for the query, then one line per resolvent; the empty
    resolvent renders as [].  Variables not in the query get the names of
    `answer_substitution`, and those the answers do not show the next _k."""
    steps = list(steps)
    _, renaming = _answers(steps, q, [g for st in steps for g in st.resolvent.goals])
    lines = ["<- " + ", ".join(render_atom(g) for g in q.goals)]
    for st in steps:
        label = f"[{st.source_label}] " if st.source_label else ""
        goals = ", ".join(render_atom(apply(renaming, g)) for g in st.resolvent.goals)
        lines.append("<- " + label + (goals or "[]"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Rule-level consequence


RULE_CHECK_BOUND = GroundingBound(max_term_depth=2)


def find_rule_counterinstance(p: Program, rule: Rule,
                              bound: GroundingBound = RULE_CHECK_BOUND,
                              max_depth: int = DEFAULT_MAX_DEPTH) -> Optional[Rule]:
    """A bounded ground instance whose body atoms are all provable while its
    head is not, or None when every checked instance passes."""
    universe = herbrand_universe(p | Program([rule]), bound)
    for inst in closed_instances(rule, universe, ordered_subterms(universe)):
        if all(proves(p, b, max_depth) for b in sorted(inst.body, key=render_atom)):
            if not proves(p, inst.head, max_depth):
                return inst
    return None


def proves_rule(p: Program, rule: Rule, bound: GroundingBound = RULE_CHECK_BOUND,
                max_depth: int = DEFAULT_MAX_DEPTH) -> bool:
    """True when, over the bounded instances of the rule, provability of the
    whole body always comes with provability of the head."""
    return find_rule_counterinstance(p, rule, bound, max_depth) is None
