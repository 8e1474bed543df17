"""SLD-resolution: derivations, proofs, and labeled traces.

Search is determinized: leftmost atom selection, rules tried in canonical
program order (a rule whose head clashes with the goal is not renamed),
body goals put first in their rule's `body_order`.  It is breadth first:
level d holds the non-empty resolvents d steps below the query, children
in their parents' order, so the first empty resolvent met ends the
leftmost proof of least length, the one iterative deepening finds.  A
level that holds no resolvent ends the search, so a finitely failed goal
costs the same at any depth and gives None (`no`).  `max_depth` bounds
the levels expanded and `_FRONTIER_CAP` their width: expanding a level
wider than the cap raises `BudgetError`, so a query expands at most
`max_depth` levels of at most `_FRONTIER_CAP` resolvents each.
A trace records every step; when the program was assembled as a labeled
union, each step carries the label of the sub-program its rule came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import BudgetError
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
_FRONTIER_CAP = 4096  # resolvents a level may hold and still be expanded


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


def _steps(path: tuple, labels: Optional[Mapping[str, str]]) -> list:
    """The derivation steps along a path, from the root on.  A path is ()
    at the root, else (parent path, rule, copy, unifier, resolvent)."""
    steps = []
    while path:
        path, rule, copy, s, resolvent = path
        label = labels.get(canonical_key(rule), "") if labels else ""
        steps.append(DerivationStep(copy, s, label, resolvent))
    return steps[::-1]


def prove_with_trace(p: Program, q: Query, max_depth: int = DEFAULT_MAX_DEPTH,
                     labels: Optional[Mapping[str, str]] = None) -> Optional[list]:
    """Breadth-first SLD search; returns the first (shortest, then leftmost)
    successful derivation as a list of steps, or None within `max_depth`
    steps.  Expanding a level of more than `_FRONTIER_CAP` resolvents
    raises `BudgetError`; a level at `max_depth` is never expanded."""
    fresh = FreshNames(prefix="_S")
    fresh.reserve(v.name for v in program_vars_ordered(p))
    fresh.reserve(v.name for g in q.goals for v in atom_vars(g))
    if q.is_empty:
        return []
    level, width = [(q, ())], 1
    for depth in range(max_depth):
        if width > _FRONTIER_CAP:
            raise BudgetError(f"SLD level {depth} holds {width} resolvents, "
                              f"more than the frontier cap of {_FRONTIER_CAP}")
        children, width = [], 0
        for node, path in level:
            goal = node.goals[0]
            for rule in p:
                if (rule.head.pred != goal.pred or rule.head.arity != goal.arity
                        or any(map(_clashes, goal.args, rule.head.args))):
                    continue
                copy = fresh_variant(rule, fresh)
                s = mgu_atoms(goal, copy.head)
                if s is None:
                    continue
                resolvent = Query(tuple(apply(s, g) for g in body_order(copy) + node.goals[1:]))
                child = (path, rule, copy, s, resolvent)
                if resolvent.is_empty:
                    return _steps(child, labels)
                width += 1
                if width <= _FRONTIER_CAP:
                    children.append((resolvent, child))
        if not children:
            return None
        level = children
    return None


def proves(p: Program, a: Atom, max_depth: int = DEFAULT_MAX_DEPTH) -> bool:
    """True when `prove_with_trace` finds a proof of `a`; raises its
    `BudgetError` when a level wider than the frontier cap is expanded."""
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
    head is not, or None when every checked instance passes.  Raises
    `BudgetError` when a proof search expands a level wider than the
    frontier cap."""
    universe = herbrand_universe(p | Program([rule]), bound)
    for inst in closed_instances(rule, universe, ordered_subterms(universe)):
        if all(proves(p, b, max_depth) for b in body_order(inst)):
            if not proves(p, inst.head, max_depth):
                return inst
    return None


def proves_rule(p: Program, rule: Rule, bound: GroundingBound = RULE_CHECK_BOUND,
                max_depth: int = DEFAULT_MAX_DEPTH) -> bool:
    """True when, over the bounded instances of the rule, provability of the
    whole body always comes with provability of the head.  Raises
    `BudgetError` as `find_rule_counterinstance` does."""
    return find_rule_counterinstance(p, rule, bound, max_depth) is None
