"""SLD-resolution: derivations, proofs, and labeled traces.

Search is determinized: leftmost atom selection, rules tried in canonical
program order, iterative deepening on the number of resolution steps.
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
    atom_vars,
    canonical_key,
    render_atom,
    render_term,
    term_vars,
    vars_of,
)
from .unify import FreshNames, apply, fresh_variant, mgu_atoms

DEFAULT_MAX_DEPTH = 16


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
    """One resolution step: the query it acted on, the selected atom's index,
    the (standardized-apart) rule used, the unifier, the label of the rule's
    source sub-program, and the resolvent it produced."""

    query: Query
    selected_index: int
    rule_used: Rule
    unifier: dict
    source_label: str
    resolvent: Query


def _dfs(p: Program, q: Query, remaining: int, fresh: FreshNames,
         labels: Optional[Mapping[str, str]]) -> Optional[list]:
    if q.is_empty:
        return []
    if remaining == 0:
        return None
    goal = q.goals[0]
    for rule in p:
        if rule.head.pred != goal.pred or rule.head.arity != goal.arity:
            continue
        copy = fresh_variant(rule, fresh)
        s = mgu_atoms(goal, copy.head)
        if s is None:
            continue
        inserted = tuple(sorted(copy.body, key=render_atom))
        resolvent = Query(tuple(apply(s, g) for g in inserted + q.goals[1:]))
        rest = _dfs(p, resolvent, remaining - 1, fresh, labels)
        if rest is not None:
            label = labels.get(canonical_key(rule), "") if labels else ""
            step = DerivationStep(q, 0, copy, s, label, resolvent)
            return [step] + rest
    return None


def prove_with_trace(p: Program, q: Query, max_depth: int = DEFAULT_MAX_DEPTH,
                     labels: Optional[Mapping[str, str]] = None) -> Optional[list]:
    """Iterative-deepening SLD search; returns the first (shortest) successful
    derivation as a list of steps, or None within the depth budget."""
    fresh = FreshNames(prefix="_S")
    fresh.reserve(v.name for v in vars_of(p))
    fresh.reserve(v.name for g in q.goals for v in atom_vars(g))
    for limit in range(max_depth + 1):
        result = _dfs(p, q, limit, fresh, labels)
        if result is not None:
            return result
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
    others = [w for t in answers.values() for w in term_vars(t)]
    others += [w for a in shown for w in atom_vars(a)]
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
