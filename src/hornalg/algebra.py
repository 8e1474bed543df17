"""The program algebra: sequential composition, powers and closures,
concatenation, and checking of syntactic representations.

Composition `compose(p, r)` resolves every body atom of every rule of p
against a standardized-apart copy of some rule of r, in all possible
ways; facts of p pass through, so p ∘ I for facts I is one T_P step and
`omega` iterates X ↦ p ∘ X over fact sets, one round per unit of its cap.
`concatenate` zips same-predicate rules by appending argument lists with
NO renaming: rules sharing a variable name link up, its expressive point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CompositionOverflowError, FixpointBudgetError
from .syntax import (
    Atom,
    Program,
    Rule,
    Var,
    body_order,
    is_ground,
    program_vars_ordered,
)
from .unify import (
    FreshNames,
    _resolve,
    _unify_atoms,
    apply,
    fresh_variant,
)

DEFAULT_COMPOSE_CAP = 100_000
DEFAULT_CLOSURE_CAP = 32


# ---------------------------------------------------------------------------
# Sequential composition


def compose(p: Program, r: Program, cap: int = DEFAULT_COMPOSE_CAP) -> Program:
    """All rules head(ρϑ) ← body(Sϑ) where ρ ∈ p and S assigns to every
    body atom of ρ a fresh copy of a rule of r unifying with it.

    Facts of p have no body atoms, so they pass through unchanged.  Raises
    CompositionOverflowError when more than `cap` rules are generated.
    """
    out: list[Rule] = []
    r_rules = r.rules

    # A goal is offered only the rules whose head can resolve it: those of its
    # predicate and arity, of which a ground goal takes a ground rule only
    # when the rule's head equals it, with no copy.  Candidates keep r's
    # order.  Each rule with variables is copied apart and unified, so fresh
    # names are needed only when r holds such a rule.
    by_sig: dict[tuple, list] = {}  # the options of an open goal
    open_by_sig: dict[tuple, list[int]] = {}
    ground_by_head: dict[Atom, list[int]] = {}
    for idx, cand in enumerate(r_rules):
        sig = (cand.head.pred, len(cand.head.args))
        by_sig.setdefault(sig, []).append((idx, None))
        if is_ground(cand):
            ground_by_head.setdefault(cand.head, []).append(idx)
        else:
            open_by_sig.setdefault(sig, []).append(idx)
    if open_by_sig:
        fresh = FreshNames(prefix="_C")
        fresh.reserve(v.name for v in program_vars_ordered(p))
        fresh.reserve(v.name for v in program_vars_ordered(r))

    # Each goal's options, in r's order: (rule index, body) for a ground rule
    # whose head is the goal, (rule index, None) for one to copy apart and
    # unify.  A ground goal's options are found once.
    by_goal: dict[Atom, list] = {}

    def ground_options(goal: Atom) -> list:
        if goal not in by_goal:
            sig = (goal.pred, len(goal.args))
            cands = sorted([*ground_by_head.get(goal, ()), *open_by_sig.get(sig, ())])
            by_goal[goal] = [(idx, r_rules[idx].body if is_ground(r_rules[idx]) else None) for idx in cands]
        return by_goal[goal]

    for rho in p:
        if rho.is_fact:
            out.append(rho)
            if len(out) > cap:
                raise CompositionOverflowError(cap)
            continue
        ground_rho = is_ground(rho)
        if ground_rho and not all(map(ground_options, rho.body)):
            continue  # a goal no rule resolves, found before the body is sorted
        goals = body_order(rho)
        goal_cands = [ground_options(g) if ground_rho or is_ground(g)
                      else by_sig.get((g.pred, len(g.args)), ()) for g in goals]
        if not all(goal_cands):  # some goal has no rule to resolve it
            continue

        # Depth-first over assignments of rules to body atoms, threading a
        # triangular substitution; a resolvent's atoms tell if it is ground.
        def assign(i: int, s: dict, bodies: tuple):
            if i == len(goals):
                theta = _resolve(s)
                head = apply(theta, rho.head)
                new_body = frozenset(apply(theta, a) for b in bodies for a in b)
                out.append(Rule(head, new_body))
                if len(out) > cap:
                    raise CompositionOverflowError(cap)
                return
            for idx, body in goal_cands[i]:
                if body is not None:
                    assign(i + 1, s, bodies + (body,))
                    continue
                cand = r_rules[idx]
                copy = cand if is_ground(cand) else fresh_variant(cand, fresh)
                s2 = _unify_atoms(goals[i], copy.head, s)
                if s2 is not None:
                    assign(i + 1, s2, bodies + (copy.body,))

        assign(0, {}, ())
    return Program(out)


def identity_program(p: Program) -> Program:
    """The neutral program for composition over p's predicate/arity signature:
    one rule q(X1..Xn) ← q(X1..Xn) per (q, n) occurring anywhere in p."""
    rules = []
    for pred, arity in sorted(p.pred_signature()):
        args = tuple(Var(f"X{i + 1}") for i in range(arity))
        a = Atom(pred, args)
        rules.append(Rule(a, frozenset([a])))
    return Program(rules)


def power(p: Program, n: int, cap: int = DEFAULT_COMPOSE_CAP) -> Program:
    """n-fold composition of p with itself; power 0 is the identity program.

    Each power is a function of the previous one's stored rules, variable
    names included, so once a power's `name_key` equals an earlier one's,
    the powers cycle and the n-th is read off the cycle."""
    if n < 0:
        raise ValueError("power requires n >= 0")
    powers = [identity_program(p)]
    at: dict = {powers[0]: [0]}  # variant class -> the powers in it
    for k in range(1, n + 1):
        acc = compose(p, powers[-1], cap=cap)
        for j in at.get(acc, ()):
            if powers[j].name_key() == acc.name_key():
                return powers[j + (n - j) % (k - j)]
        at.setdefault(acc, []).append(k)
        powers.append(acc)
    return powers[n]


def star(p: Program, cap: int = DEFAULT_CLOSURE_CAP, compose_cap: int = DEFAULT_COMPOSE_CAP) -> Program:
    """Union of all powers of p, stopping when the accumulated union
    stabilises; raises FixpointBudgetError (carrying the partial result)
    when no fixpoint is reached within `cap` rounds."""
    pw = identity_program(p)
    total = pw
    for _ in range(cap):
        pw = compose(p, pw, cap=compose_cap)
        new_total = total | pw
        if new_total == total:
            return total
        total = new_total
    raise FixpointBudgetError(cap, total)


def plus_closure(p: Program, cap: int = DEFAULT_CLOSURE_CAP, compose_cap: int = DEFAULT_COMPOSE_CAP) -> Program:
    """Union of all positive powers: star(p) composed with p."""
    return compose(star(p, cap=cap, compose_cap=compose_cap), p, cap=compose_cap)


def omega(p: Program, cap: int = DEFAULT_CLOSURE_CAP, compose_cap: int = DEFAULT_COMPOSE_CAP) -> Program:
    """plus_closure(p) ∘ ∅, as the limit of X ↦ p ∘ X from ∅ (p^k ∘ ∅ =
    p ∘ (p^(k-1) ∘ ∅)): no power is built.  Raises FixpointBudgetError,
    with the facts so far, after `cap` rounds."""
    facts = Program()
    for _ in range(cap):
        facts, prev = compose(p, facts, cap=compose_cap), facts
        if facts == prev:
            return facts
    raise FixpointBudgetError(cap, facts)


# ---------------------------------------------------------------------------
# Concatenation


def concat_atoms(a: Atom, b: Atom) -> Atom:
    """Append the argument lists of two same-predicate atoms."""
    if a.pred != b.pred:
        raise ValueError(f"cannot concatenate atoms of different predicates {a.pred}/{b.pred}")
    return Atom(a.pred, a.args + b.args)


def concat_rules(r1: Rule, r2: Rule) -> Optional[Rule]:
    """Concatenate two rules with the same head predicate and the same set
    of body predicates, or None.  Arities are ignored (unranked convention).

    Heads are concatenated; the new body holds the concatenation of every
    same-predicate pair of body atoms.  No variables are renamed.
    """
    if r1.head.pred != r2.head.pred or {a.pred for a in r1.body} != {a.pred for a in r2.body}:
        return None
    head = concat_atoms(r1.head, r2.head)
    body = frozenset(
        concat_atoms(b1, b2) for b1 in r1.body for b2 in r2.body if b1.pred == b2.pred
    )
    return Rule(head, body)


def concatenate(p: Program, r: Program) -> Program:
    out = []
    for r1 in p:
        for r2 in r:
            joined = concat_rules(r1, r2)
            if joined is not None:
                out.append(joined)
    return Program(out)


# ---------------------------------------------------------------------------
# Syntactic representation: P = Q ∘ R ∘ S


@dataclass(frozen=True, slots=True)
class DecompositionWitness:
    """Left and right transfer programs witnessing a representation."""

    left: Program
    right: Program


def check_representation(p: Program, r: Program, w: DecompositionWitness,
                         cap: int = DEFAULT_COMPOSE_CAP) -> bool:
    """True iff p equals (w.left ∘ r) ∘ w.right."""
    return compose(compose(w.left, r, cap=cap), w.right, cap=cap) == p
