"""The term kernel: substitutions, unification, matching, and renaming.

A substitution is a plain dict from Var to Term.  Those built here are
idempotent: no bound variable occurs in any binding's range.  `mgu_*` and
`match_atom` return None on failure (failure is a value, not a fault).
Unification of atoms requires equal predicate name and equal arity; the
occurs check is always on.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .syntax import Atom, Compound, Program, Rule, Term, Var, body_order, rule_vars


def _apply_term(s: dict, t: Term) -> Term:
    if type(t) is Var:
        return s.get(t, t)
    if t._ground:
        return t
    return Compound(t.functor, tuple([_apply_term(s, a) for a in t.args]))


def _apply_atom(s: dict, a: Atom) -> Atom:
    if a._ground:
        return a
    return Atom(a.pred, tuple([_apply_term(s, t) for t in a.args]))


def _apply_rule(s: dict, r: Rule) -> Rule:
    return Rule(_apply_atom(s, r.head), frozenset([_apply_atom(s, a) for a in r.body]))


def _apply_program(s: dict, p: Program) -> Program:
    return Program(_apply_rule(s, r) for r in p)


_APPLY = {
    Var: _apply_term,
    Compound: _apply_term,
    Atom: _apply_atom,
    Rule: _apply_rule,
    Program: _apply_program,
}


def apply(s: dict, obj):
    """Apply a substitution to a Term, Atom, Rule, or Program; the empty
    substitution returns `obj` itself."""
    if not s:
        return obj
    fn = _APPLY.get(type(obj))
    if fn is None:
        raise TypeError(f"cannot apply substitution to {type(obj).__name__}")
    return fn(s, obj)


# ---------------------------------------------------------------------------
# Unification (triangular form internally, resolved to idempotent on exit)


def _walk(t: Term, s: dict) -> Term:
    while isinstance(t, Var) and t in s:
        t = s[t]
    return t


def _occurs(v: Var, t: Term, s: dict) -> bool:
    t = _walk(t, s)
    if isinstance(t, Var):
        return t == v
    return not t._ground and any(_occurs(v, a, s) for a in t.args)


def _unify(t1: Term, t2: Term, s: dict) -> Optional[dict]:
    t1 = _walk(t1, s)
    t2 = _walk(t2, s)
    if isinstance(t1, Var):
        if t1 == t2:
            return s
        if _occurs(t1, t2, s):
            return None
        s2 = dict(s)
        s2[t1] = t2
        return s2
    if isinstance(t2, Var):
        if _occurs(t2, t1, s):
            return None
        s2 = dict(s)
        s2[t2] = t1
        return s2
    if t1.functor != t2.functor or len(t1.args) != len(t2.args):
        return None
    for a, b in zip(t1.args, t2.args):
        s = _unify(a, b, s)
        if s is None:
            return None
    return s


def _deep_walk(t: Term, s: dict) -> Term:
    t = _walk(t, s)
    if isinstance(t, Var):
        return t
    if t._ground:
        return t
    return Compound(t.functor, tuple(_deep_walk(a, s) for a in t.args))


def _resolve(s: dict) -> dict:
    return {v: _deep_walk(t, s) for v, t in s.items()}


def mgu_terms(t1: Term, t2: Term) -> Optional[dict]:
    s = _unify(t1, t2, {})
    return None if s is None else _resolve(s)


def _unify_atoms(a: Atom, b: Atom, s: dict) -> Optional[dict]:
    """Extend the triangular substitution `s` to unify the two atoms; `s`
    itself is never modified."""
    if a.pred != b.pred or a.arity != b.arity:
        return None
    for t1, t2 in zip(a.args, b.args):
        s = _unify(t1, t2, s)
        if s is None:
            return None
    return s


def mgu_atoms(a: Atom, b: Atom) -> Optional[dict]:
    s = _unify_atoms(a, b, {})
    return None if s is None else _resolve(s)


# ---------------------------------------------------------------------------
# One-way matching (pattern variables bind; target is left untouched)


def _match_term(pat: Term, tgt: Term, s: dict) -> Optional[dict]:
    if isinstance(pat, Var):
        bound = s.get(pat)
        if bound is None:
            s2 = dict(s)
            s2[pat] = tgt
            return s2
        return s if bound == tgt else None
    if isinstance(tgt, Var):
        return None
    if pat.functor != tgt.functor or len(pat.args) != len(tgt.args):
        return None
    for a, b in zip(pat.args, tgt.args):
        s = _match_term(a, b, s)
        if s is None:
            return None
    return s


def match_atom(pattern: Atom, target: Atom, seed: Optional[dict] = None) -> Optional[dict]:
    """Match `pattern` onto `target` one-way, extending `seed` if given; a
    pattern variable the seed binds must meet an equal target term.  The
    seed itself is never modified."""
    if pattern.pred != target.pred or pattern.arity != target.arity:
        return None
    s: Optional[dict] = seed or {}
    for p, t in zip(pattern.args, target.args):
        s = _match_term(p, t, s)
        if s is None:
            return None
    return s


# ---------------------------------------------------------------------------
# Fresh names and variants


class FreshNames:
    """Generates variable names not occurring in a given avoid set."""

    __slots__ = ("_avoid", "_counter", "_prefix")

    def __init__(self, avoid: Iterable[str] = (), prefix: str = "_G"):
        self._avoid = set(avoid)
        self._counter = 0
        self._prefix = prefix

    def reserve(self, names: Iterable[str]) -> None:
        self._avoid.update(names)

    def fresh(self) -> Var:
        while True:
            self._counter += 1
            name = f"{self._prefix}{self._counter}"
            if name not in self._avoid:
                self._avoid.add(name)
                return Var(name)


def fresh_variant(rule: Rule, fresh: FreshNames) -> Rule:
    """A copy of the rule with fresh variables that keeps the rule's `body_order`."""
    mapping = {v: fresh.fresh() for v in rule_vars(rule)}
    if not mapping:
        return rule
    order = tuple([_apply_atom(mapping, a) for a in body_order(rule)])
    copy = Rule(_apply_atom(mapping, rule.head), frozenset(order))
    object.__setattr__(copy, "_order", order)
    return copy
