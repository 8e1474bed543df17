"""Bounded model-theoretic semantics: grounding, the one-step consequence
operator, least models, entailment, and equivalence at a bound.

Groundings are infinite in general, so every operation here is relative
to a GroundingBound.  The default bound derives a Herbrand universe from
the program's own symbols up to a term depth; an explicit universe (or
extra constants) can be supplied instead, which is how callers ask
questions about data symbols that do not occur in the program text.

A rule instance is admitted when every argument term of every atom in it
belongs to the bounded universe; variable-free rules are kept verbatim
(each is its own instance).  Answers are therefore bound-relative, and
`equivalent` means equivalence at the bound, nothing stronger.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator, Optional

from .errors import GroundingOverflowError
from .syntax import (
    Atom,
    Compound,
    NIL,
    Program,
    Rule,
    Term,
    Var,
    cons,
    is_ground,
    render_atom,
    render_term,
    rule_vars,
    term_vars,
    vars_of,
)
from .unify import apply, match_atom

Interpretation = frozenset  # of ground Atom

DEFAULT_TERM_DEPTH = 6
DEFAULT_MAX_ATOMS = 200_000


@dataclass(frozen=True, slots=True)
class GroundingBound:
    """Budget for grounding-based computations.

    max_term_depth limits the depth of Herbrand terms built from the
    program's function symbols plus `constants`; when `universe` is given
    it is used verbatim instead.  max_atoms caps the size of any grounding
    or model computed under this bound.
    """

    max_term_depth: int = DEFAULT_TERM_DEPTH
    max_atoms: int = DEFAULT_MAX_ATOMS
    constants: frozenset = frozenset()
    universe: Optional[frozenset] = None


DEFAULT_BOUND = GroundingBound()


def herbrand_universe(p: Program, bound: GroundingBound = DEFAULT_BOUND) -> frozenset:
    """Ground terms over p's function symbols (plus bound.constants) up to
    bound.max_term_depth, or bound.universe verbatim when supplied."""
    if bound.universe is not None:
        return frozenset(bound.universe)
    arities: dict[str, set] = {}

    def collect(t: Term):
        if isinstance(t, Compound):
            arities.setdefault(t.functor, set()).add(len(t.args))
            for a in t.args:
                collect(a)

    for atom in p.all_atoms():
        for t in atom.args:
            collect(t)
    for c in bound.constants:
        arities.setdefault(c, set()).add(0)

    level: list[Term] = [Compound(f) for f, ns in sorted(arities.items()) if 0 in ns]
    universe = dict.fromkeys(level)
    for _ in range(bound.max_term_depth):
        prev = list(universe)
        for f, ns in sorted(arities.items()):
            for n in sorted(ns):
                if n == 0:
                    continue
                for args in product(prev, repeat=n):
                    universe.setdefault(Compound(f, args))
                    if len(universe) > bound.max_atoms:
                        raise GroundingOverflowError(bound.max_atoms)
        if len(universe) == len(prev):
            break
    return frozenset(universe)


def list_universe(constants: Iterable[str], max_len: int) -> frozenset:
    """The given constants plus every flat list over them up to max_len
    elements — a ready-made `GroundingBound.universe` for list programs.
    The bare constants are included because head-only variables (list
    elements, typically) are enumerated over the universe."""
    consts = [Compound(c) for c in sorted(set(constants))]
    out: list[Term] = list(consts)
    level: list[Term] = [NIL]
    out.append(NIL)
    for _ in range(max_len):
        level = [cons(c, t) for c in consts for t in level]
        out.extend(level)
    return frozenset(out)


def _atom_closed(a: Atom, universe: frozenset) -> bool:
    return all(t in universe for t in a.args)


def _rule_closed(r: Rule, universe: frozenset) -> bool:
    return _atom_closed(r.head, universe) and all(_atom_closed(a, universe) for a in r.body)


def closed_instances(rule: Rule, universe: frozenset, ordered_universe: list) -> Iterator[Rule]:
    """The rule's instances whose argument terms all lie in the universe,
    enumerated in `ordered_universe` order over the rule's variables; a
    variable-free rule is its own only instance."""
    rvars = list(dict.fromkeys(rule_vars(rule)))
    if not rvars:
        yield rule
        return
    for combo in product(ordered_universe, repeat=len(rvars)):
        inst = apply(dict(zip(rvars, combo)), rule)
        if _rule_closed(inst, universe):
            yield inst


def ground(p: Program, bound: GroundingBound = DEFAULT_BOUND) -> Program:
    """All instances of p's rules with argument terms inside the bounded
    universe.  Variable-free rules are their own instances and pass
    through unchanged."""
    universe = herbrand_universe(p, bound)
    ordered_universe = sorted(universe, key=render_term)
    out: list[Rule] = []
    for rule in p:
        # Stop at the first instance past the budget, not after them all.
        out.extend(islice(closed_instances(rule, universe, ordered_universe),
                          bound.max_atoms - len(out) + 1))
        if len(out) > bound.max_atoms:
            raise GroundingOverflowError(bound.max_atoms)
    return Program(out)


# ---------------------------------------------------------------------------
# Matching-based rule firing


def _index(atoms: Iterable[Atom]) -> dict:
    idx: dict = {}
    for a in atoms:
        idx.setdefault((a.pred, a.arity), []).append(a)
    return idx


def _var_paths(t: Term, prefix: tuple = ()) -> Iterable[tuple]:
    """(variable, path) pairs for every variable occurrence in the term;
    a path is a sequence of (functor, arity, argument index) steps."""
    if isinstance(t, Var):
        yield t, prefix
    elif isinstance(t, Compound):
        for i, a in enumerate(t.args):
            yield from _var_paths(a, prefix + ((t.functor, len(t.args), i),))


def head_var_pools(head: Atom, universe: frozenset) -> dict:
    """For each head variable, the universe values it can take while keeping
    every head argument inside the universe — a superset of the feasible
    values, used to avoid enumerating whole universes for head-only
    variables.  A variable that is itself a whole argument is unconstrained
    (mapped to None, meaning: the full universe)."""
    pools: dict = {}
    for arg in head.args:
        for v, path in _var_paths(arg):
            if not path:
                pools.setdefault(v, None)
                continue
            vals = set()
            for u in universe:
                cur = u
                for functor, arity, index in path:
                    if not (isinstance(cur, Compound) and cur.functor == functor
                            and len(cur.args) == arity):
                        break
                    cur = cur.args[index]
                else:
                    vals.add(cur)
            if pools.get(v) is None:
                pools[v] = vals
            else:
                pools[v] &= vals
    return {
        v: (None if vals is None else sorted(vals, key=render_term))
        for v, vals in pools.items()
    }


def _fire_rule(rule: Rule, sources: list, universe: frozenset,
               ordered_universe: list, pools: Optional[dict] = None) -> Iterable[Atom]:
    """All head instances obtained by matching the rule's body atoms against
    the given per-position atom indexes, enumerating any head variable left
    unbound over its pool (or the universe), and keeping universe-closed
    instances only.

    `sources` holds one (pred,arity)->atoms index per body position (in
    sorted body order).  Variable-free rules skip the closedness check.
    """
    body = sorted(rule.body, key=render_atom)
    has_vars = bool(vars_of(rule))
    if pools is None and has_vars:
        pools = head_var_pools(rule.head, universe)

    def match_from(i: int, s: dict):
        if i == len(body):
            yield s
            return
        pat = apply(s, body[i])
        for cand in sources[i].get((pat.pred, pat.arity), ()):
            s2 = match_atom(pat, cand, s)
            if s2 is not None:
                yield from match_from(i + 1, s2)

    for s in match_from(0, {}):
        if has_vars and not all(_atom_closed(apply(s, b), universe) for b in body):
            continue
        head = apply(s, rule.head)
        free = list(dict.fromkeys(v for t in head.args for v in term_vars(t)))
        if not free:
            if not has_vars or _atom_closed(head, universe):
                yield head
            continue
        candidate_lists = []
        for v in free:
            pool = pools.get(v) if pools else None
            candidate_lists.append(ordered_universe if pool is None else pool)
        for combo in product(*candidate_lists):
            inst = apply(dict(zip(free, combo)), head)
            if _atom_closed(inst, universe):
                yield inst


def tp_step(p: Program, i: Iterable[Atom], bound: GroundingBound = DEFAULT_BOUND) -> frozenset:
    """One van Emden-Kowalski step: heads of bounded instances whose whole
    body is contained in i."""
    i = frozenset(i)
    universe = herbrand_universe(p, bound)
    ordered_universe = sorted(universe, key=render_term)
    idx = _index(i)
    out: set = set()
    for rule in p:
        n = len(rule.body)
        sources = [idx] * n
        pools = head_var_pools(rule.head, universe) if vars_of(rule) else None
        for head in _fire_rule(rule, sources, universe, ordered_universe, pools):
            out.add(head)
            if len(out) > bound.max_atoms:
                raise GroundingOverflowError(bound.max_atoms)
    return frozenset(out)


def least_model(p: Program, bound: GroundingBound = DEFAULT_BOUND) -> frozenset:
    """Least fixpoint of tp_step from the empty interpretation.

    Computed incrementally: each round only fires rules with at least one
    body atom matched against the newly derived facts, which yields the
    same fixpoint as naive iteration.
    """
    universe = herbrand_universe(p, bound)
    ordered_universe = sorted(universe, key=render_term)
    facts = [r for r in p if r.is_fact]
    propers = [r for r in p if not r.is_fact]
    pools_by_rule = {
        rule: (head_var_pools(rule.head, universe) if vars_of(rule) else None)
        for rule in p
    }

    model: set = set()
    delta: set = set()
    for rule in facts:
        for head in _fire_rule(rule, [], universe, ordered_universe,
                               pools_by_rule[rule]):
            delta.add(head)
    while delta:
        model |= delta
        if len(model) > bound.max_atoms:
            raise GroundingOverflowError(bound.max_atoms)
        model_idx = _index(model)
        delta_idx = _index(delta)
        new: set = set()
        for rule in propers:
            n = len(rule.body)
            for j in range(n):
                sources = [delta_idx if k == j else model_idx for k in range(n)]
                for head in _fire_rule(rule, sources, universe, ordered_universe,
                                       pools_by_rule[rule]):
                    if head not in model:
                        new.add(head)
        delta = new
    return frozenset(model)


def entails(p: Program, a: Atom, bound: GroundingBound = DEFAULT_BOUND) -> bool:
    """Membership of the ground atom in the bounded least model."""
    if not is_ground(a):
        raise ValueError(f"entails expects a ground atom, got {render_atom(a)}")
    return a in least_model(p, bound)


def equivalent(p: Program, r: Program, bound: GroundingBound = DEFAULT_BOUND) -> bool:
    """Equality of the two bounded least models (equivalence AT the bound)."""
    return least_model(p, bound) == least_model(r, bound)
