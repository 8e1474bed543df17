"""Bounded model-theoretic semantics: grounding, the one-step consequence
operator, least models, entailment, and equivalence at a bound.

Groundings are infinite in general, so every operation here is relative
to a GroundingBound.  The default bound derives a Herbrand universe from
the program's own symbols up to a term depth; an explicit universe (or
extra constants) can be supplied instead, which is how callers ask
questions about data symbols that do not occur in the program text.

One admission rule holds throughout: a rule instance is admitted when
every argument term of every atom in it belongs to the bounded universe
(a variable may take a value that occurs only inside universe terms);
variable-free rules are kept verbatim (each is its own instance).  Answers
are therefore bound-relative, and `equivalent` means equivalence at the
bound, nothing stronger.

`tp_step` and `least_model` evaluate bottom-up by matching, not through
`ground`.  A plan fixed once per (program, universe) says how each rule's
body atoms are looked up in an index of universe-closed atoms, and how
head variables the body leaves open are bound by matching head arguments
against universe terms.  `least_model` grows one index by each round's
new atoms and fires rules semi-naively.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, product
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
    body_order,
    cons,
    is_ground,
    render_atom,
    render_term,
    rule_vars,
    vars_of,
)
from .unify import _match_term, apply, match_atom

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
    The bare constants are included because list elements are arguments
    of their own in some atoms (member(X, L))."""
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


def ordered_subterms(universe: frozenset) -> list:
    """The terms of the universe and all their subterms, in rendering
    order: every value a variable takes in some universe-closed instance."""
    seen: set = set()
    stack = list(universe)
    while stack:
        t = stack.pop()
        if isinstance(t, Compound) and t not in seen:
            seen.add(t)
            stack.extend(t.args)
    return sorted(seen, key=render_term)


def closed_instances(rule: Rule, universe: frozenset, subterms: list) -> Iterator[Rule]:
    """The rule's instances whose argument terms all lie in the universe,
    enumerated in `subterms` order (see `ordered_subterms`) over the rule's
    variables; a variable-free rule is its own only instance."""
    rvars = rule_vars(rule)
    if not rvars:
        yield rule
        return
    for combo in product(subterms, repeat=len(rvars)):
        inst = apply(dict(zip(rvars, combo)), rule)
        if _rule_closed(inst, universe):
            yield inst


def ground(p: Program, bound: GroundingBound = DEFAULT_BOUND) -> Program:
    """All instances of p's rules with argument terms inside the bounded
    universe, the instances `least_model` admits.  Variable-free rules are
    their own instances and pass through unchanged."""
    universe = herbrand_universe(p, bound)
    subterms = ordered_subterms(universe)
    out: list[Rule] = []
    for rule in p:
        # Stop at the first instance past the budget, not after them all.
        out.extend(islice(closed_instances(rule, universe, subterms),
                          bound.max_atoms - len(out) + 1))
        if len(out) > bound.max_atoms:
            raise GroundingOverflowError(bound.max_atoms)
    return Program(out)


# ---------------------------------------------------------------------------
# Bottom-up evaluation over a static plan


def _key(positions: dict, base: tuple, args: tuple, bound: set) -> tuple:
    """The lookup key of a pattern: `base`, or `base + (j,)` when argument
    j is the first one whose variables all lie in `bound` (j is then
    recorded in `positions` as a position to index)."""
    j = next((j for j, t in enumerate(args) if vars_of(t) <= bound), None)
    if j is None:
        return base
    positions.setdefault(base, set()).add(j)
    return base + (j,)


def _add(idx: dict, positions: dict, base: tuple, args: tuple, item) -> None:
    """File `item` under `base`, and under `base + (j, args[j])` for each
    position j planned for `base`."""
    idx.setdefault(base, []).append(item)
    for j in positions.get(base, ()):
        idx.setdefault(base + (j, args[j]), []).append(item)


def _lookup(idx: dict, key: tuple, pattern, s: dict) -> list:
    """The items filed under `key`, completed by the pattern's argument at
    the key's position under `s`."""
    if len(key) == 3:
        key += (apply(s, pattern.args[key[2]]),)
    return idx.get(key, ())


class _Plan:
    """How each rule of a program fires over a universe, fixed once.

    A rule with variables keeps its body in sorted order.  Each body atom
    is looked up under (pred, arity), or under (pred, arity, j, argument
    j) for the first argument j whose variables the atoms before it
    bind.  Each head argument the body leaves open is matched against
    universe terms looked up the same way, by (functor, arity) or by a
    bound sub-argument; a bare open variable ranges over the universe.
    Only the positions some lookup uses are indexed.
    """

    def __init__(self, p: Program, universe: frozenset):
        self.universe = universe
        self.ground_rules = [r for r in p if is_ground(r)]
        self.rules = []
        self.atom_keys: dict = {}
        term_keys: dict = {}
        for rule in p:
            if is_ground(rule):
                continue
            body = body_order(rule)
            bound: set = set()
            body_keys = []
            for b in body:
                body_keys.append(_key(self.atom_keys, (b.pred, b.arity), b.args, bound))
                bound |= vars_of(b)
            opens, closed = [], []
            for k, t in enumerate(rule.head.args):
                if vars_of(t) <= bound:
                    closed.append(k)
                elif isinstance(t, Var):
                    opens.append((t, ()))
                else:
                    opens.append((t, _key(term_keys, (t.functor, len(t.args)), t.args, bound)))
                bound |= vars_of(t)
            self.rules.append((rule.head, body, body_keys, opens, closed))
        self.terms: dict = {(): list(universe)}
        for t in universe:
            _add(self.terms, term_keys, (t.functor, len(t.args)), t.args, t)

    def index(self, atoms: Iterable[Atom]) -> dict:
        """An index of the given atoms, which must be universe-closed."""
        idx: dict = {}
        for a in atoms:
            _add(idx, self.atom_keys, (a.pred, a.arity), a.args, a)
        return idx

    def fire(self, rule_plan: tuple, sources: list) -> Iterator[Atom]:
        """The rule's universe-closed head instances whose body atoms match
        in `sources` (one index per body position).  Head arguments the
        body leaves open are matched against universe terms next, so a
        head-only variable takes only values that keep them closed."""
        head, body, body_keys, opens, closed = rule_plan
        steps = [(match_atom, src, b, key) for src, b, key in zip(sources, body, body_keys)]
        steps += [(_match_term, self.terms, t, key) for t, key in opens]
        universe = self.universe

        # A rule with variables has a body atom or an open head argument,
        # so there is at least one step.  `vals` holds the universe terms
        # matched by the head steps so far.
        def match(i: int, s: dict, vals: tuple):
            matcher, idx, pattern, key = steps[i]
            for item in _lookup(idx, key, pattern, s):
                s2 = matcher(pattern, item, s)
                if s2 is None:
                    continue
                more = vals + (item,) if i >= len(body) else vals
                if i + 1 < len(steps):
                    yield from match(i + 1, s2, more)
                elif not closed:  # every head argument was open: `more` is the head
                    yield Atom(head.pred, more)
                else:
                    h = apply(s2, head)
                    if all(h.args[k] in universe for k in closed):
                        yield h

        return match(0, {}, ())


def tp_step(p: Program, i: Iterable[Atom], bound: GroundingBound = DEFAULT_BOUND) -> frozenset:
    """One van Emden-Kowalski step: heads of bounded instances whose whole
    body is contained in i."""
    i = frozenset(i)
    plan = _Plan(p, herbrand_universe(p, bound))
    idx = plan.index(a for a in i if _atom_closed(a, plan.universe))
    out: set = set()
    for head in chain((r.head for r in plan.ground_rules if r.body <= i),
                      *(plan.fire(rp, [idx] * len(rp[1])) for rp in plan.rules)):
        out.add(head)
        if len(out) > bound.max_atoms:
            raise GroundingOverflowError(bound.max_atoms)
    return frozenset(out)


def least_model(p: Program, bound: GroundingBound = DEFAULT_BOUND) -> frozenset:
    """Least fixpoint of tp_step from the empty interpretation.

    Computed semi-naively over one index that grows by each round's
    delta: a round fires only rules with at least one body atom matched
    against the atoms new in the previous round, which yields the same
    fixpoint as naive iteration.  The budget is checked per new atom.
    """
    plan = _Plan(p, herbrand_universe(p, bound))
    model: set = set()
    new: dict = {}  # atom -> whether its arguments lie in the universe
    idx: dict = {}

    def admit(heads: Iterable[Atom], known_closed: bool = True) -> None:
        for head in heads:
            if head not in model:
                new[head] = known_closed or _atom_closed(head, plan.universe)
                if len(model) + len(new) > bound.max_atoms:
                    raise GroundingOverflowError(bound.max_atoms)

    for rule_plan in plan.rules:  # bodiless rules with variables fire once
        if not rule_plan[1]:
            admit(plan.fire(rule_plan, []))
    while True:
        admit((r.head for r in plan.ground_rules if r.body <= model), known_closed=False)
        if not new:
            return frozenset(model)
        delta, new = new, {}
        model.update(delta)
        delta_idx = plan.index(a for a, closed in delta.items() if closed)
        for key, atoms in delta_idx.items():
            idx.setdefault(key, []).extend(atoms)
        for rule_plan in plan.rules:
            n = len(rule_plan[1])
            for j in range(n):
                admit(plan.fire(rule_plan, [delta_idx if k == j else idx for k in range(n)]))


def entails(p: Program, a: Atom, bound: GroundingBound = DEFAULT_BOUND) -> bool:
    """Membership of the ground atom in the bounded least model."""
    if not is_ground(a):
        raise ValueError(f"entails expects a ground atom, got {render_atom(a)}")
    return a in least_model(p, bound)


def equivalent(p: Program, r: Program, bound: GroundingBound = DEFAULT_BOUND) -> bool:
    """Equality of the two bounded least models (equivalence AT the bound)."""
    return least_model(p, bound) == least_model(r, bound)
