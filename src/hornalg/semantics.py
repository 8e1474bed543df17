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
bound, nothing stronger.  `ground` tests each argument term as soon as its
last variable is bound, so it builds only the admitted instances.

`tp_step` and `least_model` evaluate bottom-up by matching, not through
`ground`.  A plan fixed once per (program, universe) says how each rule's
body atoms are looked up in an index of universe-closed atoms, and how
head variables the body leaves open are bound by matching head arguments
against universe terms.  A body part that shares no variable with the
head is a condition, tested for one match and never joined into the head.
`least_model` grows one index by each round's new atoms and fires rules
semi-naively.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, product
from typing import Callable, Iterable, Iterator, Optional

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
    term_functors,
    term_vars,
)
from .unify import _apply_term, _match_term, apply, match_atom

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
    for f, n in term_functors(*(t for a in p.all_atoms() for t in a.args)):
        arities.setdefault(f, set()).add(n)
    for c in bound.constants:
        arities.setdefault(c, set()).add(0)

    # Level by level, in the order found.  A tuple of arguments that holds a
    # term the level before found (from `start` on) gives a term one deeper
    # than any found yet; every other tuple was used a level earlier.
    terms: list[Term] = [Compound(f) for f, ns in sorted(arities.items()) if 0 in ns]
    start = 0
    for _ in range(bound.max_term_depth):
        end = len(terms)
        for f, ns in sorted(arities.items()):
            for n in sorted(ns - {0}):
                for args in _tuples_reaching(terms, start, end, n):
                    terms.append(Compound(f, args))
                    if len(terms) > bound.max_atoms:
                        raise GroundingOverflowError(bound.max_atoms)
        if len(terms) == end:
            break
        start = end
    # Built from a dict, as it always was: a set built from the list can
    # iterate in another order, and `_Plan` and `least_model` follow it.
    return frozenset(dict.fromkeys(terms))


def _tuples_reaching(terms: list, start: int, end: int, n: int) -> Iterator[tuple]:
    """The n-tuples over `terms[:end]` with an element in `terms[start:end]`,
    in the order `itertools.product` gives them: those whose first element
    lies before `start` come first."""
    new = terms[start:end]
    if n == 1:
        return product(new)
    prev = terms[:end]
    first_old = ((t, *rest) for t in prev[:start]
                 for rest in _tuples_reaching(prev, start, end, n - 1))
    return chain(first_old, product(new, *[prev] * (n - 1)))


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


def _atom_closed(a: Atom, universe: dict) -> bool:
    return all(t in universe for t in a.args)


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
    in the order of the product of `subterms` (see `ordered_subterms`) over
    the rule's variables; a variable-free rule is its own only instance.
    The variables are bound depth first, one iterator each on a stack, and
    a branch is cut once an argument whose last variable is bound lies
    outside the universe."""
    rvars = rule_vars(rule)
    if not rvars:
        yield rule
        return
    last = {v: i for i, v in enumerate(rvars)}
    checks: list = [[] for _ in rvars]  # the argument terms whose last variable is rvars[i]
    inst: dict = {}  # argument term -> its instance under the bindings so far
    atoms = (rule.head, *rule.body)
    for t in dict.fromkeys(t for a in atoms for t in a.args):
        i = max(map(last.__getitem__, term_vars(t)), default=None)
        if i is not None:
            checks[i].append(t)
        elif t in universe:
            inst[t] = t
        else:
            return
    s: dict = {}
    stack = [iter(subterms)]
    while stack:
        i = len(stack) - 1  # bind rvars[i] to its next value that passes checks[i]
        for s[rvars[i]] in stack[i]:
            for t in checks[i]:
                inst[t] = t_inst = _apply_term(s, t)
                if t_inst not in universe:
                    break
            else:
                break
        else:
            stack.pop()
            continue
        if len(stack) < len(rvars):
            stack.append(iter(subterms))
            continue
        head, *body = [Atom(a.pred, tuple([inst[t] for t in a.args])) for a in atoms]
        yield Rule(head, frozenset(body))


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
    j = next((j for j, t in enumerate(args) if bound.issuperset(term_vars(t))), None)
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


def _parts(head_vars: set, body: tuple, body_keys: list, body_vars: list) -> list:
    """The body's variable-connected parts as (atoms in body order, their keys):
    first the core, linked to the head by chains of shared variables, then
    the conditions in order of their first atoms; a ground atom is one alone."""
    part: list = [None] * len(body)
    reach, n = head_vars, 0
    while None in part:
        for i, vs in enumerate(body_vars):
            if part[i] is None and not reach.isdisjoint(vs):
                break
        else:  # nothing more joins part n: the first atom left starts the next
            n, i, reach = n + 1, part.index(None), set()
        part[i] = n
        reach |= body_vars[i]
    return [([b for b, k in zip(body, part) if k == m],
             [key for key, k in zip(body_keys, part) if k == m]) for m in range(n + 1)]


class _Plan:
    """How each rule of a program fires over a universe, fixed once.

    A rule with variables keeps its body in sorted order.  Each body atom
    is looked up under (pred, arity), or under (pred, arity, j, argument
    j) for the first argument j whose variables the atoms before it
    bind.  Each head argument the body leaves open is matched against
    universe terms looked up the same way, by (functor, arity) or by a
    bound sub-argument; a bare open variable ranges over the universe.
    Only the positions some lookup uses are indexed.  Body parts that share
    no variable with the head are conditions, Boolean subqueries planned as
    rules with a 0-ary head.  Head arguments are the universe's own terms.
    """

    def __init__(self, p: Program, universe: frozenset):
        self.universe = dict(zip(universe, universe))  # each term to itself
        self.ground_rules, self.rules = [], []
        self.atom_keys: dict = {}
        term_keys: dict = {}
        for rule in p:
            if is_ground(rule):
                self.ground_rules.append(rule)
                continue
            body = body_order(rule)
            bound: set = set()
            body_keys, body_vars = [], []
            for b in body:
                body_keys.append(_key(self.atom_keys, (b.pred, b.arity), b.args, bound))
                body_vars.append(set(term_vars(*b.args)))
                bound |= body_vars[-1]
            # A condition shares no variable with the head or the core, so
            # its variables in `bound` change no key or open argument here.
            opens, head_vars = [], set()
            for j, t in enumerate(rule.head.args):
                vs = set(term_vars(t))
                if not bound.issuperset(vs):
                    opens.append((j, t, () if isinstance(t, Var) else
                                  _key(term_keys, (t.functor, len(t.args)), t.args, bound)))
                bound |= vs
                head_vars |= vs
            (core, core_keys), *conds = _parts(head_vars, body, body_keys, body_vars)
            self.rules.append(((rule.head, core, core_keys, opens),
                               [(Atom("true"), atoms, keys, []) for atoms, keys in conds]))
        self.terms: dict = {}
        if any(rule_plan[3] for rule_plan, _ in self.rules):  # some head argument is open
            self.terms[()] = list(universe)
            for t in universe:
                _add(self.terms, term_keys, (t.functor, len(t.args)), t.args, t)

    def index(self, atoms: Iterable[Atom]) -> dict:
        """An index of the given atoms, which must be universe-closed."""
        idx: dict = {}
        for a in atoms:
            _add(idx, self.atom_keys, (a.pred, a.arity), a.args, a)
        return idx

    def holds(self, cond: tuple, idx: dict) -> bool:
        """Whether the condition has a match in `idx`, stopping at the first."""
        return next(self.fire(cond, [idx] * len(cond[1])), None) is not None

    def fire(self, rule_plan: tuple, sources: list) -> Iterator[Atom]:
        """The rule's universe-closed head instances whose core atoms match
        in `sources` (one index per core position).  Head arguments the
        core leaves open are matched against universe terms next, so a
        head-only variable takes only values that keep them closed."""
        head, body, body_keys, opens = rule_plan
        steps = [(match_atom, src, b, key) for src, b, key in zip(sources, body, body_keys)]
        steps += [(_match_term, self.terms, t, key) for _, t, key in opens]
        universe = self.universe
        all_open = len(opens) == len(head.args)
        # An open argument is already the universe term it matched; None marks it.
        open_at = {j for j, _, _ in opens}
        shut = [None if j in open_at else t for j, t in enumerate(head.args)]

        def close(s: dict, vals: tuple) -> Optional[Atom]:  # `vals`: the open arguments
            it = iter(vals)
            args = vals if all_open else tuple(
                [next(it) if t is None else universe.get(_apply_term(s, t)) for t in shut])
            return None if None in args else Atom(head.pred, args)

        if not steps:  # a variable-free head over conditions only
            return iter([h] if (h := close({}, ())) else [])
        return _matches(steps, len(body), close, 0, {}, ())


def _matches(steps: list, n_body: int, close: Callable, i: int, s: dict, vals: tuple) -> Iterator[Atom]:
    """The closed heads of `_Plan.fire` from step `i` on, under `s`; `vals`
    holds the universe terms the head steps (those past `n_body`) have
    matched so far.  A module function, as a nested generator calling
    itself would form a cycle holding the steps and their indexes."""
    matcher, idx, pattern, key = steps[i]
    for item in _lookup(idx, key, pattern, s):
        s2 = matcher(pattern, item, s)
        if s2 is None:
            continue
        more = vals + (item,) if i >= n_body else vals
        if i + 1 < len(steps):
            yield from _matches(steps, n_body, close, i + 1, s2, more)
        elif (h := close(s2, more)) is not None:
            yield h


def tp_step(p: Program, i: Iterable[Atom], bound: GroundingBound = DEFAULT_BOUND) -> frozenset:
    """One van Emden-Kowalski step: heads of bounded instances whose whole
    body is contained in i."""
    i = frozenset(i)
    plan = _Plan(p, herbrand_universe(p, bound))
    idx = plan.index(a for a in i if _atom_closed(a, plan.universe))
    out: set = set()
    for head in chain((r.head for r in plan.ground_rules if r.body <= i),
                      *(plan.fire(rp, [idx] * len(rp[1])) for rp, conds in plan.rules
                        if all(plan.holds(c, idx) for c in conds))):
        out.add(head)
        if len(out) > bound.max_atoms:
            raise GroundingOverflowError(bound.max_atoms)
    return frozenset(out)


def least_model(p: Program, bound: GroundingBound = DEFAULT_BOUND) -> frozenset:
    """Least fixpoint of tp_step from the empty interpretation.

    Computed semi-naively over one index that grows by each round's
    delta: a round fires only rules with at least one core atom matched
    against the atoms new in the previous round, which yields the same
    fixpoint as naive iteration.  A rule with conditions waits until each
    has held once, fires its core once over the whole index, and from the
    next round on semi-naively; a condition is tested again only in a
    round that adds an atom of one of its predicates.  The budget is
    checked per new atom.
    """
    plan = _Plan(p, herbrand_universe(p, bound))
    model: set = set()
    new: dict = {}  # atom -> whether its arguments lie in the universe
    idx: dict = {}
    waiting = [list(conds) for _, conds in plan.rules]  # the conditions not yet held

    def admit(heads: Iterable[Atom], known_closed: bool = True) -> None:
        for head in heads:
            if head not in model:
                new[head] = known_closed or _atom_closed(head, plan.universe)
                if len(model) + len(new) > bound.max_atoms:
                    raise GroundingOverflowError(bound.max_atoms)

    for (rule_plan, _), conds in zip(plan.rules, waiting):
        if not rule_plan[1] and not conds:  # bodiless rules with variables fire once
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
        for (rule_plan, _), conds in zip(plan.rules, waiting):
            n = len(rule_plan[1])
            if conds:
                conds[:] = [c for c in conds
                            if not (any((b.pred, b.arity) in delta_idx for b in c[1])
                                    and plan.holds(c, idx))]
                if not conds:
                    admit(plan.fire(rule_plan, [idx] * n))
                continue
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
