"""Core syntax: terms, atoms, rules, and programs.

A program is a set of Horn rules.  Two rules that differ only by a
renaming of variables count as the same set element, so `Program`
deduplicates under per-rule canonical renaming and `Program.__eq__` is
variant equality.  The concrete variable names of the stored rules are
preserved, because the concatenation operation is sensitive to them.

Predicate and function symbols are *unranked*: identity is by name only,
and the same name may occur at several arities within one program.

Variables, compounds and atoms compute their dataclass hash once, and a
rule its variables and its body order, on first use.  The caches are slots
but not fields, so `==`, `repr`, pickling and copying never see them.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Union


# ---------------------------------------------------------------------------
# Terms


class _Cached:
    __slots__ = ("_hash",)  # None until the first hash


def _hash_once(cls):
    """Keep each object's dataclass hash in its `_hash` slot.  The new
    `__init__` stores through the slot descriptors, faster than the frozen
    dataclass's `object.__setattr__`; unpickling and copying call it too,
    so no hash comes from another process, where strings hash otherwise."""
    by_fields, set_hash = cls.__hash__, _Cached._hash.__set__
    set_symbol, *set_rest = [cls.__dict__[f.name].__set__ for f in fields(cls)]

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = by_fields(self)
            set_hash(self, h)
        return h

    if set_rest:  # Compound and Atom: (symbol, args=())
        (set_args,) = set_rest

        def __init__(self, symbol: str, args: tuple = ()):
            set_symbol(self, symbol)
            set_args(self, args)
            set_hash(self, None)
    else:  # Var: (symbol)
        def __init__(self, symbol: str):
            set_symbol(self, symbol)
            set_hash(self, None)

    cls.__init__, cls.__hash__ = __init__, __hash__
    cls.__setstate__ = lambda self, state: __init__(self, *state)
    return cls


@_hash_once
@dataclass(frozen=True, slots=True)
class Var(_Cached):
    """A first-order variable."""

    name: str

    def __repr__(self) -> str:
        return f"Var({self.name})"


@_hash_once
@dataclass(frozen=True, slots=True)
class Compound(_Cached):
    """A function symbol applied to arguments; a constant when args is empty."""

    functor: str
    args: tuple = ()

    def __repr__(self) -> str:
        return f"Compound({render_term(self)})"


Term = Union[Var, Compound]

NIL = Compound("nil", ())


def const(name: str) -> Compound:
    return Compound(name, ())


def cons(head: Term, tail: Term) -> Compound:
    return Compound("cons", (head, tail))


def make_list(items: Iterable[Term], tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(tuple(items)):
        out = cons(item, out)
    return out


# ---------------------------------------------------------------------------
# Atoms and rules


@_hash_once
@dataclass(frozen=True, slots=True)
class Atom(_Cached):
    """A predicate symbol applied to argument terms (possibly none)."""

    pred: str
    args: tuple = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        return f"Atom({render_atom(self)})"


class _RuleCached:
    __slots__ = ("_vars", "_order")  # unset until first use


@dataclass(frozen=True, slots=True)
class Rule(_RuleCached):
    """A Horn rule: one head atom and a (possibly empty) set of body atoms.

    A rule with an empty body is a fact.  Bodies are duplicate-free sets.
    """

    head: Atom
    body: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.body, frozenset):
            object.__setattr__(self, "body", frozenset(self.body))

    @property
    def is_fact(self) -> bool:
        return not self.body

    def __repr__(self) -> str:
        return f"Rule({render_rule(self)})"


@dataclass(frozen=True, slots=True)
class PredSignature:
    """The head predicate of a rule paired with the set of its body predicates.

    Arities are deliberately ignored (unranked convention).
    """

    head: str
    body: frozenset


def pred_of(rule: Rule) -> PredSignature:
    return PredSignature(rule.head.pred, frozenset(a.pred for a in rule.body))


# ---------------------------------------------------------------------------
# Variable collection


def term_vars(t: Term) -> Iterator[Var]:
    if isinstance(t, Var):
        yield t
    else:
        for a in t.args:
            yield from term_vars(a)


def atom_vars(a: Atom) -> Iterator[Var]:
    for t in a.args:
        yield from term_vars(t)


def term_functors(*terms: Term) -> frozenset:
    """Function symbol names (unranked) occurring in the terms."""
    out = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, Compound):
            out.add(t.functor)
            stack.extend(t.args)
    return frozenset(out)


def body_order(r: Rule) -> tuple:
    """The rule's body atoms in `render_atom` order, sorted once per rule."""
    try:
        return r._order
    except AttributeError:
        object.__setattr__(r, "_order", tuple(sorted(r.body, key=render_atom)))
        return r._order


def rule_vars(r: Rule) -> tuple:
    """The rule's variables, each once, in order of first occurrence: head,
    then body atoms in `render_atom` order.  Computed once per rule."""
    try:
        return r._vars
    except AttributeError:
        atoms = [r.head, *body_order(r)]
        object.__setattr__(r, "_vars", tuple(dict.fromkeys(v for a in atoms for v in atom_vars(a))))
        return r._vars


def vars_of(obj) -> frozenset:
    """All variables occurring in a term, atom, rule, or program."""
    if isinstance(obj, (Var, Compound)):
        return frozenset(term_vars(obj))
    if isinstance(obj, Atom):
        return frozenset(atom_vars(obj))
    if isinstance(obj, Rule):
        return frozenset(rule_vars(obj))
    if isinstance(obj, Program):
        return frozenset(v for r in obj for v in rule_vars(r))
    raise TypeError(f"cannot collect variables from {type(obj).__name__}")


def is_ground(obj) -> bool:
    """No variable occurs in `obj`; a term or an atom stops at the first."""
    if isinstance(obj, (Var, Compound, Atom)):
        return not isinstance(obj, Var) and all(map(is_ground, obj.args))
    return not (rule_vars(obj) if isinstance(obj, Rule) else vars_of(obj))


# ---------------------------------------------------------------------------
# Rendering

_LIST_FUNCTOR = "cons"
_NIL_FUNCTOR = "nil"


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if t.functor == _NIL_FUNCTOR and not t.args:
        return "[]"
    if t.functor == _LIST_FUNCTOR and len(t.args) == 2:
        items = []
        cur: Term = t
        while isinstance(cur, Compound) and cur.functor == _LIST_FUNCTOR and len(cur.args) == 2:
            items.append(render_term(cur.args[0]))
            cur = cur.args[1]
        if isinstance(cur, Compound) and cur.functor == _NIL_FUNCTOR and not cur.args:
            return "[" + ",".join(items) + "]"
        return "[" + ",".join(items) + "|" + render_term(cur) + "]"
    if not t.args:
        return t.functor
    return t.functor + "(" + ",".join(render_term(a) for a in t.args) + ")"


def render_atom(a: Atom) -> str:
    if not a.args:
        return a.pred
    return a.pred + "(" + ",".join(render_term(t) for t in a.args) + ")"


def render_rule(r: Rule) -> str:
    """Render a rule with its variable names as-is; body in a fixed order."""
    if r.is_fact:
        return render_atom(r.head) + "."
    body = ", ".join(map(render_atom, body_order(r)))
    return render_atom(r.head) + " :- " + body + "."


# ---------------------------------------------------------------------------
# Canonical renaming
#
# canonical_rule maps every rule to the unique representative of its variant
# class: variables named A, B, C, ... by first occurrence, head first; body
# atoms sorted by shape (skeleton, local pattern), same-shape atoms in the
# order that renders least.  Their renderings differ only in names and never
# prefix one another, so only atoms that render least under the names given
# so far can come next.  The search tries interchangeable atoms once and
# memoises ties, so only ties cost more: symmetric same-shape atoms, and past
# 26 variables unnamed ones, as `V26` sorts before `W`.


def _shape(a: Atom) -> tuple:
    """Skeleton and local pattern from one walk: `e(_,[])`, `e(#0,[])` for `e(X,nil)`."""
    seen: dict = {}

    def walk(t: Term) -> tuple:
        if isinstance(t, Var):
            return "_", seen.setdefault(t, f"#{len(seen)}")
        if not t.args:
            text = "[]" if t.functor == _NIL_FUNCTOR else t.functor
            return text, text
        return tuple(t.functor + "(" + ",".join(part) + ")" for part in zip(*map(walk, t.args)))

    skeleton, pattern = zip(*map(walk, a.args)) if a.args else ((), ())
    return a.pred + "(" + ",".join(skeleton) + ")", a.pred + "(" + ",".join(pattern) + ")"


def _rename(x, mapping: dict):
    """`x` renamed by `mapping`, which names new variables A, ..., Z, V26, ..."""
    if isinstance(x, Var):
        if x not in mapping:
            n = len(mapping)
            mapping[x] = Var(string.ascii_uppercase[n] if n < 26 else f"V{n}")
        return mapping[x]
    if not x.args:
        return x
    args = tuple(_rename(t, mapping) for t in x.args)
    return Atom(x.pred, args) if isinstance(x, Atom) else Compound(x.functor, args)


def _leaders(left: list, later: list, mapping: dict) -> list:
    """The atoms of `left` that render least under `mapping`; of those whose
    unnamed variables no other atom of `left` or `later` has, only one."""
    size, ranked = len(mapping), []
    for a in left:  # name each atom's new variables only while it renders
        ranked.append((render_atom(_rename(a, mapping)), a))
        while len(mapping) > size:
            mapping.popitem()
    least = min(t for t, _ in ranked)
    tied = [a for t, a in ranked if t == least]
    if len(tied) == 1:
        return tied
    owners = Counter(v for a in chain(left, *later) for v in set(atom_vars(a)))
    shared = {a: any(owners[v] > 1 for v in atom_vars(a) if v not in mapping) for a in tied}
    return [a for a in tied if shared[a]] + [a for a in tied if not shared[a]][:1]


def _least_order(groups: list, mapping: dict, memo: dict) -> list:
    """The atoms of the shape `groups` renamed under `mapping` in the order that renders least."""
    atoms = []
    for gi, left in enumerate(groups):
        left, later = list(left), groups[gi + 1:]
        while left:
            tied = _leaders(left, later, mapping) if len(left) > 1 else left[:1]
            if len(tied) > 1:
                live = {(v, mapping[v]) for a in chain(left, *later) for v in atom_vars(a) if v in mapping}
                key = (frozenset(left), frozenset(live))  # the atoms left fix the names given
                if key not in memo:
                    options = []
                    for a in tied:
                        named = dict(mapping)
                        rest = [[b for b in left if b is not a], *later]
                        options.append([_rename(a, named), *_least_order(rest, named, memo)])
                    memo[key] = min(options, key=lambda o: list(map(render_atom, o)))
                return atoms + memo[key]
            left.remove(tied[0])
            atoms.append(_rename(tied[0], mapping))
    return atoms


@lru_cache(maxsize=65536)
def _canonicalize(rule: Rule) -> tuple:
    mapping: dict = {}
    head = _rename(rule.head, mapping)
    by_shape: dict = {}
    for a in rule.body:
        by_shape.setdefault(_shape(a), []).append(a)
    atoms = _least_order([by_shape[k] for k in sorted(by_shape)], mapping, {})
    text = render_atom(head) + (" :- " + ", ".join(map(render_atom, atoms)) if atoms else "") + "."
    return Rule(head, frozenset(atoms)), text


def canonical_rule(rule: Rule) -> Rule:
    """The canonical representative of the rule's variant class."""
    return _canonicalize(rule)[0]


def canonical_key(rule: Rule) -> str:
    """Canonical rendering of the rule; equal strings iff the rules are variants."""
    return _canonicalize(rule)[1]


# ---------------------------------------------------------------------------
# Programs


class Program:
    """An immutable set of rules with variant-based equality.

    Rules are deduplicated under canonical renaming; the first
    representative of each variant class is kept with its original
    variable names (concatenation depends on them).  Iteration order is
    deterministic: sorted by head predicate, head arity, facts first,
    then canonical rendering.  A dict from canonical key to rule (as `|`
    passes) is taken as already keyed.
    """

    __slots__ = ("_rules", "_keyed", "_hash", "_namekey")

    def __init__(self, rules: Iterable[Rule] = ()):
        if isinstance(rules, dict):
            seen = rules
        else:
            seen = {}
            for r in rules:
                if not isinstance(r, Rule):
                    raise TypeError(f"Program expects Rule elements, got {type(r).__name__}")
                seen.setdefault(canonical_key(r), r)
        self._keyed: dict[str, Rule] = dict(sorted(
            seen.items(), key=lambda kr: (kr[1].head.pred, kr[1].head.arity, bool(kr[1].body), kr[0])))
        self._rules = tuple(self._keyed.values())
        self._hash = hash(frozenset(self._keyed))
        self._namekey: tuple | None = None

    def name_key(self) -> tuple:
        """Sorted rule renderings: distinguishes variant-equal programs
        that differ only in variable names (equality does not)."""
        if self._namekey is None:
            self._namekey = tuple(sorted(render_rule(r) for r in self._rules))
        return self._namekey

    # -- set behaviour ------------------------------------------------------

    @property
    def rules(self) -> tuple:
        return self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __bool__(self) -> bool:
        return bool(self._rules)

    def __contains__(self, rule: Rule) -> bool:
        return canonical_key(rule) in self._keyed

    def __eq__(self, other) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._hash == other._hash and self._keyed.keys() == other._keyed.keys()

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt when loaded: a string's hash differs between processes.
        return (Program, (self._rules,))

    def __or__(self, other: "Program") -> "Program":
        if not isinstance(other, Program):
            return NotImplemented
        return Program({**other._keyed, **self._keyed})

    def __repr__(self) -> str:
        text = " ".join(self._keyed)
        if len(text) > 200:
            text = text[:197] + "..."
        return f"Program<{text}>"

    def issubset(self, other: "Program") -> bool:
        return self._keyed.keys() <= other._keyed.keys()

    def strict_equals(self, other: "Program") -> bool:
        """Equality of the stored rules themselves, variable names included."""
        return set(self._rules) == set(other._rules)

    # -- structural queries -------------------------------------------------

    def facts(self) -> "Program":
        return Program({k: r for k, r in self._keyed.items() if r.is_fact})

    def proper(self) -> "Program":
        return Program({k: r for k, r in self._keyed.items() if not r.is_fact})

    def all_atoms(self) -> tuple:
        return tuple(a for r in self._rules for a in (r.head, *body_order(r)))

    def predicates(self) -> frozenset:
        """Predicate names (unranked) occurring anywhere in the program."""
        return frozenset(a.pred for a in self.all_atoms())

    def pred_signature(self) -> frozenset:
        """(name, arity) pairs of all atom occurrences."""
        return frozenset((a.pred, a.arity) for a in self.all_atoms())

    def functors(self) -> frozenset:
        """Function symbol names (unranked) occurring anywhere in the program."""
        return term_functors(*(t for a in self.all_atoms() for t in a.args))

    # -- elementary operations ----------------------------------------------

    def rename_predicate(self, old: str, new: str) -> "Program":
        """Rewrite every occurrence of predicate `old` (any arity) to `new`."""
        if old == new:
            return self

        def ren_atom(a: Atom) -> Atom:
            return Atom(new, a.args) if a.pred == old else a

        return Program(
            Rule(ren_atom(r.head), frozenset(ren_atom(a) for a in r.body)) for r in self._rules
        )

    def reverse(self) -> "Program":
        """Keep facts; flip each proper rule into one rule per body atom."""
        out: list[Rule] = []
        for r in self._rules:
            if r.is_fact:
                out.append(r)
            else:
                for a in body_order(r):
                    out.append(Rule(a, frozenset([r.head])))
        return Program(out)


def render_program(p: Program) -> str:
    """Deterministic canonical rendering: one rule per line, no trailing newline."""
    return "\n".join(p._keyed)


def program_vars_ordered(p: Program) -> tuple:
    """Variables of the stored rules in first-occurrence order over canonical iteration."""
    return tuple(dict.fromkeys(v for r in p for v in rule_vars(r)))
