"""Analogical proportions between logic programs.

A proportion problem asks whether four programs stand in the relation
"P is to Q as R is to S", with P, Q drawn from a source domain and R, S
from a target domain.  A witness explains the relation by two program
forms F and G, applied to vectors of auxiliary programs, along one of
three line patterns, `fgfg`, `fggf` and `ffgg`.  A pattern's letters name
the form that yields P, Q, R and S in turn; `_LINE_EQUATIONS` states the
vector each one reads, and is the only statement of what a line means.

`check_proportion` verifies a witness item by item (fixed material inside
the forms must lie in both domains, the forms must not be constant, the
vectors must respect the domains, and the line identities must hold).
`derived_proportions` builds the three standard rearrangements of a
verified proportion together with witnesses for them.  `solve_proportion`
searches bounded form and vector spaces for all verified candidates S.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cache
from heapq import nsmallest
from itertools import chain, combinations, islice, product
from typing import Callable, Optional

from .errors import BudgetError, FormEvalError, ProportionError
from .forms import (
    _BINARY,
    _UNARY,
    Binding,
    BodyOf,
    Evaluator,
    FactsOf,
    FormCall,
    Lit,
    ProperOf,
    ReverseOf,
    VarRef,
    expr_key,
    form_to_text,
    free_vars,
    is_nonconstant,
    literal_requirements,
    make_binding,
    operands,
    rebuild,
)
from .syntax import Program, Rule, Var, render_atom, render_program

# ---------------------------------------------------------------------------
# Domains


@dataclass(frozen=True, slots=True)
class DomainSig:
    """A domain of programs, named and delimited by the predicate and
    functor names its programs may use (names only; arities are free)."""

    name: str
    preds: frozenset
    functors: frozenset

    def __post_init__(self):
        object.__setattr__(self, "preds", frozenset(self.preds))
        object.__setattr__(self, "functors", frozenset(self.functors))

    def union(self, other: "DomainSig") -> "DomainSig":
        return DomainSig(
            f"{self.name}+{other.name}",
            self.preds | other.preds,
            self.functors | other.functors,
        )

    def intersection(self, other: "DomainSig") -> "DomainSig":
        return DomainSig(
            f"{self.name}^{other.name}",
            self.preds & other.preds,
            self.functors & other.functors,
        )


def in_domain(p: Program, sig: DomainSig) -> bool:
    return p.predicates() <= sig.preds and p.functors() <= sig.functors


def alien_symbols(p: Program, sig: DomainSig) -> list:
    """Symbol names used by `p` that `sig` does not allow."""
    return sorted(p.predicates() - sig.preds) + sorted(p.functors() - sig.functors)


# ---------------------------------------------------------------------------
# Problems and witnesses

# Each line maps to equations (program, form, vector): program = form(vector).
# The checker, the solver and the rearrangements all read this table.
_LINE_EQUATIONS = {
    "fgfg": (("p", "f", "p"), ("q", "g", "p"), ("r", "f", "r"), ("s", "g", "r")),
    "fggf": (("p", "f", "p"), ("q", "g", "p"), ("r", "g", "r"), ("s", "f", "r")),
    "ffgg": (("p", "f", "p"), ("q", "f", "r"), ("r", "g", "p"), ("s", "g", "r")),
}
_LINES = tuple(_LINE_EQUATIONS)


@dataclass(frozen=True, slots=True)
class ProportionProblem:
    """P : Q :: R : ?, with P, Q in the source domain and R in the target.
    `s` is the known fourth program when verifying, None when solving."""

    p: Program
    q: Program
    r: Program
    source: DomainSig
    target: DomainSig
    s: Optional[Program] = None

    def __post_init__(self):
        for label, prog, sig in (
            ("first", self.p, self.source),
            ("second", self.q, self.source),
            ("third", self.r, self.target),
        ):
            if not in_domain(prog, sig):
                bad = ", ".join(alien_symbols(prog, sig))
                raise ProportionError(
                    f"{label} program uses symbols outside domain {sig.name}: {bad}"
                )


@dataclass(frozen=True, slots=True)
class ProportionWitness:
    """Two forms, two binding vectors, and the line pattern relating them.
    Form variables are positional: X1 ... Xn against the vectors."""

    f: object
    g: object
    pvec: tuple  # of Binding
    rvec: tuple  # of Binding
    line: str

    def __post_init__(self):
        object.__setattr__(self, "line", self.line.lower())
        if self.line not in _LINES:
            raise ProportionError(f"unknown line pattern {self.line!r}")
        if not self.pvec or len(self.pvec) != len(self.rvec):
            raise ProportionError(
                f"vector arity mismatch: {len(self.pvec)} source vs {len(self.rvec)} target"
            )
        stray = (free_vars(self.f) | free_vars(self.g)) - {f"X{i + 1}" for i in range(self.arity)}
        if stray:
            raise ProportionError(
                "witness forms mention variables beyond the vector arity: "
                + ", ".join(sorted(stray))
            )

    @property
    def arity(self) -> int:
        return len(self.pvec)


def make_witness(f, g, pvec, rvec, line: str) -> ProportionWitness:
    """Build a witness, wrapping raw programs in default bindings."""
    def coerce(vec):
        return tuple(b if isinstance(b, Binding) else make_binding(b) for b in vec)
    return ProportionWitness(f, g, coerce(pvec), coerce(rvec), line)


def _vec_env(vec: tuple) -> dict:
    return {f"X{i + 1}": b for i, b in enumerate(vec)}


# ---------------------------------------------------------------------------
# Checking


@dataclass(frozen=True, slots=True)
class CheckItem:
    code: str
    ok: bool
    detail: str


@dataclass(frozen=True, slots=True)
class CheckReport:
    line: str
    items: tuple  # of CheckItem

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def format_lines(self) -> list:
        out = []
        for item in self.items:
            mark = "ok  " if item.ok else "FAIL"
            out.append(f"{mark} {item.code}: {item.detail}")
        out.append("verified" if self.ok else "not verified")
        return out


def _short(p: Program) -> str:
    text = " ".join(render_program(p).splitlines())
    return "{" + text + "}"


def fixed_material_offences(forms, inter: DomainSig, table: dict) -> list:
    """The fixed material inside the forms (inline literals, rename targets,
    substituted functors) that lies outside the domain intersection."""
    try:
        reqs = [literal_requirements(form, table) for form in forms]
    except FormEvalError as e:
        raise ProportionError(str(e)) from e
    offences = [f"literal {_short(lit)} uses {', '.join(bad)}"
                for lits, _, _ in reqs for lit in lits if (bad := alien_symbols(lit, inter))]
    preds = frozenset().union(*(req[1] for req in reqs))
    functors = frozenset().union(*(req[2] for req in reqs))
    offences += [f"rename target {n} is not shared" for n in sorted(preds - inter.preds)]
    offences += [f"substituted functor {n} is not shared"
                 for n in sorted(functors - inter.functors)]
    return offences


def domain_offences(named, sig: DomainSig) -> list:
    """`<name> uses <symbols>` for each (name, program) pair whose program
    uses symbols `sig` does not allow."""
    return [f"{name} uses {', '.join(bad)}" for name, prog in named
            if (bad := alien_symbols(prog, sig))]


def _line_domains(line: str, source: DomainSig, target: DomainSig) -> tuple:
    """`(source vector domain, target vector domain, shared)` on the line.
    A vector lies in the domain of every program the line makes from it.
    Every line makes P from the source vector and S from the target one;
    where one vector also makes a program of the other side (ffgg), both
    vectors lie in the intersection, and so must all four programs:
    `shared` is then the intersection, otherwise None."""
    if all(len({prog in "pq" for prog, _, v in _LINE_EQUATIONS[line] if v == vec}) == 1
           for vec in "pr"):
        return source, target, None
    inter = source.intersection(target)
    return inter, inter, inter


def _item(code: str, offences: list, ok_detail: str) -> CheckItem:
    return CheckItem(code, not offences, "; ".join(offences) if offences else ok_detail)


def _identity_items(problem: ProportionProblem, witness: ProportionWitness,
                    s_prog: Program, ev: Evaluator, strict: bool) -> list:
    """One item per line equation `program = form(vector)`."""
    progs = {"p": problem.p, "q": problem.q, "r": problem.r, "s": s_prog}
    envs = {"p": _vec_env(witness.pvec), "r": _vec_env(witness.rvec)}
    side = {"p": "source", "r": "target"}
    forms = {"f": witness.f, "g": witness.g}
    items = []
    for prog_key, form_key, vec_key in _LINE_EQUATIONS[witness.line]:
        code = f"{prog_key}_identity"
        label = f"{form_key.upper()} on the {side[vec_key]} vector"
        try:
            got = ev.eval(forms[form_key], envs[vec_key], {})
        except (FormEvalError, BudgetError) as e:
            items.append(CheckItem(code, False, f"{label} failed to evaluate: {e}"))
            continue
        expected = progs[prog_key]
        equal = got.strict_equals(expected) if strict else got == expected
        items.append(CheckItem(
            code,
            equal,
            f"{label} yields {prog_key.upper()}" if equal else
            f"{label} differs from {prog_key.upper()}: got {_short(got)}",
        ))
    return items


def check_proportion(problem: ProportionProblem, witness: ProportionWitness,
                     s: Optional[Program] = None, *, strict: bool = False,
                     evaluator: Optional[Evaluator] = None) -> CheckReport:
    """Verify a witness for P : Q :: R : S, item by item."""
    s_prog = s if s is not None else problem.s
    if s_prog is None:
        raise ProportionError("no candidate for the fourth program")
    ev = evaluator or Evaluator()
    source, target = problem.source, problem.target
    inter = source.intersection(target)

    # Fixed material inside the forms must lie in both domains, otherwise it
    # smuggles symbols across that no program of one side may use.
    items = [_item("alien_literal",
                   fixed_material_offences((witness.f, witness.g), inter, ev.table),
                   "all fixed material lies in both domains")]

    for code, form in (("f_nonconstant", witness.f), ("g_nonconstant", witness.g)):
        ok = is_nonconstant(form, ev)
        items.append(CheckItem(
            code,
            ok,
            f"{form_to_text(form)} {'varies' if ok else 'is constant'} on the probe programs",
        ))

    psig, rsig, shared = _line_domains(witness.line, source, target)
    for code, vec, sig in (("pvec_in_domain", witness.pvec, psig),
                           ("rvec_in_domain", witness.rvec, rsig)):
        entries = ((f"entry {i + 1}", b.program) for i, b in enumerate(vec))
        items.append(_item(code, domain_offences(entries, sig), f"all entries lie in {sig.name}"))
    if shared is not None:
        four = (("P", problem.p), ("Q", problem.q), ("R", problem.r), ("S", s_prog))
        items.append(_item("ffgg_intersection", domain_offences(four, shared),
                           f"all four programs lie in {shared.name}"))
    items.append(_item("s_in_target", domain_offences((("S", s_prog),), target),
                       f"S lies in {target.name}"))

    items.extend(_identity_items(problem, witness, s_prog, ev, strict))
    return CheckReport(witness.line, tuple(items))


# ---------------------------------------------------------------------------
# Derived rearrangements

_XVAR_RE = re.compile(r"^X([0-9]+)$")


def _shift_expr(expr, offset: int):
    """Rename every variable X{i} in a form expression to X{i+offset}."""
    def shift_name(name: str) -> str:
        m = _XVAR_RE.match(name)
        if m is None:
            raise ProportionError(f"cannot shift non-positional variable {name}")
        return f"X{int(m.group(1)) + offset}"

    if isinstance(expr, VarRef):
        return VarRef(shift_name(expr.name))
    if isinstance(expr, FormCall):
        return FormCall(expr.name, tuple(shift_name(a) for a in expr.args))
    return rebuild(expr, lambda e: _shift_expr(e, offset))


# The three standard rearrangements of P : Q :: R : S, each with the
# original programs that become its P, Q, R and S.
_REARRANGEMENTS = (("q:p::s:r", "qpsr"), ("r:s::p:q", "rspq"), ("p:r::q:s", "prqs"))


def _relabelled_witness(witness: ProportionWitness, order: str) -> Optional[ProportionWitness]:
    """A witness for the original programs taken in `order`: the line, form
    order and vector order whose equations are the original ones with the
    programs relabelled, or None when there is none.  Labels are compared,
    never the forms or vectors, which may coincide."""
    relabel = dict(zip(order, "pqrs"))
    want = {(relabel[prog], form, vec) for prog, form, vec in _LINE_EQUATIONS[witness.line]}
    parts = {"f": witness.f, "g": witness.g, "p": witness.pvec, "r": witness.rvec}
    for line, (f, g), (pv, rv) in product(_LINES, ("fg", "gf"), ("pr", "rp")):
        to = {"f": f, "g": g, "p": pv, "r": rv}
        if want == {(prog, to[form], to[vec]) for prog, form, vec in _LINE_EQUATIONS[line]}:
            return ProportionWitness(parts[f], parts[g], parts[pv], parts[rv], line)
    return None


def derived_proportions(problem: ProportionProblem, witness: ProportionWitness,
                        s: Optional[Program] = None) -> list:
    """The three standard rearrangements of a proportion, each as
    (name, problem, witness).  A witness that verifies the original
    verifies each derived one.  Each side of a rearranged proportion ranges
    over the domain of its programs, or over the united domain where they
    come from both sides."""
    s_prog = s if s is not None else problem.s
    if s_prog is None:
        raise ProportionError("derived proportions need the fourth program")
    progs = {"p": problem.p, "q": problem.q, "r": problem.r, "s": s_prog}
    src, tgt = problem.source, problem.target

    def domain(labels: str) -> DomainSig:
        if set(labels) <= set("pq"):
            return src
        return tgt if set(labels) <= set("rs") else src.union(tgt)

    out = []
    for name, order in _REARRANGEMENTS:
        w = _relabelled_witness(witness, order)
        if w is None:
            # P : R :: Q : S on fggf: F links P to S and G links Q to R, so
            # each new vector holds both old ones, in either order, and G
            # reads the second half.
            pv, rv = witness.pvec, witness.rvec
            w = ProportionWitness(witness.f, _shift_expr(witness.g, len(pv)), pv + rv, rv + pv,
                                  "fggf")
        p, q, r, s_new = (progs[label] for label in order)
        rearranged = ProportionProblem(p, q, r, domain(order[:2]), domain(order[2:]), s_new)
        out.append((name, rearranged, w))
    return out


# ---------------------------------------------------------------------------
# Solving

_UNARY_OPS = (FactsOf, ProperOf, ReverseOf, BodyOf)


@dataclass(frozen=True, slots=True)
class SolveBudget:
    """Bounds for the proportion solver's search space."""

    max_form_depth: int = 2
    max_vector_rules: int = 2
    max_forms: int = 20000
    max_solutions: int = 64
    witnesses_per_s: int = 4

    def __post_init__(self):
        negative = [f.name for f in fields(self) if getattr(self, f.name) < 0]
        if negative:
            raise ProportionError(f"negative solve budget: {', '.join(negative)}")


@dataclass(frozen=True, slots=True)
class ProportionSolution:
    s: Program
    witness: ProportionWitness


def form_pool(problem: ProportionProblem, budget: SolveBudget) -> list:
    """Candidate forms over one variable X1: atoms of the problem that both
    domains allow (as single-fact literals), closed under the unary
    operations and — with a primary left operand — the binary ones, up to
    the depth budget.  Generation stops at `budget.max_forms` forms."""
    inter = problem.source.intersection(problem.target)
    atoms = {}
    for prog in (problem.p, problem.q, problem.r):
        for a in prog.all_atoms():
            lit = Program([Rule(a)])
            if in_domain(lit, inter):
                atoms.setdefault(render_atom(a), Lit(lit))
    primaries: list = [VarRef("X1")] + [atoms[k] for k in sorted(atoms)]
    pool = primaries[: budget.max_forms]
    level = primaries
    for _ in range(budget.max_form_depth):
        if len(pool) >= budget.max_forms:
            break
        prev = level
        level = list(islice(chain(
            (op(e) for op in _UNARY_OPS for e in prev),
            (op(l, r) for op in _BINARY for l in primaries for r in prev),
        ), budget.max_forms - len(pool)))
        pool.extend(level)
    return pool


def pool_values(pool: list, ev: Evaluator) -> tuple:
    """The forms of `pool`, the first of each `expr_key`, and a function
    giving each one's value on a vector program by position (None where it
    fails to evaluate).

    A form of a `_BINARY` or `_UNARY` kind whose operands are earlier pool
    forms gets that table entry's operation on their values, the step
    `Evaluator._eval` takes.  Any other form goes through `ev.eval`.  Forms
    with no variable are evaluated once."""
    forms: list = []
    keys: dict = {}
    at: dict = {}  # id of each pool form -> position of its kept copy
    for fm in pool:
        i = at[id(fm)] = keys.setdefault(expr_key(fm), len(forms))
        if i == len(forms):
            forms.append(fm)
    steps: list = []  # per position: (operation, operand positions) or None
    fixed: list = []  # per position: the value needs no vector
    for i, fm in enumerate(forms):
        entry = _BINARY.get(type(fm)) or _UNARY.get(type(fm))
        args = tuple(at.get(id(sub), i) for sub in operands(fm))
        if entry is None or any(a >= i for a in args):  # i: not an earlier form
            steps.append(None)
            fixed.append(not free_vars(fm))
        else:
            steps.append((entry[1], args))
            fixed.append(all(fixed[a] for a in args))

    def run(positions, env: dict, vals: list) -> list:
        for i in positions:
            step = steps[i]
            try:
                if step is None:
                    vals[i] = ev.eval(forms[i], env, {})
                else:
                    xs = [vals[a] for a in step[1]]
                    vals[i] = None if any(x is None for x in xs) else step[0](*xs)
            except (FormEvalError, BudgetError):
                vals[i] = None
        return vals

    base = run([i for i in range(len(forms)) if fixed[i]], {}, [None] * len(forms))
    varying = [i for i in range(len(forms)) if not fixed[i]]
    return forms, lambda prog: run(varying, {"X1": make_binding(prog)}, list(base))


def vector_pool(rules: tuple, budget: SolveBudget) -> list:
    """Programs formed from subsets of the given rules, smallest first."""
    out: list = []
    seen = set()
    for size in range(0, min(budget.max_vector_rules, len(rules)) + 1):
        for combo in combinations(rules, size):
            prog = Program(combo)
            if prog not in seen:
                seen.add(prog)
                out.append(prog)
    return out


def solve_proportion(problem: ProportionProblem, budget: Optional[SolveBudget] = None,
                     evaluator: Optional[Evaluator] = None) -> list:
    """All verified candidates for the fourth program within the budget,
    with witnesses.  Per (line, F, G) only vector pairs not pointwise
    enlargeable to another verified pair are kept; results are in a
    canonical order and capped at `budget.max_solutions`."""
    budget = budget or SolveBudget()
    ev = evaluator or Evaluator()
    # Keep the first form of each `expr_key`, or one candidate would be
    # found once per copy.  The key tells {q(X).} from {q(Y).}, which are
    # equal programs that concatenation tells apart.
    forms, values_on = pool_values(form_pool(problem, budget), ev)
    svecs = vector_pool((problem.p | problem.q).rules, budget)
    tvecs = vector_pool(problem.r.rules, budget)
    P, Q, R = problem.p, problem.q, problem.r
    known = {"p": P, "q": Q, "r": R}
    source, target = problem.source, problem.target
    inter = source.intersection(target)

    # A candidate is verified by the parts of `check_proportion` it depends
    # on, each computed once where its inputs are: the form checks once per
    # pool form, the domain checks once per (program, domain).
    @cache
    def form_ok(i: int) -> bool:
        return (not fixed_material_offences((forms[i],), inter, ev.table)
                and is_nonconstant(forms[i], ev))

    @cache
    def lies_in(prog: Program, sig: DomainSig) -> bool:
        return not domain_offences((("", prog),), sig)

    def fitting(positions, tval: list, value: Optional[Program], ssig: DomainSig) -> list:
        """The positions whose value on the target vector is `value`, or,
        for None, a candidate S: any value lying in `ssig`."""
        if value is None:
            return [i for i in positions if tval[i] is not None and lies_in(tval[i], ssig)]
        return [i for i in positions if tval[i] == value]

    # The value map of a vector program: each form's value by pool position
    # (None when it fails to evaluate) and the positions giving each value.
    # It is cached by name, as the Evaluator's memo is: concatenation sees
    # variable names, so equal programs such as {q(X).} and {q(Y).} can give
    # a form different values.
    value_maps: dict = {}

    def value_map(prog: Program):
        key = prog.name_key()
        if key not in value_maps:
            values = values_on(prog)
            by_value: dict = {}
            for i, v in enumerate(values):
                if v is not None:
                    by_value.setdefault(v, []).append(i)
            value_maps[key] = (values, by_value)
        return value_maps[key]

    # The line identities hold by construction: a candidate is generated only
    # when the value-map lookups match.  Each map holds what the operations
    # `check_proportion`'s Evaluator applies give on that very vector, and
    # lookups use the same Program equality, so the check would agree.
    verified: list = []  # (line, f, g, source vector, target vector, S) by position
    for line in _LINES:
        psig, rsig, shared = _line_domains(line, source, target)
        if shared is not None and not all(lies_in(x, shared) for x in (P, Q, R)):
            continue
        # What each form must give on the source and on the target vector;
        # None stands for S, which lies in the target vector's domain, as
        # S in the intersection is also in the target (`s_in_target`).
        gives = {form + vec: known.get(prog) for prog, form, vec in _LINE_EQUATIONS[line]}
        f_source, f_target, g_source, g_target = (gives[fv] for fv in ("fp", "fr", "gp", "gr"))
        f_gives_s = f_target is None
        for si, sv in enumerate(svecs):
            if not lies_in(sv, psig):
                continue
            _, sby = value_map(sv)
            for ti, tv in enumerate(tvecs):
                if not lies_in(tv, rsig):
                    continue
                tval, _ = value_map(tv)
                fs = fitting(sby.get(f_source, ()), tval, f_target, rsig)
                gs = fitting(sby.get(g_source, ()), tval, g_target, rsig)
                # The form checks run last: they evaluate the forms on the probe.
                fs = [i for i in fs if form_ok(i)] if gs else ()
                gs = [i for i in gs if form_ok(i)] if fs else ()
                verified.extend((line, f, g, si, ti, tval[f] if f_gives_s else tval[g])
                                for f in fs for g in gs)

    # Candidates stay position tuples until the cap: only the solutions
    # returned are built as witnesses.  Per (line, F, G), a vector pair is
    # dropped when another verified pair lies pointwise inside it.
    groups: dict = {}
    for cand in verified:
        groups.setdefault(cand[:3], []).append(cand)
    by_s: dict = {}  # S -> its kept candidates, in the order found
    for group in groups.values():
        for cand in group:
            si, ti = cand[3], cand[4]
            if not any((osi, oti) != (si, ti) and svecs[osi].issubset(svecs[si])
                       and tvecs[oti].issubset(tvecs[ti]) for *_, osi, oti, _ in group):
                by_s.setdefault(cand[5], []).append(cand)

    @cache
    def text(i: int) -> str:
        return form_to_text(forms[i])

    svec_text = [render_program(v) for v in svecs]
    tvec_text = [render_program(v) for v in tvecs]

    def witness_key(cand):
        line, f, g, si, ti, _ = cand
        return (len(text(f)) + len(text(g)), line, text(f), text(g),
                svec_text[si], tvec_text[ti])

    # Group by the fourth program so one heavily-witnessed candidate cannot
    # crowd every other candidate out of the solution cap; within a group,
    # prefer syntactically small witnesses.  Equal programs render equal,
    # so the groups are ordered by their text.
    out: list = []
    for group in sorted(by_s.values(), key=lambda group: render_program(group[0][5])):
        if len(out) >= budget.max_solutions:
            break
        out.extend(nsmallest(budget.witnesses_per_s, group, key=witness_key))
    return [ProportionSolution(s, ProportionWitness(
                forms[f], forms[g], (make_binding(svecs[si]),), (make_binding(tvecs[ti]),), line))
            for line, f, g, si, ti, s in out[: budget.max_solutions]]


# ---------------------------------------------------------------------------
# Problem files

_BINDING_RE = re.compile(
    r"^\s*(?P<path>[^\[\()]+?)\s*(?:\[(?P<bracket>[^\]]*)\])?\s*(?:\((?P<tuple>[^\)]*)\))?\s*$"
)


def parse_binding_spec(text: str, load: Callable[[str], Program]) -> Binding:
    """Parse `path`, `path[mainpred]`, `path[old/new]`, optionally followed
    by a call-site variable tuple `(V1,...,Vk)`."""
    m = _BINDING_RE.match(text)
    if m is None or not m.group("path"):
        raise ProportionError(f"cannot parse binding spec {text!r}")
    program = load(m.group("path").strip())
    main_pred = None
    bracket = m.group("bracket")
    if bracket is not None:
        bracket = bracket.strip()
        if "/" in bracket:
            old, new = (part.strip() for part in bracket.split("/", 1))
            program = program.rename_predicate(old, new)
        elif bracket:
            main_pred = bracket
    var_tuple: tuple = ()
    tup = m.group("tuple")
    if tup is not None:
        names = [part.strip() for part in tup.split(",") if part.strip()]
        for name in names:
            if not re.fullmatch(r"[A-Z_][A-Za-z0-9_]*", name):
                raise ProportionError(f"binding tuple entry {name!r} is not a variable")
        var_tuple = tuple(Var(name) for name in names)
    return make_binding(program, main_pred, var_tuple, source=text.strip())


@dataclass(slots=True)
class ProblemSpec:
    problem: ProportionProblem
    witness: Optional[ProportionWitness]
    table: dict


def parse_proportion_file(text: str, load_program: Callable[[str], Program],
                          load_forms: Callable[[str], dict],
                          source: str = "<string>") -> ProblemSpec:
    """Parse a proportion problem file.

    Line-based keys: `p:`, `q:`, `r:`, `s:` name program files (binding-spec
    syntax; `s: ?` leaves the fourth program unknown); `source-name`,
    `source-preds`, `source-functors` and the `target-*` triple give the
    domains; optional `forms:` names form files, and `line:`, `form-f:`,
    `form-g:` with repeated `pvec:`/`rvec:` entries give a witness.
    """
    single: dict = {}
    multi: dict = {"pvec": [], "rvec": [], "forms": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProportionError(f"{source}:{lineno}: expected `key: value`")
        key, value = (part.strip() for part in line.split(":", 1))
        key = key.lower()
        if key in multi:
            if key == "forms":
                multi[key].extend(value.split())
            else:
                multi[key].append(value)
        elif key in single:
            raise ProportionError(f"{source}:{lineno}: duplicate key {key}")
        else:
            single[key] = value

    for required in ("p", "q", "r"):
        if required not in single:
            raise ProportionError(f"{source}: missing key {required}")

    def domain(which: str) -> DomainSig:
        name = single.get(f"{which}-name", which.upper()[0])
        preds = frozenset(single.get(f"{which}-preds", "").split())
        functors = frozenset(single.get(f"{which}-functors", "").split())
        return DomainSig(name, preds, functors)

    p = parse_binding_spec(single["p"], load_program).program
    q = parse_binding_spec(single["q"], load_program).program
    r = parse_binding_spec(single["r"], load_program).program
    s = None
    if single.get("s", "?").strip() != "?":
        s = parse_binding_spec(single["s"], load_program).program
    problem = ProportionProblem(p, q, r, domain("source"), domain("target"), s)

    table: dict = {}
    for path in multi["forms"]:
        table.update(load_forms(path))

    witness = None
    if "line" in single or "form-f" in single or "form-g" in single:
        for required in ("line", "form-f", "form-g"):
            if required not in single:
                raise ProportionError(f"{source}: witness needs key {required}")
        pvec = tuple(parse_binding_spec(spec, load_program) for spec in multi["pvec"])
        rvec = tuple(parse_binding_spec(spec, load_program) for spec in multi["rvec"])

        def resolve(name: str):
            fd = table.get(name)
            if fd is None:
                raise ProportionError(f"{source}: unknown form {name}")
            if len(fd.params) > len(pvec):
                raise ProportionError(
                    f"{source}: form {name} needs {len(fd.params)} arguments, "
                    f"vectors have {len(pvec)}"
                )
            return FormCall(name, tuple(f"X{i + 1}" for i in range(len(fd.params))))

        witness = ProportionWitness(
            resolve(single["form-f"]),
            resolve(single["form-g"]),
            pvec,
            rvec,
            single["line"],
        )

    return ProblemSpec(problem, witness, table)
