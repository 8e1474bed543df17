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
from heapq import merge
from itertools import chain, combinations, islice, product
from typing import Callable, Optional

from .errors import BudgetError, FormEvalError, ParseError, ProportionError, printable
from .forms import (
    _BINARY,
    Binary,
    Binding,
    Evaluator,
    FormCall,
    Lit,
    Unary,
    VarRef,
    form_to_text,
    free_vars,
    is_nonconstant,
    literal_requirements,
    make_binding,
    rename_params,
)
from .parser import _Parser, key_value_lines, tokenize
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
            got = ev.eval(forms[form_key], envs[vec_key])
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
    """Verify a witness for P : Q :: R : S, item by item.  A witness that
    calls named forms needs their table, which reaches the checker only
    through `evaluator` (`Evaluator(spec.table)` for a parsed problem);
    without one, such a call raises `ProportionError`."""
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

def _shift_expr(expr, offset: int):
    """Rename every variable X{i} in a form expression to X{i+offset}; a
    witness's forms read no other name."""
    return rename_params(expr, lambda n: f"X{int(n[1:]) + offset}")


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

_UNARY_OPS = ("facts", "proper", "rev", "body")


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
    the depth budget.  Generation stops at `budget.max_forms` forms.

    Every pool form passes `fixed_material_offences`, which the solver does
    not run: each literal lies in the domain intersection, and no operation
    of `_UNARY_OPS` or `_BINARY` renames or substitutes."""
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
            (Unary(op, e) for op in _UNARY_OPS for e in prev),
            (Binary(op, l, r) for op in _BINARY for l in primaries for r in prev),
        ), budget.max_forms - len(pool)))
        pool.extend(level)
    return pool


def vector_pool(rules: tuple, budget: SolveBudget) -> list:
    """Programs formed from subsets of the given rules, smallest first."""
    return [Program(combo) for size in range(min(budget.max_vector_rules, len(rules)) + 1)
            for combo in combinations(rules, size)]


def solve_proportion(problem: ProportionProblem, budget: Optional[SolveBudget] = None,
                     evaluator: Optional[Evaluator] = None) -> list:
    """All verified candidates for the fourth program within the budget,
    with witnesses.  Per (line, F, G) a verified vector pair is dropped
    when another verified pair has both its vectors inside this pair's, so
    only the smallest pairs are kept; results are in a canonical order and
    capped at `budget.max_solutions`."""
    budget = budget or SolveBudget()
    ev = evaluator or Evaluator()
    # The first form of each evaluator position, or one candidate would be
    # found once per copy.  Positions tell {q(X).} from {q(Y).}, which are
    # equal programs that concatenation tells apart.
    forms: dict = {}
    for fm in form_pool(problem, budget):
        forms.setdefault(ev.position(fm), fm)
    svecs = vector_pool((problem.p | problem.q).rules, budget)
    tvecs = vector_pool(problem.r.rules, budget)
    P, Q, R = problem.p, problem.q, problem.r
    known = {"p": P, "q": Q, "r": R}
    source, target = problem.source, problem.target
    inter = source.intersection(target)

    # A candidate is verified by the form checks of `check_proportion`.
    # Every pool form passes the fixed material check (see `form_pool`), so
    # only non-constancy is run, on the pairs the ranking pulls.  The
    # domain checks hold by construction.  Source vectors are rule sets of
    # P | Q, which lie in the source domain, and target vectors rule sets of
    # R, which lies in the target; the ffgg line is tried only when P, Q and
    # R lie in the intersection, which its vectors must.  S is a form's value
    # on a target vector: a pool form holds fixed material from the
    # intersection only, and no operation gives a symbol that is neither in
    # its operands nor fixed material, so S lies in the target vector's
    # domain, and so in the target.
    @cache
    def form_ok(i: int) -> bool:
        return is_nonconstant(forms[i], ev)

    # By the same bound, a form's value on a vector can be a program only
    # when the program's symbols outside the intersection are the vector's.
    # A vector that cannot reach what a line needs from it holds no
    # candidate there, and its values are never worked out.
    @cache
    def alien(p: Program) -> tuple:
        return p.predicates() - inter.preds, p.functors() - inter.functors

    def reach(vec: Program, want: Optional[Program]) -> bool:
        """Whether a pool form may give `want` (None: S, anything) on `vec`."""
        if want is None:
            return True
        (wp, wf), (vp, vf) = alien(want), alien(vec)
        return wp <= vp and wf <= vf

    def fitting(positions, value, want: Optional[Program]) -> list:
        """The positions whose value on the target vector is `want`, or,
        for None, a candidate S: any value."""
        if want is None:
            return [i for i in positions if value(i) is not None]
        return [i for i in positions if value(i) == want]

    # Each vector's values by position, from the evaluator, made on first
    # use.  A target vector is read only where a source lookup points; a
    # source vector is read wherever it reaches what a line needs, to find
    # the positions giving P, Q or R, the only values the lines look up.
    @cache
    def tval(ti: int) -> Callable:
        return ev.values(_vec_env((make_binding(tvecs[ti]),)))

    @cache
    def lookup(si: int) -> dict:
        value = ev.values(_vec_env((make_binding(svecs[si]),)))
        by_value: dict = {P: [], Q: [], R: []}
        for i in forms:
            if (v := value(i)) is not None and (hit := by_value.get(v)) is not None:
                hit.append(i)
        return by_value

    @cache
    def text(i: int) -> str:
        return form_to_text(forms[i])

    # The line identities hold by construction: a candidate is generated only
    # when the lookups match, and the lookups read the values that
    # `check_proportion`'s `Evaluator.eval` gives, with the same Program
    # equality, so the check would agree.
    blocks: dict = {}  # (line, source vector, target vector) -> its fitting (F, G), as sets
    by_s: dict = {}  # S -> (block, F, G in text order) of each block giving it
    f_gives_s = {line: ("s", "f", "r") in eqs for line, eqs in _LINE_EQUATIONS.items()}
    for line in _LINES:
        _, _, shared = _line_domains(line, source, target)
        if shared is not None and not all(in_domain(x, shared) for x in (P, Q, R)):
            continue
        # What each form must give on the source and on the target vector;
        # None stands for S.
        gives = {form + vec: known.get(prog) for prog, form, vec in _LINE_EQUATIONS[line]}
        f_source, f_target, g_source, g_target = (gives[fv] for fv in ("fp", "fr", "gp", "gr"))
        treach = [ti for ti, tv in enumerate(tvecs) if reach(tv, f_target) and reach(tv, g_target)]
        if not treach:
            continue
        for si, sv in enumerate(svecs):
            if not (reach(sv, f_source) and reach(sv, g_source)):
                continue
            sby = lookup(si)
            f_at, g_at = sby.get(f_source), sby.get(g_source)
            if not (f_at and g_at):
                continue
            for ti in treach:
                value = tval(ti)
                fs = fitting(f_at, value, f_target)
                gs = fitting(g_at, value, g_target) if fs else ()
                if not gs:
                    continue
                gs.sort(key=lambda i: (len(text(i)), text(i)))  # the key grows along a row
                block = (line, si, ti)
                blocks[block] = (frozenset(fs), frozenset(gs))
                split: dict = {}
                for i in fs if f_gives_s[line] else gs:
                    split.setdefault(value(i), []).append(i)
                for s, part in split.items():
                    by_s.setdefault(s, []).append(
                        (block, part, gs) if f_gives_s[line] else (block, fs, part))

    # A pair (F, G) of a block is dropped when another block on its line,
    # with vectors pointwise inside its own, holds F and G too.  Both
    # blocks agree on whether the pair verifies, which depends on F and G
    # alone, so checking pulled pairs only keeps the output of checking
    # every block first.
    def inside(vecs: list):
        """Per index, on first use, the indices of the vectors inside it."""
        return cache(lambda i: [a for a, sub in enumerate(vecs) if sub.issubset(vecs[i])])

    inside_s, inside_t = inside(svecs), inside(tvecs)

    @cache
    def lower(block: tuple) -> list:
        line, si, ti = block
        return [blocks[low] for a in inside_s(si) for b in inside_t(ti)
                if (low := (line, a, b)) != block and low in blocks]

    svec_text = [render_program(v) for v in svecs]
    tvec_text = [render_program(v) for v in tvecs]

    def row(block: tuple, f: int, gs: list):
        """One F's candidates (witness key, block, F, G), by key."""
        line, si, ti = block
        for g in gs:
            yield ((len(text(f)) + len(text(g)), line, text(f), text(g),
                    svec_text[si], tvec_text[ti]), block, f, g)

    # Group by the fourth program so one heavily-witnessed candidate cannot
    # crowd every other candidate out of the solution cap; within a group,
    # take the smallest undominated witnesses from the rows merged by key.
    # Equal programs render equal, so the groups are ordered by their text.
    out: list = []
    for s in sorted(by_s, key=render_program):
        if len(out) >= budget.max_solutions:
            break
        merged = merge(*[row(block, f, gs) for block, fs, gs in by_s[s] for f in fs])
        out.extend(islice((c for c in merged if form_ok(c[2]) and form_ok(c[3]) and not any(
            c[2] in fs and c[3] in gs for fs, gs in lower(c[1]))), budget.witnesses_per_s))
    return [ProportionSolution(tval(ti)(f if f_gives_s[line] else g), ProportionWitness(
                forms[f], forms[g], (make_binding(svecs[si]),), (make_binding(tvecs[ti]),), line))
            for _, (line, si, ti), f, g in out[: budget.max_solutions]]


# ---------------------------------------------------------------------------
# Problem files


def parse_binding_spec(text: str, load: Callable[[str], Program]) -> Binding:
    """Parse `path`, `path[main]`, `path[old/new]`, optionally followed
    by a call-site variable tuple `(V1,...,Vk)`.  The path ends at the
    first `[` or `(`.  The rest is read with the `.lp` tokens, so `main`,
    `old` and `new` are identifiers and each `Vi` is a variable."""
    cut = re.match(r"[^\[(]*", text).end()
    path = text[:cut].strip()
    if not path:
        raise ProportionError(f"cannot parse binding spec {text!r}")
    program = load(path)
    source = f"binding spec {text!r}"
    main = None
    names = []
    try:
        # The path is blanked, so columns count from the start of `text`.
        p = _Parser(tokenize(" " * cut + text[cut:], source), source)
        if p.accept("LBRACKET"):
            main = p.take("IDENT", "a predicate name").text
            if p.accept("SLASH"):
                program = program.rename_predicate(main, p.take("IDENT", "a predicate name").text)
                main = None
            p.take("RBRACKET", "']'")
        if p.accept("LPAREN"):
            names = p.commas(lambda: p.take("VAR", "a variable").text)
            p.take("RPAREN", "')'")
        if p.peek() is not None:
            raise p.error("trailing input after binding spec")
    except ParseError as exc:
        raise ProportionError(str(exc)) from None
    return make_binding(program, main, tuple(Var(name) for name in names))


@dataclass(slots=True)
class ProblemSpec:
    problem: ProportionProblem
    witness: Optional[ProportionWitness]
    table: dict


_PROP_KEYS = frozenset("p q r s source-name source-preds source-functors target-name target-preds"
                       " target-functors forms line form-f form-g pvec rvec".split())


def parse_proportion_file(text: str, load_program: Callable[[str], Program],
                          load_forms: Callable[[str], dict],
                          source: str = "<string>") -> ProblemSpec:
    """Parse a proportion problem file.

    Line-based keys: `p:`, `q:`, `r:`, `s:` name program files (binding-spec
    syntax; `s: ?` leaves the fourth program unknown); `source-name`,
    `source-preds`, `source-functors` and the `target-*` triple give the
    domains; optional `forms:` names form files, and `line:`, `form-f:`,
    `form-g:` with repeated `pvec:`/`rvec:` entries give a witness.  Any
    other key is an error.
    """
    source = printable(source)  # it names a file in every message

    def fail(lineno: int, message: str) -> ProportionError:
        return ProportionError(f"{source}:{lineno}: {message}")

    single: dict = {}
    multi: dict = {"pvec": [], "rvec": [], "forms": []}
    for lineno, key, value in key_value_lines(text, _PROP_KEYS, fail):
        if key in multi:
            if key == "forms":
                multi[key].extend(value.split())
            else:
                multi[key].append(value)
        elif key in single:
            raise fail(lineno, f"duplicate key {key}")
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
