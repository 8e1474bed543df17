"""Program forms: a small expression language over programs.

A form is an expression built from program variables, inline program
literals, and the algebra's operations.
Binding each variable to a program and evaluating yields a program, so a
form denotes a program transformation.

An operator's spelling and meaning live in one entry of `_BINARY` or
`_UNARY`, which the parser, the printer, the evaluator and every walk read.
Variables, literals, powers, renames, substitutions and form calls are the
only kinds handled one by one.

Text syntax (`.lpf` files), one definition per `form NAME(params) = expr;`:

    expr     :=  union
    union    :=  comp ("|" comp)*            union of programs
    comp     :=  concat ("o" concat)*        sequential composition
    concat   :=  postfix ("." postfix)*      concatenation
    postfix  :=  primary tail*
    tail     :=  "^" INT                     power
              |  "[" IDENT "/" IDENT "]"     predicate rename (old/new)
              |  "[" VAR ":=" term "]"       variable substitution
    primary  :=  "{" rules "}"               inline program literal (printed
                                             with its own variable names)
              |  VAR                         form parameter
              |  fn "(" expr ")"             fn ∈ facts proper rev gnd body refresh
              |  NAME "(" VAR ("," VAR)* ")" call of an earlier form
              |  "(" expr ")"

A parameter may declare a main-predicate placeholder and a variable-tuple
placeholder: `form Plus(X[q](Xs)) = ...`.  Within that form's body, the
identifier `q` in a rename stands for the main predicate of whatever
program gets bound to X.  The caller's binding may substitute the bound
program's variables via a call-site tuple first (which permits identifying
two variables by repeating a name).

`refresh(E)` renames every variable that occurs in a proper-rule body of
E's value to fresh Z1, Z2, ... consistently across the whole program;
variables occurring only in heads (or only in facts) are left alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Optional

from . import algebra, semantics
from .errors import BudgetError, FormEvalError, ParseError
from .parser import _Parser, parse_program, tokenize
from .syntax import (
    Program,
    Rule,
    Term,
    Var,
    atom_vars,
    body_order,
    program_vars_ordered,
    render_term,
    term_functors,
    vars_of,
)
from .unify import FreshNames, apply

# ---------------------------------------------------------------------------
# Expression nodes


@dataclass(frozen=True, slots=True)
class VarRef:
    name: str


@dataclass(frozen=True, slots=True)
class Lit:
    program: Program


@dataclass(frozen=True, slots=True)
class UnionOf:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class ComposeOf:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class ConcatOf:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class PowerOf:
    expr: object
    n: int


@dataclass(frozen=True, slots=True)
class FactsOf:
    expr: object


@dataclass(frozen=True, slots=True)
class ProperOf:
    expr: object


@dataclass(frozen=True, slots=True)
class ReverseOf:
    expr: object


@dataclass(frozen=True, slots=True)
class BodyOf:
    expr: object


@dataclass(frozen=True, slots=True)
class GroundOf:
    expr: object


@dataclass(frozen=True, slots=True)
class FreshenVars:
    expr: object


@dataclass(frozen=True, slots=True)
class RenamePred:
    expr: object
    old: str
    new: str


@dataclass(frozen=True, slots=True)
class SubstIn:
    expr: object
    var: str
    term: Term


@dataclass(frozen=True, slots=True)
class FormCall:
    name: str
    args: tuple  # parameter names of the calling context


@dataclass(frozen=True, slots=True)
class ParamSpec:
    name: str
    pred_placeholder: Optional[str] = None
    tuple_placeholder: tuple = ()


@dataclass(frozen=True, slots=True)
class FormDef:
    name: str
    params: tuple  # of ParamSpec
    body: object


# ---------------------------------------------------------------------------
# Bindings


@dataclass(frozen=True, slots=True)
class Binding:
    """A program bound to a form parameter, with its main predicate and the
    call-site variable tuple already applied to the program."""

    program: Program
    main_pred: Optional[str] = None
    var_tuple: tuple = ()
    source: str = ""


def make_binding(program: Program, main_pred: Optional[str] = None,
                 var_tuple: tuple = (), source: str = "") -> Binding:
    """Bind a program, applying the call-site variable tuple first.

    The tuple positions correspond to the program's variables in first-
    occurrence order; repeating a name identifies variables.  When no main
    predicate is given, the unique head predicate (if any) is used.
    """
    if var_tuple:
        ordered = program_vars_ordered(program)
        if len(var_tuple) != len(ordered):
            raise FormEvalError(
                f"binding tuple has {len(var_tuple)} entries, program has "
                f"{len(ordered)} variables"
            )
        program = apply(dict(zip(ordered, var_tuple)), program)
    if main_pred is None:
        heads = {r.head.pred for r in program}
        if len(heads) == 1:
            main_pred = next(iter(heads))
    return Binding(program, main_pred, tuple(var_tuple), source)


# ---------------------------------------------------------------------------
# Helpers used by evaluation


def body_program(p: Program) -> Program:
    """The body atoms of the proper rules, as facts."""
    return Program(Rule(b) for r in p for b in body_order(r))


def refresh_body_vars(p: Program) -> Program:
    """Rename every variable occurring in some proper-rule body to a fresh
    Z1, Z2, ... (program-wide, in first-occurrence order)."""
    ordered = dict.fromkeys(v for r in p for a in body_order(r) for v in atom_vars(a))
    if not ordered:
        return p
    fresh = FreshNames((v.name for v in vars_of(p) if v not in ordered), prefix="Z")
    return apply({v: fresh.fresh() for v in ordered}, p)


# ---------------------------------------------------------------------------
# The operators

# Each entry: the operator's `.lpf` spelling and what it does to the values
# of its operands.  `_BINARY` runs from the loosest binding to the tightest.
# Callees in other modules are looked up at each call, so wrapping one on
# its module (as `algebra.compose`) reaches form evaluation too.
_BINARY = {
    UnionOf: ("|", lambda a, b: a | b),
    ComposeOf: ("o", lambda a, b: algebra.compose(a, b)),
    ConcatOf: (".", lambda a, b: algebra.concatenate(a, b)),
}
_UNARY = {
    FactsOf: ("facts", lambda p: p.facts()),
    ProperOf: ("proper", lambda p: p.proper()),
    ReverseOf: ("rev", lambda p: p.reverse()),
    GroundOf: ("gnd", lambda p: semantics.ground(p)),
    BodyOf: ("body", body_program),
    FreshenVars: ("refresh", refresh_body_vars),
}
_LEAVES = (VarRef, Lit, FormCall)


def operands(expr) -> tuple:
    """The sub-expressions of a form node, left to right."""
    kind = type(expr)
    if kind in _BINARY:
        return expr.left, expr.right
    return () if kind in _LEAVES else (expr.expr,)


def rebuild(expr, fn):
    """`expr` with `fn` applied to each of its operands."""
    kind = type(expr)
    if kind in _BINARY:
        return kind(fn(expr.left), fn(expr.right))
    return expr if kind in _LEAVES else replace(expr, expr=fn(expr.expr))


# ---------------------------------------------------------------------------
# Walks


def free_vars(expr) -> frozenset:
    """The parameter names a form expression depends on."""
    kind = type(expr)
    if kind in _BINARY:
        return free_vars(expr.left) | free_vars(expr.right)
    if kind is VarRef:
        return frozenset([expr.name])
    if kind is Lit:
        return frozenset()
    if kind is FormCall:
        return frozenset(expr.args)
    return free_vars(expr.expr)


def _binding_key(b: Binding) -> tuple:
    return (b.program.name_key(), b.main_pred,
            tuple(v.name for v in b.var_tuple))


def expr_key(expr) -> tuple:
    """A hashable identity for a form expression.  Program equality is
    variant equality, but concatenation captures variables by name, so
    program literals are told apart by their variable names."""
    kind = type(expr)
    if kind is VarRef:
        return ("var", expr.name)
    if kind is Lit:
        return ("lit", expr.program.name_key())
    if kind in _BINARY:
        return (kind.__name__, expr_key(expr.left), expr_key(expr.right))
    if kind in _UNARY:
        return (kind.__name__, expr_key(expr.expr))
    if kind is PowerOf:
        return ("power", expr_key(expr.expr), expr.n)
    if kind is RenamePred:
        return ("rename", expr_key(expr.expr), expr.old, expr.new)
    if kind is SubstIn:
        return ("subst", expr_key(expr.expr), expr.var, render_term(expr.term))
    if kind is FormCall:
        return ("call", expr.name, expr.args)
    raise TypeError(f"not a form expression: {kind.__name__}")


def literal_requirements(expr, table: Optional[dict] = None) -> tuple:
    """All fixed material a form forces into its outputs: the inline
    program literals, the predicates introduced by renames, and the functors
    introduced by substitutions.  Walks into called forms."""
    lits: list = []
    preds: set = set()
    functors: set = set()

    def walk(e):
        kind = type(e)
        if kind is Lit:
            lits.append(e.program)
        elif kind is RenamePred:
            preds.add(e.new)
        elif kind is SubstIn:
            functors.update(term_functors(e.term))
        elif kind is FormCall:
            if table is None or e.name not in table:
                raise FormEvalError(f"call of unknown form {e.name}")
            walk(table[e.name].body)
        for sub in operands(e):
            walk(sub)

    walk(expr)
    return tuple(lits), frozenset(preds), frozenset(functors)


# ---------------------------------------------------------------------------
# Evaluation


class Evaluator:
    """Evaluates form expressions against bindings, memoizing results.

    One evaluator may be shared across many evaluations; the memo key is
    the expression plus the bindings its free variables see (other
    bindings in the environment cannot influence the result).
    """

    def __init__(self, table: Optional[dict] = None):
        self.table = table or {}
        self._memo: dict = {}
        # expr_key and free_vars walk the whole expression; keep both per
        # expression object.  Keeping the expression in the value pins it,
        # so its id cannot be reused.
        self._exprs: dict = {}
        self._probes: dict = {}

    def key_and_vars(self, expr) -> tuple:
        """`(expr_key(expr), free_vars(expr))`, computed once per object."""
        hit = self._exprs.get(id(expr))
        if hit is None:
            hit = self._exprs[id(expr)] = (expr, (expr_key(expr), free_vars(expr)))
        return hit[1]

    def eval(self, expr, env: Optional[dict] = None, placeholders: Optional[dict] = None) -> Program:
        env = env or {}
        placeholders = placeholders or {}
        ekey, fvars = self.key_and_vars(expr)
        key = (
            ekey,
            tuple(sorted((n, _binding_key(env[n])) for n in fvars if n in env)),
            tuple(sorted(placeholders.items())),
        )
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._eval(expr, env, placeholders)
        self._memo[key] = out
        return out

    def _eval(self, expr, env: dict, placeholders: dict) -> Program:
        kind = type(expr)
        if kind in _BINARY:
            return _BINARY[kind][1](self.eval(expr.left, env, placeholders),
                                    self.eval(expr.right, env, placeholders))
        if kind in _UNARY:
            return _UNARY[kind][1](self.eval(expr.expr, env, placeholders))
        if kind is VarRef:
            b = env.get(expr.name)
            if b is None:
                raise FormEvalError(f"unbound form variable {expr.name}")
            return b.program
        if kind is Lit:
            return expr.program
        if kind is PowerOf:
            return algebra.power(self.eval(expr.expr, env, placeholders), expr.n)
        if kind is RenamePred:
            old = expr.old
            if old in placeholders:
                b = env.get(placeholders[old])
                if b is None or b.main_pred is None:
                    raise FormEvalError(
                        f"placeholder {old} has no main predicate to resolve against"
                    )
                old = b.main_pred
            return self.eval(expr.expr, env, placeholders).rename_predicate(old, expr.new)
        if kind is SubstIn:
            return apply({Var(expr.var): expr.term}, self.eval(expr.expr, env, placeholders))
        if kind is FormCall:
            fd = self.table.get(expr.name)
            if fd is None:
                raise FormEvalError(f"call of unknown form {expr.name}")
            if len(expr.args) != len(fd.params):
                raise FormEvalError(
                    f"form {expr.name} takes {len(fd.params)} arguments, got {len(expr.args)}"
                )
            inner_env = {}
            for spec, arg in zip(fd.params, expr.args):
                b = env.get(arg)
                if b is None:
                    raise FormEvalError(f"unbound form variable {arg}")
                inner_env[spec.name] = b
            inner_ph = {
                spec.pred_placeholder: spec.name
                for spec in fd.params
                if spec.pred_placeholder
            }
            return self.eval(fd.body, inner_env, inner_ph)
        raise TypeError(f"not a form expression: {kind.__name__}")


def eval_form(table: dict, name: str, bindings: dict,
              evaluator: Optional[Evaluator] = None) -> Program:
    """Evaluate the named form with bindings keyed by its parameter names."""
    fd = table.get(name)
    if fd is None:
        raise FormEvalError(f"unknown form {name}")
    ev = evaluator or Evaluator(table)
    call = FormCall(fd.name, tuple(s.name for s in fd.params))
    missing = [s.name for s in fd.params if s.name not in bindings]
    if missing:
        raise FormEvalError(f"missing bindings for {', '.join(missing)}")
    return ev.eval(call, dict(bindings), {})


# ---------------------------------------------------------------------------
# Non-constancy


# Structurally distinct programs on which a form must vary.
PROBE_PROGRAMS = (
    parse_program("p(c)."),
    parse_program("p(c). p(f(X)) :- p(X)."),
    parse_program("p."),
    parse_program("p(c). p(d)."),
)


def is_nonconstant(expr, evaluator: Optional[Evaluator] = None,
                   table: Optional[dict] = None) -> bool:
    """True when the expression yields at least two distinct programs as all
    its variables range together over `PROBE_PROGRAMS`.  True proves
    non-constancy; False is only probe-relative."""
    ev = evaluator or Evaluator(table or {})
    key, fvars = ev.key_and_vars(expr)
    hit = ev._probes.get(key)
    if hit is not None:
        return hit
    names = sorted(fvars)
    result = False
    if names:
        seen = set()
        for prog in PROBE_PROGRAMS:
            b = make_binding(prog)
            try:
                seen.add(ev.eval(expr, {n: b for n in names}, {}))
            except (FormEvalError, BudgetError):
                continue
            if len(seen) >= 2:
                result = True
                break
    ev._probes[key] = result
    return result


# ---------------------------------------------------------------------------
# Parsing `.lpf` files

_LPF_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<COMMENT>%[^\n]*)
    | (?P<BLOCK>\{[^}]*\})
    | (?P<ASSIGN>:=)
    | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
    | (?P<IDENT>[a-z][A-Za-z0-9_]*)
    | (?P<INT>[0-9]+)
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<LBRACKET>\[)
    | (?P<RBRACKET>\])
    | (?P<BAR>\|)
    | (?P<CARET>\^)
    | (?P<SLASH>/)
    | (?P<COMMA>,)
    | (?P<SEMI>;)
    | (?P<EQUALS>=)
    | (?P<DOT>\.)
    """,
    re.VERBOSE,
)


class _LpfParser(_Parser):
    """The form grammar on top of the `.lp` parser, whose term grammar it
    reuses inside `[X := t]`."""

    def __init__(self, tokens: list, source: str, table: dict):
        super().__init__(tokens, source)
        self.table = table

    def parse_file(self) -> dict:
        while self.peek() is not None:
            self.form_def()
        return self.table

    def form_def(self):
        kw = self.take("IDENT", "'form'")
        if kw.text != "form":
            raise ParseError("expected 'form'", source=self.source, line=kw.line, col=kw.col)
        name = self.take("VAR", "a form name (capitalized)").text
        if name in self.table:
            raise ParseError(f"form {name} defined twice", source=self.source, line=kw.line, col=kw.col)
        self.take("LPAREN", "'('")
        params = [self.param()]
        while self.at("COMMA"):
            self.i += 1
            params.append(self.param())
        self.take("RPAREN", "')'")
        self.take("EQUALS", "'='")
        body = self.expr()
        self.take("SEMI", "';'")
        fv = free_vars(body)
        unknown = fv - {s.name for s in params}
        if unknown:
            raise ParseError(
                f"form {name} uses undeclared variables {', '.join(sorted(unknown))}",
                source=self.source, line=kw.line, col=kw.col,
            )
        self.table[name] = FormDef(name, tuple(params), body)

    def param(self) -> ParamSpec:
        name = self.take("VAR", "a parameter name").text
        pred = None
        tup: tuple = ()
        if self.at("LBRACKET"):
            self.i += 1
            pred = self.take("IDENT", "a predicate placeholder").text
            self.take("RBRACKET", "']'")
        if self.at("LPAREN"):
            self.i += 1
            names = [self.take("VAR", "a tuple placeholder").text]
            while self.at("COMMA"):
                self.i += 1
                names.append(self.take("VAR", "a tuple placeholder").text)
            self.take("RPAREN", "')'")
            tup = tuple(names)
        return ParamSpec(name, pred, tup)

    # -- expressions ----------------------------------------------------

    def expr(self, level: int = 0):
        """Binary operators from `_BINARY[level]` on, loosest first."""
        if level == len(_BINARY):
            return self.postfix()
        kind, (symbol, _) = list(_BINARY.items())[level]
        node = self.expr(level + 1)
        # A BLOCK token's text keeps its braces, so `{o}` is no operator.
        while (tok := self.peek()) is not None and tok.text == symbol:
            self.i += 1
            node = kind(node, self.expr(level + 1))
        return node

    def postfix(self):
        node = self.primary()
        while True:
            if self.at("CARET"):
                self.i += 1
                n = int(self.take("INT", "a power").text)
                node = PowerOf(node, n)
            elif self.at("LBRACKET"):
                self.i += 1
                if self.at("IDENT"):
                    old = self.take("IDENT", "a predicate name").text
                    self.take("SLASH", "'/'")
                    new = self.take("IDENT", "a predicate name").text
                    node = RenamePred(node, old, new)
                else:
                    var = self.take("VAR", "a variable").text
                    self.take("ASSIGN", "':='")
                    term = self.term()
                    node = SubstIn(node, var, term)
                self.take("RBRACKET", "']'")
            else:
                return node

    def primary(self):
        tok = self.peek()
        if tok is None:
            raise self.error("expected a form expression")
        if tok.kind == "BLOCK":
            self.i += 1
            return Lit(parse_program(tok.text[1:-1], source=f"{self.source}:{tok.line}"))
        if tok.kind == "LPAREN":
            self.i += 1
            node = self.expr()
            self.take("RPAREN", "')'")
            return node
        if tok.kind == "IDENT":
            self.i += 1
            kind = next((k for k, (name, _) in _UNARY.items() if name == tok.text), None)
            if kind is None:
                raise ParseError(
                    f"unknown function {tok.text!r}", source=self.source, line=tok.line, col=tok.col
                )
            self.take("LPAREN", "'('")
            inner = self.expr()
            self.take("RPAREN", "')'")
            return kind(inner)
        if tok.kind == "VAR":
            self.i += 1
            if self.at("LPAREN"):
                if tok.text not in self.table:
                    raise ParseError(
                        f"call of undefined form {tok.text}",
                        source=self.source, line=tok.line, col=tok.col,
                    )
                self.i += 1
                args = [self.take("VAR", "a parameter reference").text]
                while self.at("COMMA"):
                    self.i += 1
                    args.append(self.take("VAR", "a parameter reference").text)
                self.take("RPAREN", "')'")
                return FormCall(tok.text, tuple(args))
            if tok.text in self.table:
                raise ParseError(
                    f"form {tok.text} used without arguments",
                    source=self.source, line=tok.line, col=tok.col,
                )
            return VarRef(tok.text)
        raise self.error("expected a form expression")


def parse_forms(text: str, source: str = "<string>", table: Optional[dict] = None) -> dict:
    """Parse form definitions, appending to (and returning) the table.
    Forms may only call forms defined earlier."""
    tokens = tokenize(text, source, _LPF_TOKEN_RE, {"{": "unterminated { program literal"})
    return _LpfParser(tokens, source, dict(table) if table else {}).parse_file()


# ---------------------------------------------------------------------------
# Rendering forms back to text


def form_to_text(expr) -> str:
    """`.lpf` text of a form.  A literal prints its `name_key`, the rules
    with their own variable names, so forms that `expr_key` tells apart
    print apart."""
    kind = type(expr)
    if kind in _BINARY:
        return f"({form_to_text(expr.left)} {_BINARY[kind][0]} {form_to_text(expr.right)})"
    if kind in _UNARY:
        return f"{_UNARY[kind][0]}({form_to_text(expr.expr)})"
    if kind is VarRef:
        return expr.name
    if kind is Lit:
        return "{" + " ".join(expr.program.name_key()) + "}"
    if kind is PowerOf:
        return f"{form_to_text(expr.expr)}^{expr.n}"
    if kind is RenamePred:
        return f"{form_to_text(expr.expr)}[{expr.old}/{expr.new}]"
    if kind is SubstIn:
        return f"{form_to_text(expr.expr)}[{expr.var} := {render_term(expr.term)}]"
    if kind is FormCall:
        return f"{expr.name}({', '.join(expr.args)})"
    raise TypeError(f"not a form expression: {kind.__name__}")
