"""Program forms: a small expression language over programs.

A form is an expression built from program variables, inline program
literals, and the algebra's operations.
Binding each variable to a program and evaluating yields a program, so a
form denotes a program transformation.

Each operator is one entry of `_BINARY` or `_UNARY`, which maps its `.lpf`
spelling to its operation.  A `Binary` or `Unary` node names its operator
by that spelling, and the parser, the printer, the evaluator and every walk
read the tables.  Powers, renames and substitutions are `Unary` nodes whose
`arg` holds the operator's own argument.  Variables, literals and form
calls are the only kinds handled one by one.

Text syntax (`.lpf` files), one definition per `form NAME(params) = expr;`,
read with the `.lp` token table (`parser.tokenize`):

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
identifier `q` as the old name of a rename stands for the main predicate
of whatever program gets bound to X: the parser keeps X as a third entry
of the rename's `arg`, so the body means the same wherever it is
evaluated.  The tuple is checked and has no effect: the caller's binding
may substitute the bound program's variables via a call-site tuple either
way (which permits identifying two variables by repeating a name).

`refresh(E)` renames every variable that occurs in a proper-rule body of
E's value to fresh Z1, Z2, ... consistently across the whole program;
variables occurring only in heads (or only in facts) are left alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import algebra, semantics
from .errors import BudgetError, FormEvalError
from .parser import _Parser, parse_program, tokenize
from .syntax import (
    Program,
    Rule,
    Var,
    atom_vars,
    body_order,
    program_vars_ordered,
    render_term,
    term_functors,
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
class Binary:
    op: str  # a key of `_BINARY`
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # a key of `_UNARY`
    expr: object
    # The operator's own argument: (n,), (old, new), (var, term), or, for a
    # rename of a placeholder, (placeholder, new, the parameter it stands for).
    arg: tuple = ()


@dataclass(frozen=True, slots=True)
class FormCall:
    name: str
    args: tuple  # parameter names of the calling context


@dataclass(frozen=True, slots=True)
class FormDef:
    name: str
    params: tuple  # of parameter names
    body: object


# ---------------------------------------------------------------------------
# Bindings


@dataclass(frozen=True, slots=True)
class Binding:
    """A program bound to a form parameter, with its main predicate and the
    call-site variable tuple already applied to the program."""

    program: Program
    main_pred: Optional[str] = None


def make_binding(program: Program, main_pred: Optional[str] = None,
                 var_tuple: tuple = ()) -> Binding:
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
    return Binding(program, main_pred)


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
    fresh = FreshNames((v.name for v in program_vars_ordered(p) if v not in ordered), prefix="Z")
    return apply({v: fresh.fresh() for v in ordered}, p)


# ---------------------------------------------------------------------------
# The operators

# Each entry maps an operator's `.lpf` spelling to what it does to the values
# of its operands.  `_BINARY` runs from the loosest binding to the tightest.
# Callees in other modules are looked up at each call, so wrapping one on
# its module (as `algebra.compose`) reaches form evaluation too.
_BINARY = {
    "|": lambda a, b: a | b,
    "o": lambda a, b: algebra.compose(a, b),
    ".": lambda a, b: algebra.concatenate(a, b),
}
_UNARY = {
    "facts": lambda p: p.facts(),
    "proper": lambda p: p.proper(),
    "rev": lambda p: p.reverse(),
    "gnd": lambda p: semantics.ground(p),
    "body": body_program,
    "refresh": refresh_body_vars,
    # Postfix operators, given the node's `arg` after the operand's value.
    "^": lambda p, n: algebra.power(p, n),
    "/": lambda p, old, new: p.rename_predicate(old, new),
    ":=": lambda p, var, term: apply({Var(var): term}, p),
}
_LEAVES = (VarRef, Lit, FormCall)


def operands(expr) -> tuple:
    """The sub-expressions of a form node, left to right."""
    kind = type(expr)
    if kind is Binary:
        return expr.left, expr.right
    return () if kind in _LEAVES else (expr.expr,)


# ---------------------------------------------------------------------------
# Walks


def free_vars(expr) -> frozenset:
    """The parameter names a form expression depends on."""
    kind = type(expr)
    if kind is Binary:
        return free_vars(expr.left) | free_vars(expr.right)
    if kind is VarRef:
        return frozenset([expr.name])
    if kind is Lit:
        return frozenset()
    if kind is FormCall:
        return frozenset(expr.args)
    return free_vars(expr.expr) | frozenset(expr.arg[2:] if expr.op == "/" else ())


def rename_params(expr, rename: Callable[[str], str]):
    """`expr` with each parameter name `n` it reads renamed to `rename(n)`."""
    kind = type(expr)
    if kind is Binary:
        return Binary(expr.op, rename_params(expr.left, rename), rename_params(expr.right, rename))
    if kind is Unary:
        arg = (*expr.arg[:2], *map(rename, expr.arg[2:])) if expr.op == "/" else expr.arg
        return Unary(expr.op, rename_params(expr.expr, rename), arg)
    if kind is VarRef:
        return VarRef(rename(expr.name))
    return expr if kind is Lit else FormCall(expr.name, tuple(map(rename, expr.args)))


def _fields(expr) -> tuple:
    """What tells a node apart from another of its kind with the same
    operands.  Program equality is variant equality, but concatenation
    captures variables by name, so program literals are told apart by
    their variable names."""
    kind = type(expr)
    if kind is Binary:
        return (expr.op,)
    if kind is Unary:
        return (expr.op, *expr.arg)
    if kind is VarRef:
        return (expr.name,)
    if kind is Lit:
        return (expr.program.name_key(),)
    if kind is FormCall:
        return (expr.name, expr.args)
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
        elif kind is Unary and e.op == "/":
            preds.add(e.arg[1])
        elif kind is Unary and e.op == ":=":
            functors.update(f for f, _ in term_functors(e.arg[1]))
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


_FAILURES = (FormEvalError, BudgetError)  # a form that raises these has no value
_UNREAD = object()  # a position whose value is not computed yet


class Evaluator:
    """Evaluates form expressions against bindings, by position.

    Each distinct expression (by kind, `_fields` and operands) gets a
    position the first time it is met, after its operands; a call of a form
    shares the position of the form's body (see `position`).  Values are
    kept per environment (the bindings, told apart by `name_key` and main
    predicate) by position, and computed the first time they are read.  A
    `Binary` or `Unary` node applies its table entry's operation to its
    operands' values once per distinct operand `name_key`s and `arg` over
    all environments: concatenation sees variable names, so `{q(X).}` and
    `{q(Y).}` never share a result.  A placeholder rename takes its old
    name from its parameter's main predicate, and shares results with the
    plain rename it resolves to.  Variables, literals and calls of no such
    form go through `_eval`.  Where a node fails, what it raised is kept,
    and `eval` raises it again.
    """

    def __init__(self, table: Optional[dict] = None):
        self.table = table or {}
        # Node key -> position.  A node's key holds its kind, `_fields` and
        # operands' positions, so keys are equal exactly where the nodes are.
        self._at: dict = {}
        # The position of each node that made one, by id; `_plan` keeps
        # those nodes, so their ids cannot be reused.
        self._ids: dict = {}
        # Per position: (node, operand positions, operation or None, its
        # `arg` without the parameter a placeholder rename reads, and that
        # parameter or None).
        self._plan: list = []
        self._envs: dict = {}  # environment key -> (values, failures) by position
        self._applied: dict = {}  # (operation, operand name_keys, arg) -> (value, failure)
        self._probes: dict = {}  # free variable names -> value functions of the probes

    def position(self, expr) -> int:
        """The position of `expr`.  A call of a form of the table with as
        many arguments as the form has parameters takes the position of the
        form's body with the call's arguments renamed in; it is filed under
        its own key, so each distinct call renames the body once."""
        i = self._ids.get(id(expr))
        if i is not None:
            return i
        kind = type(expr)
        args = tuple([self.position(sub) for sub in operands(expr)])
        key = (kind, *_fields(expr), *args)
        i = self._at.get(key)
        if i is not None:
            return i
        fd = self.table.get(expr.name) if kind is FormCall else None
        if fd is not None and len(fd.params) == len(expr.args):
            names = dict(zip(fd.params, expr.args))
            i = self._at[key] = self.position(rename_params(fd.body, lambda n: names.get(n, n)))
        else:
            unary = kind is Unary
            op = _BINARY[expr.op] if kind is Binary else _UNARY[expr.op] if unary else None
            arg = expr.arg if unary else ()
            i = self._at[key] = len(self._plan)
            self._plan.append((expr, args, op, arg[:2], arg[2] if len(arg) == 3 else None))
            self._ids[id(expr)] = i
        return i

    def values(self, env: dict) -> Callable[[int], Optional[Program]]:
        """A function from a position to its form's value in `env`, None
        where it fails to evaluate."""
        return self._env(env)[0]

    def eval(self, expr, env: Optional[dict] = None) -> Program:
        i = self.position(expr)
        value, failures = self._env(env or {})
        out = value(i)
        if out is None:
            raise failures[i].with_traceback(None)
        return out

    def _env(self, env: dict) -> tuple:
        """`(value, failures)` of `env`: the value at a position, computed on
        first read, and what was raised where it is None."""
        key = tuple(sorted([(n, b.program.name_key(), b.main_pred) for n, b in env.items()]))
        hit = self._envs.get(key)
        if hit is None:
            hit = self._envs[key] = self._new_env(env)
        return hit

    def _new_env(self, env: dict) -> tuple:
        plan, applied = self._plan, self._applied
        vals: list = []  # by position; positions met later extend it
        failures: dict = {}

        def value(i: int) -> Optional[Program]:
            try:
                out = vals[i]
            except IndexError:
                vals.extend([_UNREAD] * (len(plan) - len(vals)))
                out = _UNREAD
            if out is not _UNREAD:
                return out
            node, args, op, arg, param = plan[i]
            out = failure = None
            xs = []
            for a in args:
                if (x := value(a)) is None:
                    failure = failures[a]
                    break
                xs.append(x)
            else:
                try:
                    if op is None:
                        out = self._eval(node, env)
                    else:
                        if param is not None:
                            b = env.get(param)
                            if b is None or b.main_pred is None:
                                raise FormEvalError(
                                    f"placeholder {arg[0]} has no main predicate to resolve against")
                            arg = (b.main_pred, arg[1])
                        key = (op, *[x.name_key() for x in xs], *arg)
                        done = applied.get(key)
                        if done is None:
                            try:
                                done = (op(*xs, *arg), None)
                            except _FAILURES as e:
                                done = (None, e)
                            applied[key] = done
                        out, failure = done
                except _FAILURES as e:
                    failure = e
            vals[i] = out
            if out is None:
                failures[i] = failure
            return out

        return value, failures

    def _eval(self, expr, env: dict) -> Program:
        """The value of a variable or a literal in `env`, or the failure of a
        call that names no form of its arity."""
        kind = type(expr)
        if kind is VarRef:
            b = env.get(expr.name)
            if b is None:
                raise FormEvalError(f"unbound form variable {expr.name}")
            return b.program
        if kind is Lit:
            return expr.program
        fd = self.table.get(expr.name)  # `position` expanded every call it could
        if fd is None:
            raise FormEvalError(f"call of unknown form {expr.name}")
        raise FormEvalError(f"form {expr.name} takes {len(fd.params)} arguments, got {len(expr.args)}")


def eval_form(table: dict, name: str, bindings: dict,
              evaluator: Optional[Evaluator] = None) -> Program:
    """Evaluate the named form with bindings keyed by its parameter names."""
    fd = table.get(name)
    if fd is None:
        raise FormEvalError(f"unknown form {name}")
    missing = [n for n in fd.params if n not in bindings]
    if missing:
        raise FormEvalError(f"missing bindings for {', '.join(missing)}")
    extra = sorted(bindings.keys() - set(fd.params))
    if extra:
        raise FormEvalError(f"form {name} has no parameter {', '.join(extra)}")
    return (evaluator or Evaluator(table)).eval(fd.body, dict(bindings))


# ---------------------------------------------------------------------------
# Non-constancy


# Structurally distinct programs on which a form must vary, cheapest first.
PROBE_PROGRAMS = (
    parse_program("p."),
    parse_program("p(c)."),
    parse_program("p(c). p(d)."),
    parse_program("p(c). p(f(X)) :- p(X)."),
)
_PROBE_BINDINGS = tuple(make_binding(prog) for prog in PROBE_PROGRAMS)


def is_nonconstant(expr, evaluator: Optional[Evaluator] = None) -> bool:
    """True when the expression yields at least two distinct programs as all
    its variables range together over `PROBE_PROGRAMS`.  True proves
    non-constancy; False is only probe-relative.  A probe is evaluated only
    while the values before it hold fewer than two programs."""
    ev = evaluator or Evaluator()
    i = ev.position(expr)
    names = free_vars(expr)
    if names not in ev._probes:
        ev._probes[names] = [ev.values({n: b for n in names}) for b in _PROBE_BINDINGS]
    first = None
    for value in ev._probes[names] if names else ():
        v = value(i)
        if first is None:
            first = v
        elif v is not None and v != first:
            return True
    return False


# ---------------------------------------------------------------------------
# Parsing `.lpf` files

class _LpfParser(_Parser):
    """The form grammar on top of the `.lp` parser, whose term grammar it
    reuses inside `[X := t]`."""

    def __init__(self, tokens: list, source: str):
        super().__init__(tokens, source)
        self.table: dict = {}
        self.placeholders: dict = {}  # placeholder -> its parameter, in the form being read

    def parse_file(self) -> dict:
        while self.peek() is not None:
            self.form_def()
        return self.table

    def form_def(self):
        kw = self.take("IDENT", "'form'")
        if kw.text != "form":
            raise self.error_at(kw, "expected 'form'")
        name = self.take("VAR", "a form name (capitalized)").text
        if name in self.table:
            raise self.error_at(kw, f"form {name} defined twice")
        self.take("LPAREN", "'('")
        params = self.commas(self.param)
        self.take("RPAREN", "')'")
        declared = [n for param in params for n in param if n]
        twice = sorted({n for n in declared if declared.count(n) > 1})
        if twice:
            raise self.error_at(kw, f"form {name} declares {', '.join(twice)} twice")
        self.take("EQUALS", "'='")
        self.placeholders = {pred: param for param, pred in params if pred}
        body = self.expr()
        self.take("SEMI", "';'")
        names = tuple(param for param, _ in params)
        unknown = free_vars(body) - set(names)
        if unknown:
            raise self.error_at(
                kw, f"form {name} uses undeclared variables {', '.join(sorted(unknown))}")
        self.table[name] = FormDef(name, names, body)

    def param(self) -> tuple:
        """A parameter's name and its predicate placeholder, or None."""
        name = self.take("VAR", "a parameter name").text
        pred = None
        if self.accept("LBRACKET"):
            pred = self.take("IDENT", "a predicate placeholder").text
            self.take("RBRACKET", "']'")
        if self.accept("LPAREN"):  # a variable tuple, checked and not kept
            self.commas(lambda: self.take("VAR", "a tuple placeholder"))
            self.take("RPAREN", "')'")
        return name, pred

    # -- expressions ----------------------------------------------------

    def expr(self, level: int = 0):
        """Binary operators from `_BINARY[level]` on, loosest first."""
        if level == len(_BINARY):
            return self.postfix()
        op = list(_BINARY)[level]
        node = self.expr(level + 1)
        # A BLOCK token's text keeps its braces, so `{o}` is no operator.
        while (tok := self.peek()) is not None and tok.text == op:
            self.i += 1
            node = Binary(op, node, self.expr(level + 1))
        return node

    def postfix(self):
        node = self.primary()
        while True:
            if self.accept("CARET"):
                node = Unary("^", node, (int(self.take("INT", "a power").text),))
            elif self.accept("LBRACKET"):
                if self.at("IDENT"):
                    old = self.take("IDENT", "a predicate name").text
                    self.take("SLASH", "'/'")
                    new = self.take("IDENT", "a predicate name").text
                    param = self.placeholders.get(old)
                    node = Unary("/", node, (old, new, param) if param else (old, new))
                else:
                    var = self.take("VAR", "a variable").text
                    self.take("ASSIGN", "':='")
                    node = Unary(":=", node, (var, self.term()))
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
            if tok.text not in _UNARY:
                raise self.error_at(tok, f"unknown function {tok.text!r}")
            self.take("LPAREN", "'('")
            inner = self.expr()
            self.take("RPAREN", "')'")
            return Unary(tok.text, inner)
        if tok.kind == "VAR":
            self.i += 1
            if self.accept("LPAREN"):
                if tok.text not in self.table:
                    raise self.error_at(tok, f"call of undefined form {tok.text}")
                args = self.commas(lambda: self.take("VAR", "a parameter reference").text)
                self.take("RPAREN", "')'")
                want = len(self.table[tok.text].params)
                if len(args) != want:
                    raise self.error_at(
                        tok, f"form {tok.text} takes {want} arguments, got {len(args)}")
                return FormCall(tok.text, tuple(args))
            if tok.text in self.table:
                raise self.error_at(tok, f"form {tok.text} used without arguments")
            return VarRef(tok.text)
        raise self.error("expected a form expression")


def parse_forms(text: str, source: str = "<string>") -> dict:
    """Parse form definitions into a table by name.  Forms may only call
    forms defined earlier."""
    return _LpfParser(tokenize(text, source), source).parse_file()


# ---------------------------------------------------------------------------
# Rendering forms back to text


def form_to_text(expr) -> str:
    """`.lpf` text of a form.  A literal prints its `name_key`, the rules
    with their own variable names, so literals that `_fields` tells apart
    print apart."""
    kind = type(expr)
    if kind is Binary:
        return f"({form_to_text(expr.left)} {expr.op} {form_to_text(expr.right)})"
    if kind is Unary:
        inner, arg = form_to_text(expr.expr), expr.arg
        if expr.op == "^":
            return f"{inner}^{arg[0]}"
        if expr.op == "/":
            return f"{inner}[{arg[0]}/{arg[1]}]"
        if expr.op == ":=":
            return f"{inner}[{arg[0]} := {render_term(arg[1])}]"
        return f"{expr.op}({inner})"
    if kind is VarRef:
        return expr.name
    if kind is Lit:
        return "{" + " ".join(expr.program.name_key()) + "}"
    if kind is FormCall:
        return f"{expr.name}({', '.join(expr.args)})"
    raise TypeError(f"not a form expression: {kind.__name__}")
