"""The form DSL: parsing, binding, evaluation, and the bundled form tables."""

import sys

import pytest

from hornalg import corpus, forms, semantics
from hornalg.errors import BudgetError, FormEvalError, ParseError
from hornalg.forms import (
    _BINARY,
    _UNARY,
    Binary,
    Binding,
    Evaluator,
    FormCall,
    Lit,
    Unary,
    VarRef,
    body_program,
    eval_form,
    form_to_text,
    free_vars,
    is_nonconstant,
    literal_requirements,
    make_binding,
    parse_forms,
    refresh_body_vars,
)
from hornalg.parser import parse_program
from hornalg.proportion import _shift_expr
from hornalg.syntax import Var, render_program


def pg(text):
    return parse_program(text)


def table(text):
    return parse_forms(text)


# ---------------------------------------------------------------------------
# parsing


def test_union_binds_loosest():
    t = table("form T(X) = X | X o X . X;")
    body = t["T"].body
    assert body.op == "|"
    assert body.right.op == "o"
    assert body.right.right.op == "."


def test_parentheses_override():
    t = table("form T(X) = (X | X) o X;")
    assert t["T"].body.op == "o"
    assert t["T"].body.left.op == "|"


def test_postfix_rename_and_literals():
    t = table("form T(X) = X[q/plus] . {plus(Y,Y).};")
    body = t["T"].body
    assert body.op == "."
    assert body.left.op == "/"
    assert isinstance(body.right, Lit)
    assert body.right.program == pg("plus(Y,Y).")


def test_builtin_wrappers_parse():
    t = table("form T(X) = facts(X) | (proper(X) o proper(X));")
    body = t["T"].body
    assert body.left.op == "facts"
    assert body.right.left.op == "proper"


def test_form_calls_must_be_defined():
    with pytest.raises(ParseError):
        table("form T(X) = Missing(X);")


def test_calls_resolve_to_earlier_forms():
    t = table("form A(X) = X; form B(X) = A(X) | A(X);")
    assert isinstance(t["B"].body.left, FormCall)


def test_param_placeholders():
    # the parser binds the placeholder into the rename that uses it, so the
    # form keeps only its parameter names
    t = table("form T(X[q](Xs)) = X[q/r];")
    assert t["T"].params == ("X",)
    assert t["T"].body.arg == ("q", "r", "X")
    # the tuple is checked, though it has no effect
    for bad in ("form T(X(xs)) = X;", "form T(X()) = X;"):
        with pytest.raises(ParseError):
            table(bad)


def test_form_to_text_round_trips():
    src = "form T(X[q]) = facts(X)[q/plus] . ({plus.} | refresh(proper(X)));"
    t = table(src)
    text = form_to_text(t["T"].body)
    t2 = table(f"form T(X[q]) = {text};")
    assert form_to_text(t2["T"].body) == text


def test_literals_print_their_own_variable_names():
    # equal programs, but concatenation tells them apart, so must the text
    x, y = Lit(pg("q(X) :- p(X,Z).")), Lit(pg("q(Y) :- p(Y,Z)."))
    assert x == y
    assert form_to_text(Binary(".", x, y)) == "({q(X) :- p(X,Z).} . {q(Y) :- p(Y,Z).})"


def test_parse_error_reports_location():
    with pytest.raises(ParseError):
        table("form T(X) = X |;")
    with pytest.raises(ParseError) as info:
        table("form T(X) = X[Y := f(a")  # ends inside the term grammar
    assert (info.value.line, info.value.col) == (1, 23)


def test_unterminated_program_literal_reports_its_brace():
    with pytest.raises(ParseError) as info:
        table("form T(X) =\n  X | {p(a).} | {q(b)\n.")
    assert str(info.value) == "<string>:2:17: unterminated { program literal"


def test_program_literals_are_never_operators():
    # operators are matched by token text; `{o}` is a literal, not `o`
    with pytest.raises(ParseError):
        table("form T(X) = X {o} X;")


def test_program_references_are_not_syntax():
    with pytest.raises(ParseError):
        table("form T(X) = X | @p;")


@pytest.mark.parametrize("text, message", [
    ("frm T(X) = X;", "expected 'form'"),
    ("form T(X) = X; form T(Y) = Y;", "form T defined twice"),
    ("form T(X) = ", "expected a form expression"),
    ("form T(X) = ;", "expected a form expression"),
    ("form T(X) = frob(X);", "unknown function 'frob'"),
    ("form A(X) = X; form B(X) = A | X;", "form A used without arguments"),
    ("form T(X, X) = X;", "form T declares X twice"),
    ("form F(X[q], Y[q]) = X[q/r] | Y;", "form F declares q twice"),
    ("form A(X) = X; form B(X, Y) = A(X, Y);", "form A takes 1 arguments, got 2"),
    ("form A(X, Y) = X | Y; form B(X) = A(X);", "form A takes 2 arguments, got 1"),
    ("form T(X) = X :- X;", r"1:15: expected ';' \(got ':-'\)"),
])
def test_malformed_form_files_are_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        table(text)


def test_calls_and_tuples_take_several_names():
    t = table("form A(X, Y) = X | Y; form B(X(U, V, W), Y) = A(Y, X);")
    assert t["B"].body == FormCall("A", ("Y", "X"))
    assert t["B"].params == ("X", "Y")
    a, b = make_binding(pg("p(a).")), make_binding(pg("q(b)."))
    assert eval_form(t, "B", {"X": a, "Y": b}) == pg("p(a). q(b).")


def test_substitution_terms_use_the_program_term_grammar():
    t = table("form T(X) = X[Y := [a,f(Z)|W]];")
    assert form_to_text(t["T"].body) == "X[Y := [a,f(Z)|W]]"


# ---------------------------------------------------------------------------
# bindings


def test_binding_tuple_is_positional():
    tree = pg("tree(void). tree(t(U,X,Y)) :- tree(X), tree(Y).")
    b = make_binding(tree, var_tuple=(Var("U"), Var("X"), Var("X")))
    assert b.program == pg("tree(void). tree(t(U,X,X)) :- tree(X), tree(X).")
    assert b.main_pred == "tree"


def test_binding_tuple_length_must_match():
    with pytest.raises(FormEvalError):
        make_binding(pg("p(X,Y)."), var_tuple=(Var("A"),))


def test_binding_infers_unique_head_pred():
    assert make_binding(pg("nat(0). nat(s(X)) :- nat(X).")).main_pred == "nat"
    assert make_binding(pg("p(a). q(b).")).main_pred is None
    assert make_binding(pg("p(a). q(b)."), main_pred="q").main_pred == "q"


# ---------------------------------------------------------------------------
# helpers


def test_body_program_lists_proper_bodies_as_facts():
    p = pg("p(a). q(X) :- r(X), s(X).")
    assert body_program(p) == pg("r(X). s(X).")


def test_refresh_renames_body_variables_program_wide():
    p = pg("plus([U|X],Y,[V|Z]) :- plus(X,Y,Z).")
    out = refresh_body_vars(p)
    # X, Y, Z occur in the body; U and V occur in the head only
    assert out == pg("plus([U|Z1],Z2,[V|Z3]) :- plus(Z1,Z2,Z3).")
    assert out.strict_equals(pg("plus([U|Z1],Z2,[V|Z3]) :- plus(Z1,Z2,Z3)."))


def test_refresh_leaves_facts_alone():
    p = pg("plus(Y,Y).")
    assert refresh_body_vars(p).strict_equals(p)


def test_refresh_skips_taken_names():
    p = pg("p(Z1) :- q(X).")
    out = refresh_body_vars(p)
    assert out.strict_equals(pg("p(Z1) :- q(Z2)."))


# ---------------------------------------------------------------------------
# evaluation


def test_eval_union_compose_concat():
    t = table("form T(X) = X | (proper(X) o proper(X));")
    nat = make_binding(pg("nat(0). nat(s(X)) :- nat(X)."))
    out = eval_form(t, "T", {"X": nat})
    assert out == pg("nat(0). nat(s(X)) :- nat(X). nat(s(s(X))) :- nat(X).")


def test_undeclared_variables_rejected_at_parse_time():
    with pytest.raises(ParseError):
        table("form T(X) = X | Y;")


def test_eval_unbound_parameter():
    with pytest.raises(FormEvalError):
        Evaluator().eval(VarRef("X"))


def test_eval_rename_uses_binding_main_pred():
    t = table("form T(X[q]) = X[q/plus];")
    nat = make_binding(pg("nat(0). nat(s(X)) :- nat(X)."))
    assert eval_form(t, "T", {"X": nat}) == pg("plus(0). plus(s(X)) :- plus(X).")


def test_eval_undefined_form_name():
    with pytest.raises(FormEvalError):
        eval_form(table("form T(X) = X;"), "U", {"X": make_binding(pg("a."))})


def test_eval_huge_power_of_a_repeating_program():
    t = table("form T(X) = X^99999999999999;")
    assert eval_form(t, "T", {"X": make_binding(pg("p(a)."))}) == pg("p(a).")


def test_eval_errors_name_what_is_missing():
    t = table("form F(X[q]) = X[q/r];")
    ev = Evaluator(t)
    two_heads = make_binding(pg("p(a). q(b)."))
    assert two_heads.main_pred is None
    cases = [
        (lambda: eval_form(t, "F", {"X": two_heads}), "placeholder q has no main predicate"),
        (lambda: ev.eval(FormCall("F", ("X", "Y")), {"X": two_heads}),
         "form F takes 1 arguments, got 2"),
        (lambda: ev.eval(FormCall("F", ("Y",)), {"X": two_heads}), "unbound form variable Y"),
        (lambda: eval_form(t, "F", {}), "missing bindings for X"),
        (lambda: eval_form(t, "F", {"X": two_heads, "Y": two_heads, "Q": two_heads}),
         "form F has no parameter Q, Y"),
    ]
    for call, message in cases:
        with pytest.raises(FormEvalError, match=message):
            call()


def test_memo_keeps_a_failed_operation(monkeypatch):
    # Two environments bind one program under two main predicates; `gnd`
    # of it overflows the atom budget once, and the second read raises
    # what the first one raised.
    calls = []
    real = semantics.ground
    monkeypatch.setattr(semantics, "ground", lambda p: calls.append(p) or real(p))
    ev, prog, form = Evaluator(), pg("p(f(a,b))."), Unary("gnd", VarRef("X"))
    raised = []
    for main in ("p", "q"):
        with pytest.raises(BudgetError) as info:
            ev.eval(form, {"X": make_binding(prog, main_pred=main)})
        raised.append(info.value)
    assert raised[0] is raised[1]
    assert calls == [prog]


def test_memo_distinguishes_variant_literals():
    # both literals are variants of each other, but concatenation joins
    # variables by name, so the evaluator must not collapse them
    ev = Evaluator()
    a = Lit(pg("p(A) :- p(A)."))
    b = Lit(pg("p(B) :- p(B)."))
    same = ev.eval(Binary(".", a, Lit(pg("p(A) :- p(A)."))))
    diff = ev.eval(Binary(".", a, b))
    assert same == pg("p(A,A) :- p(A,A).")
    assert diff == pg("p(A,B) :- p(A,B).")
    assert same != diff


def test_memo_reuses_results_for_identical_bindings():
    ev = Evaluator(table=table("form T(X) = proper(X) o proper(X);"))
    nat = make_binding(pg("nat(0). nat(s(X)) :- nat(X)."))
    first = ev.eval(ev.table["T"].body, {"X": nat})
    second = ev.eval(ev.table["T"].body, {"X": nat})
    assert first is second


def test_memo_tells_operator_arguments_apart():
    # Powers and renames of one operand go through one operation memo,
    # which keys on each node's `arg`.
    ev, x = Evaluator(), VarRef("X")
    env = {"X": make_binding(pg("p(0). p(s(Y)) :- p(Y)."))}
    values = {
        (op, arg): ev.eval(Unary(op, x, arg), env)
        for op, arg in (("^", (2,)), ("^", (3,)), ("/", ("p", "q")), ("/", ("p", "r")))
    }
    assert values["^", (2,)] == pg("p(0). p(s(0)). p(s(s(Y))) :- p(Y).")
    assert values["^", (3,)] == pg("p(0). p(s(0)). p(s(s(0))). p(s(s(s(Y)))) :- p(Y).")
    assert values["/", ("p", "q")] == pg("q(0). q(s(Y)) :- q(Y).")
    assert values["/", ("p", "r")] == pg("r(0). r(s(Y)) :- r(Y).")


def test_memo_tells_apart_the_bindings_placeholders_read():
    # The renamed literal has no variable, but its placeholder reads the
    # main predicate of X: each call of F must see its own binding.
    t = table("form F(X[q]) = {nat(a).}[q/r];\nform G(X, Y) = F(X) | F(Y);")
    nat, lst = make_binding(pg("nat(0).")), make_binding(pg("list(nil)."))
    shared = Evaluator(t)
    for x, y in ((nat, lst), (lst, nat)):
        for ev in (Evaluator(t), shared):
            out = eval_form(t, "G", {"X": x, "Y": y}, ev)
            assert out.strict_equals(pg("nat(a). r(a).")), render_program(out)


def test_calls_of_one_form_share_the_environment_of_the_caller():
    # F's body is expanded in place with each call's argument, so G is
    # evaluated in the one environment eval_form makes.
    t = table("form F(X[q]) = {nat(a).}[q/r];\nform G(X, Y) = F(X) | F(Y);")
    ev = Evaluator(t)
    eval_form(t, "G", {"X": make_binding(pg("nat(0).")), "Y": make_binding(pg("list(nil)."))}, ev)
    assert len(ev._envs) == 1


def test_calls_read_only_the_arguments_the_form_reads():
    t = table("form T(X, Z) = X;")
    nat = make_binding(pg("nat(0)."))
    assert Evaluator(t).eval(FormCall("T", ("X", "Z")), {"X": nat}) == nat.program


def _outcome(fn):
    try:
        return fn()
    except FormEvalError as e:
        return str(e)


@pytest.mark.parametrize("file", ["standard", "ex43"])
def test_a_form_body_means_what_a_call_of_the_form_means(file):
    # A placeholder rename reads the parameter the parser bound it to, so a
    # body evaluated on its own gives what the call gives.
    t = corpus.forms_table(file)
    for name, fd in t.items():
        for prog in ("nat", "list", "plus", "even"):
            env = {param: make_binding(corpus.program(prog)) for param in fd.params}
            body = _outcome(lambda: Evaluator(t).eval(fd.body, env))
            call = _outcome(lambda: eval_form(t, name, env))
            assert type(body) is type(call), (name, prog)
            assert body == call if isinstance(call, str) else body.strict_equals(call), (name, prog)


def test_evaluator_keeps_no_node_equal_to_one_it_has():
    # a node equal to one met before takes that one's position; the
    # evaluator holds no reference to it
    ev = Evaluator(corpus.forms_table())
    env = {"X": make_binding(corpus.program("nat"))}
    first = ev.eval(FormCall("Even", ("X",)), env)
    again = FormCall("Even", ("X",))
    held = sys.getrefcount(again)
    assert ev.eval(again, env) is first
    assert sys.getrefcount(again) == held


def test_a_call_renames_the_form_body_once(monkeypatch):
    # an expanded call is filed under its name and arguments, so meeting
    # the same call again renames nothing
    renamed, rename_params = [], forms.rename_params

    def counted(expr, rename):
        renamed.append(expr)
        return rename_params(expr, rename)

    monkeypatch.setattr(forms, "rename_params", counted)
    ev = Evaluator(corpus.forms_table())
    first = ev.position(FormCall("G", ("X1",)))
    assert renamed
    renamed.clear()
    assert ev.position(FormCall("G", ("X1",))) == first
    assert renamed == []


def test_long_lived_evaluator_stops_growing_on_repeated_calls():
    t = corpus.forms_table()
    ev = Evaluator(t)
    env = {"X": make_binding(corpus.program("nat"))}
    eval_form(t, "Even", env, ev)
    ids = len(ev._ids)
    for _ in range(1000):
        eval_form(t, "Even", env, ev)
    assert len(ev._ids) == ids


def test_memo_tells_placeholder_renames_from_plain_ones():
    # The parser binds F's `q` to X, so it stands for the main predicate of
    # X's binding; a rename built without a parameter renames the predicate
    # q.  Bindings of one program with two main predicates are two
    # environments.
    t = table("form F(X[q]) = X[q/r];")
    prog = pg("p(a). q(b).")
    by_p, by_q = make_binding(prog, main_pred="p"), make_binding(prog, main_pred="q")
    ev = Evaluator(t)
    assert eval_form(t, "F", {"X": by_p}, ev).strict_equals(pg("r(a). q(b)."))
    assert eval_form(t, "F", {"X": by_q}, ev).strict_equals(pg("p(a). r(b)."))
    plain = ev.eval(Unary("/", VarRef("X"), ("q", "r")), {"X": by_p})
    assert plain.strict_equals(pg("p(a). r(b)."))


# ---------------------------------------------------------------------------
# the bundled tables


def test_standard_table_widens_counting_to_addition():
    out = corpus.eval_form("Plus", corpus.program("nat"))
    assert out == corpus.program("plus")


def test_standard_table_on_lists():
    out = corpus.eval_form("Plus", corpus.program("list"))
    assert out == pg(
        "plus([],Y,Y). plus([U|X],Y,[U|Z]) :- plus(X,Y,Z)."
    )


def test_even_form_squares_the_step():
    even_src = corpus.program("nat").rename_predicate("nat", "even")
    assert corpus.eval_form("Even", even_src) == corpus.program("even")


def test_single_sum_form():
    listp = corpus.program("list")
    b = make_binding(listp, var_tuple=(Var("U"), Var("X")))
    assert corpus.eval_form("G", b) == pg("plus([U],[U],[U,U]).")


def test_times_form_on_nat():
    assert corpus.eval_form("Times", corpus.program("nat")) == corpus.program("times_nat")


def test_forms_table_lookup():
    t = corpus.forms_table("standard")
    assert {"Id", "Plus", "Even", "G", "Times"} <= set(t)
    assert corpus.forms_table("ex43")["AddFactB"].body == Binary("|", VarRef("X"), Lit(pg("b.")))


# ---------------------------------------------------------------------------
# non-constancy probe


def test_identity_form_is_nonconstant():
    t = table("form T(X) = X;")
    assert is_nonconstant(t["T"].body)


def test_constant_form_is_detected():
    t = table("form T(X) = {c.};")
    assert not is_nonconstant(t["T"].body)


def test_erasing_form_is_detected():
    # proper rules composed against an alien fact yield nothing, for every probe
    t = table("form T(X) = proper(X) o {z.};")
    assert not is_nonconstant(t["T"].body)


# ---------------------------------------------------------------------------
# every node kind, through each walk


_KIND_BINDING = make_binding(pg("p(a). q(V) :- p(V)."), main_pred="q")

# (header, body, value on _KIND_BINDING, literals, rename targets, functors);
# every body may call `A` of _KIND_DEFS.
_KINDS = {
    "var": ("X1", "X1", "p(a). q(V) :- p(V).", (), (), ()),
    "literal": ("X1", "{c.}", "c.", ("c.",), (), ()),
    "union": ("X1", "X1 | {c.}", "p(a). q(V) :- p(V). c.", ("c.",), (), ()),
    "compose": ("X1", "X1 o X1", "p(a). q(a).", (), (), ()),
    "concat": ("X1", "X1 . {q(b) :- p(c).}", "q(V,b) :- p(V,c).",
               ("q(b) :- p(c).",), (), ()),
    "power": ("X1", "X1^2", "p(a). q(a).", (), (), ()),
    "facts": ("X1", "facts(X1)", "p(a).", (), (), ()),
    "proper": ("X1", "proper(X1)", "q(V) :- p(V).", (), (), ()),
    "rev": ("X1", "rev(X1)", "p(a). p(V) :- q(V).", (), (), ()),
    "gnd": ("X1", "gnd(X1)", "p(a). q(a) :- p(a).", (), (), ()),
    "body": ("X1", "body(X1)", "p(V).", (), (), ()),
    "refresh": ("X1", "refresh(X1)", "p(a). q(Z1) :- p(Z1).", (), (), ()),
    "rename": ("X1", "X1[p/r]", "r(a). q(V) :- r(V).", (), ("r",), ()),
    "placeholder rename": ("X1[m]", "X1[m/s]", "p(a). s(V) :- p(V).", (), ("s",), ()),
    "subst": ("X1", "X1[V := f(b)]", "p(a). q(f(b)) :- p(f(b)).", (), (), ("f", "b")),
    "call": ("X1", "A(X1)", "p(a). q(V) :- p(V). c.", ("c.",), (), ()),
}

_KIND_DEFS = "form A(Y) = Y | {c.};\n"


def _kind_form(header, body):
    return table(_KIND_DEFS + f"form T({header}) = {body};")


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_node_kind_through_every_walk(kind):
    header, body, value, lits, preds, functors = _KINDS[kind]
    t = _kind_form(header, body)
    expr = t["T"].body

    # a kind per operator spelling, so no table entry skips the walks
    tops = [_kind_form(h, b)["T"].body for h, b, *_ in _KINDS.values()]
    assert {e.op for e in tops if isinstance(e, (Binary, Unary))} == set(_BINARY) | set(_UNARY)

    again = _kind_form(header, form_to_text(expr))["T"].body
    ev = Evaluator()
    assert ev.position(again) == ev.position(expr)

    out = eval_form(t, "T", {"X1": _KIND_BINDING})
    assert out.strict_equals(pg(value)), render_program(out)

    assert free_vars(expr) == ({"X1"} if kind != "literal" else set())
    got_lits, got_preds, got_functors = literal_requirements(expr, t)
    assert [p.name_key() for p in got_lits] == [pg(text).name_key() for text in lits]
    assert got_preds == set(preds)
    assert got_functors == set(functors)

    shifted = _kind_form(header.replace("X1", "X2"), body.replace("X1", "X2"))["T"].body
    assert ev.position(_shift_expr(expr, 1)) == ev.position(shifted)
