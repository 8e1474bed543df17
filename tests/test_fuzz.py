"""Fuzz smoke for the text front end: short texts over the token alphabet
either parse or raise `EngineError`, and what parses renders back to text
that parses to an equal program.  Random form trees over every operator
print back to text that parses to the same tree, and evaluate to a program
or raise `EngineError`.  Every subcommand that reads files exits with one
of the CLI's codes on such texts."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hornalg.cli import main  # noqa: E402
from hornalg.errors import EngineError  # noqa: E402
from hornalg.forms import (  # noqa: E402
    _BINARY,
    _PROBE_BINDINGS,
    _UNARY,
    Binary,
    Evaluator,
    Lit,
    Unary,
    VarRef,
    form_to_text,
    parse_forms,
)
from hornalg.parser import parse_atom, parse_program, parse_query  # noqa: E402
from hornalg.proportion import parse_binding_spec  # noqa: E402
from hornalg.syntax import Program, render_program  # noqa: E402

# A piece of every token kind, some whole phrases, and characters no token
# starts with.
_PIECES = (
    "p", "q", "s", "nat", "o", "facts", "X", "Y", "_1", "0", "7", "(", ")", "[", "]",
    "|", ",", ".", ":-", "{p(a).}", "{q(X) :- p(X).}", ":=", "^", "/", ";", "=",
    " ", "\n", "% note\n", "form F(X) = ", "form G(X[p]) = ", "{", "}", ":", "@", "é",
)
_texts = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)
_fuzz = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _parses(parse, text):
    """`parse(text)`, or None where it raises `EngineError`."""
    try:
        return parse(text)
    except EngineError:
        return None


@_fuzz
@given(_texts)
def test_programs_parse_or_fail_cleanly(text):
    program = _parses(parse_program, text)
    if program is not None:
        assert parse_program(render_program(program)) == program


@_fuzz
@given(_texts)
def test_queries_parse_or_fail_cleanly(text):
    _parses(parse_query, text)


@_fuzz
@given(_texts)
def test_forms_parse_or_fail_cleanly(text):
    _parses(parse_forms, text)


_LOADED = parse_program("p(X, Y) :- q(Y, X). q(a, Z).")


@_fuzz
@given(_texts)
def test_binding_specs_parse_or_fail_cleanly(text):
    binding = _parses(lambda t: parse_binding_spec("a.lp" + t, lambda path: _LOADED), text)
    if binding is not None:
        program = binding.program
        assert parse_program(render_program(program)) == program


# Form trees over X1 and small literals, with every operator of the tables;
# an operator with an argument of its own draws one here.
_TERMS = parse_atom("t(a, f(b), Z, g(X, c))").args
_ARGS = {
    "^": st.tuples(st.integers(0, 3)),
    "/": st.tuples(st.sampled_from("pqr"), st.sampled_from("pqr")),
    ":=": st.tuples(st.sampled_from("XYZ"), st.sampled_from(_TERMS)),
}
_LITERALS = tuple(Lit(parse_program(text)) for text in ("c.", "p(a).", "q(X) :- p(X)."))


def _operators(children):
    binary = st.builds(Binary, st.sampled_from(tuple(_BINARY)), children, children)
    unary = st.sampled_from(tuple(_UNARY)).flatmap(
        lambda op: st.builds(Unary, st.just(op), children, _ARGS.get(op, st.just(()))))
    return binary | unary


_trees = st.recursive(st.sampled_from((VarRef("X1"), *_LITERALS)), _operators, max_leaves=6)


@_fuzz
@given(_trees)
def test_form_trees_print_parse_and_evaluate(expr):
    again = parse_forms(f"form T(X1) = {form_to_text(expr)};")["T"].body
    ev = Evaluator()
    assert ev.position(again) == ev.position(expr)
    for binding in _PROBE_BINDINGS:
        value = _parses(lambda e: ev.eval(e, {"X1": binding}), expr)
        assert value is None or isinstance(value, Program)


# Each subcommand over files holding fuzzed texts: `a`, `forms` and `raw`
# hold the first text, `b` and the query goal the second, and `problem`
# poses a proportion over `a` and `b`.
_COMMANDS = (
    ("compose", "{a}", "{b}"),
    ("concat", "{a}", "{b}"),
    ("reverse", "{a}"),
    ("lm", "{a}", "--depth", "1"),
    ("query", "{a}", "{goal}", "--depth", "4"),
    ("form-eval", "{forms}", "F", "--bind", "X={a}"),
    ("prop-check", "{raw}"),
    ("prop-check", "{problem}"),
    ("prop-solve", "{raw}", "--budget", "1"),
    ("prop-solve", "{problem}", "--budget", "1"),
)
_FILES = {"a": ".lp", "b": ".lp", "forms": ".lpf", "raw": ".prop", "problem": ".prop"}
_PROBLEM = "p: {a}\nq: {b}\nr: {a}\n" + "".join(
    f"{side}-{kind}: p q s nat o facts 0 7\n" for side in ("source", "target") for kind in ("preds", "functors"))


@_fuzz
@given(_texts, _texts)
def test_cli_subcommands_exit_with_a_code_on_fuzzed_files(first, second):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: str(Path(tmp, key + suffix)) for key, suffix in _FILES.items()}
        texts = {"a": first, "b": second, "forms": first, "raw": first, "problem": _PROBLEM.format(**paths)}
        for key, text in texts.items():
            Path(paths[key]).write_text(text, encoding="utf-8")
        for command in _COMMANDS:
            argv = [arg.format(goal=second, **paths) for arg in command]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in range(5), (argv, first, second)
