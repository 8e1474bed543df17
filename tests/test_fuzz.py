"""Fuzz smoke for the text front end: short texts over the token alphabet
either parse or raise `EngineError`, and what parses renders back to text
that parses to an equal program."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hornalg.errors import EngineError  # noqa: E402
from hornalg.forms import parse_forms  # noqa: E402
from hornalg.parser import parse_program, parse_query  # noqa: E402
from hornalg.proportion import parse_binding_spec  # noqa: E402
from hornalg.syntax import render_program  # noqa: E402

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
