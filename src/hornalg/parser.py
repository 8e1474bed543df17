"""Lexer and parser for the `.lp` rule syntax.

One token table serves `.lp` programs and queries, `.lpf` forms
(`forms._LpfParser`) and the `[main]`, `[old/new]` and `(V1,...,Vk)`
parts of binding specs (`proportion.parse_binding_spec`).  The kinds only
forms use (`{...}` `:=` `^` `/` `;` `=`) come last; this grammar rejects them.
`key_value_lines` splits the line-based files: `.prop` problems and the
golden case file.

Grammar (UTF-8, `%` starts a line comment):

    program := (rule ".")*
    rule    := atom [":-" atom ("," atom)*]
    atom    := ident | ident "(" term ("," term)* ")"
    term    := var | int | ident ["(" term ("," term)* ")"] | list
    list    := "[]" | "[" term ("," term)* ["|" term] "]"
    var     := /[A-Z_][A-Za-z0-9_]*/
    ident   := /[a-z][A-Za-z0-9_]*/
    int     := /[0-9]+/          (parsed as a constant symbol)

List sugar desugars bit-exactly: `[]` is nil, `[H|T]` is cons(H,T),
`[a,b]` is cons(a,cons(b,nil)).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Collection, Iterator

from .errors import ParseError
from .syntax import NIL, Atom, Compound, Program, Rule, Term, Var, cons

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<COMMENT>%[^\n]*)
    | (?P<IMPLIES>:-)
    | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
    | (?P<IDENT>[a-z][A-Za-z0-9_]*)
    | (?P<INT>[0-9]+)
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<LBRACKET>\[)
    | (?P<RBRACKET>\])
    | (?P<BAR>\|)
    | (?P<COMMA>,)
    | (?P<DOT>\.)
    | (?P<BLOCK>\{[^}]*\})
    | (?P<ASSIGN>:=)
    | (?P<CARET>\^)
    | (?P<SLASH>/)
    | (?P<SEMI>;)
    | (?P<EQUALS>=)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str, source: str = "<string>") -> list[Token]:
    """Split `text` by `_TOKEN_RE`, whose named groups are the token kinds."""
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            ch = text[pos]
            message = ("unterminated { program literal" if ch == "{"
                       else f"unexpected character {ch!r}")
            raise ParseError(message, source=source, line=line, col=col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, m.group(kind), line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.source = source
        self.i = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def error_at(self, tok: Token, message: str) -> ParseError:
        return ParseError(message, source=self.source, line=tok.line, col=tok.col)

    def error(self, message: str) -> ParseError:
        """`message` at the next token, or just past the last one."""
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = (last.col + len(last.text)) if last else 1
            return ParseError(message + " (at end of input)", source=self.source, line=line, col=col)
        return self.error_at(tok, f"{message} (got {tok.text!r})")

    def take(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise self.error(f"expected {what}")
        self.i += 1
        return tok

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

    def accept(self, kind: str) -> bool:
        """Take the next token if it is of `kind`; say whether it was."""
        tok = self.peek()
        if tok is None or tok.kind != kind:
            return False
        self.i += 1
        return True

    def commas(self, item) -> list:
        """`item ("," item)*`, each read by calling `item()`."""
        out = [item()]
        while self.accept("COMMA"):
            out.append(item())
        return out

    # -- grammar ------------------------------------------------------------

    def program(self) -> Program:
        rules = []
        while self.peek() is not None:
            rules.append(self.rule())
            self.take("DOT", "'.' after rule")
        return Program(rules)

    def rule(self) -> Rule:
        head = self.atom()
        body: list[Atom] = []
        if self.accept("IMPLIES"):
            body = self.commas(self.atom)
        return Rule(head, frozenset(body))

    def query(self) -> tuple:
        return tuple(self.commas(self.atom))

    def atom(self) -> Atom:
        name = self.take("IDENT", "a predicate name").text
        args: tuple = ()
        if self.at("LPAREN"):
            args = self.term_args()
        return Atom(name, args)

    def term_args(self) -> tuple:
        self.take("LPAREN", "'('")
        args = self.commas(self.term)
        self.take("RPAREN", "')'")
        return tuple(args)

    def term(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise self.error("expected a term")
        if tok.kind == "VAR":
            self.i += 1
            return Var(tok.text)
        if tok.kind == "INT":
            self.i += 1
            return Compound(tok.text, ())
        if tok.kind == "IDENT":
            self.i += 1
            if self.at("LPAREN"):
                return Compound(tok.text, self.term_args())
            return Compound(tok.text, ())
        if tok.kind == "LBRACKET":
            return self.list_term()
        raise self.error("expected a term")

    def list_term(self) -> Term:
        self.take("LBRACKET", "'['")
        if self.accept("RBRACKET"):
            return NIL
        items = self.commas(self.term)
        tail: Term = NIL
        if self.accept("BAR"):
            tail = self.term()
        self.take("RBRACKET", "']'")
        out = tail
        for item in reversed(items):
            out = cons(item, out)
        return out


def key_value_lines(text: str, keys: Collection[str], fail: Callable[[int, str], Exception]
                    ) -> Iterator[tuple[int, str, str]]:
    """`(line number, lower-cased key, value)` for each `key: value` line;
    `%` starts a comment.  A line with no colon, or with a key not in
    `keys`, raises `fail(line, message)`."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise fail(lineno, "expected `key: value`")
        key, value = (part.strip() for part in line.split(":", 1))
        key = key.lower()
        if key not in keys:
            raise fail(lineno, f"unknown key {key}")
        yield lineno, key, value


def parse_program(text: str, source: str = "<string>") -> Program:
    return _Parser(tokenize(text, source), source).program()


def _parse_whole(text: str, source: str, what: str, parse):
    """`parse` of a fresh parser over `text`, which may end in one '.'."""
    p = _Parser(tokenize(text, source), source)
    out = parse(p)
    p.accept("DOT")
    if p.peek() is not None:
        raise p.error(f"trailing input after {what}")
    return out


def parse_rule(text: str, source: str = "<string>") -> Rule:
    return _parse_whole(text, source, "rule", _Parser.rule)


def parse_atom(text: str, source: str = "<string>") -> Atom:
    return _parse_whole(text, source, "atom", _Parser.atom)


def parse_query(text: str, source: str = "<string>") -> tuple:
    """A query is a comma-separated sequence of atoms, optional trailing dot."""
    return _parse_whole(text, source, "query", _Parser.query)
