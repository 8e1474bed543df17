"""Parser for the `.lp` rule syntax.

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
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str, source: str = "<string>", token_re: re.Pattern = _TOKEN_RE,
             unmatched: dict | None = None) -> list[Token]:
    """Split `text` by `token_re`, whose named groups are the token kinds.
    `unmatched` maps a character no token starts with to its error message."""
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            message = (unmatched or {}).get(text[pos], f"unexpected character {text[pos]!r}")
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

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = (last.col + len(last.text)) if last else 1
            return ParseError(message + " (at end of input)", source=self.source, line=line, col=col)
        return ParseError(
            f"{message} (got {tok.text!r})", source=self.source, line=tok.line, col=tok.col
        )

    def take(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise self.error(f"expected {what}")
        self.i += 1
        return tok

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

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
        if self.at("IMPLIES"):
            self.i += 1
            body.append(self.atom())
            while self.at("COMMA"):
                self.i += 1
                body.append(self.atom())
        return Rule(head, frozenset(body))

    def query(self) -> tuple:
        atoms = [self.atom()]
        while self.at("COMMA"):
            self.i += 1
            atoms.append(self.atom())
        return tuple(atoms)

    def atom(self) -> Atom:
        name = self.take("IDENT", "a predicate name").text
        args: tuple = ()
        if self.at("LPAREN"):
            args = self.term_args()
        return Atom(name, args)

    def term_args(self) -> tuple:
        self.take("LPAREN", "'('")
        args = [self.term()]
        while self.at("COMMA"):
            self.i += 1
            args.append(self.term())
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
        if self.at("RBRACKET"):
            self.i += 1
            return NIL
        items = [self.term()]
        while self.at("COMMA"):
            self.i += 1
            items.append(self.term())
        tail: Term = NIL
        if self.at("BAR"):
            self.i += 1
            tail = self.term()
        self.take("RBRACKET", "']'")
        out = tail
        for item in reversed(items):
            out = cons(item, out)
        return out


def parse_program(text: str, source: str = "<string>") -> Program:
    return _Parser(tokenize(text, source), source).program()


def _parse_whole(text: str, source: str, what: str, parse):
    """`parse` of a fresh parser over `text`, which may end in one '.'."""
    p = _Parser(tokenize(text, source), source)
    out = parse(p)
    if p.at("DOT"):
        p.i += 1
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
