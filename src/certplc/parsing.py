"""Lexer and expression parser shared by the model, property and CLI surfaces."""

from __future__ import annotations

import re
from typing import NamedTuple

from . import expr as E


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        where = f"line {line}, col {col}: " if line is not None else ""
        super().__init__(where + message)


class Token(NamedTuple):
    kind: str  # 'ident' | 'int' | 'op' | 'eof'
    text: str
    line: int
    col: int


_SYMBOLS = (
    ":=", "-[", "]->", "<=", ">=", "==", "!=", "&&", "||",
    "{", "}", "(", ")", "[", "]", ":", ";", ",", ".",
    "<", ">", "=", "!", "+", "-", "*",
)

# Blanks, then one token, a newline (after an optional comment), a comment
# at the end of the text, or any other character, which is an error.
# Symbols are tried in the order above, so `]->` wins over `]`.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    r"|(?P<op>" + "|".join(map(re.escape, _SYMBOLS)) + r")"
    r"|(?P<nl>(?:#[^\n]*)?\n)|#[^\n]*|(?P<bad>[^ \t\r\n]))")


def lex(text: str) -> list[Token]:
    """Identifiers, ASCII decimal integers and symbols; blanks and `#`
    comments to end of line are skipped.  Columns count characters."""
    toks = []
    new = tuple.__new__  # Token(...) without NamedTuple's Python-level __new__
    line, base = 1, -1  # base: offset of the line's first column, minus 1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            base = m.end() - 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line,
                             m.start(kind) - base)
        elif kind is not None:
            toks.append(new(Token, (kind, m[kind], line,
                                    m.start(kind) - base)))
    # end of input sits at the end of the last line or at its comment
    hash_at = text.find("#", base + 1)
    end = len(text) if hash_at < 0 else hash_at
    toks.append(Token("eof", "", line, end - base))
    return toks


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self._toks = tokens  # ends with the eof token
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        """The token *ahead* places past the current one (eof at the end)."""
        if ahead:
            return self._toks[min(self._pos + ahead, len(self._toks) - 1)]
        return self._toks[self._pos]

    def next(self) -> Token:
        t = self._toks[self._pos]
        if t.kind != "eof":
            self._pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self._toks[self._pos]
        return t.text == text and t.kind in ("op", "ident")

    def accept(self, text: str) -> bool:
        t = self._toks[self._pos]
        if t.text == text and t.kind in ("op", "ident"):
            self._pos += 1  # not eof, whose text is empty
            return True
        return False

    def expect(self, text: str) -> Token:
        return self._take(self.at(text), repr(text))

    def ident(self) -> Token:
        return self._take(self._toks[self._pos].kind == "ident", "identifier")

    def integer(self) -> int:
        t = self._take(self._toks[self._pos].kind == "int", "number")
        try:
            return int(t.text)
        except ValueError:  # more digits than int converts
            raise ParseError("number too long", t.line, t.col) from None

    def _take(self, ok: bool, what: str) -> Token:
        """Consume the current token if *ok*; else *what* was expected."""
        t = self._toks[self._pos]
        if not ok:
            raise ParseError(f"expected {what}, found "
                             f"{t.text or 'end of input'!r}", t.line, t.col)
        self._pos += 1
        return t

    def error(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)


# --- expressions ----------------------------------------------------------
#
# or   := and ('||' and)*      a chain of two or more is one E.Or
# and  := not ('&&' not)*      a chain of two or more is one E.And
# not  := '!' not | hook | cmp
# cmp  := sum (('<'|'<='|'>'|'>='|'=='|'='|'!=') sum)?
# sum  := prod (('+'|'-') prod)*
# prod := atom ('*' atom)*
# atom := INT | 'true' | 'false' | IDENT | '(' or ')'

_CMP_TOKENS = {"<", "<=", ">", ">=", "==", "=", "!="}


def parse_expression(ts: TokenStream, hook=None) -> E.Expr:
    """Parse one expression.

    *hook*, if given, is tried first wherever a comparison may start: it
    parses and returns an extra boolean leaf (the property language's
    activity atoms), or returns None without consuming a token.  So a hooked
    leaf is an operand of arithmetic or of a comparison only inside
    parentheses, where typechecking rejects it.
    """
    return _parse_or(ts, hook)


def _parse_or(ts, hook):
    args = [_parse_and(ts, hook)]
    while ts.accept("||"):
        args.append(_parse_and(ts, hook))
    return E.chain(E.Or, args)


def _parse_and(ts, hook):
    args = [_parse_not(ts, hook)]
    while ts.accept("&&"):
        args.append(_parse_not(ts, hook))
    return E.chain(E.And, args)


def _parse_not(ts, hook):
    if ts.accept("!"):
        return E.Not(_parse_not(ts, hook))
    if hook is not None:
        e = hook(ts)
        if e is not None:
            return e
    return _parse_cmp(ts, hook)


def _parse_cmp(ts, hook):
    e = _parse_sum(ts, hook)
    t = ts.peek()
    if t.kind == "op" and t.text in _CMP_TOKENS:
        ts.next()
        op = "==" if t.text == "=" else t.text
        return E.Cmp(op, e, _parse_sum(ts, hook))
    return e


def _parse_sum(ts, hook):
    e = _parse_prod(ts, hook)
    while True:
        if ts.accept("+"):
            e = E.Add(e, _parse_prod(ts, hook))
        elif ts.accept("-"):
            e = E.Sub(e, _parse_prod(ts, hook))
        else:
            return e


def _parse_prod(ts, hook):
    e = _parse_atom(ts, hook)
    while ts.accept("*"):
        e = E.Mul(e, _parse_atom(ts, hook))
    return e


def _parse_atom(ts, hook):
    t = ts.peek()
    if t.kind == "int":
        return E.IntLit(ts.integer())
    if t.kind == "ident":
        ts.next()
        if t.text == "true":
            return E.BoolLit(True)
        if t.text == "false":
            return E.BoolLit(False)
        return E.Var(t.text)
    if ts.accept("("):
        e = _parse_or(ts, hook)
        ts.expect(")")
        return e
    ts.error(f"expected expression, found {t.text or 'end of input'!r}")

