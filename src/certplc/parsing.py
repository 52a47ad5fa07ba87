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
# sum  := prod (('+'|'-') prod)*    a chain of two or more is one E.Sum
# prod := atom ('*' atom)*          a chain of two or more is one E.Prod
# atom := INT | 'true' | 'false' | IDENT | '(' or ')'

_CMP_TOKENS = {"<", "<=", ">", ">=", "==", "=", "!="}

# Deepest nesting of `(` and `!`.  Every walk recurses per level, the parser
# deepest: with one function per two grammar levels, four frames per `(`.
# So parsing, typechecking, lowering, printing and the checker's re-parse of
# an expression at the bound leave 350 of the default 1000 frames spare.
MAX_NESTING = 160


def parse_expression(ts: TokenStream, hook=None) -> E.Expr:
    """Parse one expression, nested at most MAX_NESTING deep.

    *hook*, if given, is tried first wherever a comparison may start: it
    parses and returns an extra boolean leaf (the property language's
    activity atoms), or returns None without consuming a token.  So a hooked
    leaf is an operand of arithmetic or of a comparison only inside
    parentheses, where typechecking rejects it.
    """
    return _parse_or(ts, hook, 0)


def _deeper(ts, depth):
    """Consume the `(` or `!` at hand, a ParseError past MAX_NESTING."""
    if depth == MAX_NESTING:
        ts.error(f"nesting deeper than {MAX_NESTING}")
    ts.next()
    return depth + 1


def _parse_or(ts, hook, depth):
    args = []
    while True:
        conj = [_parse_not(ts, hook, depth)]
        while ts.accept("&&"):
            conj.append(_parse_not(ts, hook, depth))
        args.append(E.chain(E.And, conj))
        if not ts.accept("||"):
            return E.chain(E.Or, args)


def _parse_not(ts, hook, depth):
    if ts.at("!"):
        return E.Not(_parse_not(ts, hook, _deeper(ts, depth)))
    if hook is not None:
        e = hook(ts)
        if e is not None:
            return e
    e = _parse_sum(ts, hook, depth)
    t = ts.peek()
    if t.kind == "op" and t.text in _CMP_TOKENS:
        ts.next()
        op = "==" if t.text == "=" else t.text
        return E.Cmp(op, e, _parse_sum(ts, hook, depth))
    return e


def _parse_sum(ts, hook, depth):
    args, signs = [], [1]
    while True:
        factors = [_parse_atom(ts, hook, depth)]
        while ts.accept("*"):
            factors.append(_parse_atom(ts, hook, depth))
        args.append(E.chain(E.Prod, factors))
        if not (ts.at("+") or ts.at("-")):
            return E.Sum(tuple(args), tuple(signs)) if args[1:] else args[0]
        signs.append(1 if ts.next().text == "+" else -1)


def _parse_atom(ts, hook, depth):
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
    if ts.at("("):
        e = _parse_or(ts, hook, _deeper(ts, depth))
        ts.expect(")")
        return e
    ts.error(f"expected expression, found {t.text or 'end of input'!r}")
