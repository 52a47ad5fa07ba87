"""Lexer and expression parser shared by the model, property and CLI surfaces."""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as E


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        where = f"line {line}, col {col}: " if line is not None else ""
        super().__init__(where + message)


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'int' | 'op' | 'eof'
    text: str
    line: int
    col: int


_SYMBOLS = (
    ":=", "-[", "]->", "<=", ">=", "==", "!=", "&&", "||",
    "{", "}", "(", ")", "[", "]", ":", ";", ",", ".",
    "<", ">", "=", "!", "+", "-", "*",
)

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def lex(text: str) -> list[Token]:
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("op", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self._toks = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        """The token *ahead* places past the current one (eof at the end)."""
        return self._toks[min(self._pos + ahead, len(self._toks) - 1)]

    def next(self) -> Token:
        t = self._toks[self._pos]
        if t.kind != "eof":
            self._pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("op", "ident")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next()

    def ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected identifier, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next()

    def integer(self) -> int:
        t = self.peek()
        if t.kind != "int":
            raise ParseError(f"expected number, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        self.next()
        return int(t.text)

    def error(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)


# --- expressions ----------------------------------------------------------
#
# or   := and ('||' and)*
# and  := not ('&&' not)*
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
    e = _parse_and(ts, hook)
    while ts.accept("||"):
        e = E.Or(e, _parse_and(ts, hook))
    return e


def _parse_and(ts, hook):
    e = _parse_not(ts, hook)
    while ts.accept("&&"):
        e = E.And(e, _parse_not(ts, hook))
    return e


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


def parse_expression_text(text: str) -> E.Expr:
    ts = TokenStream(lex(text))
    e = parse_expression(ts)
    t = ts.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return e
