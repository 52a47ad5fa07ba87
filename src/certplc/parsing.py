"""Lexer and expression parser shared by the model, property and CLI surfaces.

Tokens are plain strings.  ``lex`` finds them with one regular expression
and drops the comments.  A token's first character tells its kind: a
letter or `_` starts an identifier, an ASCII digit an integer, anything
else a symbol; the empty string is end of input.  No token carries a position:
``position`` scans the text again with the same pattern, only when a
ParseError needs the line and column of a token index, and a parser that
reports a token read earlier keeps its index (``TokenStream.pos``).
"""

from __future__ import annotations

import re
from itertools import islice

from . import expr as E


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        where = f"line {line}, col {col}: " if line is not None else ""
        super().__init__(where + message)


_SYMBOLS = (
    ":=", "-[", "]->", "<=", ">=", "==", "!=", "&&", "||",
    "{", "}", "(", ")", "[", "]", ":", ";", ",", ".",
    "<", ">", "=", "!", "+", "-", "*",
)
_WORD_START = frozenset("abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789")

# One token, a comment to end of line, or any other character but a blank,
# which is an error; blanks are skipped.  Symbols are tried in the order
# above, so `]->` wins over `]`.
_TOKEN = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|"
    + "|".join(map(re.escape, _SYMBOLS)) + r"|#[^\n]*|[^ \t\r\n]")


# A name of a declaration or a block: one identifier token, but not one
# the parsers read as a literal (`true`, `false`, an operand's `const`).
NAME_RE = re.compile(r"(?!(true|false|const)\Z)[A-Za-z_][A-Za-z0-9_]*\Z")


def lex(text: str) -> list[str]:
    """Identifiers, ASCII decimal integers and symbols, end of input not
    included; blanks and `#` comments to end of line are skipped.  A token
    is ASCII, so ``str.isidentifier`` and ``str.isdigit`` tell its kind."""
    toks = _TOKEN.findall(text)
    if "#" in text:
        toks = [t for t in toks if t[0] != "#"]
    stray = {t for t in set(toks).difference(_SYMBOLS)
             if t[0] not in _WORD_START}
    if stray:
        i = next(i for i, t in enumerate(toks) if t in stray)
        raise ParseError(f"unexpected character {toks[i]!r}",
                         *position(text, i))
    return toks


def position(text: str, i: int) -> tuple[int, int]:
    """Line and column of token *i* of ``lex(text)``, or of end of input
    when *i* is the token count.  Both count from 1, columns in
    characters."""
    starts = (m.start() for m in _TOKEN.finditer(text) if m[0][0] != "#")
    at = next(islice(starts, i, None), None)
    if at is None:  # end of input: the last line's end, or its comment
        at = (text + "#").find("#", text.rfind("\n") + 1)
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


class TokenStream:
    """The tokens of one text and a cursor, ``pos``, into them."""

    def __init__(self, text: str):
        self._text = text
        self._toks = lex(text) + ["", ""]  # end of input, and for peek(1)
        self.pos = 0

    def peek(self, ahead: int = 0) -> str:
        """The current token, or with *ahead* 1 the one after it."""
        return self._toks[self.pos + ahead]

    def next(self) -> str:
        t = self._toks[self.pos]
        self.pos += t != ""  # end of input stays current
        return t

    def at(self, text: str) -> bool:
        return self._toks[self.pos] == text

    def accept(self, text: str) -> bool:
        if self._toks[self.pos] == text:
            self.pos += 1  # not end of input, whose text is empty
            return True
        return False

    def expect(self, text: str) -> str:
        if self._toks[self.pos] != text:
            self.expected(repr(text))
        self.pos += 1
        return text

    def ident(self) -> str:
        t = self._toks[self.pos]
        if not t.isidentifier():
            self.expected("identifier")
        self.pos += 1
        return t

    def integer(self) -> int:
        t = self._toks[self.pos]
        if not t.isdigit():
            self.expected("number")
        self.pos += 1
        try:
            return int(t)
        except ValueError:  # more digits than int converts
            raise ParseError("number too long",
                             *position(self._text, self.pos - 1)) from None

    def expected(self, what: str):
        """Raise a ParseError: *what* was expected at the current token."""
        self.error(f"expected {what}, found {self.peek() or 'end of input'!r}")

    def error(self, message: str, at: int | None = None):
        """Raise a ParseError at token *at*, by default the current one."""
        raise ParseError(message, *position(
            self._text, self.pos if at is None else at))


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
    if t in _CMP_TOKENS:
        ts.next()
        op = "==" if t == "=" else t
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
        signs.append(1 if ts.next() == "+" else -1)


def _parse_atom(ts, hook, depth):
    t = ts.peek()
    if t.isdigit():
        return E.IntLit(ts.integer())
    if t.isidentifier():
        ts.next()
        if t == "true":
            return E.BoolLit(True)
        if t == "false":
            return E.BoolLit(False)
        return E.Var(t)
    if t == "(":
        e = _parse_or(ts, hook, _deeper(ts, depth))
        ts.expect(")")
        return e
    ts.expected("expression")
