"""The lexer against the character-loop lexer it replaced.

``reference_lex`` is that lexer, kept here as an oracle only: it gives each
token's kind, text, line and column, where ``lex`` gives the text and
``position`` the line and column of a token index on demand.  The one
intended difference: it read any Unicode digit as a digit (so `²` reached
``int`` and `٣` read as 3), while ``lex`` reads only ASCII `0-9` and rejects
other digits as unexpected characters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certplc.parsing import ParseError, TokenStream, lex, position

from conftest import FANOUT, FIXTURES, benchmark_cases


_SYMBOLS = (
    ":=", "-[", "]->", "<=", ">=", "==", "!=", "&&", "||",
    "{", "}", "(", ")", "[", "]", ":", ";", ",", ".",
    "<", ">", "=", "!", "+", "-", "*",
)
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def reference_lex(text):
    """(kind, text, line, col) of each token, eof last."""
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
            toks.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(("op", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


def _non_ascii_digit(c):
    return c.isdigit() and not c.isascii()


def expected_lex(text):
    """The reference lexer's result with non-ASCII digits read as stray
    characters: a NUL stands in for each, and an error names it again."""
    masked = "".join("\0" if _non_ascii_digit(c) else c for c in text)
    try:
        return reference_lex(masked)
    except ParseError as err:
        if masked.split("\n")[err.line - 1][err.col - 1] != "\0":
            raise
        ch = text.split("\n")[err.line - 1][err.col - 1]
        raise ParseError(f"unexpected character {ch!r}", err.line, err.col)


def kind(token):
    """A token's kind as the parsers read it off its text."""
    if not token:
        return "eof"
    return "ident" if token.isidentifier() else \
        "int" if token.isdigit() else "op"


def outcome(lexer, text):
    """(kind, text, line, col) of each token, eof last, or the error.  For
    ``lex`` the position of every token index, end of input included, is
    asked of ``position``."""
    try:
        if lexer is not lex:
            return [tuple(t) for t in lexer(text)]
        toks = lex(text) + [""]
        return [(kind(t), t, *position(text, i)) for i, t in enumerate(toks)]
    except ParseError as err:
        return ("error", str(err), err.line, err.col)


_FRAGMENTS = st.sampled_from(
    _SYMBOLS + (" ", "  ", "\t", "\r", "\n", "\r\n", "#", "# note ]-> 1",
                "#x\n", "_", "0", "007", "x1", "step", "-[ ", "]->]",
                "@", "$", "é", "\x0c", "\u2028", "²", "٣", "１", "x²",
                "1²", "٣4"))
_WORDS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}|[0-9]{1,5}",
                       fullmatch=True)
_TEXTS = st.lists(st.one_of(_FRAGMENTS, _WORDS), max_size=40).map("".join)


class TestAgainstReference:
    # tier-1 runs 500 examples; `--hypothesis-profile long` (conftest.py)
    # runs more
    @settings(max_examples=max(500, settings.default.max_examples),
              deadline=None, derandomize=True, database=None)
    @given(_TEXTS)
    def test_tokens_and_errors_agree(self, text):
        assert outcome(lex, text) == outcome(expected_lex, text)

    @pytest.mark.parametrize("text", [
        "", "x", "x ", "x # c", "x\n# c", "# only", "a\n\n  b\t\r#z",
        "trans {A} -[ x<=1 ]-> {B} [prio 2]", "x := 12ab;", "]->]-[-",
    ])
    def test_edge_texts(self, text):
        assert outcome(lex, text) == outcome(reference_lex, text)

    def test_fixture_texts(self):
        paths = sorted(FIXTURES.glob("*.sfc")) + sorted(FIXTURES.glob("*.inv"))
        assert len(paths) >= 24
        for path in paths:
            text = path.read_text()
            assert outcome(lex, text) == outcome(reference_lex, text), path

    def test_workload_texts(self):
        texts = [FANOUT]
        for mc in benchmark_cases():
            texts += [mc.text, mc.props_text()]
        for text in texts:
            assert outcome(lex, text) == outcome(reference_lex, text)


class TestNonAsciiDigits:
    @pytest.mark.parametrize("digit", ["²", "٣", "１"])
    def test_rejected_where_they_stand(self, digit):
        with pytest.raises(ParseError, match=f"unexpected character "
                                             f"'{digit}'") as err:
            lex(f"x := 1\ny := x + {digit};")
        assert (err.value.line, err.value.col) == (2, 10)

    def test_ascii_run_stops_before_them(self):
        with pytest.raises(ParseError) as err:
            lex("x := 12²")
        assert (err.value.line, err.value.col) == (1, 8)
        text = "x # 12² in a comment"
        assert lex(text) == ["x"]
        assert position(text, 1) == (1, 3)


class TestTokenStream:
    def test_peek_past_the_end_is_eof(self):
        ts = TokenStream("a b")
        assert ts.peek(1) == "b"
        assert ts.accept("a") and not ts.accept("a")
        assert ts.expect("b") == "b"
        assert ts.next() == ts.next() == ts.peek(1) == ""
        assert ts.pos == 2

    def test_expected_token_errors(self):
        for method, arg, what in (("expect", ";", "';'"),
                                  ("ident", None, "identifier"),
                                  ("integer", None, "number")):
            ts = TokenStream("\n  ]")
            with pytest.raises(ParseError) as err:
                getattr(ts, method)(*([arg] if arg else []))
            assert str(err.value) == f"line 2, col 3: expected {what}, " \
                                     f"found ']'"
        with pytest.raises(ParseError, match="found 'end of input'"):
            TokenStream("# only").ident()

