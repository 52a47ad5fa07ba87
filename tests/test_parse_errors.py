"""Every ParseError site reached through the three text parsers, pinned.

Each row names the parser, the text, and the error's full message with its
line and column.  Sites that report a token read earlier (a variable's type
or initializer, an action's host step, a port name, a time slice, a block
kind, an invariant name) are included, so a change to how positions are
found shows here first.
"""

import pytest

from certplc import parse_formula_text, parse_model, parse_properties
from certplc.parsing import MAX_NESTING, ParseError

from conftest import load_model

S = "step S [initial]\n"
FBD = S + "var x : int8\naction A on S = fbd F\nfbd F {\n"


def _props(text):
    return parse_properties(text, load_model("loop"))


def _formula(text):
    return parse_formula_text(text, load_model("loop"))


CASES = [
    # expected X, found ...
    ("eof-after-var", parse_model, "var x", 1, 6,
     "expected ':', found 'end of input'"),
    ("eof-after-comment", parse_model, "var x :\n  # the type\n", 3, 1,
     "expected identifier, found 'end of input'"),
    ("eof-at-comment", parse_model, S + "step T [initial # c", 2, 17,
     "expected ']', found 'end of input'"),
    ("expected-number", parse_model, S + "trans {S} -[ true ]-> {S} [prio x]",
     2, 33, "expected number, found 'x'"),
    ("expected-declaration", parse_model, S + "  initial S", 2, 3,
     "expected declaration, found 'initial'"),
    ("expected-expression", parse_model, S + "trans {S} -[ ]-> {S}", 2, 14,
     "expected expression, found ']->'"),
    ("unexpected-character", parse_model, S + "var x : int8 = 1 @", 2, 18,
     "unexpected character '@'"),
    ("non-ascii-digit", parse_model, S + "var x : int8 = 1²", 2, 17,
     "unexpected character '²'"),
    # tokens read earlier
    ("unknown-type", parse_model, S + "var x :\n  int7 = 3", 3, 3,
     "unknown type 'int7'"),
    ("boolean-initializer", parse_model, S + "var b : bool =\n 2", 3, 2,
     "boolean initializer must be true or false"),
    ("out-of-range-initializer", parse_model, "var x : int8 = 256\n" + S,
     1, 16, "initializer 256 out of range for int8"),
    ("unknown-host-step", parse_model,
     S + "action A on S { }\naction B on\n  Ghost { }\nstep T", 4, 3,
     "action attached to unknown step 'Ghost'"),
    ("port-out", parse_model, FBD + "block r = read x\n"
     "block w = write x (r.value)\n}", 6, 22,
     "expected port 'out', found 'value'"),
    ("timeslice-range", parse_model, FBD + "timeslice\n  0\n}", 6, 3,
     "time slice must be positive and at most 1024"),
    ("duplicate-timeslice", parse_model, FBD + "timeslice 2\n timeslice 3\n}",
     6, 2, "duplicate timeslice"),
    ("unknown-block-kind", parse_model, FBD + "block r =\n  fetch x\n}", 6, 3,
     "unknown block kind 'fetch'"),
    ("block-arity", parse_model, FBD + "block r = read x\n"
     "block s = add(r.out)\n}", 6, 11, "add takes 2 inputs"),
    ("expected-constant", parse_model, FBD + "block k = const x\n}", 5, 17,
     "expected constant literal"),
    # expressions
    ("nesting-bound", parse_model,
     S + "trans {S} -[ " + "(" * (MAX_NESTING + 1) + "true", 2, 174,
     f"nesting deeper than {MAX_NESTING}"),
    ("number-too-long", parse_model,
     S + "var x : int8 = " + "9" * 5000, 2, 16, "number too long"),
    # properties
    ("duplicate-invariant", _props, "invariant p : always (true);\n"
     "invariant q : always (true);\ninvariant  p : always (true);", 3, 12,
     "duplicate invariant 'p'"),
    ("unknown-reference", _props, "invariant p :\n always (step(Ghost));",
     1, 11, "invariant 'p': unknown step 'Ghost'"),
    ("expected-always", _props, "invariant p : (x <= 3);", 1, 15,
     "expected 'always', found '('"),
    # formulas
    ("trailing-input", _formula, "x <= 3\n  )", 2, 3, "trailing input ')'"),
    ("formula-eof", _formula, "x <= ", 1, 6,
     "expected expression, found 'end of input'"),
]


@pytest.mark.parametrize("parse, text, line, col, message",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_message_and_position(parse, text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"line {line}, col {col}: {message}"


@pytest.mark.parametrize("parse, text, message", [
    (parse_model, S + "action A on S { y := 1; }",
     "action 'A' assigns undeclared variable 'y'"),
    (parse_model, "var true : bool\n" + S, "bad variable name 'true'"),
    (_formula, "step(Ghost)", "unknown step 'Ghost'"),
], ids=["model-problem", "literal-variable", "formula-reference"])
def test_errors_without_a_position(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (None, None)
    assert str(err.value) == message
