"""Every ParseError site reached through the three text parsers, pinned.

Each row names the parser, the text, and the error's full message with its
line and column, or with no position where the chart's constructor finds
the problem.  Sites that report a token read earlier (a port name, a
duplicate time slice, an invariant name) are included, so a change to how
positions are found shows here first.  The parser checks what the text
alone shows: syntax, the kind of an initializer's literal, a second
`timeslice` and the port name; a type, an initializer's range, an action's
host step, a time slice's range, a block's kind and its input count are
the constructor's, named without a position.
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
    ("boolean-initializer", parse_model, S + "var b : bool =\n 2", 3, 2,
     "boolean initializer must be true or false"),
    # an initializer's literal of the other kind: `true` read as 1 and `1`
    # as true
    ("boolean-literal-initializer", parse_model, "var x : int8 = true\n" + S,
     1, 16, "expected number, found 'true'"),
    ("number-literal-initializer", parse_model, "var b : bool = 1\n" + S,
     1, 16, "boolean initializer must be true or false"),
    ("port-out", parse_model, FBD + "block r = read x\n"
     "block w = write x (r.value)\n}", 6, 22,
     "expected port 'out', found 'value'"),
    ("duplicate-timeslice", parse_model, FBD + "timeslice 2\n timeslice 3\n}",
     6, 2, "duplicate timeslice"),
    # the constructor's, without a position
    ("unknown-type", parse_model, S + "var x :\n  int7 = 3", None, None,
     "variable 'x' has unknown type 'int7'"),
    ("out-of-range-initializer", parse_model, "var x : int8 = 256\n" + S,
     None, None, "initializer of 'x' out of range"),
    ("unknown-host-step", parse_model,
     S + "action A on S { }\naction B on\n  Ghost { }\nstep T", None, None,
     "action 'B' attached to unknown step 'Ghost'"),
    ("timeslice-range", parse_model, FBD + "timeslice\n  0\n}", None, None,
     "fbd 'F': time slice must be positive and at most 1024"),
    ("unknown-block-kind", parse_model, FBD + "block r = read x\n"
     "block s =\n  fetch(r.out)\n}", None, None,
     "fbd 'F': unknown block kind 'fetch'"),
    ("block-arity", parse_model, FBD + "block r = read x\n"
     "block s = add(r.out)\n}", None, None,
     "fbd 'F': block 's': add takes 2 inputs"),
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
    at = "" if line is None else f"line {line}, col {col}: "
    assert str(err.value) == at + message


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
