import pathlib

import pytest

from certplc import (BudgetExceeded, parse_model, parse_properties,
                     reachable_bounded)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# y := x + 1 wraps at int8 but stores into int16.  Accepting it would let
# `always (y >= 1)` be proved although x = 255 makes y = 0.
MIXED_WIDTH = """var x : int8 = 255
var y : int16 = 1
step S [initial]
action A on S { y := x + 1; }
"""

# Products of two variables are outside the linear fragment: verify must
# report the case Undecided, naming the rule, and the checker must reject.
NONLINEAR_GUARD = """var x : int16
var y : int16
step S [initial]
step T
action A on S { x := x + 1; }
trans {S} -[ x * y < 3 ]-> {T}
"""
NONLINEAR_ATOM = NONLINEAR_GUARD.replace("x * y < 3", "x < 3")
NONLINEAR_ATOM_PROP = "invariant p : always (x * y <= 5000);\n"

# The stored form 11945250*y + 13500 wraps through about 11.9 million
# quotients at 8 bits; enumerating them must stop at the disjunct cap.
WRAP_BLOWUP = """var y : int8
var z : int8
step S [initial]
action A on S { z := 750 * (15928 * y - (y - 18)); }
"""
WRAP_BLOWUP_PROP = "invariant p : always (steps_within {S});\n"


def fixture_names():
    return sorted(p.stem for p in FIXTURES.glob("*.sfc"))


def load_model(name):
    return parse_model((FIXTURES / f"{name}.sfc").read_text())


def load_invariants(name, model=None):
    model = model if model is not None else load_model(name)
    return parse_properties((FIXTURES / f"{name}.inv").read_text(), model)


def states_of(model, depth, budget=50_000):
    """Reachable states up to *depth*, or those found before the budget
    ran out."""
    try:
        return reachable_bounded(model, depth, state_budget=budget)
    except BudgetExceeded as err:
        return err.partial


@pytest.fixture
def loop_model():
    return load_model("loop")


@pytest.fixture
def hold_model():
    return load_model("hold_positive")
