import pathlib

import pytest

from certplc import parse_model, parse_properties

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# y := x + 1 wraps at int8 but stores into int16.  Accepting it would let
# `always (y >= 1)` be proved although x = 255 makes y = 0.
MIXED_WIDTH = """var x : int8 = 255
var y : int16 = 1
step S [initial]
action A on S { y := x + 1; }
"""


def fixture_names():
    return sorted(p.stem for p in FIXTURES.glob("*.sfc"))


def load_model(name):
    return parse_model((FIXTURES / f"{name}.sfc").read_text())


def load_invariants(name, model=None):
    model = model if model is not None else load_model(name)
    return parse_properties((FIXTURES / f"{name}.inv").read_text(), model)


@pytest.fixture
def loop_model():
    return load_model("loop")


@pytest.fixture
def hold_model():
    return load_model("hold_positive")
