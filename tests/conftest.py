import importlib
import pathlib
import sys
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import settings

from certplc import (BudgetExceeded, SfcModel, parse_model, parse_properties,
                     reachable_bounded)
from certplc import expr as E
from certplc import linear as L
from certplc import obligations as O
from certplc.lia.solver import decide_sat
from certplc.linear import FragmentError, LimitExceeded

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# `--hypothesis-profile long` raises the example count of a test that
# reads it (test_lia.py's joint-cube extension differential) from 500
settings.register_profile("long", max_examples=5000)

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
# quotients at 8 bits; enumerating them must stop at the disjunct cap.  The
# property reads z, so the case of A needs the post-value definitions.
WRAP_BLOWUP = """var y : int8
var z : int8
step S [initial]
action A on S { z := 750 * (15928 * y - (y - 18)); }
"""
WRAP_BLOWUP_PROP = "invariant p : always (z == y);\n"

# A diagram with a comparison and a mux has no linear summary, so its
# action's execute case is Undecided.
OPAQUE = ("var x : int16\nvar y : int16\nstep A [initial]\n"
          "action Amux on A = fbd F\n"
          "trans {A} -[ true ]-> {A}\n"
          "fbd F {\n block r = read x\n block c = lt(r.out, const 10)\n"
          " block m = mux(c.out, const 1, const 0)\n"
          " block w = write y (m.out)\n timeslice 1\n}\n")


def _counter_fbd(i, t):
    return (f"fbd Cnt{i} {{\n  block d = delay(a.out)\n"
            f"  block a = add(d.out, const 1)\n  block r = read n{i}\n"
            f"  block s = add(r.out, a.out)\n  block w = write n{i} (s.out)\n"
            f"  timeslice {t}\n}}\n")


# A fork into three branches, each running a dataflow counter with its own
# time slice, then a join that resets the counters: many interleavings, so
# each diagram runs many times during one exploration.
FANOUT = ("var n0 : int8\nvar n1 : int8\nvar n2 : int16\n"
          "step F [initial]\nstep B0\nstep B1\nstep B2\nstep J\n"
          + "".join(f"action C{i} on B{i} = fbd Cnt{i}\n" for i in range(3))
          + "action R on J { n0 := 0; n1 := 0; n2 := 0; }\n"
          + "".join(_counter_fbd(i, t) for i, t in enumerate((2, 3, 4)))
          + "trans {F} -[ true ]-> {B0, B1, B2}\n"
          "trans {B0, B1, B2} -[ n0 >= 2 && n1 >= 3 && n2 >= 4 ]-> {J}\n"
          "trans {J} -[ true ]-> {F}\n")


def lockstep(width, c):
    """Two steps stepping `y == c * x` in lockstep at one width, and that
    invariant, which holds modulo 2**w: deciding its cases divides by gcds
    and enumerates wrap quotients."""
    model = parse_model(
        f"var x : {width} = 0\nvar y : {width} = 0\n"
        "step P [initial]\nstep Q\n"
        f"action Inc on P {{ x := x + 1; y := y + {c}; }}\n"
        "trans {P} -[ true ]-> {Q}\ntrans {Q} -[ true ]-> {P}\n")
    inv = parse_properties(f"invariant rel : always (y == {c} * x);\n",
                           model)[0]
    return model, inv


def decision(cube, **kwargs) -> str:
    """decide_sat's result (witnesses and assignments included) or error."""
    try:
        return repr(decide_sat(cube, **kwargs))
    except (LimitExceeded, FragmentError) as err:
        return f"{type(err).__name__}: {err}"


def quotient_points(cube, assignment):
    """*assignment* extended by each value of the quotient variables of
    *cube* within the ranges that its bound members give them."""
    ranges: dict[str, tuple] = {}
    for con in cube:
        if (len(con.coeffs) == 1 and con.rel == "<="
                and con.coeffs[0][0].startswith(L.WRAP_PREFIX)):
            (v, c), = con.coeffs
            lo, hi = ranges.get(v, (None, None))
            ranges[v] = (lo, con.rhs) if c == 1 else (-con.rhs, hi)
    for values in product(*(range(lo, hi + 1) for lo, hi in ranges.values())):
        yield {**assignment, **dict(zip(ranges, values))}


def eval_cube(cube, assignment) -> bool:
    """Truth of a conjunction of linear constraints at an assignment of its
    variables other than quotients, which are bound existentially."""
    return any(all(con.evaluate(point) for con in cube)
               for point in quotient_points(cube, assignment))


def eval_dnf(dnf, assignment) -> bool:
    """Truth of a disjunction of cubes at an assignment."""
    return any(eval_cube(c, assignment) for c in dnf)


def fixture_names():
    return sorted(p.stem for p in FIXTURES.glob("*.sfc"))


def benchmark_cases(seeds=(1,)):
    """The charts of the ring, arith and fanout workloads, seed 1 unless
    other seeds are given."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        families = importlib.import_module("families")
    finally:
        sys.path.remove(str(PERFBENCH))
    for workload in ("ring", "arith", "fanout"):
        for seed in seeds:
            yield from families.build(workload, seed)


def load_model(name):
    return parse_model((FIXTURES / f"{name}.sfc").read_text())


def strip_widths(e):
    """*e* with the width annotation of every comparison dropped."""
    if isinstance(e, E.Cmp):
        return E.Cmp(e.op, strip_widths(e.lhs), strip_widths(e.rhs))
    if isinstance(e, (E.And, E.Or)):
        return type(e)(tuple(map(strip_widths, e.args)))
    if isinstance(e, E.Not):
        return E.Not(strip_widths(e.arg))
    return e


def built_in_code(model):
    """*model* rebuilt by the constructor from its pieces, every guard and
    assignment stripped of its comparison widths first."""
    actions = tuple(a if a.assigns is None else replace(
        a, assigns=tuple((n, strip_widths(e)) for n, e in a.assigns))
        for a in model.actions)
    transitions = tuple(replace(t, guard=strip_widths(t.guard))
                        for t in model.transitions)
    return SfcModel(model.vars, model.steps, model.initial, actions,
                    transitions, model.fbds)


def load_invariants(name, model=None):
    model = model if model is not None else load_model(name)
    return parse_properties((FIXTURES / f"{name}.inv").read_text(), model)


def rule_post(model, rule):
    """A rule instance's entries in the model's change index: its exact
    symbolic post-state, as ``DerivationContext.formula_dnf`` reads it,
    whatever the frame rule omits."""
    index = O.DerivationContext(model, E.BoolLit(True)).changes()
    return {var: by_rule[rule] for var, by_rule in index.items()
            if rule in by_rule}


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
