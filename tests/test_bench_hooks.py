"""The traced benchmark run still finds every layer boundary it wraps.

``perfbench/tracing.py`` replaces certplc functions by name, so renaming
one, or calling it other than through its module global, would end or
silently empty every ``perfbench/run.py --trace 1`` run.  This reads
``perfbench/`` and changes nothing there.
"""

import importlib
import pathlib
import sys
from types import SimpleNamespace

import pytest

from certplc import fbd as F
from certplc import semantics as S
from certplc.model import parse_model

from conftest import FANOUT, load_model

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        run = importlib.import_module("run")
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
    api = SimpleNamespace(**{m: importlib.import_module(f"certplc.{m}")
                             for m in run.MODULES})
    return tracing, api


def test_install_wraps_existing_attributes_and_restore_undoes_it(bench):
    tracing, api = bench
    tracer = tracing.Tracer()
    tracing.install(tracer, api)
    patched = list(tracer._patched)
    try:
        assert patched
        for module, attr, original in patched:
            wrapper = getattr(module, attr)
            assert wrapper is not original, (module.__name__, attr)
            assert wrapper.__wrapped__ is original, (module.__name__, attr)
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)
    assert tracer._patched == []


def test_diagram_actions_run_through_the_wrapped_evaluator(bench):
    tracing, api = bench
    model = load_model("fbd_inc")
    tracer = tracing.Tracer()
    tracing.install(tracer, api)
    try:
        state = S.init_state(model)
        S.apply_rule(model, state,
                     S.ExecuteAction(state.active_actions[0]))
    finally:
        tracer.restore()
    assert tracer.calls["fbd.eval"] == 1


# fbd_inc executes its diagram on a new value each time; FANOUT's branches
# interleave, so the same counter value is executed from many states
@pytest.mark.parametrize("load, depth, repeats", [
    (lambda: load_model("fbd_inc"), 40, False),
    (lambda: parse_model(FANOUT), 10, True),
], ids=["fbd_inc", "fanout"])
def test_exploration_counts_one_evaluation_per_distinct_diagram_input(
        bench, load, depth, repeats):
    """One exploration runs a diagram once per distinct (action, values
    read) input among the diagram executions it makes."""
    tracing, api = bench
    model = load()
    env = model.env()
    reads = {a.id: tuple(v for _, v, _ in
                         F.compile_fbd(model.fbd(a.fbd_ref), env).reads)
             for a in model.actions if a.fbd_ref is not None}
    tracer = tracing.Tracer()
    tracing.install(tracer, api)
    try:
        S.reachable_bounded(model, depth)
    finally:
        tracer.restore()
    # the states expanded at this depth are those found one level earlier
    executions = [(rule.action, tuple(s.mem[v] for v in reads[rule.action]))
                  for s in S.reachable_bounded(model, depth - 1)
                  for rule, _ in S.successors(model, s)
                  if isinstance(rule, S.ExecuteAction)
                  and rule.action in reads]
    distinct = len(set(executions))
    assert distinct > 1
    assert (distinct < len(executions)) == repeats
    assert tracer.calls["fbd.eval"] == distinct


@pytest.mark.parametrize("depth", [1, 6, 10])
def test_traced_exploration_calls_successors_once_per_expanded_state(
        bench, depth):
    """The explorer calls the wrapped ``semantics.successors`` once for
    each configuration it expands, which are the states found one level
    earlier: so ``successors_calls`` counts expansions and
    ``new_state_ratio`` divides by every generated successor."""
    tracing, api = bench
    model = parse_model(FANOUT)
    expanded = len(S.reachable_bounded(model, depth - 1))
    tracer = tracing.Tracer()
    tracing.install(tracer, api)
    try:
        tracer.op("op.explore", S.reachable_bounded, model, depth)
    finally:
        tracer.restore()
    assert tracer.calls["semantics.successors"] == expanded
    generated = sum(len(S.successors(model, s))
                    for s in S.reachable_bounded(model, depth - 1))
    assert tracer.counts["semantics.successors_out.op.explore"] == generated
