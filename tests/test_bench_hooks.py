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

from certplc import semantics as S

from conftest import load_model

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
