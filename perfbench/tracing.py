"""Spans and work counts around certplc's layer boundaries.

The traced run replaces public functions with timing wrappers in the module
namespaces where callers look them up (a name bound by ``from x import f``
is wrapped in the importing module).  certplc itself is not changed.  Spans
are kept in memory as per-name sums: calls, total time, and total time per
enclosing benchmark operation (``op.verify``, ``op.check``, ...), so a
layer's time can be split by the end-to-end operation that caused it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


def witness_steps(w) -> int:
    """Derivation steps in a witness, split branches included."""
    n = 0
    for step in w.steps:
        n += 1
        for branch in getattr(step, "branches", ()):
            n += witness_steps(branch)
    return n


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)       # span name -> total
        self.by_op = defaultdict(float)         # (op, span name) -> total
        self.counts = defaultdict(int)          # work counters
        self._op = None
        self._patched = []

    # -- spans ----------------------------------------------------------------

    def _record(self, name: str, dt: float):
        self.calls[name] += 1
        self.seconds[name] += dt
        self.by_op[(self._op, name)] += dt

    def op(self, name: str, fn, *args, **kwargs):
        """Run one benchmark operation as the root span of its layers."""
        self._op = name
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._record(name, perf_counter() - t0)
            self._op = None

    def wrap(self, module, attr: str, span: str, count=None):
        """Replace module.attr with a timing wrapper until restore()."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                self._record(span, perf_counter() - t0)
            if count is not None:
                count(self.counts, self._op, args, out)
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def reset(self):
        self.calls.clear()
        self.seconds.clear()
        self.by_op.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "by_op": dict(self.by_op), "counts": dict(self.counts)}


# --- what the traced run wraps -----------------------------------------------

def _count_obligation(counts, op, args, ob):
    counts["obligations.hyp_cubes"] += len(ob.hyp_cubes)
    counts["obligations.neg_cubes"] += sum(len(d) for d in ob.neg_concl)


def _count_decision(counts, op, args, res):
    if type(res).__name__ != "Sat":
        counts["lia.solver.unsat_calls"] += 1


def _count_replay(counts, op, args, ok):
    counts["lia.witness.steps"] += witness_steps(args[1])


def _count_successors(counts, op, args, out):
    counts[f"semantics.successors_out.{op}"] += len(out)


def install(tracer: Tracer, api) -> None:
    """Wrap every layer boundary that the per-layer metrics read."""
    w = tracer.wrap
    w(api.model, "parse_model", "model.parse")
    w(api.certificate, "parse_model", "model.parse")
    w(api.properties, "parse_properties", "properties.parse")
    w(api.certificate, "parse_proof_lines", "prooftree.parse")
    w(api.semantics, "successors", "semantics.successors", _count_successors)
    w(api.fbd, "eval_iterative", "fbd.eval")
    w(api.fbd, "linear_summary", "fbd.summary")
    w(api.obligations, "normalize", "linear.normalize")
    w(api.verifier, "normalize", "linear.normalize")
    w(api.obligations, "build_obligation", "obligations.build",
      _count_obligation)
    w(api.verifier, "decide_sat", "lia.solver.decide", _count_decision)
    w(api.certificate, "replay_witness", "lia.witness.replay", _count_replay)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_metrics(snap: dict, states: int, trace_steps: int,
                  cert_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round: name -> (value, unit)."""
    calls, sec = snap["calls"], snap["seconds"]
    by_op, counts = snap["by_op"], snap["counts"]

    def at(op, name):
        return by_op.get((op, name), 0.0)

    explorations = calls.get("op.explore", 0)
    verify_self = (sec.get("op.verify", 0.0)
                   - at("op.verify", "obligations.build")
                   - at("op.verify", "lia.solver.decide"))
    check_parse = (at("op.check", "model.parse")
                   + at("op.check", "properties.parse")
                   + at("op.check", "prooftree.parse"))
    generated = counts.get("semantics.successors_out.op.explore", 0)
    out = {
        "model.parse_calls": (calls.get("model.parse", 0), "count"),
        "model.parse_ms": (_ms(sec.get("model.parse", 0.0)), "ms"),
        "properties.parse_ms": (_ms(sec.get("properties.parse", 0.0)), "ms"),
        "semantics.successors_calls":
            (calls.get("semantics.successors", 0), "count"),
        "semantics.successors_ms":
            (_ms(sec.get("semantics.successors", 0.0)), "ms"),
        "semantics.states": (states, "count"),
        "semantics.new_state_ratio":
            ((states - explorations) / generated if generated else 0.0,
             "ratio"),
        "semantics.trace_steps": (trace_steps, "count"),
        "fbd.eval_calls": (calls.get("fbd.eval", 0), "count"),
        "fbd.eval_ms": (_ms(sec.get("fbd.eval", 0.0)), "ms"),
        "fbd.summary_calls": (calls.get("fbd.summary", 0), "count"),
        "linear.normalize_calls": (calls.get("linear.normalize", 0), "count"),
        "linear.normalize_ms": (_ms(sec.get("linear.normalize", 0.0)), "ms"),
        "obligations.build_calls":
            (calls.get("obligations.build", 0), "count"),
        "obligations.build_ms": (_ms(sec.get("obligations.build", 0.0)), "ms"),
        "obligations.hyp_cubes":
            (counts.get("obligations.hyp_cubes", 0), "count"),
        "obligations.neg_cubes":
            (counts.get("obligations.neg_cubes", 0), "count"),
        "lia.solver.decide_calls":
            (calls.get("lia.solver.decide", 0), "count"),
        "lia.solver.unsat_calls":
            (counts.get("lia.solver.unsat_calls", 0), "count"),
        "lia.solver.decide_ms": (_ms(sec.get("lia.solver.decide", 0.0)), "ms"),
        "lia.witness.replay_calls":
            (calls.get("lia.witness.replay", 0), "count"),
        "lia.witness.steps": (counts.get("lia.witness.steps", 0), "count"),
        "lia.witness.replay_ms":
            (_ms(sec.get("lia.witness.replay", 0.0)), "ms"),
        "verifier.self_ms": (_ms(verify_self), "ms"),
        "certificate.emit_ms": (_ms(sec.get("op.emit", 0.0)), "ms"),
        "certificate.check_parse_ms": (_ms(check_parse), "ms"),
        "certificate.check_derive_ms":
            (_ms(at("op.check", "obligations.build")), "ms"),
        "certificate.bytes": (cert_bytes, "B"),
    }
    return out
