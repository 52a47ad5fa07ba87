#!/usr/bin/env python3
"""certplc benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; certplc is imported from its
``src/`` directory and nowhere else.  The run generates the workload's
charts and invariants from the seed, sets up (import, generation, parse)
several times, then makes a fixed number of whole rounds over the corpus
(fewer if the next round would end after ``--seconds``).  A round
verifies every invariant, emits and re-checks every certificate, explores
and simulates every chart.  The first round also checks every output
against the generator's verdicts, the reachable states and the
independent enumerator.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, the round times scaled to the reference host
speed that the probe measures; with ``--trace 1`` the layer boundaries are
wrapped (see tracing.py) and the metrics are the per-layer ones, taken
per round.  A summary for people goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import families as FAM
import oracle
import tracing

SRC = Path(__file__).resolve().parent.parent / "src"
# set-ups before the first round; one more follows every round, so that
# the samples spread over the run's host phases (the median is reported)
SETUP_REPEATS = 4
# rounds per run, round 0 included; fixed so that every commit averages
# each item over the same number of samples.  Each count keeps a run near
# 32 s on a shared two-vCPU virtual machine, so that --seconds (an upper
# limit) leaves room for a slow phase of 20 %.
ROUNDS = {"ring": 5, "arith": 5, "fanout": 7}
# round 0 is neither measured nor traced, so a run makes at least one more
MIN_ROUNDS = 2
# the random scheduler's seed: fixed, so every run simulates the same paths
SIM_SEED = 1
STATE_BUDGET = 1_000_000
# fanout charts small enough to re-enumerate in oracle.py
ORACLE_MAX_BRANCHES = 3
# The host-speed probe: a fixed enumeration by oracle.py, which runs no
# certplc code, timed PROBE_REPEATS times after every chart of every
# measured round.  On a shared virtual machine the speed drifts by 10-30 %
# between runs for minutes at a time; the end-to-end times of the rounds
# are therefore scaled to a host on which the probe takes PROBE_REF_S
# (README.md, "Why").
# Set-up is not scaled: its samples fall between rounds, and scaling them
# widened their spread.
PROBE = FAM.FanoutShape(2, 8, 2, (0, 1), ("F", "B0", "B1", "J"),
                        ("A0", "A1", "R"))
PROBE_DEPTH = 7
PROBE_REPEATS = 4
PROBE_REF_S = 1e-3
MODULES = ("model", "properties", "semantics", "fbd", "obligations",
           "verifier", "certificate")


def load_certplc() -> SimpleNamespace:
    """Import certplc afresh from this checkout's src/ directory."""
    for name in [n for n in sys.modules
                 if n == "certplc" or n.startswith("certplc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("certplc")
    where = Path(pkg.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"certplc was imported from {where}, "
                          f"not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"certplc.{m}")
                              for m in MODULES})


def parse_case(api, mc: FAM.ModelCase):
    model = api.model.parse_model(mc.text)
    invs = api.properties.parse_properties(mc.props_text(), model)
    if [i.name for i in invs] != [i.name for i in mc.invariants]:
        raise ValueError(f"{mc.name}: invariants parsed out of order")
    return model, invs


def probe() -> float:
    """One probe time; no garbage collection of certplc's heap inside it."""
    gc.disable()
    try:
        t0 = perf_counter()
        oracle.fanout_state_count(PROBE, PROBE_DEPTH)
        return perf_counter() - t0
    finally:
        gc.enable()


def setup(workload: str, seed: int):
    """Import, corpus generation, parse and validation; one timed pass."""
    t0 = perf_counter()
    api = load_certplc()
    cases = FAM.build(workload, seed)
    corpus = [(mc,) + parse_case(api, mc) for mc in cases]
    return perf_counter() - t0, api, corpus


class Bench:
    def __init__(self, workload: str, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.setup_s = []
        for _ in range(SETUP_REPEATS):
            # the last set-up's modules and corpus are the ones measured
            dt, self.api, self.corpus = setup(workload, seed)
            self.setup_s.append(dt)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.verify_s: dict = {}
        self.check_s: dict = {}
        self.explore_s: dict = {}
        self.simulate_s: dict = {}
        self.certs: dict = {}
        self.states: dict = {}
        self.steps: dict = {}
        self.cert_bytes = 0
        self.round_s: list[float] = []
        self.snaps: list[dict] = []     # tracer totals of each traced round
        self.probe_s: list[float] = []

    def sample_setup(self):
        """Time one more set-up; its modules and corpus are not used."""
        self.setup_s.append(setup(self.workload, self.seed)[0])

    # -- bookkeeping ----------------------------------------------------------

    def expect(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failed check fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def timed(self, op: str, fn, *args, **kwargs):
        tracer = self.tracer
        t0 = perf_counter()
        if tracer is not None:
            out = tracer.op(op, fn, *args, **kwargs)
        else:
            out = fn(*args, **kwargs)
        return perf_counter() - t0, out

    # -- one round ------------------------------------------------------------

    def round(self, first: bool) -> int:
        """One pass over the corpus; returns the certificate bytes emitted."""
        cert_bytes = 0
        t_round = perf_counter()
        for mc, model, invs in self.corpus:
            for ic, inv in zip(mc.invariants, invs):
                cert_bytes += self.guarded(f"{mc.name}/{ic.name}",
                                           self.prove, mc, model, ic, inv,
                                           first) or 0
            self.guarded(mc.name, self.run_chart, mc, model, invs, first)
            if not first:
                self.probe_s += [probe() for _ in range(PROBE_REPEATS)]
        self.round_s.append(perf_counter() - t_round)
        return cert_bytes

    def guarded(self, what: str, fn, *args):
        """Run one item's operations; an exception fails the operation."""
        try:
            return fn(*args)
        except Exception:  # a fault in certplc must not end the run
            self.expect(False, f"{what}: raised\n{traceback.format_exc()}")
            return None

    def prove(self, mc, model, ic, inv, first: bool) -> int:
        """Verify one invariant; emit and check its certificate if proved."""
        api = self.api
        key = (mc.name, ic.name)
        dt, res = self.timed("op.verify", api.verifier.verify_invariant,
                             model, inv)
        self.verify_s.setdefault(key, []).append(dt)
        verdict = type(res).__name__
        if (not self.expect(verdict == ic.expected,
                            f"{key}: {verdict}, expected {ic.expected}")
                or verdict != FAM.PROVED):
            return 0
        _, cert = self.timed("op.emit", api.certificate.emit, model, inv,
                             res.tree)
        if first:
            self.certs[key] = cert
        else:
            self.expect(cert == self.certs[key],
                        f"{key}: certificate bytes changed")
        dt, checked = self.timed("op.check", api.certificate.check, cert)
        self.check_s.setdefault(key, []).append(dt)
        self.expect(checked.accepted,
                    f"{key}: certificate rejected: {checked.reason}")
        return len(cert)

    def run_chart(self, mc, model, invs, first: bool):
        """Parse the chart again, explore it and simulate it."""
        api = self.api
        _, (again, _) = self.timed("op.parse", parse_case, api, mc)
        dt, states = self.timed("op.explore", api.semantics.reachable_bounded,
                                model, mc.depth, state_budget=STATE_BUDGET)
        self.explore_s.setdefault(mc.name, []).append(dt)
        self.expect(self.states.setdefault(mc.name, len(states))
                    == len(states), f"{mc.name}: state count changed")
        dt, trace = self.timed("op.simulate", api.semantics.run_trace, model,
                               "random", mc.sim_steps, SIM_SEED)
        self.simulate_s.setdefault(mc.name, []).append(dt)
        self.steps[mc.name] = len(trace)
        self.expect(len(trace) == mc.sim_steps,
                    f"{mc.name}: trace stopped after {len(trace)} steps")
        if first:
            self.expect(api.model.canonical_text(again)
                        == api.model.canonical_text(model),
                        f"{mc.name}: parse is not deterministic")
            self.check_outputs(mc, model, invs, states)

    def check_outputs(self, mc, model, invs, states):
        """Soundness, rejection and enumeration checks of one chart."""
        api = self.api
        for ic, inv in zip(mc.invariants, invs):
            holds = all(api.properties.holds_on(inv.formula, s)
                        for s in states)
            self.expect(holds == ic.holds,
                        f"{mc.name}/{ic.name}: holds on explored states is "
                        f"{holds}, expected {ic.holds}")
        false_texts = [api.properties.invariant_text(inv)
                       for ic, inv in zip(mc.invariants, invs) if not ic.holds]
        proved = [ic.name for ic in mc.invariants if ic.expected == FAM.PROVED]
        for i, name in enumerate(proved):
            cert = self.certs.get((mc.name, name))
            if cert is None:
                continue  # its verdict already failed
            forged = swap_property(cert, false_texts[i % len(false_texts)])
            verdict = api.certificate.check(forged)
            self.expect(not verdict.accepted,
                        f"{mc.name}/{name}: forged certificate accepted")
        shape = mc.fanout
        if shape is not None and shape.branches <= ORACLE_MAX_BRANCHES:
            want = oracle.fanout_state_count(shape, mc.depth)
            self.expect(want == len(states),
                        f"{mc.name}: {len(states)} states, the independent "
                        f"enumeration finds {want}")

    # -- the measured loop ----------------------------------------------------

    def run(self, seconds: float):
        """ROUNDS whole rounds, fewer if the next would end after `seconds`."""
        t0 = perf_counter()
        self.cert_bytes = self.round(first=True)
        self.sample_setup()
        if self.tracer is not None:
            tracing.install(self.tracer, self.api)
        try:
            while True:
                elapsed = perf_counter() - t0
                per_round = elapsed / len(self.round_s)
                if (len(self.round_s) >= ROUNDS[self.workload]
                        or (len(self.round_s) >= MIN_ROUNDS
                            and elapsed + per_round > seconds)):
                    break
                if self.tracer is not None:
                    self.tracer.reset()
                self.round(first=False)
                if self.tracer is not None:
                    self.snaps.append(self.tracer.snapshot())
                self.sample_setup()
        finally:
            if self.tracer is not None:
                self.tracer.restore()


def swap_property(cert: bytes, prop_line: str) -> bytes:
    """The certificate with its property line replaced."""
    lines = cert.decode("utf-8").split("\n")
    at = lines.index("--- property") + 1
    lines[at] = prop_line
    return "\n".join(lines).encode("utf-8")


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def typical(ts: list[float]) -> float:
    """An item's mean time over the measured rounds; round 0 warms up."""
    return statistics.fmean(ts[1:])


def host_scale(b: Bench) -> float:
    """Factor from this run's host speed to the reference speed."""
    return PROBE_REF_S / statistics.fmean(b.probe_s)


def end_to_end(b: Bench, setup_s: float) -> dict:
    """The end-to-end metrics; round times are scaled by host_scale."""
    scale = host_scale(b)
    verify = [typical(ts) * scale for ts in b.verify_s.values()]
    check = [typical(ts) * scale for ts in b.check_s.values()]
    explore = sum(typical(b.explore_s[n]) for n in b.states) * scale
    simulate = sum(typical(b.simulate_s[n]) for n in b.steps) * scale
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "verdict_ms_p50": (statistics.median(verify) * 1e3, "ms"),
        "verdict_ms_p90": (p90(verify) * 1e3, "ms"),
        "check_ms_p50": (statistics.median(check) * 1e3, "ms"),
        "check_ms_p90": (p90(check) * 1e3, "ms"),
        "cert_kib": (b.cert_bytes / 1024, "KiB"),
        "explore_states_per_s": (sum(b.states.values()) / explore, "1/s"),
        "simulate_steps_per_s": (sum(b.steps.values()) / simulate, "1/s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }


def per_layer(b: Bench) -> dict:
    """Median over the traced rounds; the work counts repeat exactly."""
    rounds = [tracing.layer_metrics(snap, sum(b.states.values()),
                                    sum(b.steps.values()), b.cert_bytes)
              for snap in b.snaps]
    return {name: (statistics.median(r[name][0] for r in rounds), unit)
            for name, (_, unit) in rounds[0].items()}


def summary(b: Bench, setup_s: float) -> str:
    lines = [f"rounds {len(b.round_s)}, round median "
             f"{statistics.median(b.round_s[1:]):.3f}s "
             f"(first {b.round_s[0]:.3f}s), setup median {setup_s:.3f}s, "
             f"{len(b.verify_s)} invariants, {len(b.check_s)} certificates, "
             f"{sum(b.states.values())} states, {sum(b.steps.values())} "
             f"trace steps, probe mean {statistics.fmean(b.probe_s) * 1e3:.3f}"
             f" ms (host scale {host_scale(b):.3f})",
             "round times " + " ".join(f"{t:.2f}" for t in b.round_s),
             "set-up times " + " ".join(f"{t:.3f}" for t in b.setup_s)]
    if not b.snaps:
        return "\n".join(lines)

    def ms(op, span=None):
        return statistics.median(
            (s["by_op"].get((op, span), 0.0) if span
             else s["seconds"].get(op, 0.0)) for s in b.snaps) * 1e3

    def share(op, *spans):
        whole = ms(op)
        parts = ", ".join(f"{sp} {ms(op, sp) / whole:.0%}" for sp in spans)
        return f"{op} {whole:.0f} ms: {parts}"

    lines.append("traced round, median of " + str(len(b.snaps)))
    lines.append(share("op.verify", "obligations.build", "linear.normalize",
                       "lia.solver.decide"))
    lines.append(share("op.check", "model.parse", "properties.parse",
                       "prooftree.parse", "obligations.build",
                       "lia.witness.replay"))
    lines.append(share("op.explore", "semantics.successors", "fbd.eval"))
    lines.append(share("op.simulate", "semantics.successors", "fbd.eval"))
    lines.append(f"op.emit {ms('op.emit'):.0f} ms, op.parse "
                 f"{ms('op.parse'):.0f} ms")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ROUNDS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "certplc" / "__init__.py").is_file():
        print(f"perfbench: no certplc sources in {SRC}; run it from a "
              f"certplc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = tracing.Tracer() if args.trace else None
    bench = Bench(args.workload, args.seed, tracer)
    bench.run(args.seconds)
    setup_s = statistics.median(bench.setup_s)
    metrics = per_layer(bench) if args.trace else end_to_end(bench, setup_s)
    print(summary(bench, setup_s), file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
