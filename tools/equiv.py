#!/usr/bin/env python3
"""Equivalence records: what certplc decides on every claim, one JSON line
per claim, and what it explores and simulates on every chart, one JSON line
per chart, so that two source trees can be compared line by line.

    python3 tools/equiv.py record --tree DIR [--fixtures NAME ...]
                                  [--seeds N ...] --out FILE
    python3 tools/equiv.py diff A B

``record`` imports certplc from ``DIR/src`` and nowhere else.  The claims
come from this checkout: every ``.sfc``/``.inv`` pair of ``tests/fixtures``
(or the named ones), the target claims that ``tests/test_certificate.py``
pins whose fixture is among them, and the invariants of the ring, arith
and fanout charts that ``perfbench/families.py`` builds for each seed (none
without ``--seeds``).  A record holds the verdict class, the rule label,
the assignment, the note or reason, the obligation count, the certificate's
SHA-256 and ``check``'s accepted, reason and path.  A chart's explorer
line, whose claim is ``explore/`` and the chart's name, holds the state
count of ``reachable_bounded`` (at the workload's depth, or at
``FIXTURE_DEPTH``), the SHA-256 of its states' ``state_text`` in order,
and the SHA-256 of ``run_trace``'s rule labels and ``state_text``s (the
workload's trace length, or ``FIXTURE_STEPS``) for the priority and fixed
schedulers, which draw nothing, and for the random scheduler at each seed
of ``TRACE_SEEDS``, keyed ``random:SEED``.

``diff`` prints the first 20 claims whose records differ, or that only one
file has, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
WORKLOADS = ("ring", "arith", "fanout")
SHOWN = 20
FIXTURE_DEPTH = 8
FIXTURE_STEPS = 150
TRACE_SEEDS = (1, 2, 3)
# trace record key -> (scheduler, seed)
TRACES = {"priority": ("priority", 1), "fixed": ("fixed", 1),
          **{f"random:{seed}": ("random", seed) for seed in TRACE_SEEDS}}

# claim name -> (fixture, lemma, its arguments after the model), as
# tests/test_certificate.py's target_certificates builds them
TARGETS = {
    "dead_ctx/unreachable": ("dead_ctx", "check_guard_unreachable",
                             ("Dead", ("0 < y",))),
    "loop/determined": ("loop", "check_determined_successor",
                        ("x >= 10 && step(Init)", "Return",
                         ("!step(Init) || !step(Step2)",))),
}


def load_certplc(tree: Path):
    """Import certplc from *tree*/src; raise if it came from elsewhere."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("certplc")
    where = Path(pkg.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"certplc was imported from {where}, not from "
                          f"{src}")
    return pkg


def fixture_charts(api, names):
    for name in names:
        model = api.parse_model((FIXTURES / f"{name}.sfc").read_text())
        yield f"fixture/{name}", model, FIXTURE_DEPTH, FIXTURE_STEPS


def workload_cases(seeds):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        families = importlib.import_module("families")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for workload in WORKLOADS:
        for seed in seeds:
            for mc in families.build(workload, seed):
                yield f"{workload}:{seed}/{mc.name}", mc


def workload_charts(api, seeds):
    for name, mc in workload_cases(seeds):
        yield name, api.parse_model(mc.text), mc.depth, mc.sim_steps


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def explorer_record(api, chart, model, depth, steps) -> dict:
    S = api.semantics
    states = S.reachable_bounded(model, depth, state_budget=1_000_000)
    return {"claim": f"explore/{chart}", "states": len(states),
            "states_sha256": sha256_text(
                "".join(S.state_text(c) + "\n" for c in states)),
            "traces_sha256": {key: sha256_text("".join(
                f"{rule.label()} {S.state_text(c)}\n"
                for rule, c in S.run_trace(model, sched, steps, seed)))
                for key, (sched, seed) in TRACES.items()}}


def fixture_claims(api, names):
    for name in names:
        model = api.parse_model((FIXTURES / f"{name}.sfc").read_text())
        invs = api.parse_properties((FIXTURES / f"{name}.inv").read_text(),
                                    model)
        for inv in invs:
            yield f"fixture/{name}/{inv.name}", model, inv, None


def target_claims(api, names):
    for claim, (name, lemma, args) in TARGETS.items():
        if name not in names:
            continue
        model = api.parse_model((FIXTURES / f"{name}.sfc").read_text())
        if lemma == "check_guard_unreachable":
            step, context = args
            pair = api.check_guard_unreachable(model, step, tuple(
                api.parse_formula_text(c, model) for c in context))
        else:
            trigger, step, context = args
            pair = api.check_determined_successor(
                model, api.parse_formula_text(trigger, model), step,
                tuple(api.parse_formula_text(c, model) for c in context))
        yield f"target/{claim}", model, *pair


def workload_claims(api, seeds):
    for name, mc in workload_cases(seeds):
        model = api.parse_model(mc.text)
        for inv in api.parse_properties(mc.props_text(), model):
            yield f"{name}/{inv.name}", model, inv, None


def record_of(api, claim, model, inv, target) -> dict:
    res = api.verify_invariant(model, inv, target)
    rec = {"claim": claim, "verdict": type(res).__name__}
    if isinstance(res, api.Proved):
        data = api.emit(model, inv, res.tree, target)
        v = api.check(data)
        rec.update(obligations=res.obligations,
                   sha256=hashlib.sha256(data).hexdigest(),
                   check={"accepted": v.accepted, "reason": v.reason,
                          "path": list(v.path)})
    else:
        rec["rule"] = None if res.rule is None else res.rule.label()
        if isinstance(res, api.Refuted):
            rec.update(assignment=res.assignment, note=res.note)
        else:
            rec["reason"] = res.reason
    return rec


def record(args) -> int:
    api = load_certplc(Path(args.tree))
    names = args.fixtures or sorted(p.stem for p in FIXTURES.glob("*.sfc"))
    claims = [*fixture_claims(api, names), *target_claims(api, names),
              *workload_claims(api, args.seeds)]
    charts = [*fixture_charts(api, names), *workload_charts(api, args.seeds)]
    with open(args.out, "w") as out:
        for rec in chain((record_of(api, *c) for c in claims),
                         (explorer_record(api, *c) for c in charts)):
            out.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"{len(claims)} claims and {len(charts)} charts recorded from "
          f"{api.__file__}")
    return 0


def read_records(path) -> dict:
    recs = (json.loads(line) for line in open(path) if line.strip())
    return {r["claim"]: r for r in recs}


def diff(args) -> int:
    a, b = read_records(args.a), read_records(args.b)
    differ = [c for c in dict.fromkeys([*a, *b]) if a.get(c) != b.get(c)]
    for claim in differ[:SHOWN]:
        ra, rb = a.get(claim, {}), b.get(claim, {})
        keys = sorted(k for k in {*ra, *rb} if ra.get(k) != rb.get(k))
        print(f"{claim}: " + "; ".join(
            f"{k}: {ra.get(k)!r} -> {rb.get(k)!r}" for k in keys))
    print(f"{len(differ)} of {len(set(a) | set(b))} claims differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record every claim's outcome")
    rec.add_argument("--tree", required=True,
                     help="source tree whose src/ holds certplc")
    rec.add_argument("--fixtures", nargs="+", metavar="NAME",
                     help="fixture names (default: every fixture)")
    rec.add_argument("--seeds", nargs="*", type=int, default=[],
                     help="workload seeds (default: none)")
    rec.add_argument("--out", required=True)
    rec.set_defaults(run=record)
    dif = sub.add_parser("diff", help="compare two record files")
    dif.add_argument("a")
    dif.add_argument("b")
    dif.set_defaults(run=diff)
    args = ap.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
