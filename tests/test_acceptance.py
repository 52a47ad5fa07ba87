"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance and time bound is asserted, not just printed.
"""

import random
import re
import time

import numpy as np

from certplc import certificate as C
from certplc import expr as E
from certplc import fbd as F
from certplc import properties as P
from certplc import verifier as V
from certplc.lia.solver import Sat, Unsat, decide_sat
from certplc.lia.witness import replay_witness
from certplc.linear import LinCon
from certplc.model import model_digest, parse_model
from certplc.semantics import (StepTransition, apply_effect,
                               reachable_bounded, successors)

from conftest import fixture_names, load_invariants, load_model, states_of


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_loop_fidelity():
    t0 = time.perf_counter()
    model = load_model("loop")
    states = reachable_bounded(model, 40)
    xs = [s.mem["x"] for s in states]
    return_xs = {s.mem["x"] for s in states
                 if "Return" in s.active_steps}
    elapsed = time.perf_counter() - t0
    ok = max(xs) == 10 and return_xs == {10} and elapsed < 1.0
    report(1, ok, f"max(x)={max(xs)}, Return at x={sorted(return_xs)}, "
                  f"{len(states)} states in {elapsed:.3f}s")


def test_criterion_2_declared_actions_lemma():
    worst = 0.0
    for name in fixture_names():
        t0 = time.perf_counter()
        model = load_model(name)
        inv = P.Invariant("actions_declared", P.Within(
            "action", tuple(sorted(model.action_ids()))))
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved), name
        verdict = C.check(C.emit(model, inv, res.tree))
        assert verdict.accepted, name
        worst = max(worst, time.perf_counter() - t0)
    report(2, worst < 5.0,
           f"{len(fixture_names())} fixtures, worst {worst:.3f}s")


def test_criterion_3_positive_invariant():
    model = load_model("hold_positive")
    inv = next(i for i in load_invariants("hold_positive", model)
               if i.name == "y_positive")
    res = V.verify_invariant(model, inv)
    proved = isinstance(res, V.Proved)
    confirmed = all(P.holds_on(inv.formula, s)
                    for s in reachable_bounded(model, 30))
    cert_ok = proved and C.check(C.emit(model, inv, res.tree)).accepted
    report(3, proved and confirmed and cert_ok,
           f"verify={'Proved' if proved else res}, explorer depth 30 "
           f"confirms={confirmed}, certificate accepted={cert_ok}")


def test_criterion_4_soundness_suite():
    checked = proved = 0
    violations = []
    names = fixture_names()
    assert len(names) >= 10
    for name in names:
        model = load_model(name)
        invs = load_invariants(name, model)
        assert len(invs) >= 3, name
        states = states_of(model, 25, 20_000)
        for inv in invs:
            checked += 1
            res = V.verify_invariant(model, inv)
            if isinstance(res, V.Proved):
                proved += 1
                bad = [s for s in states if not P.holds_on(inv.formula, s)]
                if bad:
                    violations.append((name, inv.name))
    report(4, not violations,
           f"{len(names)} models, {checked} properties, {proved} proved, "
           f"{len(violations)} oracle violations")


# --- criterion 5: decider versus exhaustive enumeration ---------------------

_WIDTH = 4
_NAMES = ("x", "y", "z")


def _bounded(cons, names):
    hi = (1 << _WIDTH) - 1
    out = list(cons)
    for v in names:
        out.append(LinCon(((v, -1),), "<=", 0))
        out.append(LinCon(((v, 1),), "<=", hi))
    return tuple(out)


def _random_cons(rng, names, n):
    out = []
    for _ in range(n):
        coeffs = {v: rng.randint(-3, 3) for v in names}
        coeffs = {v: c for v, c in coeffs.items() if c}
        if not coeffs:
            continue
        rel = "==" if rng.random() < 0.2 else "<="
        out.append(LinCon(tuple(sorted(coeffs.items())), rel,
                          rng.randint(-8, 40)))
    return out


def _grid(names):
    side = 1 << _WIDTH
    cols = np.meshgrid(*[np.arange(side)] * len(names), indexing="ij")
    return {v: c.reshape(-1) for v, c in zip(names, cols)}


def _cube_mask(cube, grid, n):
    mask = np.ones(n, dtype=bool)
    for con in cube:
        lhs = np.zeros(n, dtype=np.int64)
        for v, c in con.coeffs:
            lhs += c * grid[v]
        mask &= (lhs <= con.rhs) if con.rel == "<=" else (lhs == con.rhs)
    return mask


def test_criterion_5_decider_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    grid = _grid(_NAMES)
    n = len(grid["x"])
    mismatches = replay_failures = 0

    for _ in range(500):
        names = _NAMES[:rng.randint(1, 3)]
        cube = _bounded(_random_cons(rng, names, rng.randint(1, 4)), names)
        res = decide_sat(cube)
        brute = bool(_cube_mask(cube, grid, n).any())
        if isinstance(res, Sat) != brute:
            mismatches += 1
        if isinstance(res, Unsat) and not replay_witness(cube, res.witness):
            replay_failures += 1

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and replay_failures == 0 and elapsed < 30.0
    report(5, ok, f"500 cubes at width {_WIDTH}: "
                  f"{mismatches} mismatches, {replay_failures} replay "
                  f"failures, {elapsed:.2f}s")


# --- criterion 6: certificate tamper resistance ------------------------------

def _base_certificates():
    out = []
    for name, inv_name in (("loop", "x_capped_ind"),
                           ("hold_positive", "y_positive"),
                           ("fbd_counter", "out_small")):
        model = load_model(name)
        inv = next(i for i in load_invariants(name, model)
                   if i.name == inv_name)
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        out.append(C.emit(model, inv, res.tree).decode())
    return out


def _refresh_digest(text):
    try:
        body = text.split("--- model\n", 1)[1].split("--- property", 1)[0]
        model = parse_model(body)
    except Exception:
        return text  # unparsable model: leave the digest alone
    return re.sub(r"digest: [0-9a-f]{64}",
                  f"digest: {model_digest(model)}", text, count=1)


def _mutate(rng, text):
    kind = rng.randrange(5)
    lines = text.split("\n")
    if kind == 0:  # tweak an integer literal anywhere, then fix the digest
        spots = [(i, m) for i, ln in enumerate(lines)
                 for m in re.finditer(r"\d+", ln) if "digest" not in ln]
        if not spots:
            return None
        i, m = spots[rng.randrange(len(spots))]
        new = str(max(0, int(m.group()) + rng.choice((-2, -1, 1, 2, 7))))
        lines[i] = lines[i][:m.start()] + new + lines[i][m.end():]
        return _refresh_digest("\n".join(lines))
    if kind == 1:  # corrupt a witness step line
        spots = [i for i, ln in enumerate(lines)
                 if ln.startswith(("combine ", "tighten ", "split "))]
        if not spots:
            return None
        i = rng.choice(spots)
        m = list(re.finditer(r"-?\d+", lines[i]))
        pick = m[rng.randrange(len(m))]
        lines[i] = (lines[i][:pick.start()]
                    + str(int(pick.group()) + rng.choice((-1, 1, 5)))
                    + lines[i][pick.end():])
        return "\n".join(lines)
    if kind == 2:  # prune a proof line
        start = lines.index("--- proof") + 1
        if start >= len(lines) - 1:
            return None
        del lines[rng.randrange(start, len(lines) - 1)]
        return "\n".join(lines)
    if kind == 3:  # rewrite a property constant
        spots = [i for i, ln in enumerate(lines)
                 if ln.startswith("invariant ")]
        i = spots[0]
        m = list(re.finditer(r"\d+", lines[i]))
        if not m:
            return None
        pick = m[rng.randrange(len(m))]
        lines[i] = (lines[i][:pick.start()]
                    + str(max(0, int(pick.group()) + rng.choice((-3, -1, 1))))
                    + lines[i][pick.end():])
        return "\n".join(lines)
    # kind == 4: flip a digest nibble
    m = re.search(r"digest: ([0-9a-f]{64})", text)
    pos = rng.randrange(64)
    digest = m.group(1)
    repl = "0" if digest[pos] != "0" else "f"
    return text[:m.start(1)] + digest[:pos] + repl + digest[pos + 1:] + \
        text[m.end(1):]


def test_criterion_6_tamper_resistance():
    t0 = time.perf_counter()
    rng = random.Random(6)
    bases = _base_certificates()
    attempts = accepted_sound = unsound = rejected = 0
    while attempts < 120:
        text = bases[attempts % len(bases)]
        mutated = _mutate(rng, text)
        if mutated is None or mutated == text:
            continue
        attempts += 1
        verdict = C.check(mutated.encode())
        if not verdict.accepted:
            rejected += 1
            continue
        # accepted: the property must genuinely hold on the embedded model
        body = mutated.split("--- model\n", 1)[1].split("--- property", 1)[0]
        model = parse_model(body)
        prop_text = mutated.split("--- property\n", 1)[1] \
            .split("--- proof", 1)[0].strip()
        inv = P.parse_properties(prop_text, model)[0]
        if all(P.holds_on(inv.formula, s) for s in states_of(model, 25)):
            accepted_sound += 1
        else:
            unsound += 1
    elapsed = time.perf_counter() - t0
    ok = unsound == 0 and attempts >= 100 and elapsed < 60.0
    report(6, ok, f"{attempts} mutations: {rejected} rejected, "
                  f"{accepted_sound} accepted-and-true, {unsound} unsound, "
                  f"{elapsed:.2f}s")


def test_criterion_7_library_lemmas():
    # unreachable step under a context invariant, re-proved in the
    # certificate together with the step's unreachability
    model = load_model("dead_ctx")
    ctx = P.parse_formula_text("0 < y", model)
    ctx_res = V.verify_invariant(model, P.Invariant("ctx", ctx))
    assert isinstance(ctx_res, V.Proved)
    inv, target = V.check_guard_unreachable(model, "Dead", context=(ctx,))
    res = V.verify_invariant(model, inv, target)
    unreachable_ok = isinstance(res, V.Proved) and C.check(
        C.emit(model, inv, res.tree, target)).accepted
    explorer_ok = all("Dead" not in s.active_steps
                      for s in reachable_bounded(model, 30))

    # the exit trigger admits exactly one successor step
    loop = load_model("loop")
    mutex = P.parse_formula_text("!step(Init) || !step(Step2)", loop)
    assert isinstance(V.verify_invariant(loop, P.Invariant("m", mutex)),
                      V.Proved)
    trigger = P.parse_formula_text("x >= 10 && step(Init)", loop)
    inv, target = V.check_determined_successor(loop, trigger, "Return",
                                               context=(mutex,))
    det = V.verify_invariant(loop, inv, target)
    det_ok = isinstance(det, V.Proved) and C.check(
        C.emit(loop, inv, det.tree, target)).accepted
    det_oracle = True
    for s in reachable_bounded(loop, 40):
        if P.holds_on(trigger, s):
            fired = [loop.transitions[r.index].targets
                     for r, _ in successors(loop, s)
                     if isinstance(r, StepTransition)]
            det_oracle &= bool(fired) and all(t == ("Return",)
                                              for t in fired)
    ok = unreachable_ok and explorer_ok and det_ok and det_oracle
    report(7, ok, f"unreachable={'certified' if unreachable_ok else res}/"
                  f"oracle={explorer_ok}, determined="
                  f"{'certified' if det_ok else det}/oracle={det_oracle}")


def test_criterion_8_fbd_equivalence():
    inc_model = load_model("fbd_inc")
    inc_env = inc_model.env()
    inc_prog = F.compile_fbd(inc_model.fbd("FInc"), inc_env)
    inc_oracle = [("x", E.Sum((E.Var("x"), E.IntLit(1)), (1, 1)))]
    cnt_model = load_model("fbd_counter")
    cnt_env = cnt_model.env()
    cnt_prog = F.compile_fbd(cnt_model.fbd("FCnt"), cnt_env)
    cnt_oracle = [("out", E.IntLit(3))]
    bad = 0
    for v in range(16):  # the full width-4 domain
        m = {"x": v}
        if F.eval_iterative(inc_prog, m) != \
                apply_effect(inc_oracle, m, inc_env):
            bad += 1
        m = {"out": v}
        if F.eval_iterative(cnt_prog, m) != \
                apply_effect(cnt_oracle, m, cnt_env):
            bad += 1
    report(8, bad == 0, f"increment and 3-step counter match their "
                        f"assignment oracles on 16 points each, "
                        f"{bad} mismatches")
