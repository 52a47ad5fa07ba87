"""Small-step execution, successor enumeration and exploration.

A configuration (``model.SfcState``) is (memory, pending action list, active
step list); ``model.init_state`` builds the initial one.  The execute,
transition and reactivate rules are described once, on ``model.RuleShape``;
``apply_rule`` runs a rule instance by reading its shape from the model's
rule table.  Nothing here is in the trusted core: the certificate checker
reads the rule table and the initial configuration from ``model`` itself.
"""

from __future__ import annotations

import random
from itertools import islice

from . import expr as E
from .model import (ExecuteAction, Reactivate, RuleInstance, SfcModel,
                    SfcState, StepTransition, init_state)


class NotApplicable(Exception):
    """The requested rule instance is not enabled in this configuration."""


class BudgetExceeded(Exception):
    """State budget ran out; `partial` holds what was explored."""

    def __init__(self, partial):
        self.partial = partial
        super().__init__(f"state budget exceeded after {len(partial)} states")


def state_text(s: SfcState) -> str:
    """Canonical serialization: memory keys sorted, actions sorted."""
    mem = ",".join(f"{k}={v}" for k, v in sorted(s.mem.items()))
    steps = ",".join(s.active_steps)
    acts = ",".join(sorted(s.active_actions))
    return f"mem{{{mem}}} steps[{steps}] acts[{acts}]"


def rule_instances(model: SfcModel, c: SfcState):
    """The rule instances that may apply in *c*, in the fixed enumeration
    order: execute instances of pending actions (first occurrence order),
    every transition, and reactivations of active steps.  Every instance of
    the model is in ``model.rules``.
    """
    out: list[RuleInstance] = [ExecuteAction(a)
                               for a in dict.fromkeys(c.active_actions)]
    # the table's own transition keys: apply_rule then finds each by
    # identity, without building and comparing a fresh instance
    n = len(model.actions)
    out.extend(islice(model.rules, n, n + len(model.transitions)))
    out.extend(Reactivate(s) for s in c.active_steps)
    return out


def apply_rule(model: SfcModel, c: SfcState, rule: RuleInstance) -> SfcState:
    """Successor of *c* under *rule*, as its ``RuleShape`` describes;
    raises NotApplicable when the rule is not enabled in *c*."""
    r = model.rules[rule]
    acts = c.active_actions
    for a in r.pending:
        if a not in acts:
            raise NotApplicable(f"action {a!r} is not pending")
    for s in r.steps:
        if s not in c.active_steps:
            raise NotApplicable(f"step {s!r} inactive")
    for a in r.idle:
        if a in acts:
            raise NotApplicable(f"action {a!r} still pending")
    for g in r.guards:
        if not E.eval_expr(g, c.mem):
            raise NotApplicable("guard is false")
    for g in r.blocked:
        if E.eval_expr(g, c.mem):
            raise NotApplicable("an outgoing transition is enabled")
    mem = c.mem if r.action is None else model.effects[r.action](c.mem)
    # an unchanged list is shared with the predecessor, not copied
    # (concatenating an empty tuple returns the other operand)
    steps = c.active_steps
    if r.steps_off:
        steps = tuple(s for s in steps if s not in r.steps_off)
    if r.acts_off:
        acts = tuple(a for a in acts if a not in r.acts_off)
    return SfcState(mem, steps + r.steps_on, r.acts_on + acts)


def successors(model: SfcModel, c: SfcState):
    """Enabled (rule, successor) pairs in enumeration order."""
    out = []
    for rule in rule_instances(model, c):
        try:
            out.append((rule, apply_rule(model, c, rule)))
        except NotApplicable:
            pass
    return out


def reachable_bounded(model: SfcModel, depth: int, *,
                      state_budget: int = 100_000) -> list[SfcState]:
    """Breadth-first closure up to `depth` rule applications, deduplicated."""
    start = init_state(model)
    seen = {start.key()}
    states = [start]
    frontier = [start]
    for _ in range(depth):
        if not frontier:
            break
        nxt = []
        for c in frontier:
            for _, c2 in successors(model, c):
                k = c2.key()
                if k not in seen:
                    seen.add(k)
                    states.append(c2)
                    nxt.append(c2)
                    if len(states) > state_budget:
                        raise BudgetExceeded(states)
        frontier = nxt
    return states


def _priority_key(model: SfcModel, index: int):
    t = model.transitions[index]
    return (t.priority is None, t.priority or 0, index)


def run_trace(model: SfcModel, scheduler: str = "priority",
              max_steps: int = 100, seed: int = 0):
    """Deterministic simulation; returns [(rule, state-after)] pairs.

    priority: pending actions first (pending order), then enabled
    transitions by ascending priority then declaration order (transitions
    without a priority come last), then reactivation in active step order.
    fixed: first enabled rule in enumeration order.  random: uniform choice
    among enabled rules, driven by the seed.
    """
    rng = random.Random(seed)
    c = init_state(model)
    trace = []
    for _ in range(max_steps):
        succ = successors(model, c)
        if not succ:
            break
        if scheduler == "fixed":
            rule, c = succ[0]
        elif scheduler == "random":
            rule, c = succ[rng.randrange(len(succ))]
        elif scheduler == "priority":
            execs = [(r, s) for r, s in succ if isinstance(r, ExecuteAction)]
            trans = [(r, s) for r, s in succ if isinstance(r, StepTransition)]
            reacts = [(r, s) for r, s in succ if isinstance(r, Reactivate)]
            if execs:
                rule, c = execs[0]
            elif trans:
                rule, c = min(trans,
                              key=lambda p: _priority_key(model, p[0].index))
            else:
                rule, c = reacts[0]
        else:
            raise ValueError(f"unknown scheduler {scheduler!r}")
        trace.append((rule, c))
    return trace
