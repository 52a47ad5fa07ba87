"""Small-step execution rules, successor enumeration and exploration.

A configuration is (memory, active action list, active step list).  Three
rule schemata produce successors:

* execute: an active action block updates memory and every occurrence of
  that block leaves the active list; active steps are untouched.
* transition: fires when all source steps are active, the guard holds and
  no action block of a source step is still pending.  Source steps are
  filtered out of the active list (order preserved) and targets appended in
  declared order; the targets' action blocks are prepended to the pending
  list.  Memory is unchanged.
* reactivate: an active step whose outgoing guards are all false re-enqueues
  its action blocks.  Only the pending list changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

from . import expr as E
from . import fbd as F
from .model import SfcModel


class NotApplicable(Exception):
    """The requested rule instance is not enabled in this configuration."""


class BudgetExceeded(Exception):
    """State budget ran out; `partial` holds what was explored."""

    def __init__(self, partial):
        self.partial = partial
        super().__init__(f"state budget exceeded after {len(partial)} states")


@dataclass(frozen=True, eq=False)
class SfcState:
    mem: dict
    active_steps: tuple[str, ...]
    active_actions: tuple[str, ...]

    def key(self):
        """Structural identity: steps as a list, actions as a multiset."""
        return (tuple(sorted(self.mem.items())), self.active_steps,
                tuple(sorted(self.active_actions)))

    def __eq__(self, other):
        return isinstance(other, SfcState) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


@dataclass(frozen=True)
class ExecuteAction:
    action: str

    def label(self) -> str:
        return f"exec:{self.action}"


@dataclass(frozen=True)
class StepTransition:
    index: int

    def label(self) -> str:
        return f"trans:{self.index}"


@dataclass(frozen=True)
class Reactivate:
    step: str

    def label(self) -> str:
        return f"react:{self.step}"


RuleInstance = Union[ExecuteAction, StepTransition, Reactivate]


def state_text(s: SfcState) -> str:
    """Canonical serialization: memory keys sorted, actions sorted."""
    mem = ",".join(f"{k}={v}" for k, v in sorted(s.mem.items()))
    steps = ",".join(s.active_steps)
    acts = ",".join(sorted(s.active_actions))
    return f"mem{{{mem}}} steps[{steps}] acts[{acts}]"


def init_state(model: SfcModel, init_actions: str = "from-steps") -> SfcState:
    """Defaults (or declared initializers) plus the initial steps.

    With ``init_actions="from-steps"`` the initial pending list is the
    concatenation of the initial steps' action lists; ``"empty"`` starts
    with nothing pending.
    """
    mem = {v.name: v.initial_value() for v in model.vars}
    steps = tuple(model.initial)
    if init_actions == "from-steps":
        acts = tuple(a for s in steps for a in model.actions_of(s))
    elif init_actions == "empty":
        acts = ()
    else:
        raise ValueError(f"unknown init_actions mode {init_actions!r}")
    return SfcState(mem, steps, acts)


def _effect_of(model: SfcModel, aid: str):
    a = model.action(aid)
    env = model.env()
    if a.fbd_ref is not None:
        return F.fbd_to_action(model.fbd(a.fbd_ref), env)
    assigns = a.assigns

    def effect(m):
        return E.apply_effect(assigns, m, env)
    return effect


def execute_action(model: SfcModel, c: SfcState, aid: str) -> SfcState:
    if aid not in c.active_actions:
        raise NotApplicable(f"action {aid!r} is not pending")
    mem = _effect_of(model, aid)(c.mem)
    remaining = tuple(a for a in c.active_actions if a != aid)
    return SfcState(mem, c.active_steps, remaining)


def _guard_true(model: SfcModel, t, mem) -> bool:
    return bool(E.eval_expr(t.guard, mem))


def step_transition(model: SfcModel, c: SfcState, index: int) -> SfcState:
    t = model.transitions[index]
    for s in t.sources:
        if s not in c.active_steps:
            raise NotApplicable(f"source step {s!r} inactive")
    if not _guard_true(model, t, c.mem):
        raise NotApplicable("guard is false")
    pending = set(c.active_actions)
    for s in t.sources:
        for aid in model.actions_of(s):
            if aid in pending:
                raise NotApplicable(
                    f"action {aid!r} of source step {s!r} still pending")
    src = set(t.sources)
    steps = tuple(s for s in c.active_steps if s not in src) + t.targets
    new_acts = tuple(a for s in t.targets for a in model.actions_of(s))
    return SfcState(c.mem, steps, new_acts + c.active_actions)


def reactivate(model: SfcModel, c: SfcState, step: str) -> SfcState:
    if step not in c.active_steps:
        raise NotApplicable(f"step {step!r} inactive")
    for i, t in enumerate(model.transitions):
        if step in t.sources and _guard_true(model, t, c.mem):
            raise NotApplicable(f"outgoing transition {i} is enabled")
    acts = tuple(model.actions_of(step)) + c.active_actions
    return SfcState(c.mem, c.active_steps, acts)


def rule_instances(model: SfcModel, c: SfcState | None = None):
    """All rule instances, in the fixed enumeration order.

    With a configuration, execute instances are restricted to pending
    actions (first occurrence order); otherwise one per declared action.
    """
    out: list[RuleInstance] = []
    if c is None:
        out.extend(ExecuteAction(a.id) for a in model.actions)
    else:
        seen = set()
        for aid in c.active_actions:
            if aid not in seen:
                seen.add(aid)
                out.append(ExecuteAction(aid))
    out.extend(StepTransition(i) for i in range(len(model.transitions)))
    steps = model.steps if c is None else c.active_steps
    out.extend(Reactivate(s) for s in steps)
    return out


def apply_rule(model: SfcModel, c: SfcState, rule: RuleInstance) -> SfcState:
    if isinstance(rule, ExecuteAction):
        return execute_action(model, c, rule.action)
    if isinstance(rule, StepTransition):
        return step_transition(model, c, rule.index)
    if isinstance(rule, Reactivate):
        return reactivate(model, c, rule.step)
    raise TypeError(f"not a rule instance: {rule!r}")


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
                      state_budget: int = 100_000,
                      init_actions: str = "from-steps") -> list[SfcState]:
    """Breadth-first closure up to `depth` rule applications, deduplicated."""
    start = init_state(model, init_actions)
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
              max_steps: int = 100, seed: int = 0,
              init_actions: str = "from-steps"):
    """Deterministic simulation; returns [(rule, state-after)] pairs.

    priority: pending actions first (pending order), then enabled
    transitions by ascending priority then declaration order (transitions
    without a priority come last), then reactivation in active step order.
    fixed: first enabled rule in enumeration order.  random: uniform choice
    among enabled rules, driven by the seed.
    """
    rng = random.Random(seed)
    c = init_state(model, init_actions)
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
