"""Small-step execution, successor enumeration and exploration.

A configuration (``model.SfcState``, a tuple) is (memory, active step list,
pending action list); ``model.init_state`` builds the initial one.  The
execute, transition and reactivate rules are described once, on
``model.RuleShape``.  ``rule_table`` compiles a model's shapes once into
rows whose guards and action effects are ``Evaluator``s: pure functions of
the variables they read, each with a small integer id and its read set.
One exploration (``reachable_bounded``) or simulation (``run_trace``)
shares a memo keyed by ``(id, values read)``, so each guard and each effect
runs once per distinct input; the memo is dropped on return.  ``apply_rule``
runs one rule instance, and ``apply_effect`` one action's assignment list,
the concrete counterpart of ``obligations.effect_summary``.

``successors`` is the one enumeration path, and it tries only what can
fire: the rule table lists each transition under its first source step,
and a configuration tries the transitions listed under its active steps,
in declaration order (a transition fires only when all its sources are
active).  ``reachable_bounded`` dedups on (memory values, active steps,
sorted pending actions), which is ``SfcState.key`` without sorting memory.
That is exact because every memory of one exploration has the key order
of ``init_state``'s, which is the order of ``model.vars``: an effect's
writes are merged as ``{**mem, **writes}``, which keeps it.
``SfcState.key`` stays the identity between arbitrary configurations.

Nothing here is in the trusted core: the certificate checker reads the rule
table and the initial configuration from ``model`` itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import chain, count
from operator import attrgetter, itemgetter
from typing import Callable

from . import expr as E
from . import fbd as F
from .linear import LimitExceeded
from .model import (ExecuteAction, Reactivate, RuleInstance, RuleShape,
                    SfcModel, SfcState, StepTransition, init_state)


_state = tuple.__new__  # builds an SfcState without NamedTuple's __new__


class NotApplicable(Exception):
    """The requested rule instance is not enabled in this configuration."""


class BudgetExceeded(LimitExceeded):
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


class Evaluator:
    """A guard, or an action's memory effect, as a pure function of the
    variables it reads.

    ``run(mem)`` gives a guard's value (0/1), or the values an action
    writes as a dict over ``writes``.  ``id`` is unique within one rule
    table.
    """

    __slots__ = ("id", "reads", "writes", "run", "_values")

    def __init__(self, id: int, reads: tuple[str, ...],
                 writes: tuple[str, ...], run: Callable[[E.Memory], object]):
        self.id, self.reads, self.writes, self.run = id, reads, writes, run
        # the values read: one value for one variable, else a tuple
        self._values = itemgetter(*reads) if reads else lambda m: ()

    def value(self, mem: E.Memory, memo: dict):
        """``run(mem)``, run once per distinct ``(id, values read)`` key
        of *memo*."""
        try:
            key = self.id, self._values(mem)
        except KeyError:  # an unbound variable, which run reports
            return self.run(mem)
        try:
            return memo[key]
        except KeyError:
            out = memo[key] = self.run(mem)
            return out


@dataclass(frozen=True, eq=False)
class Row:
    """One rule instance: its shape, with guards and action compiled."""

    rule: RuleInstance
    shape: RuleShape
    guards: tuple[Evaluator, ...]
    blocked: tuple[Evaluator, ...]
    action: Evaluator | None


@dataclass(frozen=True, eq=False)
class RuleTable:
    """A model's rows, indexed the ways ``successors`` enumerates them."""

    rows: dict[RuleInstance, Row]   # every instance, as in ``model.rules``
    execute: dict[str, Row]         # action id -> its execute row
    # step -> the transitions whose first source it is, in declaration order
    leaving: dict[str, tuple[Row, ...]]
    reactivate: dict[str, Row]      # step -> its reactivation row


def apply_effect(assigns, m: E.Memory, env: dict[str, str]) -> E.Memory:
    """Apply an ordered assignment list to memory, left to right.

    Each assignment sees the updates made by the previous ones and stores
    its value wrapped at the target's declared type.  The result is a fresh
    memory; the input is not modified.
    """
    out = dict(m)
    for name, e in assigns:
        out[name] = E.eval_expr(e, out) & E.max_of(env[name])
    return out


def _writes_of(run, writes):
    """Restrict a memory-to-memory effect to the values it writes."""
    def written(m):
        out = run(m)
        return {v: out[v] for v in writes}
    return written


def _compile(model: SfcModel) -> RuleTable:
    env = model.env()
    ids = count()
    # keyed by value: typecheck annotates equal guards alike in one model
    guards: dict[E.Expr, Evaluator] = {}

    def guard(g):
        ev = guards.get(g)
        if ev is None:
            ev = guards[g] = Evaluator(next(ids), tuple(sorted(E.vars_of(g))),
                                       (), partial(E.eval_expr, g))
        return ev

    def action(a):
        if a.fbd_ref is not None:
            # compiled once per model; runs go through the module's
            # eval_iterative
            p = model.program(a.fbd_ref)
            reads = tuple(dict.fromkeys(v for _, v, _ in p.reads))
            writes = tuple(v for v, _, _ in p.writes)

            def run(m):
                return F.eval_iterative(p, m)
        else:
            reads = tuple(sorted(set().union(
                *(E.vars_of(e) for _, e in a.assigns))))
            writes = tuple(dict.fromkeys(v for v, _ in a.assigns))
            run = partial(apply_effect, a.assigns, env=env)
        return Evaluator(next(ids), reads, writes, _writes_of(run, writes))

    effects = {a.id: action(a) for a in model.actions}
    rows = {rule: Row(rule, r, tuple(map(guard, r.guards)),
                      tuple(map(guard, r.blocked)),
                      None if r.action is None else effects[r.action])
            for rule, r in model.rules.items()}
    leaving: dict[str, tuple[Row, ...]] = {}
    for r, row in rows.items():
        if isinstance(r, StepTransition):
            first = row.shape.steps[0]
            leaving[first] = leaving.get(first, ()) + (row,)
    return RuleTable(
        rows,
        {r.action: row for r, row in rows.items()
         if isinstance(r, ExecuteAction)},
        leaving,
        {r.step: row for r, row in rows.items() if isinstance(r, Reactivate)})


def rule_table(model: SfcModel) -> RuleTable:
    """The model's compiled rule table, built on first use and then kept on
    the model object, the way ``functools.cached_property`` keeps a value."""
    table = model.__dict__.get("_rule_table")
    if table is None:
        table = model.__dict__["_rule_table"] = _compile(model)
    return table


def _fire(row: Row, c: SfcState, memo: dict) -> SfcState | str:
    """Successor of *c* under *row*'s rule, or why the rule is not enabled
    in *c*."""
    r = row.shape
    mem, steps, acts = c
    for a in r.pending:
        if a not in acts:
            return f"action {a!r} is not pending"
    for s in r.steps:
        if s not in steps:
            return f"step {s!r} inactive"
    for a in r.idle:
        if a in acts:
            return f"action {a!r} still pending"
    for g in row.guards:
        if not g.value(mem, memo):
            return "guard is false"
    for g in row.blocked:
        if g.value(mem, memo):
            return "an outgoing transition is enabled"
    if row.action is not None:
        mem = {**mem, **row.action.value(mem, memo)}
    # an unchanged list is shared with the predecessor, not copied
    # (concatenating an empty tuple returns the other operand)
    if r.steps_off:
        steps = tuple([s for s in steps if s not in r.steps_off])
    if r.acts_off:
        acts = tuple([a for a in acts if a not in r.acts_off])
    return _state(SfcState, (mem, steps + r.steps_on, r.acts_on + acts))


def apply_rule(model: SfcModel, c: SfcState, rule: RuleInstance) -> SfcState:
    """Successor of *c* under *rule*, as its ``RuleShape`` describes;
    raises NotApplicable when the rule is not enabled in *c*."""
    out = _fire(rule_table(model).rows[rule], c, {})
    if isinstance(out, str):
        raise NotApplicable(out)
    return out


def successors(model: SfcModel, c: SfcState, memo: dict | None = None):
    """Enabled (rule, successor) pairs in enumeration order: execute
    instances of pending actions (first occurrence order), transitions in
    declaration order, and reactivations of active steps.

    Only the transitions whose first source step is active are tried: the
    others cannot fire.  *memo* holds ``Evaluator`` results; calls within
    one exploration share it, and a fresh one is used when it is None.
    """
    t = rule_table(model)
    if memo is None:
        memo = {}
    steps = c.active_steps
    if len(steps) == 1:
        transitions = t.leaving.get(steps[0], ())
    else:
        # a step may be active twice; each transition is tried once
        transitions = sorted({row for s in steps
                              for row in t.leaving.get(s, ())},
                             key=attrgetter("rule.index"))
    out = []
    for row in chain(map(t.execute.__getitem__,
                         dict.fromkeys(c.active_actions)),
                     transitions,
                     map(t.reactivate.__getitem__, steps)):
        c2 = _fire(row, c, memo)
        if not isinstance(c2, str):
            out.append((row.rule, c2))
    return out


def reachable_bounded(model: SfcModel, depth: int, *,
                      state_budget: int = 100_000) -> list[SfcState]:
    """Breadth-first closure up to `depth` rule applications, deduplicated."""
    start = init_state(model)
    # SfcState.key without sorting memory: every memory here has
    # init_state's key order (an effect's writes update keys in place)
    mem, steps, acts = start
    seen = {(tuple(mem.values()), steps, tuple(sorted(acts)))}
    states = [start]
    frontier = [start]
    memo: dict = {}
    for _ in range(depth):
        if not frontier:
            break
        nxt = []
        for c in frontier:
            for _, c2 in successors(model, c, memo):
                mem, steps, acts = c2
                k = (tuple(mem.values()), steps, tuple(sorted(acts)))
                if k not in seen:
                    seen.add(k)
                    states.append(c2)
                    nxt.append(c2)
                    if len(states) > state_budget:
                        raise BudgetExceeded(states)
        frontier = nxt
    return states


def _priority_rank(model: SfcModel, rule: RuleInstance) -> tuple:
    """The priority scheduler's order: execute instances, then transitions
    by ascending priority then declaration order (transitions without a
    priority last), then reactivations."""
    if isinstance(rule, StepTransition):
        t = model.transitions[rule.index]
        return (1, t.priority is None, t.priority or 0, rule.index)
    return (0,) if isinstance(rule, ExecuteAction) else (2,)


def run_trace(model: SfcModel, scheduler: str = "priority",
              max_steps: int = 100, seed: int = 0):
    """Deterministic simulation; returns [(rule, state-after)] pairs.

    priority: the first enabled rule by ``_priority_rank``, ties (execute
    and reactivate instances) in enumeration order, so pending actions in
    pending order and reactivations in active step order.  fixed: first
    enabled rule in enumeration order.  random: uniform choice among
    enabled rules, driven by the seed.  An unknown scheduler name raises
    ValueError before any rule runs.
    """
    rng = random.Random(seed)
    pick = {
        "priority": lambda succ: min(
            succ, key=lambda p: _priority_rank(model, p[0])),
        "fixed": itemgetter(0),
        "random": lambda succ: succ[rng.randrange(len(succ))],
    }.get(scheduler)
    if pick is None:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    c = init_state(model)
    trace = []
    memo: dict = {}
    for _ in range(max_steps):
        succ = successors(model, c, memo)
        if not succ:
            break
        rule, c = pick(succ)
        trace.append((rule, c))
    return trace
