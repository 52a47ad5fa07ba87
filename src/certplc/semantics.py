"""Small-step execution, successor enumeration and exploration.

A configuration (``model.SfcState``, a tuple) is (memory, active step list,
pending action list); ``model.init_state`` builds the initial one.  The
execute, transition and reactivate rules are described once, on
``model.RuleShape``.  ``rule_table`` compiles a model's shapes once into
rows whose guards and action effects are ``Evaluator``s: pure functions of
the variables they read, each with a small integer id and its read set.
A guard and an assignment list run as a kernel, a closure built from the
typed syntax tree once per rule table (``_guard_kernel``,
``_effect_kernel``); a diagram action runs ``fbd.eval_iterative``.
One exploration (``reachable_bounded``) or simulation (``run_trace``)
shares a memo keyed by ``(id, values read)``, so each guard and each effect
runs once per distinct input; the memo is dropped on return.  ``apply_rule``
runs one rule instance.  ``expr.eval_expr`` and ``apply_effect`` (one
action's assignment list, the concrete counterpart of
``obligations.effect_summary``) stay the reference interpreters: each
kernel computes what they compute, and the tests compare the two.

A rule has a control half and a memory half.  The control half
(``_control``: pending, active and idle checks; ``_lists``: the successor's
active step and pending lists) reads only the control part, the pair
(active steps, pending actions).  The memory half (guards, blocked guards,
the action's effect and the merge of its writes) reads only memory, and
each row runs it as one row kernel, ``Row.fire``, built with the rule
table (``_row_kernel``).  So which rows a control part enables, and the
lists each one yields, are the same for every memory, and they are
decided once per control part of an exploration or simulation: the
shared memo also maps each control part to its rows (``_enabled``), and
each configuration runs only the row kernels of those.  A part's entry is
its rows on the first visit, which build their lists as they fire; a
second visit replaces it with (row, lists) pairs.  Most parts of a chart
whose pending list piles up are visited once, and keeping their lists
would only cost memory.  The transitions and reactivations a part
enables depend on its active step list alone, but for the transitions'
idle checks, and many parts share a step list; so ``_step_rows`` decides
them once per step list, kept on the rule table (``RuleTable.by_steps``),
and a part adds its pending actions' execute rows and runs the idle
checks.  ``apply_rule`` runs both halves directly, the same row kernel
included.

A row kernel folds what reads no variable.  A constant-true guard and a
constant-false blocked guard are left out of it, and an assignment list
that reads no variable (``valve := 1;``) has its writes computed once, so
none of these is ever looked up in the memo.  A transition whose guard is
constant false, or a reactivation that a constant-true guard blocks, is
dead: it can never fire.  It stays in ``RuleTable.rows``, where
``apply_rule`` reports it with the usual reason, but no enumeration index
lists it, so no enumeration tries it.  Dropping a dead reactivation
is exact under this module's rule that a step does not reactivate while
any guard leaving it is true, whether or not that transition's other
source steps are active; a rule that asked for the whole transition to be
enabled would have to fold only single-source transitions' guards.

Two paths enumerate a configuration's rules, in the same order and from
the same part entries.  ``successors``, the explorer's, builds every
successor.  ``_fired``, one simulation step, fires the same rows and
builds no configuration; ``run_trace`` builds only the one its scheduler
picks.  ``successors`` keeps its own loop rather than running
``_fired`` and then building, which would cost the explorer a second pass
over every configuration's moves.  Both try only what can fire: the rule
table lists each live transition under its first source step, and a
control part tries the transitions listed under its active steps, in
declaration order (a transition fires only when all its sources are
active).  ``reachable_bounded`` dedups on (memory values, active
steps, sorted pending actions), which is ``SfcState.key`` without sorting
memory.  That is exact because every memory of one exploration has the
key order of ``init_state``'s, which is the order of ``model.vars``: an
effect's writes are merged as ``{**mem, **writes}``, which keeps it.
``SfcState.key`` stays the identity between arbitrary configurations.

Nothing here is in the trusted core: the certificate checker reads the rule
table and the initial configuration from ``model`` itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter, eq, ge, gt, itemgetter, le, lt, ne
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
    writes (variable -> value): a kernel built once per rule table, or
    ``fbd.eval_iterative`` for a diagram.  ``value`` memoizes it, since a
    memo hit costs less than even a kernel.  ``id`` is unique within one
    rule table.
    """

    __slots__ = ("id", "reads", "run", "_values")

    def __init__(self, id: int, reads: tuple[str, ...],
                 run: Callable[[E.Memory], object]):
        self.id, self.reads, self.run = id, reads, run
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
    """One rule instance: its shape, and its memory half as one kernel.

    ``fire(mem, memo)`` gives the successor's memory, or why a guard stops
    the rule ("guard is false", "an outgoing transition is enabled"): it
    runs the row's guards, then its blocked guards, then merges the
    action's writes as ``{**mem, **writes}``.  Of a live row, the guards
    that read no variable are left out (each is true, or false if
    blocked), and an assignment list that reads no variable merges writes
    computed when the table was built.  A dead row, which one such guard
    stops, runs its guards as declared and gives that guard's reason.
    Every other guard and effect goes through the ``Evaluator`` memo.
    """

    rule: RuleInstance
    shape: RuleShape
    fire: Callable[[E.Memory, dict], E.Memory | str]


@dataclass(frozen=True, eq=False)
class RuleTable:
    """A model's rows, indexed the ways ``successors`` enumerates them.

    ``rows`` holds every instance, so ``apply_rule`` can run and report a
    dead one; ``leaving`` and ``reactivate`` hold only the live ones, so
    no enumeration tries a row that can never fire.  ``by_steps`` keeps
    each active step list's step-dependent rows (``_step_rows``) once
    they are first asked for: a pure function of the model and the list.
    """

    rows: dict[RuleInstance, Row]   # every instance, as in ``model.rules``
    execute: dict[str, Row]         # action id -> its execute row
    # step -> the live transitions whose first source it is, in
    # declaration order
    leaving: dict[str, tuple[Row, ...]]
    reactivate: dict[str, Row]      # step -> its live reactivation row
    # transition index -> its place in the priority scheduler's order
    # (1 for the first); execute instances come before all (0) and
    # reactivations after all (len + 1)
    priority: tuple[int, ...]
    # active step list -> its step-dependent rows, filled on demand
    by_steps: dict[tuple, tuple] = field(default_factory=dict)


def apply_effect(assigns, m: E.Memory, env: dict[str, str]) -> dict:
    """Run an ordered assignment list on memory *m*, left to right:
    variable -> value it writes.

    Each assignment sees the values written by the previous ones and
    stores its value wrapped at the target's declared type.  The reference
    interpreter of ``_effect_kernel``, which the rule table runs.
    """
    out: dict = {}
    for name, e in assigns:
        # memory as the assignments before this one left it
        view = {**m, **out} if out else m
        out[name] = E.eval_expr(e, view) & E.max_of(env[name])
    return out


# --- compiled kernels -----------------------------------------------------
#
# A guard or an assignment list runs as a closure built from its typed
# syntax tree once per rule table.  ``_kernel`` gives what ``E.eval_expr``
# gives: an int for an expression that reads no variable, so a chain folds
# its constant operands, else a function of memory that runs the operands
# the interpreter runs, in its order, and reads with ``itemgetter``, so a
# missing variable raises a KeyError, which the top-level kernels report
# as the interpreter does.  A comparison's closure gives a bool, which
# equals the interpreter's 0/1 wherever a value is used.

_CMP = {"<": lt, "<=": le, "==": eq, "!=": ne, ">=": ge, ">": gt}


def _unbound(err: KeyError) -> E.ExprError:
    return E.ExprError(f"unbound variable {err.args[0]!r}")


def _const(v: int):
    return lambda m: v


def _kernel(e: E.Expr):
    """``E.eval_expr(e, m)`` for typed *e*: an int when *e* reads no
    variable, else a function of *m*."""
    if isinstance(e, E.Var):
        return itemgetter(e.name)
    if isinstance(e, (E.IntLit, E.BoolLit)):
        return int(e.value)
    if isinstance(e, E.Cmp):
        # both operands wrapped at the annotated width
        op, k = _CMP[e.op], E.max_of(e.width)
        f, g = _kernel(e.lhs), _kernel(e.rhs)
        if isinstance(f, int) and isinstance(g, int):
            return int(op(f & k, g & k))
        if isinstance(g, int):
            g &= k
            return lambda m: op(f(m) & k, g)
        if isinstance(f, int):
            f &= k
            return lambda m: op(f, g(m) & k)
        return lambda m: op(f(m) & k, g(m) & k)
    if isinstance(e, E.Not):
        f = _kernel(e.arg)
        return 1 - f if isinstance(f, int) else lambda m: 1 - f(m)
    if isinstance(e, (E.And, E.Or)):
        return _chain(e)
    if isinstance(e, E.Sum):
        return _sum(e)
    if isinstance(e, E.Prod):
        return _prod(e)
    raise E.ExprError(f"expected integer expression, got {type(e).__name__}")


def _chain(e: E.And | E.Or):
    """An ``&&`` or ``||`` chain, 0/1: the first operand whose truth is
    the chain's decisive value (false for ``&&``) decides it, and the
    operands after it do not run."""
    decisive = isinstance(e, E.Or)
    fs, end = [], int(not decisive)
    for arg in e.args:
        f = _kernel(arg)
        if not isinstance(f, int):
            fs.append(f)
        elif bool(f) is decisive:  # decides unless an earlier operand does
            end = int(decisive)
            break
    if not fs:
        return end
    if decisive:
        def run(m):
            for f in fs:
                if f(m):
                    return 1
            return end
    else:
        def run(m):
            for f in fs:
                if not f(m):
                    return 0
            return end
    return run


def _sum(e: E.Sum):
    """A sum, unwrapped, its constant operands folded into one."""
    c, terms = 0, []
    for arg, sign in zip(e.args, e.signs):
        f = _kernel(arg)
        if isinstance(f, int):
            c += sign * f
        else:
            terms.append((f, sign))
    if not terms:
        return c
    if len(terms) == 1:
        (f, sign), = terms
        if sign < 0:
            return lambda m: c - f(m)
        return f if c == 0 else lambda m: f(m) + c

    def run(m):
        v = c
        for f, sign in terms:
            v += sign * f(m)
        return v
    return run


def _prod(e: E.Prod):
    """A product, unwrapped, its constant operands folded into one."""
    k, fs = 1, []
    for arg in e.args:
        f = _kernel(arg)
        if isinstance(f, int):
            k *= f
        else:
            fs.append(f)
    if not fs:
        return k
    if len(fs) == 1:
        f, = fs
        return f if k == 1 else lambda m: k * f(m)

    def run(m):
        v = k
        for f in fs:
            v *= f(m)
        return v
    return run


def _guard_kernel(g: E.Expr) -> Callable[[E.Memory], int]:
    """``E.eval_expr(g, m)`` as a function of *m*, an unbound variable
    reported as the interpreter reports it."""
    f = _kernel(g)
    if isinstance(f, int):
        return _const(f)

    def run(m):
        try:
            return f(m)
        except KeyError as err:
            raise _unbound(err) from None
    return run


def _effect_kernel(assigns, env: dict[str, str]) -> Callable[[E.Memory],
                                                             dict]:
    """``apply_effect(assigns, m, env)`` as a function of *m*."""
    steps, written = [], set()
    for name, e in assigns:
        f = _kernel(e)
        if isinstance(f, int):
            f = _const(f)
        # an assignment that reads an earlier one's target sees memory
        # as the earlier ones left it; any other sees *m* unchanged
        steps.append((name, f, E.max_of(env[name]),
                      not written.isdisjoint(E.vars_of(e))))
        written.add(name)

    def run(m):
        out = {}
        try:
            for name, f, mask, chained in steps:
                out[name] = f({**m, **out} if chained else m) & mask
        except KeyError as err:
            raise _unbound(err) from None
        return out
    return run


_GUARD_FALSE = "guard is false"
_BLOCKED = "an outgoing transition is enabled"


def _same(mem, memo):
    return mem


def _row_kernel(guards, blocked, effect) -> tuple[Callable, bool]:
    """A row's memory half as one function of (memory, memo), and whether
    the row can ever fire.

    *guards* and *blocked* are ``Evaluator``s, run in order; *effect* is a
    function of (memory, memo) giving the successor's memory, or None for
    a rule that writes nothing.  A guard that reads no variable is decided
    here: a row that one stops runs its guards unfolded (only
    ``apply_rule`` runs it), and a live row leaves the constant ones out.
    """
    finish = effect or _same
    fires = (all(ev.run({}) for ev in guards if not ev.reads)
             and not any(ev.run({}) for ev in blocked if not ev.reads))
    if fires:
        guards = [ev for ev in guards if ev.reads]
        blocked = [ev for ev in blocked if ev.reads]
        if not guards and not blocked:
            return finish, True
        if effect is None and len(guards) + len(blocked) == 1:
            if guards:
                g = guards[0].value
                return (lambda mem, memo:
                        mem if g(mem, memo) else _GUARD_FALSE), True
            b = blocked[0].value
            return (lambda mem, memo:
                    _BLOCKED if b(mem, memo) else mem), True
    gs = [ev.value for ev in guards]
    bs = [ev.value for ev in blocked]

    def fire(mem, memo):
        for g in gs:
            if not g(mem, memo):
                return _GUARD_FALSE
        for b in bs:
            if b(mem, memo):
                return _BLOCKED
        return finish(mem, memo)
    return fire, fires


def _compile(model: SfcModel) -> RuleTable:
    env = model.env()
    ids = count()
    # keyed by value: typecheck annotates equal guards alike in one model
    guards: dict[E.Expr, Evaluator] = {}

    def guard(g):
        ev = guards.get(g)
        if ev is None:
            ev = guards[g] = Evaluator(next(ids), tuple(sorted(E.vars_of(g))),
                                       _guard_kernel(g))
        return ev

    def effect(a):
        """Action *a*'s effect as a function of (memory, memo) giving the
        successor's memory."""
        if a.fbd_ref is not None:
            # compiled once per model; runs go through the module's
            # eval_iterative
            p = model.program(a.fbd_ref)
            reads = tuple(dict.fromkeys(v for _, v, _ in p.reads))

            def run(m):
                return F.eval_iterative(p, m)
        else:
            reads = tuple(sorted(set().union(
                *(E.vars_of(e) for _, e in a.assigns))))
            run = _effect_kernel(a.assigns, env)
            if not reads:  # constant writes, computed once
                writes = run({})
                return lambda mem, memo: {**mem, **writes}
        value = Evaluator(next(ids), reads, run).value
        return lambda mem, memo: {**mem, **value(mem, memo)}

    effects = {a.id: effect(a) for a in model.actions}
    rows: dict[RuleInstance, Row] = {}
    leaving: dict[str, tuple[Row, ...]] = {}
    reactivate: dict[str, Row] = {}
    for rule, r in model.rules.items():
        fire, live = _row_kernel(
            tuple(map(guard, r.guards)), tuple(map(guard, r.blocked)),
            None if r.action is None else effects[r.action])
        row = rows[rule] = Row(rule, r, fire)
        if not live:
            continue
        if isinstance(rule, StepTransition):
            first = r.steps[0]
            leaving[first] = leaving.get(first, ()) + (row,)
        elif isinstance(rule, Reactivate):
            reactivate[rule.step] = row
    ts = model.transitions
    by_priority = sorted(range(len(ts)), key=lambda i: (
        ts[i].priority is None, ts[i].priority or 0, i))
    priority = [0] * len(ts)
    for place, i in enumerate(by_priority, 1):
        priority[i] = place
    return RuleTable(
        rows,
        {r.action: row for r, row in rows.items()
         if isinstance(r, ExecuteAction)},
        leaving, reactivate, tuple(priority))


def rule_table(model: SfcModel) -> RuleTable:
    """The model's compiled rule table, built on first use and then kept on
    the model object, the way ``functools.cached_property`` keeps a value."""
    table = model.__dict__.get("_rule_table")
    if table is None:
        table = model.__dict__["_rule_table"] = _compile(model)
    return table


def _control(r: RuleShape, steps: tuple, acts: tuple) -> tuple | None:
    """The first requirement of rule shape *r* that active steps *steps*
    and pending actions *acts* fail, as (message template, name), or None:
    the control half of a rule, which reads no memory.  Only
    ``apply_rule`` formats the message."""
    for a in r.pending:
        if a not in acts:
            return "action {!r} is not pending", a
    for s in r.steps:
        if s not in steps:
            return "step {!r} inactive", s
    for a in r.idle:
        if a in acts:
            return "action {!r} still pending", a
    return None


def _lists(r: RuleShape, steps: tuple, acts: tuple) -> tuple:
    """The successor's (active steps, pending actions) under *r*."""
    # an unchanged list is shared with the predecessor, not copied
    # (concatenating an empty tuple returns the other operand)
    if r.steps_off:
        steps = tuple([s for s in steps if s not in r.steps_off])
    if r.acts_off:
        acts = tuple([a for a in acts if a not in r.acts_off])
    return steps + r.steps_on, r.acts_on + acts


def apply_rule(model: SfcModel, c: SfcState, rule: RuleInstance) -> SfcState:
    """Successor of *c* under *rule*, as its ``RuleShape`` describes;
    raises NotApplicable when the rule is not enabled in *c*."""
    row = rule_table(model).rows[rule]
    mem, steps, acts = c
    unmet = _control(row.shape, steps, acts)
    if unmet is not None:
        template, name = unmet
        raise NotApplicable(template.format(name))
    mem = row.fire(mem, {})
    if isinstance(mem, str):
        raise NotApplicable(mem)
    return _state(SfcState, (mem,) + _lists(row.shape, steps, acts))


def _step_rows(t: RuleTable, steps: tuple) -> tuple:
    """The rows that active step list *steps* enables whatever actions
    are pending, as (transitions, reactivations).

    *transitions* pairs each live transition listed under an active step
    whose sources are all active, in index order, with the actions that
    must not be pending for it to fire (its idle check).
    *reactivations* are the live reactivations of the active steps, in
    step order.
    """
    if len(steps) == 1:
        listed = t.leaving.get(steps[0], ())
    else:
        # a step may be active twice; each transition is tried once
        listed = sorted({row for s in steps
                         for row in t.leaving.get(s, ())},
                        key=attrgetter("rule.index"))
    transitions = tuple((row, frozenset(row.shape.idle)) for row in listed
                        if all(s in steps for s in row.shape.steps))
    return transitions, tuple(t.reactivate[s] for s in steps
                              if s in t.reactivate)


def _enabled(t: RuleTable, steps: tuple, acts: tuple) -> tuple[Row, ...]:
    """The rows that control part (*steps*, *acts*) enables, in enumeration
    order: execute rows of pending actions (first occurrence order), the
    transitions listed under active steps that pass ``_control``, and
    live reactivations of active steps.

    The transitions and reactivations depend on *steps* alone but for the
    transitions' idle checks, so ``_step_rows`` decides them once per
    step list of the rule table, and a part adds its pending actions'
    execute rows and runs the idle checks.  An execute row asks only that
    its action be pending, and a reactivation only that its step be
    active.  A dead row is in no index this reads, so it is never listed.
    """
    try:
        transitions, reactivations = t.by_steps[steps]
    except KeyError:
        transitions, reactivations = t.by_steps[steps] = \
            _step_rows(t, steps)
    # one pending action is its own first occurrence
    rows = list(map(t.execute.__getitem__,
                    acts if len(acts) < 2 else dict.fromkeys(acts)))
    rows.extend([row for row, idle in transitions if idle.isdisjoint(acts)])
    rows.extend(reactivations)
    return tuple(rows)


def successors(model: SfcModel, c: SfcState, memo: dict | None = None):
    """Enabled (rule, successor) pairs in enumeration order: execute
    instances of pending actions (first occurrence order), transitions in
    declaration order, and reactivations of active steps.

    *memo* holds ``Evaluator`` results, keyed by ``(id, values read)``,
    and each control part's entry, keyed by ``(active steps, pending
    actions)``; calls within one exploration share it, and a fresh one is
    used when it is None.
    """
    if memo is None:
        memo = {}
    mem, steps, acts = c
    part = c[1:]
    out = []
    moves = memo.get(part)
    if moves is None:
        # first visit: the rows alone, each building its lists as it fires
        moves = memo[part] = _enabled(rule_table(model), steps, acts)
        for row in moves:
            m2 = row.fire(mem, memo)
            if not isinstance(m2, str):
                out.append((row.rule, _state(SfcState, (m2,) + _lists(
                    row.shape, steps, acts))))
        return out
    if isinstance(moves, tuple):
        # a second visit: the tuple of rows becomes a list of (row, lists)
        moves = memo[part] = [(row, _lists(row.shape, steps, acts))
                              for row in moves]
    for row, lists in moves:
        m2 = row.fire(mem, memo)
        if not isinstance(m2, str):
            out.append((row.rule, _state(SfcState, (m2,) + lists)))
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
                # a pending list of fewer than two actions is sorted
                k = (tuple(mem.values()), steps,
                     acts if len(acts) < 2 else tuple(sorted(acts)))
                if k not in seen:
                    seen.add(k)
                    states.append(c2)
                    nxt.append(c2)
                    if len(states) > state_budget:
                        raise BudgetExceeded(states)
        frontier = nxt
    return states


def _fired(t: RuleTable, c: SfcState, memo: dict) -> list:
    """The rows of *t* that fire in *c*, in enumeration order, as
    (row, lists, memory) triples: the successor's memory, and its
    (active steps, pending actions) or None where they are not built yet.

    One simulation step: the control part's entry in *memo* is the one
    ``successors`` keeps, so a part's first visit lists its rows and
    gives None for every row's lists, and a later visit gives the
    (row, lists) pairs that its second visit builds.  Only the row a
    scheduler picks needs its lists and its configuration built.
    """
    mem, steps, acts = c
    part = c[1:]
    out = []
    moves = memo.get(part)
    if moves is None:
        moves = memo[part] = _enabled(t, steps, acts)
        for row in moves:
            m2 = row.fire(mem, memo)
            if not isinstance(m2, str):
                out.append((row, None, m2))
        return out
    if isinstance(moves, tuple):
        moves = memo[part] = [(row, _lists(row.shape, steps, acts))
                              for row in moves]
    for row, lists in moves:
        m2 = row.fire(mem, memo)
        if not isinstance(m2, str):
            out.append((row, lists, m2))
    return out


def _priority_key(t: RuleTable):
    """The priority scheduler's order on ``_fired`` triples: execute
    instances, then transitions by ascending priority then declaration
    order (transitions without a priority last), then reactivations."""
    places, last = t.priority, len(t.priority) + 1

    def key(move):
        rule = move[0].rule
        if isinstance(rule, StepTransition):
            return places[rule.index]
        return 0 if isinstance(rule, ExecuteAction) else last
    return key


def run_trace(model: SfcModel, scheduler: str = "priority",
              max_steps: int = 100, seed: int = 0):
    """Deterministic simulation; returns [(rule, state-after)] pairs.

    priority: the first enabled rule by ``_priority_key``, ties (execute
    and reactivate instances) in enumeration order, so pending actions in
    pending order and reactivations in active step order.  fixed: first
    enabled rule in enumeration order.  random: uniform choice among
    enabled rules, driven by the seed.  An unknown scheduler name raises
    ValueError before any rule runs.

    Each step runs ``_fired``, which fires every row the configuration
    enables, as ``successors`` does, and then builds the one successor
    the scheduler picks.
    """
    rng = random.Random(seed)
    t = rule_table(model)
    key = _priority_key(t)
    pick = {
        "priority": lambda moves: min(moves, key=key),
        "fixed": itemgetter(0),
        "random": lambda moves: moves[rng.randrange(len(moves))],
    }.get(scheduler)
    if pick is None:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    c = init_state(model)
    trace = []
    memo: dict = {}
    for _ in range(max_steps):
        moves = _fired(t, c, memo)
        if not moves:
            break
        row, lists, mem = pick(moves)
        if lists is None:
            lists = _lists(row.shape, c[1], c[2])
        c = _state(SfcState, (mem,) + lists)
        trace.append((row.rule, c))
    return trace
