"""Chart structure, the rule table and the initial configuration.

The external text format is line oriented with ``#`` comments:

    var x : int16                 # optionally `= LIT`
    step Init [initial]
    action A_Init on Init { x := x + 1; }
    action A_Cnt on Init = fbd F1
    trans {Init} -[ x < 10 ]-> {Step2} [prio 1]
    fbd F1 { ... }                # body grammar in the fbd module

Every action is attached to exactly one step.  Models are normalized and
checked on construction, however built (``parse_model``, the constructor
or ``replace``): variables, steps, actions and diagrams are stored sorted
by name, blocks by id, each guard and assignment carries its comparison
widths, and a chart with any problem raises ParseError naming every one.
So any model evaluates, explores and certifies like its parsed twin,
per-step action lists come out sorted by action id and the canonical
printer (declarations sorted by kind then name, transitions in source
order) round-trips exactly.  Transitions and target lists keep their
declared order, because activation order is observable.

``SfcModel.rules`` states what each rule instance needs and changes, for
the checker and the verifier alike.  Nothing here runs a guard or an
action: ``semantics`` compiles the table for execution.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

from . import expr as E
from . import fbd as F
from .parsing import NAME_RE, ParseError, TokenStream, parse_expression


@dataclass(frozen=True)
class VarDecl:
    name: str
    ty: str
    init: int | None = None  # bools use 0/1

    def initial_value(self) -> int:
        return 0 if self.init is None else self.init


@dataclass(frozen=True)
class ActionBlock:
    id: str
    step: str  # the step the action is attached to
    assigns: tuple[tuple[str, E.Expr], ...] | None = None
    fbd_ref: str | None = None


@dataclass(frozen=True)
class Transition:
    sources: tuple[str, ...]
    guard: E.Expr
    targets: tuple[str, ...]
    priority: int | None = None


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


@dataclass(frozen=True)
class RuleShape:
    """What one rule instance needs of a configuration and what it changes.

    The three rule schemata are stated here once; the concrete semantics
    (``semantics.rule_table``) and the symbolic obligations
    (``obligations.build_obligation``) both read the shape.

    * execute A: A is pending.  A's effect updates memory and every
      occurrence of A leaves the pending list; active steps are untouched.
    * transition: all source steps are active, no action of a source step
      is pending and the guard holds.  Source steps leave the active list
      (order kept) and targets are appended in declared order; the targets'
      actions are prepended to the pending list.  Memory is unchanged.
    * reactivate S: S is active and every guard leaving S is false.  S's
      actions are prepended to the pending list; nothing else changes.
    """

    pending: tuple[str, ...] = ()      # actions that must be pending
    steps: tuple[str, ...] = ()        # steps that must be active
    idle: tuple[str, ...] = ()         # actions that must not be pending
    guards: tuple[E.Expr, ...] = ()    # guards that must hold
    blocked: tuple[E.Expr, ...] = ()   # guards that must all fail
    steps_off: tuple[str, ...] = ()    # steps turned off
    steps_on: tuple[str, ...] = ()     # steps appended, in order
    acts_off: tuple[str, ...] = ()     # actions whose every occurrence leaves
    acts_on: tuple[str, ...] = ()      # actions prepended, in order
    action: str | None = None          # action whose memory effect runs


@dataclass(frozen=True)
class SfcModel:
    vars: tuple[VarDecl, ...]
    steps: tuple[str, ...]
    initial: tuple[str, ...]
    actions: tuple[ActionBlock, ...]
    transitions: tuple[Transition, ...]
    fbds: tuple[F.Fbd, ...] = ()

    def __post_init__(self):
        """Sort the declarations by name, annotate each guard and assignment
        with its comparison widths and check the whole chart: the one place
        canonical order, widths and well-formedness are decided.  Raises
        ParseError naming every problem, joined by ``; ``."""
        for field, key in (("vars", lambda v: v.name), ("steps", None),
                           ("initial", None), ("actions", lambda a: a.id),
                           ("fbds", lambda f: f.name)):
            object.__setattr__(self, field,
                               tuple(sorted(getattr(self, field), key=key)))
        env, out = self.env(), []

        def declare(kind, name, seen):
            if not NAME_RE.match(name):
                out.append(f"bad {kind} name {name!r}")
            if name in seen:
                out.append(f"duplicate {kind} {name!r}")
            seen.add(name)

        # a variable of unknown type is named once, at its declaration:
        # nothing that uses it is typed
        untyped = set()

        def typed(e):
            """*e* annotated and its type, or as it was and its ExprError,
            or as it was and None when it reads an untyped variable."""
            if untyped and not untyped.isdisjoint(E.vars_of(e)):
                return e, None
            try:
                return E.typecheck(e, env)
            except E.ExprError as err:
                return e, err

        var_names, steps, fbds, action_ids = set(), set(), set(), set()
        for v in self.vars:
            declare("variable", v.name, var_names)
            if v.ty not in E.TYPES:
                untyped.add(v.name)
                out.append(f"variable {v.name!r} has unknown type {v.ty!r}")
            elif v.init is not None and not 0 <= v.init <= E.max_of(v.ty):
                out.append(f"initializer of {v.name!r} out of range")
        for s in self.steps:
            declare("step", s, steps)
        if not self.initial:
            out.append("empty initial step set")
        if len(set(self.initial)) != len(self.initial):
            out.append("duplicate initial step")
        for s in self.initial:
            if s not in steps:
                out.append(f"initial step {s!r} not declared")
        for f in self.fbds:
            declare("fbd", f.name, fbds)
            if untyped and not untyped.isdisjoint(b.var for b in f.blocks):
                continue
            try:
                F.validate_fbd(f, env)
            except F.FbdError as err:
                out.append(f"fbd {f.name!r}: {err}")
        actions = []
        for a in self.actions:
            declare("action", a.id, action_ids)
            if a.step not in steps:
                out.append(f"action {a.id!r} attached to unknown step "
                           f"{a.step!r}")
            if (a.assigns is None) == (a.fbd_ref is None):
                out.append(f"action {a.id!r} must have exactly one body")
            elif a.fbd_ref is not None and a.fbd_ref not in fbds:
                out.append(f"action {a.id!r} references unknown fbd "
                           f"{a.fbd_ref!r}")
            if a.assigns is None or a.fbd_ref is not None:
                actions.append(a)
                continue
            assigns = []
            for name, e in a.assigns:
                e, et = typed(e)
                assigns.append((name, e))
                ty = env.get(name)
                if ty is None:
                    out.append(f"action {a.id!r} assigns undeclared "
                               f"variable {name!r}")
                elif et is None or name in untyped:
                    continue
                elif isinstance(et, E.ExprError):
                    out.append(f"action {a.id!r}: {et}")
                elif (ty == "bool") != (et == "bool"):
                    out.append(f"action {a.id!r}: type mismatch assigning "
                               f"{et} to {ty} variable {name!r}")
                # the symbolic effect wraps once, at the target's width, so
                # the right-hand side must compute at that width; an
                # all-literal one has no width and adopts the target's
                elif ty != "bool" and et != ty and E.vars_of(e):
                    out.append(f"action {a.id!r}: width mismatch assigning "
                               f"{et} to {ty} variable {name!r}")
            actions.append(ActionBlock(a.id, a.step, tuple(assigns)))
        transitions = []
        for i, t in enumerate(self.transitions):
            if not t.sources:
                out.append(f"transition {i}: empty source set")
            if not t.targets:
                out.append(f"transition {i}: empty target set")
            if len(set(t.sources)) != len(t.sources):
                out.append(f"transition {i}: duplicate source step")
            if len(set(t.targets)) != len(t.targets):
                out.append(f"transition {i}: duplicate target step")
            for s in t.sources + t.targets:
                if s not in steps:
                    out.append(f"transition {i}: unknown step {s!r}")
            if t.priority is not None and not E.printable(t.priority):
                out.append(f"transition {i}: number too long")
            elif t.priority is not None and t.priority < 0:
                out.append(f"transition {i}: negative priority")
            guard, gt = typed(t.guard)
            if isinstance(gt, E.ExprError):
                out.append(f"transition {i}: {gt}")
            elif gt not in ("bool", None):
                out.append(f"transition {i}: guard is not boolean")
            transitions.append(
                Transition(t.sources, guard, t.targets, t.priority))
        if out:
            raise ParseError("; ".join(out))
        object.__setattr__(self, "actions", tuple(actions))
        object.__setattr__(self, "transitions", tuple(transitions))

    def env(self) -> dict[str, str]:
        return {v.name: v.ty for v in self.vars}

    @cached_property
    def _names(self):
        """Name indexes: action id -> block, fbd name -> diagram, step ->
        its action ids, and fbd name -> program (filled by ``program``)."""
        by_step: dict[str, list[str]] = {}
        for a in self.actions:
            by_step.setdefault(a.step, []).append(a.id)
        return ({a.id: a for a in self.actions},
                {f.name: f for f in self.fbds},
                {s: tuple(ids) for s, ids in by_step.items()}, {})

    def action(self, aid: str) -> ActionBlock:
        return self._names[0][aid]

    def fbd(self, name: str) -> F.Fbd:
        return self._names[1][name]

    def actions_of(self, step: str) -> tuple[str, ...]:
        return self._names[2].get(step, ())

    def action_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.actions)

    def program(self, name: str) -> F.Program:
        """The named diagram, compiled on first use and then kept."""
        programs = self._names[3]
        if name not in programs:
            programs[name] = F.compile_fbd(self.fbd(name), self.env())
        return programs[name]

    @cached_property
    def rules(self) -> dict[RuleInstance, RuleShape]:
        """Every rule instance and its shape, in enumeration order: one
        execute per declared action, one transition per declared
        transition, one reactivation per step."""
        acts_of = self._names[2]
        leaving: dict[str, list[E.Expr]] = {s: [] for s in self.steps}
        for t in self.transitions:
            for s in t.sources:
                leaving[s].append(t.guard)
        table: dict[RuleInstance, RuleShape] = {}
        for a in self.actions:
            table[ExecuteAction(a.id)] = RuleShape(
                pending=(a.id,), acts_off=(a.id,), action=a.id)
        for i, t in enumerate(self.transitions):
            table[StepTransition(i)] = RuleShape(
                steps=t.sources,
                idle=tuple(dict.fromkeys(
                    a for s in t.sources for a in acts_of.get(s, ()))),
                guards=(t.guard,), steps_off=t.sources, steps_on=t.targets,
                acts_on=tuple(a for s in t.targets
                              for a in acts_of.get(s, ())))
        for s in self.steps:
            table[Reactivate(s)] = RuleShape(
                steps=(s,), blocked=tuple(leaving[s]),
                acts_on=acts_of.get(s, ()))
        return table


class SfcState(NamedTuple):
    """A configuration: memory, active step list, pending action list.

    A tuple, so ``semantics`` builds one with ``tuple.__new__`` and reads
    its fields in C; equality and hashing are the structural identity of
    ``key``, not the tuple's.
    """

    mem: dict
    active_steps: tuple[str, ...]
    active_actions: tuple[str, ...]

    def key(self):
        """Structural identity: steps as a list, actions as a multiset."""
        return (tuple(sorted(self.mem.items())), self.active_steps,
                tuple(sorted(self.active_actions)))

    def __eq__(self, other):
        return isinstance(other, SfcState) and self.key() == other.key()

    def __ne__(self, other):  # tuple's own != would compare the fields
        return not self == other

    def __hash__(self):
        return hash(self.key())


def init_state(model: SfcModel) -> SfcState:
    """Defaults (or declared initializers) plus the initial steps, whose
    action lists, concatenated, are the initial pending list."""
    mem = {v.name: v.initial_value() for v in model.vars}
    steps = tuple(model.initial)
    acts = tuple(a for s in steps for a in model.actions_of(s))
    return SfcState(mem, steps, acts)


# --- parsing --------------------------------------------------------------

def parse_model(text: str) -> SfcModel:
    """Parse a model document; the constructor checks the chart."""
    ts = TokenStream(text)
    vars_, steps, initial = [], [], []
    actions, transitions, fbds = [], [], []

    while ts.peek():
        if ts.accept("var"):
            name = ts.ident()
            ts.expect(":")
            ty = ts.ident()
            init = None
            # the literal's kind: a bool reads true or false, any other
            # type a number; the constructor checks its range
            if ts.accept("="):
                if ty != "bool":
                    init = ts.integer()
                elif ts.peek() in ("true", "false"):
                    init = int(ts.next() == "true")
                else:
                    ts.error("boolean initializer must be true or false")
            vars_.append(VarDecl(name, ty, init))
        elif ts.accept("step"):
            name = ts.ident()
            if ts.accept("["):
                ts.expect("initial")
                ts.expect("]")
                initial.append(name)
            steps.append(name)
        elif ts.accept("action"):
            aid = ts.ident()
            ts.expect("on")
            host = ts.ident()
            if ts.accept("="):
                ts.expect("fbd")
                actions.append(ActionBlock(aid, host, fbd_ref=ts.ident()))
            else:
                ts.expect("{")
                assigns = []
                while not ts.accept("}"):
                    target = ts.ident()
                    ts.expect(":=")
                    rhs = parse_expression(ts)
                    ts.expect(";")
                    assigns.append((target, rhs))
                actions.append(ActionBlock(aid, host,
                                           assigns=tuple(assigns)))
        elif ts.accept("trans"):
            sources = _parse_step_set(ts)
            ts.expect("-[")
            guard = parse_expression(ts)
            ts.expect("]->")
            targets = _parse_step_set(ts)
            prio = None
            if ts.accept("["):
                ts.expect("prio")
                prio = ts.integer()
                ts.expect("]")
            transitions.append(Transition(sources, guard, targets, prio))
        elif ts.accept("fbd"):
            name = ts.ident()
            fbds.append(F.parse_fbd(ts, name))
        else:
            ts.expected("declaration")
    return SfcModel(vars_, steps, initial, actions, transitions, fbds)


def _parse_step_set(ts: TokenStream) -> tuple[str, ...]:
    ts.expect("{")
    names = [ts.ident()]
    while ts.accept(","):
        names.append(ts.ident())
    ts.expect("}")
    return tuple(names)


# --- canonical text and digest ---------------------------------------------

def canonical_text(model: SfcModel) -> str:
    lines = []
    for v in model.vars:
        s = f"var {v.name} : {v.ty}"
        if v.init is not None:
            if v.ty == "bool":
                s += " = " + ("true" if v.init else "false")
            else:
                s += f" = {v.init}"
        lines.append(s)
    initial = set(model.initial)
    for s in model.steps:
        lines.append(f"step {s}" + (" [initial]" if s in initial else ""))
    for a in model.actions:
        if a.fbd_ref is not None:
            lines.append(f"action {a.id} on {a.step} = fbd {a.fbd_ref}")
        else:
            body = " ".join(f"{n} := {E.pretty(e)};" for n, e in a.assigns)
            body = f"{{ {body} }}" if a.assigns else "{ }"
            lines.append(f"action {a.id} on {a.step} {body}")
    for f in model.fbds:
        lines.extend(F.fbd_lines(f))
    for t in model.transitions:
        src = ", ".join(t.sources)
        tgt = ", ".join(t.targets)
        s = f"trans {{{src}}} -[ {E.pretty(t.guard)} ]-> {{{tgt}}}"
        if t.priority is not None:
            s += f" [prio {t.priority}]"
        lines.append(s)
    return "\n".join(lines) + "\n"


def text_digest(text: str) -> str:
    """SHA-256 of a canonical model text, as 64 hex digits."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_digest(model: SfcModel) -> str:
    """SHA-256 of the model's canonical text, as 64 hex digits."""
    return text_digest(canonical_text(model))
