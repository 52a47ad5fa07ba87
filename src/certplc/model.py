"""Chart structure: steps, transitions, action blocks, variables.

The external text format is line oriented with ``#`` comments:

    var x : int16                 # optionally `= LIT` and/or `[time]`
    step Init [initial]
    action A_Init on Init { x := x + 1; }
    action A_Cnt on Init = fbd F1
    trans {Init} -[ x < 10 ]-> {Step2} [prio 1]
    fbd F1 { ... }                # body grammar in the fbd module

Models are normalized on construction: variables, steps and actions are
stored sorted by name and per-step action lists sorted by action id, so the
canonical printer (declarations sorted by kind then name, transitions in
source order) round-trips exactly.  Transitions keep their declared order;
target lists keep their declared order because step activation order is
observable.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from . import expr as E
from . import fbd as F
from .parsing import ParseError, TokenStream, lex, parse_expression

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_KEYWORDS = {"var", "step", "action", "trans", "fbd", "true", "false",
             "on", "time", "initial", "prio", "block", "timeslice"}


@dataclass(frozen=True)
class VarDecl:
    name: str
    ty: str
    is_time: bool = False
    init: int | None = None  # bools use 0/1

    def initial_value(self) -> int:
        return 0 if self.init is None else self.init


@dataclass(frozen=True)
class ActionBlock:
    id: str
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
    (``semantics.apply_rule``) and the symbolic obligations
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
    step_actions: tuple[tuple[str, tuple[str, ...]], ...]  # step -> action ids
    transitions: tuple[Transition, ...]
    fbds: tuple[F.Fbd, ...] = ()

    def env(self) -> dict[str, str]:
        return {v.name: v.ty for v in self.vars}

    def action(self, aid: str) -> ActionBlock:
        for a in self.actions:
            if a.id == aid:
                return a
        raise KeyError(aid)

    def fbd(self, name: str) -> F.Fbd:
        for f in self.fbds:
            if f.name == name:
                return f
        raise KeyError(name)

    def actions_of(self, step: str) -> tuple[str, ...]:
        for s, acts in self.step_actions:
            if s == step:
                return acts
        return ()

    def action_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.actions)

    @cached_property
    def rules(self) -> dict[RuleInstance, RuleShape]:
        """Every rule instance and its shape, in enumeration order: one
        execute per declared action, one transition per declared
        transition, one reactivation per step."""
        acts_of = dict(self.step_actions)
        leaving: dict[str, list[E.Expr]] = {s: [] for s in self.steps}
        for t in self.transitions:
            for s in t.sources:
                leaving.setdefault(s, []).append(t.guard)
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


def _normalized(vars, steps, initial, actions, step_actions, transitions,
                fbds) -> SfcModel:
    return SfcModel(
        vars=tuple(sorted(vars, key=lambda v: v.name)),
        steps=tuple(sorted(steps)),
        initial=tuple(sorted(initial)),
        actions=tuple(sorted(actions, key=lambda a: a.id)),
        step_actions=tuple(sorted((s, tuple(sorted(acts)))
                                  for s, acts in step_actions)),
        transitions=tuple(transitions),
        fbds=tuple(sorted(fbds, key=lambda f: f.name)),
    )


# --- validation -----------------------------------------------------------

def validate(model: SfcModel) -> list[str]:
    """Well-formedness report; empty means the model is usable."""
    out = []
    env = {}
    for v in model.vars:
        if not IDENT_RE.match(v.name):
            out.append(f"bad variable name {v.name!r}")
        if v.name in env:
            out.append(f"duplicate variable {v.name!r}")
        env[v.name] = v.ty
        if v.ty not in E.TYPES:
            out.append(f"variable {v.name!r} has unknown type {v.ty!r}")
            continue
        if v.is_time and v.ty == "bool":
            out.append(f"time flag on boolean variable {v.name!r}")
        if v.init is not None and not 0 <= v.init <= E.max_of(v.ty):
            out.append(f"initializer of {v.name!r} out of range")

    steps = set()
    for s in model.steps:
        if not IDENT_RE.match(s):
            out.append(f"bad step name {s!r}")
        if s in steps:
            out.append(f"duplicate step {s!r}")
        steps.add(s)
    if not model.initial:
        out.append("empty initial step set")
    for s in model.initial:
        if s not in steps:
            out.append(f"initial step {s!r} not declared")

    fbd_names = set()
    for f in model.fbds:
        if f.name in fbd_names:
            out.append(f"duplicate fbd {f.name!r}")
        fbd_names.add(f.name)
        try:
            F.validate_fbd(f, env)
        except F.FbdError as err:
            out.append(f"fbd {f.name!r}: {err}")

    action_ids = set()
    for a in model.actions:
        if not IDENT_RE.match(a.id):
            out.append(f"bad action name {a.id!r}")
        if a.id in action_ids:
            out.append(f"duplicate action {a.id!r}")
        action_ids.add(a.id)
        if (a.assigns is None) == (a.fbd_ref is None):
            out.append(f"action {a.id!r} must have exactly one body")
            continue
        if a.fbd_ref is not None:
            if a.fbd_ref not in fbd_names:
                out.append(f"action {a.id!r} references unknown fbd "
                           f"{a.fbd_ref!r}")
            continue
        for name, e in a.assigns:
            ty = env.get(name)
            if ty is None:
                out.append(f"action {a.id!r} assigns undeclared "
                           f"variable {name!r}")
                continue
            try:
                _, et = E.typecheck(e, env)
            except E.ExprError as err:
                out.append(f"action {a.id!r}: {err}")
                continue
            if (ty == "bool") != (et == "bool"):
                out.append(f"action {a.id!r}: type mismatch assigning "
                           f"{et} to {ty} variable {name!r}")
            # the symbolic effect wraps once, at the target's width, so the
            # right-hand side must already compute at that width; all-literal
            # right-hand sides have no width and adopt the target's
            elif ty != "bool" and et != ty and E.vars_of(e):
                out.append(f"action {a.id!r}: width mismatch assigning "
                           f"{et} to {ty} variable {name!r}")

    mapped = set()
    hosts: dict[str, list[str]] = {}
    for s, acts in model.step_actions:
        if s not in steps:
            out.append(f"step_actions entry for unknown step {s!r}")
        mapped.add(s)
        if len(set(acts)) != len(acts):
            out.append(f"step {s!r} lists an action twice")
        for aid in acts:
            hosts.setdefault(aid, []).append(s)
            if aid not in action_ids:
                out.append(f"step {s!r} lists unknown action {aid!r}")
    missing = steps - mapped
    for s in sorted(missing):
        out.append(f"step_actions not total: missing step {s!r}")
    # the text format attaches each action to exactly one step
    for aid in sorted(action_ids):
        n = len(hosts.get(aid, []))
        if n != 1:
            out.append(f"action {aid!r} attached to {n} steps, expected 1")

    for i, t in enumerate(model.transitions):
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
        if t.priority is not None and t.priority < 0:
            out.append(f"transition {i}: negative priority")
        try:
            _, gt = E.typecheck(t.guard, env)
            if gt != "bool":
                out.append(f"transition {i}: guard is not boolean")
        except E.ExprError as err:
            out.append(f"transition {i}: {err}")
    return out


# --- parsing --------------------------------------------------------------

def parse_model(text: str) -> SfcModel:
    """Parse and fully check a model document."""
    ts = TokenStream(lex(text))
    vars_, steps, initial = [], [], []
    actions, step_actions, transitions, fbds = [], {}, [], []
    decl_lines = {}

    while ts.peek().kind != "eof":
        t = ts.peek()
        if ts.accept("var"):
            name = ts.ident().text
            ts.expect(":")
            tyt = ts.ident()
            if tyt.text not in E.TYPES:
                raise ParseError(f"unknown type {tyt.text!r}", tyt.line,
                                 tyt.col)
            init = None
            if ts.accept("="):
                lt = ts.peek()
                if ts.accept("true"):
                    init = 1
                elif ts.accept("false"):
                    init = 0
                else:
                    init = ts.integer()
                if tyt.text == "bool" and init not in (0, 1):
                    raise ParseError("boolean initializer must be "
                                     "true or false", lt.line, lt.col)
                if init > E.max_of(tyt.text):
                    raise ParseError(f"initializer {init} out of range "
                                     f"for {tyt.text}", lt.line, lt.col)
            is_time = False
            if ts.accept("["):
                ts.expect("time")
                ts.expect("]")
                is_time = True
                if tyt.text == "bool":
                    raise ParseError("time flag on boolean variable",
                                     tyt.line, tyt.col)
            vars_.append(VarDecl(name, tyt.text, is_time, init))
            decl_lines[("var", name)] = t.line
        elif ts.accept("step"):
            name = ts.ident().text
            if ts.accept("["):
                ts.expect("initial")
                ts.expect("]")
                initial.append(name)
            steps.append(name)
            decl_lines[("step", name)] = t.line
        elif ts.accept("action"):
            aid = ts.ident().text
            ts.expect("on")
            host = ts.ident().text
            if ts.accept("="):
                ts.expect("fbd")
                ref = ts.ident().text
                actions.append(ActionBlock(aid, fbd_ref=ref))
            else:
                ts.expect("{")
                assigns = []
                while not ts.accept("}"):
                    target = ts.ident().text
                    ts.expect(":=")
                    rhs = parse_expression(ts)
                    ts.expect(";")
                    assigns.append((target, rhs))
                actions.append(ActionBlock(aid, assigns=tuple(assigns)))
            step_actions.setdefault(host, []).append(aid)
            decl_lines[("action", aid)] = t.line
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
            decl_lines[("trans", len(transitions) - 1)] = t.line
        elif ts.accept("fbd"):
            name = ts.ident().text
            fbds.append(F.parse_fbd(ts, name))
            decl_lines[("fbd", name)] = t.line
        else:
            ts.error(f"expected declaration, found {t.text!r}")

    full_map = {s: step_actions.get(s, []) for s in steps}
    for host in step_actions:
        if host not in steps:
            line = None
            for (k, n), ln in decl_lines.items():
                if k == "action" and n in step_actions[host]:
                    line = ln
            raise ParseError(f"action attached to unknown step {host!r}",
                             line)

    model = _normalized(vars_, steps, initial, actions, full_map.items(),
                        transitions, fbds)
    problems = validate(model)
    if problems:
        raise ParseError("; ".join(problems))
    # annotate guard and effect expressions with comparison widths
    env = model.env()
    transitions = tuple(
        Transition(t.sources, E.typecheck(t.guard, env)[0], t.targets,
                   t.priority) for t in model.transitions)
    actions = tuple(
        ActionBlock(a.id, tuple((n, E.typecheck(e, env)[0])
                                for n, e in a.assigns), None)
        if a.assigns is not None else a
        for a in model.actions)
    return SfcModel(model.vars, model.steps, model.initial, actions,
                    model.step_actions, transitions, model.fbds)


def _parse_step_set(ts: TokenStream) -> tuple[str, ...]:
    ts.expect("{")
    names = [ts.ident().text]
    while ts.accept(","):
        names.append(ts.ident().text)
    ts.expect("}")
    return tuple(names)


# --- canonical text and digest ---------------------------------------------

def canonical_text(model: SfcModel) -> str:
    lines = []
    for v in sorted(model.vars, key=lambda v: v.name):
        s = f"var {v.name} : {v.ty}"
        if v.init is not None:
            if v.ty == "bool":
                s += " = " + ("true" if v.init else "false")
            else:
                s += f" = {v.init}"
        if v.is_time:
            s += " [time]"
        lines.append(s)
    initial = set(model.initial)
    for s in sorted(model.steps):
        lines.append(f"step {s}" + (" [initial]" if s in initial else ""))
    hosts = {}
    for s, acts in model.step_actions:
        for aid in acts:
            hosts[aid] = s
    for a in sorted(model.actions, key=lambda a: a.id):
        host = hosts.get(a.id)
        if a.fbd_ref is not None:
            lines.append(f"action {a.id} on {host} = fbd {a.fbd_ref}")
        else:
            body = " ".join(f"{n} := {E.pretty(e)};" for n, e in a.assigns)
            body = f"{{ {body} }}" if a.assigns else "{ }"
            lines.append(f"action {a.id} on {host} {body}")
    for f in sorted(model.fbds, key=lambda f: f.name):
        lines.extend(F.fbd_lines(f))
    for t in model.transitions:
        src = ", ".join(t.sources)
        tgt = ", ".join(t.targets)
        s = f"trans {{{src}}} -[ {E.pretty(t.guard)} ]-> {{{tgt}}}"
        if t.priority is not None:
            s += f" [prio {t.priority}]"
        lines.append(s)
    return "\n".join(lines) + "\n"


def model_digest(model: SfcModel) -> str:
    """SHA-256 of the canonical text, as 64 hex digits."""
    return hashlib.sha256(canonical_text(model).encode("utf-8")).hexdigest()
