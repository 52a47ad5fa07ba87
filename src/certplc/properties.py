"""Invariant property language.

A formula is a boolean expression of the expression language whose leaves
may also be activity atoms: step or action activity tests, and subset
bounds on what may be active.  They combine with &&, || and ! like any
boolean expression:

    invariant safe_x : always (x <= 10 && !step(Dead));
    invariant acts : always (actions_within {A_Init, A_Step1});

Every other leaf is an arithmetic atom.  ``expr`` and ``linear.lower`` walk
the connectives; here each activity atom gets its check and its value.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as E
from .model import SfcModel, SfcState
from .parsing import ParseError, TokenStream, lex, parse_expression


@dataclass(frozen=True)
class StepActive:
    step: str

    def pretty(self) -> str:
        return f"step({self.step})"


@dataclass(frozen=True)
class ActionActive:
    action: str

    def pretty(self) -> str:
        return f"action({self.action})"


@dataclass(frozen=True)
class ActionsWithin:
    actions: tuple[str, ...]  # sorted

    def pretty(self) -> str:
        return "actions_within {" + ", ".join(self.actions) + "}"


@dataclass(frozen=True)
class StepsWithin:
    steps: tuple[str, ...]  # sorted

    def pretty(self) -> str:
        return "steps_within {" + ", ".join(self.steps) + "}"


# an E.Expr whose leaves may also be the four activity atoms above
Formula = E.Expr


@dataclass(frozen=True)
class Invariant:
    name: str
    formula: Formula


def conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, E.And):
        return conjuncts(f.lhs) + conjuncts(f.rhs)
    return [f]


def holds_on(f: Formula, state: SfcState) -> bool:
    """Concrete truth of a formula on a configuration."""
    def leaf(g):
        if isinstance(g, StepActive):
            return g.step in state.active_steps
        if isinstance(g, ActionActive):
            return g.action in state.active_actions
        if isinstance(g, ActionsWithin):
            return set(state.active_actions) <= set(g.actions)
        if isinstance(g, StepsWithin):
            return set(state.active_steps) <= set(g.steps)
        raise E.ExprError(f"unknown formula node {type(g).__name__}")

    return bool(E.eval_expr(f, state.mem, leaf))


def check_refs(f: Formula, model: SfcModel):
    """Typecheck a formula against the model's variables and check its
    step and action names; returns it with comparison widths annotated."""
    steps = set(model.steps)
    actions = set(model.action_ids())

    def leaf(g):
        if isinstance(g, StepActive):
            names, declared, kind = (g.step,), steps, "step"
        elif isinstance(g, StepsWithin):
            names, declared, kind = g.steps, steps, "step"
        elif isinstance(g, ActionActive):
            names, declared, kind = (g.action,), actions, "action"
        elif isinstance(g, ActionsWithin):
            names, declared, kind = g.actions, actions, "action"
        else:
            raise E.ExprError(f"unknown formula node {type(g).__name__}")
        for n in names:
            if n not in declared:
                raise E.ExprError(f"unknown {kind} {n!r}")
        return g, "bool"

    ann, ty = E.typecheck(f, model.env(), leaf)
    if ty != "bool":
        raise E.ExprError("arithmetic atom is not boolean")
    return ann


# --- parsing ----------------------------------------------------------------
#
# file       := invariant*
# invariant  := 'invariant' NAME ':' 'always' '(' formula ')' ';'
# formula    := an expression (parsing.parse_expression) whose atoms may also
#               be 'step' '(' NAME ')' | 'action' '(' NAME ')'
#             | 'actions_within' '{' names '}' | 'steps_within' '{' names '}'
#
# 'step' and 'action' start an atom only when '(' follows, so variables of
# those names stay usable in arithmetic.


def _parse_name_set(ts: TokenStream) -> tuple[str, ...]:
    ts.expect("{")
    names = []
    if not ts.at("}"):
        names.append(ts.ident().text)
        while ts.accept(","):
            names.append(ts.ident().text)
    ts.expect("}")
    return tuple(sorted(set(names)))


def _activity_atom(ts: TokenStream):
    t = ts.peek()
    if t.kind != "ident":
        return None
    if t.text in ("step", "action") and ts.peek(1).text == "(":
        ts.next()
        ts.expect("(")
        name = ts.ident().text
        ts.expect(")")
        return StepActive(name) if t.text == "step" else ActionActive(name)
    if t.text == "actions_within":
        ts.next()
        return ActionsWithin(_parse_name_set(ts))
    if t.text == "steps_within":
        ts.next()
        return StepsWithin(_parse_name_set(ts))
    return None


def parse_formula(ts: TokenStream) -> Formula:
    return parse_expression(ts, _activity_atom)


def parse_properties(text: str, model: SfcModel | None = None) -> list[Invariant]:
    ts = TokenStream(lex(text))
    out = []
    names = set()
    while ts.peek().kind != "eof":
        ts.expect("invariant")
        name_tok = ts.ident()
        if name_tok.text in names:
            raise ParseError(f"duplicate invariant {name_tok.text!r}",
                             name_tok.line, name_tok.col)
        names.add(name_tok.text)
        ts.expect(":")
        ts.expect("always")
        ts.expect("(")
        f = parse_formula(ts)
        ts.expect(")")
        ts.expect(";")
        if model is not None:
            try:
                f = check_refs(f, model)
            except E.ExprError as err:
                raise ParseError(f"invariant {name_tok.text!r}: {err}",
                                 name_tok.line, name_tok.col)
        out.append(Invariant(name_tok.text, f))
    return out


def parse_formula_text(text: str, model: SfcModel | None = None) -> Formula:
    ts = TokenStream(lex(text))
    f = parse_formula(ts)
    t = ts.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    if model is not None:
        try:
            f = check_refs(f, model)
        except E.ExprError as err:
            raise ParseError(str(err))
    return f


formula_text = E.pretty


def invariant_text(inv: Invariant) -> str:
    return f"invariant {inv.name} : always ({formula_text(inv.formula)});"
