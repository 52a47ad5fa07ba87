"""Invariant property language.

Atoms are arithmetic conditions over declared variables, step or action
activity tests, and subset bounds on what may be active:

    invariant safe_x : always (x <= 10 && !step(Dead));
    invariant acts : always (actions_within {A_Init, A_Step1});

Negation applies to activity atoms; arithmetic atoms combine with && and ||
(their negations are expressed inside the expression language).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import expr as E
from .model import SfcModel, SfcState
from .parsing import ParseError, TokenStream, lex
from .parsing import parse_comparison as _parse_arith_atom


@dataclass(frozen=True)
class ArithAtom:
    expr: E.Expr


@dataclass(frozen=True)
class StepActive:
    step: str


@dataclass(frozen=True)
class ActionActive:
    action: str


@dataclass(frozen=True)
class ActionsWithin:
    actions: tuple[str, ...]  # sorted


@dataclass(frozen=True)
class StepsWithin:
    steps: tuple[str, ...]  # sorted


@dataclass(frozen=True)
class PAnd:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class POr:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class PNot:
    arg: "Formula"


Formula = Union[ArithAtom, StepActive, ActionActive, ActionsWithin,
                StepsWithin, PAnd, POr, PNot]


@dataclass(frozen=True)
class Invariant:
    name: str
    formula: Formula


class PropertyError(Exception):
    pass


def conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, PAnd):
        return conjuncts(f.lhs) + conjuncts(f.rhs)
    return [f]


def negate(f: Formula) -> Formula:
    """Push one negation through connectives down to the atoms."""
    if isinstance(f, PAnd):
        return POr(negate(f.lhs), negate(f.rhs))
    if isinstance(f, POr):
        return PAnd(negate(f.lhs), negate(f.rhs))
    if isinstance(f, PNot):
        return f.arg
    if isinstance(f, ArithAtom):
        return ArithAtom(E.Not(f.expr))
    return PNot(f)


def holds_on(f: Formula, state: SfcState) -> bool:
    """Concrete truth of a formula on a configuration."""
    if isinstance(f, ArithAtom):
        return bool(E.eval_expr(f.expr, state.mem))
    if isinstance(f, StepActive):
        return f.step in state.active_steps
    if isinstance(f, ActionActive):
        return f.action in state.active_actions
    if isinstance(f, ActionsWithin):
        return set(state.active_actions) <= set(f.actions)
    if isinstance(f, StepsWithin):
        return set(state.active_steps) <= set(f.steps)
    if isinstance(f, PAnd):
        return holds_on(f.lhs, state) and holds_on(f.rhs, state)
    if isinstance(f, POr):
        return holds_on(f.lhs, state) or holds_on(f.rhs, state)
    if isinstance(f, PNot):
        return not holds_on(f.arg, state)
    raise PropertyError(f"unknown formula node {type(f).__name__}")


def check_refs(f: Formula, model: SfcModel):
    steps = set(model.steps)
    actions = set(model.action_ids())
    env = model.env()

    def walk(g):
        if isinstance(g, ArithAtom):
            ann, ty = E.typecheck(g.expr, env)
            if ty != "bool":
                raise PropertyError("arithmetic atom is not boolean")
            return ArithAtom(ann)
        if isinstance(g, StepActive):
            if g.step not in steps:
                raise PropertyError(f"unknown step {g.step!r}")
            return g
        if isinstance(g, ActionActive):
            if g.action not in actions:
                raise PropertyError(f"unknown action {g.action!r}")
            return g
        if isinstance(g, ActionsWithin):
            for a in g.actions:
                if a not in actions:
                    raise PropertyError(f"unknown action {a!r}")
            return g
        if isinstance(g, StepsWithin):
            for s in g.steps:
                if s not in steps:
                    raise PropertyError(f"unknown step {s!r}")
            return g
        if isinstance(g, (PAnd, POr)):
            return type(g)(walk(g.lhs), walk(g.rhs))
        if isinstance(g, PNot):
            return PNot(walk(g.arg))
        raise PropertyError(f"unknown formula node {type(g).__name__}")

    return walk(f)


# --- parsing ----------------------------------------------------------------
#
# file       := invariant*
# invariant  := 'invariant' NAME ':' 'always' '(' formula ')' ';'
# formula    := por;  por := pand ('||' pand)*;  pand := punit ('&&' punit)*
# punit      := '!' punit | 'step' '(' NAME ')' | 'action' '(' NAME ')'
#             | 'actions_within' '{' names '}' | 'steps_within' '{' names '}'
#             | '(' formula ')' | arithmetic-comparison

_ATOM_KEYWORDS = ("step", "action", "actions_within", "steps_within")


def _parse_name_set(ts: TokenStream) -> tuple[str, ...]:
    ts.expect("{")
    names = []
    if not ts.at("}"):
        names.append(ts.ident().text)
        while ts.accept(","):
            names.append(ts.ident().text)
    ts.expect("}")
    return tuple(sorted(set(names)))


def parse_formula(ts: TokenStream) -> Formula:
    f = _parse_pand(ts)
    while ts.accept("||"):
        f = POr(f, _parse_pand(ts))
    return f


def _parse_pand(ts: TokenStream) -> Formula:
    f = _parse_punit(ts)
    while ts.accept("&&"):
        f = PAnd(f, _parse_punit(ts))
    return f


def _starts_atom_keyword(ts: TokenStream) -> str | None:
    t = ts.peek()
    if t.kind != "ident" or t.text not in _ATOM_KEYWORDS:
        return None
    if t.text in ("step", "action"):
        nxt = ts._toks[ts._pos + 1]
        if nxt.text != "(":
            return None
    return t.text


def _parse_punit(ts: TokenStream) -> Formula:
    if ts.accept("!"):
        return PNot(_parse_punit(ts))
    kw = _starts_atom_keyword(ts)
    if kw is not None:
        ts.next()
        if kw in ("step", "action"):
            ts.expect("(")
            name = ts.ident().text
            ts.expect(")")
            return StepActive(name) if kw == "step" else ActionActive(name)
        names = _parse_name_set(ts)
        return ActionsWithin(names) if kw == "actions_within" \
            else StepsWithin(names)
    if ts.at("("):
        # either a parenthesized formula or a parenthesized arithmetic
        # expression; try the formula grammar and fall back when the text
        # continues as arithmetic (e.g. "(x + 1) <= 2")
        mark = ts._pos
        try:
            ts.expect("(")
            f = parse_formula(ts)
            ts.expect(")")
            nxt = ts.peek()
            if nxt.kind == "op" and nxt.text in ("+", "-", "*", "<", "<=",
                                                 ">", ">=", "==", "=", "!="):
                raise ParseError("arithmetic continues", nxt.line, nxt.col)
            return f
        except ParseError:
            ts._pos = mark
    return ArithAtom(_parse_arith_atom(ts))


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
            except (PropertyError, E.ExprError) as err:
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
        except (PropertyError, E.ExprError) as err:
            raise ParseError(str(err))
    return f


# --- printing ---------------------------------------------------------------

_PPREC = {"or": 1, "and": 2, "not": 3}


def _show(f: Formula, parent: int) -> str:
    if isinstance(f, ArithAtom):
        text = E.pretty(f.expr)
        # parenthesize if the expression's own operators would bind wrong
        return f"({text})" if (" || " in text or " && " in text) else text
    if isinstance(f, StepActive):
        return f"step({f.step})"
    if isinstance(f, ActionActive):
        return f"action({f.action})"
    if isinstance(f, ActionsWithin):
        return "actions_within {" + ", ".join(f.actions) + "}"
    if isinstance(f, StepsWithin):
        return "steps_within {" + ", ".join(f.steps) + "}"
    if isinstance(f, PAnd):
        mine = _PPREC["and"]
        s = f"{_show(f.lhs, mine)} && {_show(f.rhs, mine)}"
    elif isinstance(f, POr):
        mine = _PPREC["or"]
        s = f"{_show(f.lhs, mine)} || {_show(f.rhs, mine)}"
    elif isinstance(f, PNot):
        mine = _PPREC["not"]
        s = f"!{_show(f.arg, mine + 1)}"
    else:
        raise PropertyError(f"unknown formula node {type(f).__name__}")
    return f"({s})" if mine < parent else s


def formula_text(f: Formula) -> str:
    return _show(f, 0)


def invariant_text(inv: Invariant) -> str:
    return f"invariant {inv.name} : always ({formula_text(inv.formula)});"
