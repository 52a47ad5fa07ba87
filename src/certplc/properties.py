"""Invariant property language.

A formula is a boolean expression of the expression language whose leaves
may also be activity atoms of two classes, each about steps or about
actions: ``Active`` tests that one is active, ``Within`` bounds the set of
active ones.  They combine with &&, || and ! like any boolean expression:

    invariant safe_x : always (x <= 10 && !step(Dead));
    invariant acts : always (actions_within {A_Init, A_Step1});

Every other leaf is an arithmetic atom.  ``expr`` and ``linear.lower`` walk
the connectives; here each activity atom gets its check and its value.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as E
from .model import SfcModel, SfcState
from .parsing import ParseError, TokenStream, parse_expression


@dataclass(frozen=True)
class Active:
    kind: str  # "step" | "action"
    name: str

    def pretty(self) -> str:
        return f"{self.kind}({self.name})"


@dataclass(frozen=True)
class Within:
    kind: str  # "step" | "action"
    names: tuple[str, ...]  # sorted

    def pretty(self) -> str:
        return f"{self.kind}s_within {{" + ", ".join(self.names) + "}"


# an E.Expr whose leaves may also be the activity atoms above
Formula = E.Expr


@dataclass(frozen=True)
class Invariant:
    name: str
    formula: Formula


def conjuncts(f: Formula) -> list[Formula]:
    """The operands of a top-level ``&&`` chain, parenthesized chains
    among them flattened; any other formula is its one conjunct."""
    if isinstance(f, E.And):
        return [c for arg in f.args for c in conjuncts(arg)]
    return [f]


def holds_on(f: Formula, state: SfcState) -> bool:
    """Concrete truth of a formula on a configuration."""
    active = {"step": state.active_steps, "action": state.active_actions}

    def leaf(g):
        if isinstance(g, Active):
            return g.name in active[g.kind]
        if isinstance(g, Within):
            return set(active[g.kind]) <= set(g.names)
        raise E.ExprError(f"unknown formula node {type(g).__name__}")

    return bool(E.eval_expr(f, state.mem, leaf))


def check_refs(f: Formula, model: SfcModel):
    """Typecheck a formula against the model's variables and check its
    step and action names; returns it with comparison widths annotated."""
    declared = {"step": set(model.steps), "action": set(model.action_ids())}

    def leaf(g):
        if isinstance(g, Active):
            names = (g.name,)
        elif isinstance(g, Within):
            names = g.names
        else:
            raise E.ExprError(f"unknown formula node {type(g).__name__}")
        for n in names:
            if n not in declared[g.kind]:
                raise E.ExprError(f"unknown {g.kind} {n!r}")
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
        names.append(ts.ident())
        while ts.accept(","):
            names.append(ts.ident())
    ts.expect("}")
    return tuple(sorted(set(names)))


def _activity_atom(ts: TokenStream):
    t = ts.peek()
    if t in ("step", "action") and ts.peek(1) == "(":
        ts.next()
        ts.expect("(")
        name = ts.ident()
        ts.expect(")")
        return Active(t, name)
    if t in ("steps_within", "actions_within"):
        ts.next()
        return Within(t[:-len("s_within")], _parse_name_set(ts))
    return None


def parse_formula(ts: TokenStream) -> Formula:
    return parse_expression(ts, _activity_atom)


def parse_properties(text: str, model: SfcModel) -> list[Invariant]:
    """The invariants of a document, each checked against *model*."""
    ts = TokenStream(text)
    out = []
    names = set()
    while ts.peek():
        ts.expect("invariant")
        at_name = ts.pos
        name = ts.ident()
        if name in names:
            ts.error(f"duplicate invariant {name!r}", at_name)
        names.add(name)
        ts.expect(":")
        ts.expect("always")
        ts.expect("(")
        f = parse_formula(ts)
        ts.expect(")")
        ts.expect(";")
        try:
            f = check_refs(f, model)
        except E.ExprError as err:
            ts.error(f"invariant {name!r}: {err}", at_name)
        out.append(Invariant(name, f))
    return out


def parse_formula_text(text: str, model: SfcModel) -> Formula:
    """The formula, checked against *model*."""
    ts = TokenStream(text)
    f = parse_formula(ts)
    if ts.peek():
        ts.error(f"trailing input {ts.peek()!r}")
    try:
        return check_refs(f, model)
    except E.ExprError as err:
        raise ParseError(str(err))


formula_text = E.pretty


def invariant_text(inv: Invariant) -> str:
    return f"invariant {inv.name} : always ({formula_text(inv.formula)});"
