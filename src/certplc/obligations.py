"""Symbolic induction obligations, one per rule instance.

The state is encoded over integer variables: model variables keep their
names, step and action activity become 0/1 variables named ``step:S`` and
``act:A``, and values after an action effect get fresh ``post:V`` variables
of the target's width.  Effects fold to a parallel map of raw linear forms
over the pre-state (all block arithmetic is congruent mod 2**w, so one wrap
per written variable is exact); the wrap is encoded by enumerating the
quotient, one hypothesis disjunct per feasible choice.

An obligation is a list of hypothesis cubes (rule preconditions, the
invariant on the pre-state, and the post-value definitions) plus, for each
top-level conjunct of the invariant, the negated conclusion on the
post-state as a disjunction of cubes.  The rule holds when every hypothesis
cube is jointly unsatisfiable with every negated-conclusion cube.  Both the
verifier and the certificate checker derive obligations through this
module, so a certificate only needs to say which cubes are contradictory
and supply the witnesses.

Everything here is deterministic in the model and property alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as E
from . import fbd as F
from . import properties as P
from .linear import (CubeOverflow, Dnf, FragmentError, LinCon, LinForm,
                     attach_bounds, bounds_fn, dnf_and, dnf_or, linear_form,
                     normalize, wrap_cases, TRUE_DNF, FALSE_DNF, clean_cube)
from .model import SfcModel
from .semantics import (ExecuteAction, Reactivate, RuleInstance,
                        StepTransition)

STEP_PREFIX = "step:"
ACT_PREFIX = "act:"
POST_PREFIX = "post:"


class UnsupportedEffect(Exception):
    """Action effect has no exact linear summary."""


class ObligationOverflow(Exception):
    """Disjunct caps exceeded while building an obligation."""


@dataclass(frozen=True)
class CaseObligation:
    rule: RuleInstance
    hyp_cubes: Dnf
    neg_concl: tuple[Dnf, ...]  # per top-level conjunct of the invariant


def step_var(s: str) -> str:
    return STEP_PREFIX + s


def act_var(a: str) -> str:
    return ACT_PREFIX + a


def post_var(v: str) -> str:
    return POST_PREFIX + v


def symbolic_env(model: SfcModel) -> dict[str, str]:
    env = model.env()
    for s in model.steps:
        env[step_var(s)] = "bool"
    for a in model.action_ids():
        env[act_var(a)] = "bool"
    for v in model.vars:
        env[post_var(v.name)] = v.ty
    return env


def _eq01(name: str, value: int) -> LinCon:
    return LinCon(((name, 1),), "==", value)


@dataclass(frozen=True)
class _StateMap:
    """Symbolic valuation: how each atom reads in pre- or post-state."""

    steps: dict      # step -> 0 | 1 | variable name
    actions: dict    # action -> 0 | 1 | variable name
    subst: dict | None  # memory variable -> LinForm over the pre-state


def pre_state_map(model: SfcModel) -> _StateMap:
    return _StateMap({s: step_var(s) for s in model.steps},
                     {a: act_var(a) for a in model.action_ids()}, None)


def _activity_dnf(value, want: int) -> Dnf:
    """DNF for `atom == want` where the atom evaluates to 0, 1 or a variable."""
    if isinstance(value, int):
        return TRUE_DNF if value == want else FALSE_DNF
    return ((_eq01(value, want),),)


def formula_dnf(f: P.Formula, sm: _StateMap, env, cap: int,
                 negated: bool = False) -> Dnf:
    if isinstance(f, P.PNot):
        return formula_dnf(f.arg, sm, env, cap, not negated)
    if isinstance(f, P.PAnd):
        l = formula_dnf(f.lhs, sm, env, cap, negated)
        r = formula_dnf(f.rhs, sm, env, cap, negated)
        return dnf_or(l, r, cap) if negated else dnf_and(l, r, cap)
    if isinstance(f, P.POr):
        l = formula_dnf(f.lhs, sm, env, cap, negated)
        r = formula_dnf(f.rhs, sm, env, cap, negated)
        return dnf_and(l, r, cap) if negated else dnf_or(l, r, cap)
    if isinstance(f, P.ArithAtom):
        return normalize(f.expr, env, subst=sm.subst, negate=negated,
                         max_cubes=cap)
    if isinstance(f, P.StepActive):
        return _activity_dnf(sm.steps[f.step], 0 if negated else 1)
    if isinstance(f, P.ActionActive):
        return _activity_dnf(sm.actions[f.action], 0 if negated else 1)
    if isinstance(f, P.ActionsWithin):
        outside = [a for a in sm.actions if a not in f.actions]
        return _subset_dnf([sm.actions[a] for a in sorted(outside)],
                           negated, cap)
    if isinstance(f, P.StepsWithin):
        outside = [s for s in sm.steps if s not in f.steps]
        return _subset_dnf([sm.steps[s] for s in sorted(outside)],
                           negated, cap)
    raise P.PropertyError(f"unknown formula node {type(f).__name__}")


def _subset_dnf(outside_values, negated: bool, cap: int) -> Dnf:
    # subset holds iff every activity value outside the set is 0
    if not negated:
        acc = TRUE_DNF
        for value in outside_values:
            acc = dnf_and(acc, _activity_dnf(value, 0), cap)
        return acc
    acc = FALSE_DNF
    for value in outside_values:
        acc = dnf_or(acc, _activity_dnf(value, 1), cap)
    return acc


# --- action effects ---------------------------------------------------------

def effect_summary(model: SfcModel, aid: str) -> dict[str, LinForm]:
    """Parallel update map of an action: raw forms over the pre-state.

    Sequential assignment lists fold by substitution (each right-hand side
    sees the forms of earlier assignments).  Raises UnsupportedEffect for
    diagrams or expressions outside the linear fragment.
    """
    action = model.action(aid)
    env = model.env()
    if action.fbd_ref is not None:
        summary = F.linear_summary(model.fbd(action.fbd_ref), env)
        if summary is None:
            raise UnsupportedEffect(
                f"action {aid!r}: diagram is not linear")
        return dict(summary)
    cur: dict[str, LinForm] = {}
    for name, rhs in action.assigns:
        try:
            cur[name] = linear_form(rhs, cur)
        except FragmentError as err:
            raise UnsupportedEffect(f"action {aid!r}: {err}")
    return cur


def _post_definitions(summary: dict[str, LinForm], env, cap: int) -> Dnf:
    """Hypothesis disjuncts defining post:V = wrap(form) per written var."""
    bounds = bounds_fn(env)
    acc = TRUE_DNF
    for name in sorted(summary):
        cases = []
        for wrapped, side in wrap_cases(summary[name], E.bits_of(env[name]),
                                        bounds):
            # post:name == form - q*2**bits, within the type range
            defn = LinCon.make(wrapped.sub(LinForm.of_var(post_var(name))),
                               "==", 0)
            cube = clean_cube((defn,) + side)
            if cube is not None:
                cases.append(cube)
        acc = dnf_and(acc, tuple(cases), cap)
    return acc


def _post_subst(summary: dict[str, LinForm]) -> dict[str, LinForm]:
    return {name: LinForm.of_var(post_var(name)) for name in summary}


# --- rule hypotheses and post-state maps ------------------------------------

def _transition_pre(model: SfcModel, index: int, env, cap: int) -> Dnf:
    t = model.transitions[index]
    cons = [_eq01(step_var(s), 1) for s in t.sources]
    source_actions = []
    for s in t.sources:
        for a in model.actions_of(s):
            if a not in source_actions:
                source_actions.append(a)
    cons.extend(_eq01(act_var(a), 0) for a in source_actions)
    hyp = (tuple(cons),)
    guard = normalize(t.guard, env, max_cubes=cap)
    return dnf_and(hyp, guard, cap)


def _transition_post(model: SfcModel, index: int) -> _StateMap:
    t = model.transitions[index]
    sm = pre_state_map(model)
    steps = dict(sm.steps)
    for s in t.sources:
        steps[s] = 0
    for s in t.targets:
        steps[s] = 1
    actions = dict(sm.actions)
    for s in t.targets:
        for a in model.actions_of(s):
            actions[a] = 1
    return _StateMap(steps, actions, None)


def _reactivate_pre(model: SfcModel, step: str, env, cap: int) -> Dnf:
    hyp: Dnf = ((_eq01(step_var(step), 1),),)
    for t in model.transitions:
        if step in t.sources:
            hyp = dnf_and(hyp,
                          normalize(t.guard, env, negate=True, max_cubes=cap),
                          cap)
    return hyp


def _reactivate_post(model: SfcModel, step: str) -> _StateMap:
    sm = pre_state_map(model)
    actions = dict(sm.actions)
    for a in model.actions_of(step):
        actions[a] = 1
    return _StateMap(dict(sm.steps), actions, None)


def build_obligation(model: SfcModel, formula: P.Formula, rule: RuleInstance,
                     *, cap: int = 512) -> CaseObligation:
    """Induction obligation for one rule instance.

    Raises UnsupportedEffect for opaque effects and ObligationOverflow when
    the disjunct caps are exceeded; both leave the property undecided, never
    wrongly proved.
    """
    env = symbolic_env(model)
    pre = pre_state_map(model)
    try:
        if isinstance(rule, ExecuteAction):
            summary = effect_summary(model, rule.action)
            hyp = ((_eq01(act_var(rule.action), 1),),)
            hyp = dnf_and(hyp, formula_dnf(formula, pre, env, cap), cap)
            hyp = dnf_and(hyp, _post_definitions(summary, env, cap), cap)
            actions = {a: act_var(a) for a in model.action_ids()}
            actions[rule.action] = 0  # every occurrence is removed
            post = _StateMap(dict(pre.steps), actions, _post_subst(summary))
        elif isinstance(rule, StepTransition):
            hyp = _transition_pre(model, rule.index, env, cap)
            hyp = dnf_and(hyp, formula_dnf(formula, pre, env, cap), cap)
            post = _transition_post(model, rule.index)
        elif isinstance(rule, Reactivate):
            hyp = _reactivate_pre(model, rule.step, env, cap)
            hyp = dnf_and(hyp, formula_dnf(formula, pre, env, cap), cap)
            post = _reactivate_post(model, rule.step)
        else:
            raise TypeError(f"not a rule instance: {rule!r}")

        hyp = tuple(attach_bounds(c, env) for c in hyp)
        neg = []
        for conjunct in P.conjuncts(formula):
            dnf = formula_dnf(conjunct, post, env, cap, negated=True)
            neg.append(tuple(attach_bounds(c, env) for c in dnf))
    except CubeOverflow as err:
        raise ObligationOverflow(str(err))
    return CaseObligation(rule, hyp, tuple(neg))


def joint_cube(hyp_cube, neg_cube):
    """Deterministic join replayed by both the verifier and the checker."""
    return clean_cube(hyp_cube + neg_cube)
