"""Symbolic induction obligations, one per rule instance.

The state is encoded over integer variables: model variables keep their
names, step and action activity become 0/1 variables named ``step:S`` and
``act:A``, and values after an action effect get fresh ``post:V`` variables
of the target's width.  Effects fold to a parallel map of raw linear forms
over the pre-state (all block arithmetic is congruent mod 2**w, so one wrap
per written variable is exact); the wrap is encoded by enumerating the
quotient, one hypothesis disjunct per feasible choice.

The rules are described once, on ``model.RuleShape``, which the concrete
semantics reads too.  An obligation is a list of hypothesis cubes (the
shape's activity literals, guards and failing guards, the invariant on the
pre-state, and the post-value definitions) plus, for each top-level
conjunct of the invariant, the negated conclusion on the post-state the
shape describes, as a disjunction of cubes.  The rule holds when every
hypothesis cube is jointly unsatisfiable with every negated-conclusion
cube.  Both the verifier and the certificate checker derive obligations
through this module, so a certificate only needs to say which cubes are
contradictory and supply the witnesses.

Everything here is deterministic in the model and property alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import expr as E
from . import fbd as F
from . import properties as P
from .linear import (CubeOverflow, Dnf, FragmentError, LinCon, LinForm,
                     attach_bounds, bounds_fn, dnf_and, dnf_or, linear_form,
                     normalize, wrap_cases, TRUE_DNF, FALSE_DNF, clean_cube)
from .model import RuleInstance, SfcModel

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
                                        bounds, cap):
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


# --- one derivation context per (model, formula, cap) ----------------------

class DerivationContext:
    """Obligation pieces shared by every rule instance of one property.

    The symbolic env, the pre-state map, the property's pre-state DNF and
    each pre-state normalization of a guard or atom are computed at most
    once, on first use.  (An action's effect summary and post-value
    definitions need no memo: only its one execute instance reads them.)
    build_obligation asks for the pieces in a fixed order, so an obligation
    and any error it raises equal those of a fresh context; a piece that
    failed (CubeOverflow, FragmentError) fails again on every later use.  A
    context serves one verify_invariant or one certificate check and is
    dropped afterwards: the checker still derives everything from the
    certificate's own model and property.

    Normalizations are keyed by the expression, whose equality ignores
    ``E.Cmp.width``.  That is exact here: every comparison reaching a
    context was annotated by ``E.typecheck`` under the model's env (the
    model parser annotates guards, ``properties.check_refs`` atoms) or is
    unannotated and annotated by ``normalize`` under the same declarations,
    and typecheck's width depends only on the operands and the env, so equal
    expressions carry equal widths.
    """

    def __init__(self, model: SfcModel, formula: P.Formula, cap: int = 512):
        self.model = model
        self.formula = formula
        self.cap = cap
        self._memo: dict = {}

    @cached_property
    def env(self) -> dict[str, str]:
        return symbolic_env(self.model)

    @cached_property
    def pre(self) -> _StateMap:
        return pre_state_map(self.model)

    def _once(self, key, compute):
        if key not in self._memo:
            try:
                self._memo[key] = (compute(), None)
            except (CubeOverflow, FragmentError) as err:
                self._memo[key] = (None, err)
        value, err = self._memo[key]
        if err is not None:
            raise err.with_traceback(None)
        return value

    def normalized(self, e: E.Expr, negate: bool = False) -> Dnf:
        """``normalize`` of a guard or atom over the pre-state."""
        return self._once(("normalize", e, negate), lambda: normalize(
            e, self.env, negate=negate, max_cubes=self.cap))

    def pre_dnf(self) -> Dnf:
        """The property on the pre-state."""
        return self._once("pre", lambda: self.formula_dnf(self.formula,
                                                          self.pre))

    def formula_dnf(self, f: P.Formula, sm: _StateMap,
                    negated: bool = False) -> Dnf:
        """DNF of a formula read through *sm*, under this context's cap."""
        cap = self.cap
        if isinstance(f, P.PNot):
            return self.formula_dnf(f.arg, sm, not negated)
        if isinstance(f, P.PAnd):
            l = self.formula_dnf(f.lhs, sm, negated)
            r = self.formula_dnf(f.rhs, sm, negated)
            return dnf_or(l, r, cap) if negated else dnf_and(l, r, cap)
        if isinstance(f, P.POr):
            l = self.formula_dnf(f.lhs, sm, negated)
            r = self.formula_dnf(f.rhs, sm, negated)
            return dnf_and(l, r, cap) if negated else dnf_or(l, r, cap)
        if isinstance(f, P.ArithAtom):
            if sm.subst is None:  # memory reads as in the pre-state
                return self.normalized(f.expr, negated)
            return normalize(f.expr, self.env, subst=sm.subst,
                             negate=negated, max_cubes=cap)
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


def build_obligation(model: SfcModel, formula: P.Formula, rule: RuleInstance,
                     *, cap: int = 512,
                     context: DerivationContext | None = None
                     ) -> CaseObligation:
    """Induction obligation for one rule instance.

    Pass the same *context* for every rule instance of one property to
    derive the shared pieces once; without one a fresh context is used.
    Raises UnsupportedEffect for opaque effects and for guards or atoms
    outside the linear fragment, and ObligationOverflow when the disjunct
    caps are exceeded; both leave the property undecided, never wrongly
    proved.
    """
    ctx = context if context is not None else DerivationContext(
        model, formula, cap)
    if ctx.model is not model or ctx.formula is not formula or ctx.cap != cap:
        raise ValueError("derivation context of another model, property "
                         "or cap")
    shape = model.rules[rule]
    env = ctx.env
    try:
        summary = None if shape.action is None else \
            effect_summary(model, shape.action)
        hyp: Dnf = (tuple([_eq01(act_var(a), 1) for a in shape.pending]
                          + [_eq01(step_var(s), 1) for s in shape.steps]
                          + [_eq01(act_var(a), 0) for a in shape.idle]),)
        for g in shape.guards:
            hyp = dnf_and(hyp, ctx.normalized(g), cap)
        for g in shape.blocked:
            hyp = dnf_and(hyp, ctx.normalized(g, negate=True), cap)
        hyp = dnf_and(hyp, ctx.pre_dnf(), cap)
        if summary is not None:
            hyp = dnf_and(hyp, _post_definitions(summary, env, cap), cap)
        steps = dict(ctx.pre.steps)
        steps.update(dict.fromkeys(shape.steps_off, 0))
        steps.update(dict.fromkeys(shape.steps_on, 1))
        actions = dict(ctx.pre.actions)
        actions.update(dict.fromkeys(shape.acts_off, 0))
        actions.update(dict.fromkeys(shape.acts_on, 1))
        post = _StateMap(steps, actions,
                         None if summary is None else _post_subst(summary))
        hyp = tuple(attach_bounds(c, env) for c in hyp)
        neg = []
        for conjunct in P.conjuncts(formula):
            dnf = ctx.formula_dnf(conjunct, post, negated=True)
            neg.append(tuple(attach_bounds(c, env) for c in dnf))
    except CubeOverflow as err:
        raise ObligationOverflow(str(err))
    except FragmentError as err:
        raise UnsupportedEffect(f"{rule.label()}: {err}")
    return CaseObligation(rule, hyp, tuple(neg))


def joint_cube(hyp_cube, neg_cube):
    """Deterministic join replayed by both the verifier and the checker."""
    return clean_cube(hyp_cube + neg_cube)
