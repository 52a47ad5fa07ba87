"""Proof search for inductive invariants and the derived lemma checks.

Untrusted by design: everything produced here is re-derived and replayed by
the certificate checker.  A property is proved by induction over the
reachable-state construction: it must hold in the initial configuration and
be preserved by every rule instance (one case per action block, per
transition and per step).  Case hypotheses found contradictory are closed
with a refutation witness; the remaining cases must entail the property on
the symbolic post-state.

A refutation of an inductive case is reported as an inductiveness
counterexample only; it says nothing about reachability of the violating
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from . import expr as E
from . import obligations as O
from . import properties as P
from .lia.solver import (DeciderResourceError, FragmentViolation, Sat,
                         decide_sat)
# normalize is not called here, but perfbench/tracing.py wraps
# verifier.normalize, so the name stays importable
from .linear import (TRUE_DNF, CubeOverflow, FragmentError, attach_bounds,
                     dnf_and, normalize)
from .model import RuleInstance, SfcModel, init_state
from .prooftree import ArithLeaf, CaseProof, HypEntry, ProofTree


@dataclass
class Proved:
    tree: ProofTree | None
    obligations: int = 0


@dataclass
class Refuted:
    rule: RuleInstance | None  # None means the base case failed
    assignment: dict = field(default_factory=dict)
    note: str = ""


@dataclass
class Undecided:
    rule: RuleInstance | None
    reason: str = ""


VerifyResult = Proved | Refuted | Undecided


def check_base(model: SfcModel, formula: P.Formula):
    """Concrete evaluation on the initial configuration; None when it holds."""
    state = init_state(model)
    if P.holds_on(formula, state):
        return None
    return Refuted(None, dict(state.mem), "fails in the initial configuration")


def iter_obligations(model: SfcModel, formula: P.Formula):
    """One obligation per rule instance, in enumeration order, each derived
    when the caller asks for it from one shared derivation context.

    Opaque or oversized cases yield (rule, Undecided) so callers report
    them instead of silently skipping.
    """
    ctx = O.DerivationContext(model, formula)
    for rule in model.rules:
        try:
            yield rule, O.build_obligation(ctx, rule)
        except (O.UnsupportedEffect, O.ObligationOverflow) as err:
            yield rule, Undecided(rule, str(err))


def discharge(ob: O.CaseObligation):
    """Close one obligation; returns CaseProof, Refuted or Undecided."""
    entries = []
    try:
        for hyp_cube in ob.hyp_cubes:
            res = decide_sat(hyp_cube)
            if not isinstance(res, Sat):
                entries.append(HypEntry(contradiction=res.witness))
                continue
            leaves = []
            for neg_dnf in ob.neg_concl:
                witnesses = []
                for joint in O.joint_cubes(hyp_cube, neg_dnf):
                    # the joint cube extends the hypothesis cube, whose
                    # simplification the decider replays
                    sub = decide_sat(joint, after=res)
                    if isinstance(sub, Sat):
                        return Refuted(ob.rule, sub.assignment,
                                       "inductive step violated")
                    witnesses.append(sub.witness)
                leaves.append(ArithLeaf(tuple(witnesses)))
            entries.append(HypEntry(conjuncts=tuple(leaves)))
    except (DeciderResourceError, FragmentViolation) as err:
        return Undecided(ob.rule, str(err))
    return CaseProof(ob.rule.label(), tuple(entries))


def verify_invariant(model: SfcModel, inv: P.Invariant) -> VerifyResult:
    """Induction proof attempt for one invariant."""
    base = check_base(model, inv.formula)
    if base is not None:
        return base
    cases = []
    undecided = None
    # deriving each case just before discharging it stops the derivation
    # at the first refuted case
    for _, ob in iter_obligations(model, inv.formula):
        res = ob
        if not isinstance(ob, Undecided):
            res = discharge(ob)
        if isinstance(res, Refuted):
            return res
        if isinstance(res, Undecided):
            undecided = undecided or res
        else:
            cases.append(res)
    if undecided is not None:
        return undecided
    return Proved(ProofTree(tuple(cases)), obligations=len(cases))


def gen_basic_lemmas(model: SfcModel):
    """Structural facts proved for every model and reusable as context.

    Active action blocks stay within the declared set, and active steps
    within the declared steps.  A failure here indicates a defect in the
    semantics encoding and is raised, not returned.
    """
    lemmas = [
        P.Invariant("actions_declared",
                    P.ActionsWithin(tuple(sorted(model.action_ids())))),
        P.Invariant("steps_declared",
                    P.StepsWithin(tuple(sorted(model.steps)))),
    ]
    out = []
    for inv in lemmas:
        res = verify_invariant(model, inv)
        if not isinstance(res, Proved):
            raise AssertionError(
                f"structural lemma {inv.name!r} failed: {res!r}")
        out.append((inv, res))
    return out


# disjunct cap of the lemma checks' hypothesis products
LEMMA_CAP = 4096


def _first_sat(der: O.DerivationContext, hyp, dnf):
    """An assignment satisfying some cube of hyp ∧ dnf, or None."""
    for cube in dnf_and(hyp, dnf, LEMMA_CAP):
        res = decide_sat(attach_bounds(cube, der.env))
        if isinstance(res, Sat):
            return res.assignment
    return None


def check_guard_unreachable(model: SfcModel, target: str,
                            context: tuple[P.Formula, ...] = ()
                            ) -> VerifyResult:
    """Prove a non-initial step can never activate.

    Every transition into the target must have a guard that is
    unsatisfiable under the context invariants.  The context is conjoined
    into the certified property and re-proved with it, so the result is
    self-contained even though callers normally prove the context first.
    When some guard stays satisfiable the result is Undecided and names
    the transition; a guard outside the linear fragment is Undecided too.
    """
    if target in model.initial:
        raise ValueError(f"step {target!r} is initial")
    if target not in model.steps:
        raise ValueError(f"unknown step {target!r}")
    prop = reduce(E.And, (*context, E.Not(P.StepActive(target))))
    der = O.DerivationContext(model, prop)
    try:
        ctx_dnf = TRUE_DNF
        for f in context:
            ctx_dnf = dnf_and(ctx_dnf, der.formula_dnf(f, der.pre), der.cap)
        for i, t in enumerate(model.transitions):
            if target not in t.targets:
                continue
            if _first_sat(der, ctx_dnf, der.normalized(t.guard)) is not None:
                return Undecided(None,
                                 f"guard of transition {i} into "
                                 f"{target!r} is satisfiable under the "
                                 f"context")
    except (CubeOverflow, FragmentError) as err:
        return Undecided(None, str(err))
    inv = P.Invariant(f"unreachable_{target}", prop)
    return verify_invariant(model, inv)


@dataclass
class DeterminedResult:
    status: str  # proved | refuted | undecided
    offenders: tuple[tuple[int, dict], ...] = ()
    reason: str = ""


def check_determined_successor(model: SfcModel, trigger: P.Formula,
                               step: str,
                               context: tuple[P.Formula, ...] = ()
                               ) -> DeterminedResult:
    """Whenever the trigger holds, only transitions targeting exactly the
    given step can fire, and at least one of them is a candidate.

    The candidate reading ignores pending action blocks: a transition is a
    candidate when its sources are active and its guard holds.  Exclusivity
    under that weaker reading is sound for the full firing condition.
    Context invariants must be proved separately.
    """
    if step not in model.steps:
        raise ValueError(f"unknown step {step!r}")
    der = O.DerivationContext(model, trigger, LEMMA_CAP)
    offenders = []
    candidates = []
    try:
        hyp = der.pre_dnf()
        for f in context:
            hyp = dnf_and(hyp, der.formula_dnf(f, der.pre), LEMMA_CAP)
        for i, t in enumerate(model.transitions):
            enabled = reduce(E.And, map(P.StepActive, t.sources), t.guard)
            if set(t.targets) == {step}:
                candidates.append(enabled)
                continue
            hit = _first_sat(der, hyp, der.formula_dnf(enabled, der.pre))
            if hit is not None:
                offenders.append((i, hit))
        if offenders:
            return DeterminedResult("refuted", tuple(offenders),
                                    "trigger enables a transition with a "
                                    "different target")
        if not candidates:
            return DeterminedResult(
                "undecided", (), f"no transition targets exactly {{{step}}}")
        neg = der.formula_dnf(reduce(E.Or, candidates), der.pre, negated=True)
        if _first_sat(der, hyp, neg) is not None:
            return DeterminedResult(
                "undecided", (),
                "trigger does not force any candidate transition")
    except (CubeOverflow, FragmentError, DeciderResourceError,
            FragmentViolation) as err:
        return DeterminedResult("undecided", (), str(err))
    return DeterminedResult("proved")
