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

from . import obligations as O
from . import properties as P
from .lia.solver import (DeciderResourceError, FragmentViolation, Sat,
                         decide_sat)
from .lia.witness import Witness
# normalize is not called here, but perfbench/tracing.py wraps
# verifier.normalize, so the name stays importable
from .linear import (TRUE_DNF, CubeOverflow, FragmentError, attach_bounds,
                     dnf_and, normalize)
from .model import SfcModel
from .prooftree import ArithLeaf, CaseProof, HypEntry, ProofTree
from .semantics import RuleInstance, init_state, rule_instances


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


def check_base(model: SfcModel, formula: P.Formula,
               init_actions: str = "from-steps"):
    """Concrete evaluation on the initial configuration; None when it holds."""
    state = init_state(model, init_actions)
    if P.holds_on(formula, state):
        return None
    mem = {k: v.payload for k, v in state.mem.items()}
    return Refuted(None, mem, "fails in the initial configuration")


def iter_obligations(model: SfcModel, formula: P.Formula, *,
                     cap: int = 512):
    """One obligation per rule instance, in enumeration order, each derived
    when the caller asks for it from one shared derivation context.

    Opaque or oversized cases yield (rule, Undecided) so callers report
    them instead of silently skipping.
    """
    ctx = O.DerivationContext(model, formula, cap)
    for rule in rule_instances(model):
        try:
            yield rule, O.build_obligation(model, formula, rule, cap=cap,
                                           context=ctx)
        except (O.UnsupportedEffect, O.ObligationOverflow) as err:
            yield rule, Undecided(rule, str(err))


def inductive_obligations(model: SfcModel, formula: P.Formula, *,
                          cap: int = 512):
    """All of iter_obligations as a list."""
    return list(iter_obligations(model, formula, cap=cap))


def discharge(model: SfcModel, ob: O.CaseObligation, *,
              max_derived: int = 50_000, split_limit: int = 4096):
    """Close one obligation; returns CaseProof, Refuted or Undecided."""
    entries = []
    try:
        for hyp_cube in ob.hyp_cubes:
            res = decide_sat(hyp_cube, max_derived=max_derived,
                             split_limit=split_limit)
            if not isinstance(res, Sat):
                entries.append(HypEntry(contradiction=res.witness))
                continue
            leaves = []
            for neg_dnf in ob.neg_concl:
                witnesses = []
                for neg_cube in neg_dnf:
                    joint = O.joint_cube(hyp_cube, neg_cube)
                    if joint is None:  # visibly false join
                        witnesses.append(Witness(()))
                        continue
                    sub = decide_sat(joint, max_derived=max_derived,
                                     split_limit=split_limit)
                    if isinstance(sub, Sat):
                        return Refuted(ob.rule, sub.assignment,
                                       "inductive step violated")
                    witnesses.append(sub.witness)
                leaves.append(ArithLeaf(tuple(witnesses)))
            entries.append(HypEntry(conjuncts=tuple(leaves)))
    except (DeciderResourceError, FragmentViolation) as err:
        return Undecided(ob.rule, str(err))
    return CaseProof(ob.rule.label(), tuple(entries))


def verify_invariant(model: SfcModel, inv: P.Invariant, *, cap: int = 512,
                     max_derived: int = 50_000, split_limit: int = 4096,
                     init_actions: str = "from-steps") -> VerifyResult:
    """Induction proof attempt for one invariant."""
    base = check_base(model, inv.formula, init_actions)
    if base is not None:
        return base
    cases = []
    undecided = None
    # deriving each case just before discharging it stops the derivation
    # at the first refuted case
    for _, ob in iter_obligations(model, inv.formula, cap=cap):
        res = ob
        if not isinstance(ob, Undecided):
            res = discharge(model, ob, max_derived=max_derived,
                            split_limit=split_limit)
        if isinstance(res, Refuted):
            return res
        if isinstance(res, Undecided):
            undecided = undecided or res
        else:
            cases.append(res)
    if undecided is not None:
        return undecided
    return Proved(ProofTree(tuple(cases)), obligations=len(cases))


def gen_basic_lemmas(model: SfcModel, **opts):
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
        res = verify_invariant(model, inv, **opts)
        if not isinstance(res, Proved):
            raise AssertionError(
                f"structural lemma {inv.name!r} failed: {res!r}")
        out.append((inv, res))
    return out


def _conjoin(formulas) -> P.Formula:
    acc = None
    for f in formulas:
        acc = f if acc is None else P.PAnd(acc, f)
    if acc is None:
        raise ValueError("empty conjunction")
    return acc


def check_guard_unreachable(model: SfcModel, target: str,
                            context: tuple[P.Formula, ...] = (),
                            **opts) -> VerifyResult:
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
    prop = _conjoin(tuple(context) + (P.PNot(P.StepActive(target)),))
    der = O.DerivationContext(model, prop, 512)
    try:
        ctx_dnf = TRUE_DNF
        for f in context:
            ctx_dnf = dnf_and(ctx_dnf, der.formula_dnf(f, der.pre), 512)
        for i, t in enumerate(model.transitions):
            if target not in t.targets:
                continue
            for cube in dnf_and(ctx_dnf, der.normalized(t.guard), 4096):
                cube = attach_bounds(cube, der.env)
                if isinstance(decide_sat(cube), Sat):
                    return Undecided(None,
                                     f"guard of transition {i} into "
                                     f"{target!r} is satisfiable under the "
                                     f"context")
    except (CubeOverflow, FragmentError) as err:
        return Undecided(None, str(err))
    inv = P.Invariant(f"unreachable_{target}", prop)
    return verify_invariant(model, inv, **opts)


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
    cap = 4096
    der = O.DerivationContext(model, trigger, cap)
    offenders = []
    candidates = []
    try:
        hyp = der.pre_dnf()
        for f in context:
            hyp = dnf_and(hyp, der.formula_dnf(f, der.pre), cap)
        for i, t in enumerate(model.transitions):
            enabled = P.ArithAtom(t.guard)
            for s in t.sources:
                enabled = P.PAnd(enabled, P.StepActive(s))
            if set(t.targets) == {step}:
                candidates.append(enabled)
                continue
            enabled_dnf = der.formula_dnf(enabled, der.pre)
            for cube in dnf_and(hyp, enabled_dnf, cap):
                cube = attach_bounds(cube, der.env)
                res = decide_sat(cube)
                if isinstance(res, Sat):
                    offenders.append((i, res.assignment))
                    break
        if offenders:
            return DeterminedResult("refuted", tuple(offenders),
                                    "trigger enables a transition with a "
                                    "different target")
        if not candidates:
            return DeterminedResult(
                "undecided", (), f"no transition targets exactly {{{step}}}")
        want = candidates[0]
        for c in candidates[1:]:
            want = P.POr(want, c)
        neg = der.formula_dnf(P.negate(want), der.pre)
        for cube in dnf_and(hyp, neg, cap):
            cube = attach_bounds(cube, der.env)
            if isinstance(decide_sat(cube), Sat):
                return DeterminedResult(
                    "undecided", (),
                    "trigger does not force any candidate transition")
    except (CubeOverflow, FragmentError, DeciderResourceError,
            FragmentViolation) as err:
        return DeterminedResult("undecided", (), str(err))
    return DeterminedResult("proved")
