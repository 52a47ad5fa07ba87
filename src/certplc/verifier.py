"""Proof search for inductive invariants, and the lemma claims built on it.

Untrusted by design: everything produced here is re-derived and replayed by
the certificate checker.  An invariant is proved by induction over the
reachable-state construction: it must hold in the initial configuration and
be preserved by every rule instance (one case per action block, per
transition and per step).  A case's search starts from its root cube and
splits on a disjunctive hypothesis piece only where a satisfiable joint
cube needs it; a node whose cube is contradictory is closed with a
refutation witness, and the others must entail the invariant on the
symbolic post-state.  The search decides only what the proof reads: a
node's own cube is simplified first and decided in full only when none
of its joint cubes is satisfiable, and a case that the frame rule closes
is skipped before any obligation is built.  An optional target is proved by one more case,
``entail``: every state satisfying the invariant satisfies the target.

A refutation of an inductive case is reported as an inductiveness
counterexample only; it says nothing about reachability of the violating
configuration.  The lemma claims (unreachable steps, determined
successors) only build an invariant and a target; they are proved and
certified like any other property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from . import expr as E
from . import linear
from . import obligations as O
from . import properties as P
from .lia.solver import Sat, Simplified, decide_sat, simplify
# normalize is not called here, but perfbench/tracing.py wraps
# verifier.normalize, so the name stays importable
from .linear import WRAP_PREFIX, FragmentError, LimitExceeded, normalize
from .model import RuleInstance, SfcModel, init_state
from .prooftree import CaseProof, Contradiction, Cubes, ProofTree, Split


@dataclass
class Proved:
    tree: ProofTree
    obligations: int = 0


@dataclass
class Refuted:
    rule: RuleInstance | O.Entailment | None  # None: the base case failed
    assignment: dict = field(default_factory=dict)
    note: str = ""


@dataclass
class Undecided:
    rule: RuleInstance | O.Entailment | None
    reason: str = ""  # "<rule label>: <cause>"


VerifyResult = Proved | Refuted | Undecided


def check_base(model: SfcModel, formula: P.Formula):
    """Concrete evaluation on the initial configuration; None when it holds."""
    state = init_state(model)
    if P.holds_on(formula, state):
        return None
    return Refuted(None, dict(state.mem), "fails in the initial configuration")


def _satisfies(assignment: dict, cube) -> bool:
    """The assignment satisfies the cube, or lacks one of its variables."""
    return (any(v not in assignment for con in cube for v, _ in con.coeffs)
            or all(con.evaluate(assignment) for con in cube))


def _split_choice(ob: O.CaseObligation, assignment: dict, open_pieces):
    """The first open piece none of whose cubes the assignment satisfies,
    else the first open piece."""
    return next((k for k in open_pieces if not any(
        _satisfies(assignment, cube) for cube in ob.splits[k])),
        open_pieces[0])


def _decide_node(ob: O.CaseObligation, cube, simplified: Simplified):
    """The first satisfiable joint cube's decision, else the node: Cubes
    when its own cube is satisfiable, else Contradiction.  The node's cube
    is decided, from its simplification, only when no joint cube is
    satisfiable: a satisfiable joint cube satisfies it too."""
    witnesses = []
    try:
        for joint in O.joint_cubes(cube, ob.neg_concl):
            # the joint cube extends the node's cube, whose simplification
            # the decider extends
            sub = decide_sat(joint, after=simplified)
            if isinstance(sub, Sat):
                return sub
            witnesses.append(sub.witness)
    except (FragmentError, LimitExceeded):
        # deciding the node's cube first, a contradictory one closes the
        # node before any joint cube is decided, and its own error is
        # raised before a joint cube's
        res = decide_sat(cube, after=simplified)
        if isinstance(res, Sat):
            raise
        return Contradiction(res.witness)
    res = decide_sat(cube, after=simplified)
    return (Cubes(tuple(witnesses)) if isinstance(res, Sat)
            else Contradiction(res.witness))


def discharge(ob: O.CaseObligation):
    """Close one obligation; returns CaseProof, Refuted or None for a
    closed case (no root cube), and raises what the decider raises
    (LimitExceeded, FragmentError) and LimitExceeded past ``linear.CAP``
    nodes.

    At each node the search simplifies the node's cube, extending its
    parent's simplification; a clash there closes the node with a
    contradiction, and otherwise it decides the joint cubes from that
    simplification.  At a node with a satisfiable joint cube, it splits on
    the first piece, among those not split on above it, that the joint
    cube's assignment falsifies, or on the first of them when the
    assignment falsifies none; a satisfiable joint cube of a node with no
    piece left refutes the case.  A node whose joint cubes are all
    unsatisfiable decides its own cube last, and only then.  A
    refutation's assignment omits the quotient variables, functions of the
    others."""
    if not ob.hyp_cubes:
        return None
    # depth first, with a stack of the splits still open: (the split
    # node's cube, its simplification, the pieces split on down to it, its
    # children so far)
    stack: list[tuple] = []
    cube, after, used = ob.hyp_cubes[0], None, ()
    for nodes in count(1):
        if nodes > linear.CAP:  # read at each node, as linear reads it
            raise LimitExceeded(f"{nodes} proof nodes exceed cap "
                                f"{linear.CAP}")
        res = simplify(cube, after=after)
        node = (_decide_node(ob, cube, res) if isinstance(res, Simplified)
                else Contradiction(res.witness))
        if isinstance(node, Sat):  # a satisfiable joint cube
            open_pieces = [k for k in range(len(ob.splits)) if k not in used]
            if not open_pieces:
                state = {v: n for v, n in node.assignment.items()
                         if not v.startswith(WRAP_PREFIX)}
                return Refuted(ob.rule, state,
                               "invariant does not imply the target"
                               if ob.rule is O.ENTAIL
                               else "inductive step violated")
            k = _split_choice(ob, node.assignment, open_pieces)
            stack.append((cube, res, used + (k,), []))
        else:
            while stack:  # close each split whose last child this is
                _, _, path, children = stack[-1]
                children.append(node)
                if len(children) < len(ob.splits[path[-1]]):
                    break
                stack.pop()
                node = Split(path[-1], tuple(children))
            else:
                return CaseProof(ob.rule.label(), node)
        cube, after, used, children = stack[-1]
        cube = O.refine(cube, ob.splits[used[-1]][len(children)])


def verify_invariant(model: SfcModel, inv: P.Invariant,
                     target: P.Invariant | None = None) -> VerifyResult:
    """Induction proof attempt for one invariant and, when given, the proof
    that it implies the target.

    A case outside the linear fragment or past a cap or budget is
    Undecided, its reason the rule label and the cause; a refuted later
    case still wins.  Each case is derived just before it is discharged, so
    derivation stops at the first refuted case, and a framed case is
    neither.  The tree holds the open cases only; ``obligations`` counts
    every case.
    """
    base = check_base(model, inv.formula)
    if base is not None:
        return base
    goal = None if target is None else target.formula
    ctx = O.DerivationContext(model, inv.formula, target=goal)
    rules = O.proof_cases(model, goal)
    cases = []  # the open ones, which the certificate lists
    undecided = None
    for rule in rules:
        try:
            if ctx.framed(rule):  # closed: nothing to derive or decide
                continue
            res = discharge(O.build_obligation(ctx, rule))
        except (FragmentError, LimitExceeded) as err:
            undecided = undecided or Undecided(rule, f"{rule.label()}: {err}")
            continue
        if isinstance(res, Refuted):
            return res
        if res is not None:
            cases.append(res)
    if undecided is not None:
        return undecided
    return Proved(ProofTree(tuple(cases)), obligations=len(rules))


def check_guard_unreachable(model: SfcModel, step: str,
                            context: tuple[P.Formula, ...] = ()):
    """The claim that a non-initial step never activates, as the
    (invariant, target) pair that verify_invariant and emit take.

    Without context the invariant is ``!step(S)`` and there is no target.
    With context it is the context conjoined with ``!step(S)``, proved
    inductive together, and the target is ``!step(S)``: the certificate
    re-proves the context instead of trusting it.
    """
    if step in model.initial:
        raise ValueError(f"step {step!r} is initial")
    if step not in model.steps:
        raise ValueError(f"unknown step {step!r}")
    goal = P.Invariant(f"unreachable_{step}", E.Not(P.Active("step", step)))
    if not context:
        return goal, None
    return _with_context(f"unreachable_{step}_ctx", context,
                         goal.formula), goal


def check_determined_successor(model: SfcModel, trigger: P.Formula,
                               step: str,
                               context: tuple[P.Formula, ...] = ()):
    """The claim that whenever the trigger holds, only transitions
    targeting exactly the given step can fire, and at least one of them is
    a candidate, as the (invariant, target) pair that verify_invariant and
    emit take.

    The invariant is the context (``true`` when there is none).  The
    target has one conjunct ``!trigger || !enabled`` per transition with
    other targets and one ``!trigger || <some candidate enabled>``.  The
    candidate reading ignores pending action blocks: a transition is
    enabled when its sources are active and its guard holds.  Exclusivity
    under that weaker reading is sound for the full firing condition.
    """
    if step not in model.steps:
        raise ValueError(f"unknown step {step!r}")
    candidates, claims = [E.Not(trigger)], []
    for t in model.transitions:
        enabled = E.chain(E.And, [*P.conjuncts(t.guard),
                                  *(P.Active("step", s) for s in t.sources)])
        if set(t.targets) == {step}:
            candidates.append(enabled)
        else:
            claims.append(E.Or((E.Not(trigger), E.Not(enabled))))
    claims.append(E.chain(E.Or, candidates))
    return (_with_context(f"determined_{step}_ctx", context),
            P.Invariant(f"determined_{step}", E.chain(E.And, claims)))


def _with_context(name: str, context, *more: P.Formula) -> P.Invariant:
    """The conjuncts of the context formulas and *more*, joined as the
    property parser joins them, so the certificate's property line parses
    back to the same formula."""
    parts = [c for f in context for c in P.conjuncts(f)] + list(more)
    return P.Invariant(name, E.chain(E.And, parts))
