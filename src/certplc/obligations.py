"""Symbolic induction obligations, one per rule instance.

The state is encoded over integer variables: model variables keep their
names, step and action activity become 0/1 variables named ``step:S`` and
``act:A`` (a subset atom lowers as ``!step(T)`` for each step T outside it),
and values after an action effect get fresh ``post:V`` variables of the
target's width.  Effects fold to a parallel map of raw linear forms over
the pre-state (all block arithmetic is congruent mod 2**w, so one wrap per
written variable is exact); the wrap is ``linear.wrapped``, one
definition cube per written variable: its quotient is a constant when it
has one feasible value, else the form's quotient variable, bounded.

The rules are described once, on ``model.RuleShape``, which the concrete
semantics reads too.  An obligation is a list of hypothesis cubes (the
shape's activity literals, guards and failing guards, the invariant on the
pre-state, and the post-value definitions) plus, for each top-level
conjunct of the invariant, the negated conclusion on the post-state the
shape describes, as a disjunction of cubes; ``linear.lower`` lowers every
formula.  The rule holds when every hypothesis cube is jointly
unsatisfiable with every negated-conclusion cube; a case whose
negated-conclusion DNFs are all empty is closed and has no hypothesis cube.
Both the verifier and the certificate checker derive obligations through
this module, so a certificate only needs to say which cubes are
contradictory and supply the witnesses.  A property with a target adds one
obligation, ENTAIL: the invariant's pre-state cubes against each target
conjunct negated on the same pre-state.

Frame rule: a rule instance's negated conclusion is empty for each
top-level conjunct whose reading is empty: the rule's entries in the
model's change index (each step or action it sets to 0 or 1, each
variable its action writes, read off the text) among the variables the
conjunct reads.  A case whose readings are all empty derives nothing of
its rule; an open conjunct is negated once per distinct reading.  This
is sound because induction assumes the invariant on the pre-state (a
fact, not a derived cube), and the conjunct reads the same entries after
the rule.  ENTAIL is never framed: its conclusion is the target.

Everything here is deterministic in the model and property alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import expr as E
from . import fbd as F
from . import properties as P
from .linear import (Cube, Dnf, LinCon, LinForm, attach_bounds, bounds_fn,
                     conjoin, linear_form, lower, normalize, quotients,
                     wrapped, TRUE_DNF, FALSE_DNF, clean_cube)
from .model import RuleInstance, RuleShape, SfcModel

STEP_PREFIX = "step:"
ACT_PREFIX = "act:"
POST_PREFIX = "post:"
WRITTEN = "written"  # a change index value: the action writes the variable


@dataclass(frozen=True)
class Entailment:
    """The proof case after the rules when there is a target: I implies P."""

    def label(self) -> str:
        return "entail"


ENTAIL = Entailment()


def proof_cases(model: SfcModel, target) -> tuple:
    """One proof case per rule instance, in enumeration order, then ENTAIL
    when there is a target."""
    return (*model.rules, *(() if target is None else (ENTAIL,)))


@dataclass(frozen=True)
class CaseObligation:
    rule: RuleInstance | Entailment
    hyp_cubes: Dnf
    neg_concl: tuple[Dnf, ...]  # per top-level conjunct of the conclusion


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


def _activity_var(kind: str, name: str) -> str:
    """The 0/1 variable of an activity atom's step or action."""
    return step_var(name) if kind == "step" else act_var(name)


def _declared(model: SfcModel, kind: str) -> tuple[str, ...]:
    """The model's steps or actions, by an activity atom's kind."""
    return model.steps if kind == "step" else model.action_ids()


def _activity_dnf(value, want: int) -> Dnf:
    """DNF for `atom == want` where the atom evaluates to 0, 1 or a variable."""
    if isinstance(value, int):
        return TRUE_DNF if value == want else FALSE_DNF
    return ((_eq01(value, want),),)


def _none_of(kind, names, within) -> P.Formula:
    """``!kind(n)`` for each of *names* (a model's, so in name order)
    outside *within*, joined by one ``&&``."""
    return E.chain(E.And, (E.Not(P.Active(kind, n)) for n in names
                           if n not in within))


# --- action effects ---------------------------------------------------------

def effect_summary(model: SfcModel, aid: str) -> dict[str, LinForm]:
    """Parallel update map of an action: raw forms over the pre-state.

    Sequential assignment lists fold by substitution (each right-hand side
    sees the forms of earlier assignments).  Raises FragmentError for
    diagrams or expressions outside the linear fragment.
    """
    action = model.action(aid)
    if action.fbd_ref is not None:
        return F.linear_summary(model.program(action.fbd_ref))
    cur: dict[str, LinForm] = {}
    for name, rhs in action.assigns:
        cur[name] = linear_form(rhs, cur)
    return cur


# --- the derivation context ------------------------------------------------

def _once(memo: dict, key, compute):
    """``memo[key]``, computed on first use and kept if it succeeds (a
    failed piece fails again, alike, on every use)."""
    got = memo.get(key)
    if got is None:  # no piece is None
        got = memo[key] = compute()
    return got


class DerivationContext:
    """A property (invariant, optional target) of a model and the pieces of
    its derivation, each derived on first use and kept.  The pieces of the
    model alone (the env, guard normalizations, the change index and each
    rule's ``summary``, ``prefix`` and ``definitions``) go in ``shared``,
    which every property of the model reads: a plain dict on the model
    object, holding no reference to the model.  Pieces are asked for in a
    fixed order, so obligations and errors equal fresh ones.

    Normalizations are keyed by the expression, whose equality ignores
    ``E.Cmp.width``.  That is exact here: every comparison reaching a
    context was annotated by ``E.typecheck`` under the model's env (model
    construction annotates guards, ``properties.check_refs`` atoms), and
    typecheck's width depends only on the operands and the env, so equal
    expressions carry equal widths.
    """

    def __init__(self, model: SfcModel, formula: P.Formula,
                 target: P.Formula | None = None):
        self.model = model
        self.formula = formula
        self.target = target
        self.shared = model.__dict__.setdefault("_derivation", {})
        self.env = _once(self.shared, "env", lambda: symbolic_env(model))
        self._memo: dict = {}

    def normalized(self, e: E.Expr, negate: bool = False) -> Dnf:
        """``normalize`` of a guard or atom over the pre-state."""
        return _once(self.shared, ("normalize", e, negate), lambda: normalize(
            e, self.env, negate=negate))

    def changes(self) -> dict:
        """The change index: variable -> {rule instance: 0 or 1 for a step
        or action it sets (a later entry wins), ``WRITTEN`` for a variable
        its action assigns or its diagram writes: its summary's keys}."""
        model = self.model

        def index():
            out: dict = {}
            for rule, shape in model.rules.items():
                entries = [(pre + n, value) for pre, names, value in (
                    (STEP_PREFIX, shape.steps_off, 0),
                    (STEP_PREFIX, shape.steps_on, 1),
                    (ACT_PREFIX, shape.acts_off, 0),
                    (ACT_PREFIX, shape.acts_on, 1)) for n in names]
                action = shape.action and model.action(shape.action)
                if action and action.fbd_ref is not None:
                    entries += [(b.var, WRITTEN) for b in model.fbd(
                        action.fbd_ref).blocks if b.kind == "write"]
                elif action:
                    entries += [(n, WRITTEN) for n, _ in action.assigns]
                for var, value in entries:
                    out.setdefault(var, {})[rule] = value
            return out
        return _once(self.shared, "changes", index)

    def summary(self, rule: RuleInstance) -> dict | None:
        """The effect summary of the rule's action, None without one."""
        aid = self.model.rules[rule].action
        return aid and _once(self.shared, rule,
                             lambda: effect_summary(self.model, aid))

    def prefix(self, rule: RuleInstance) -> Dnf:
        """Join of the activity cube, guards and negated blocking guards."""
        def pieces(shape: RuleShape):
            yield (clean_cube(
                tuple([_eq01(act_var(a), 1) for a in shape.pending]
                      + [_eq01(step_var(s), 1) for s in shape.steps]
                      + [_eq01(act_var(a), 0) for a in shape.idle])),)
            yield from map(self.normalized, shape.guards)
            yield from (self.normalized(g, negate=True) for g in shape.blocked)
        return _once(self.shared, ("prefix", rule),
                     lambda: conjoin(pieces(self.model.rules[rule])))

    def definitions(self, rule: RuleInstance) -> Dnf:
        """The join, in name order, of each written variable's definition
        cube: the hypothesis defining post:V = wrap(form)."""
        summary = self.summary(rule)
        def definition(name):
            form, bits = summary[name], E.bits_of(self.env[name])
            value, members = wrapped(form, bits, *quotients(
                form, bits, bounds_fn(self.env)))
            # post:name == form - q*2**bits, within the type range; no
            # member is constant-false, so the cube is never None
            return (clean_cube((LinCon.make(value.sub(
                LinForm.of_var(post_var(name))), "==", 0),) + members),)
        return _once(self.shared, ("definitions", rule), lambda: conjoin(
            definition(name) for name in sorted(summary)))

    @cached_property
    def conjuncts(self) -> tuple[P.Formula, ...]:
        return P.conjuncts(self.formula)

    @cached_property
    def readings(self) -> dict:
        """Rule instance -> its reading of each top-level conjunct: its
        change index entries among the variables the conjunct reads (an
        active atom's, a subset atom's outside the set, an arithmetic
        atom's), in name order.  A rule that frames every one is absent."""
        def reads(atom) -> set[str]:
            if isinstance(atom, P.Active):
                return {_activity_var(atom.kind, atom.name)}
            return {_activity_var(atom.kind, n)
                    for n in _declared(self.model, atom.kind)
                    if n not in atom.names}

        index, n = self.changes(), len(self.conjuncts)
        out: dict = {}
        for i, conjunct in enumerate(self.conjuncts):
            for var in sorted(E.vars_of(conjunct, reads)):
                for rule, value in index.get(var, {}).items():
                    out.setdefault(rule, [()] * n)[i] += ((var, value),)
        return out

    def negated(self, conjunct: P.Formula, post: dict) -> Dnf:
        """The conjunct negated after *post*, bounds attached."""
        return tuple([attach_bounds(c, self.env) for c in self.formula_dnf(
            conjunct, post, negated=True)])

    def pre_dnf(self) -> Dnf:
        """The property on the pre-state."""
        return _once(self._memo, "pre",
                     lambda: self.formula_dnf(self.formula, {}))

    def formula_dnf(self, f: P.Formula, post: dict,
                    negated: bool = False) -> Dnf:
        """DNF of a formula after a rule that sets *post*'s change index
        entries, a written V read as ``post:V`` (``{}``: the pre-state)."""
        subst = {v: LinForm.of_var(post_var(v))
                 for v, value in post.items() if value == WRITTEN}
        def leaf(atom, neg):
            if isinstance(atom, P.Active):
                var = _activity_var(atom.kind, atom.name)
                return _activity_dnf(post.get(var, var), 0 if neg else 1)
            # a subset atom's names outside the set are the model's, the
            # same after every rule, so its formula is built once; not
            # lowered by leaf itself, which would make a reference cycle
            if isinstance(atom, P.Within):
                none_of = _once(self._memo, atom, lambda: _none_of(
                    atom.kind, _declared(self.model, atom.kind), atom.names))
                return self.formula_dnf(none_of, post, neg)
            # an arithmetic atom
            if not subst:  # memory reads as in the pre-state
                return self.normalized(atom, neg)
            return normalize(atom, self.env, subst=subst, negate=neg)

        return lower(f, negated, leaf)


def hypothesis(ctx: DerivationContext, rule: RuleInstance | Entailment) -> Dnf:
    """A proof case's hypothesis cubes, bounds attached: ENTAIL's are the
    invariant's, a rule's the left-fold join of its prefix, the invariant
    and its post-value definitions, each derived when the join reaches it:
    the cubes and failures of one join of every piece."""
    def pieces():
        yield ctx.prefix(rule)
        yield ctx.pre_dnf()
        if ctx.summary(rule) is not None:
            yield ctx.definitions(rule)

    hyp = ctx.pre_dnf() if rule is ENTAIL else conjoin(pieces())
    return tuple(attach_bounds(c, ctx.env) for c in hyp)


def build_obligation(ctx: DerivationContext,
                     rule: RuleInstance | Entailment) -> CaseObligation:
    """Obligation for one proof case of *ctx*'s model and property: the
    induction step of a rule instance, or for ENTAIL the invariant's
    pre-state cubes against the negated target conjuncts on the pre-state.
    A conjunct is negated once per distinct reading, and an empty reading
    frames it (see the module docstring); a closed case derives nothing.

    Pass the same context for every case of one property to derive the
    shared pieces once.  Raises FragmentError for an effect, guard or atom
    outside the linear fragment and LimitExceeded past the disjunct cap;
    either leaves the case undecided, never wrongly proved.
    """
    if rule is ENTAIL:
        neg = [ctx.negated(c, {}) for c in P.conjuncts(ctx.target)]
    else:
        readings = ctx.readings.get(rule)
        if readings is None:  # closed: nothing of the rule is derived
            return CaseObligation(rule, (), (FALSE_DNF,) * len(ctx.conjuncts))
        ctx.summary(rule)  # a failing effect fails first
        # one derivation per conjunct and reading, which many rules share
        neg = [reading and _once(ctx._memo, (i, reading), lambda: ctx.negated(
            ctx.conjuncts[i], dict(reading)))
            for i, reading in enumerate(readings)]
    hyp = hypothesis(ctx, rule) if any(neg) else ()
    return CaseObligation(rule, hyp, tuple(neg))


def joint_cubes(hyp_cube: Cube, neg_concl: tuple[Dnf, ...]):
    """The hypothesis cube joined with each negated-conclusion cube, in
    conjunct order and then cube order: the joins the verifier refutes and
    the checker replays witnesses against, each equal to its cube of
    ``conjoin(((hyp_cube,), neg_dnf))``.  Lazy, and no join overflows: each
    DNF is within the cap.
    """
    have = set(hyp_cube)
    for neg_dnf in neg_concl:
        for cb in neg_dnf:
            yield hyp_cube + tuple([c for c in cb if c not in have])
