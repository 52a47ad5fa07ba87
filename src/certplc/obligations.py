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
semantics reads too.  A case's hypothesis is a list of pieces, each a DNF,
in derivation order: the shape's activity cube, each guard, each negated
blocking guard, each top-level conjunct of the invariant on the
pre-state, and the post-value definitions; ENTAIL's pieces are the
invariant's conjuncts.  ``linear.lower`` lowers every formula.  A piece
with no cube closes the case.  The root cube is the join of every one-cube
piece, bounds attached; the splits are the pieces of two or more cubes, in
order.  A proof splits on a piece only where it needs to: a split child's
cube is its parent's followed by the chosen cube's members (``refine``),
so the leaves under a node cover every cube of the pieces' product that
extends it, and a witness refuting a leaf's cube refutes each of them.
The conclusion is, for each top-level conjunct of the invariant, the
negated conjunct on the post-state the shape describes, as a disjunction
of cubes.  The rule holds when every cube of the hypothesis product is
jointly unsatisfiable with every negated-conclusion cube; a case whose
negated-conclusion DNFs are all empty is closed and has no root cube.
Both the verifier and the certificate checker derive obligations through
this module, so a certificate only needs to say where it splits, which
cubes are contradictory and supply the witnesses.  A property with a
target adds one obligation, ENTAIL: the invariant's pre-state pieces
against each target conjunct negated on the same pre-state.

Frame rule: a rule instance's negated conclusion is empty for each
top-level conjunct whose reading is empty: the rule's entries in the
model's change index (each step or action it sets to 0 or 1, each
variable its action writes, read off the text) among the variables the
conjunct reads.  A case whose readings are all empty derives nothing of
its rule; an open conjunct is negated once per distinct reading.  This
is sound because induction assumes the invariant on the pre-state (a
fact, not a derived cube), and the conjunct reads the same entries after
the rule.  ENTAIL is never framed: its conclusion is the target.

Constant reading: a variable V that a rule's action writes with a
constant summary form reads after the rule as that constant, wrapped at
its type and joining the reading, not as ``post:V``, so a conjunct over
it folds.  The hypothesis keeps V's post-value definition.

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
    hyp_cubes: Dnf  # the root cube, or none when the case is closed
    neg_concl: tuple[Dnf, ...]  # per top-level conjunct of the conclusion
    splits: tuple[Dnf, ...] = ()  # the pieces of two or more cubes


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
    rule's ``summary``, ``pinned``, ``activity`` and ``definitions``) go in
    ``shared``, which every property of the model reads: a plain dict on
    the model object, holding no reference to the model.  Pieces are asked
    for in a fixed order, so obligations and errors equal fresh ones.

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

    def pinned(self, rule: RuleInstance) -> dict:
        """Each variable the rule's action writes with a constant summary
        form -> that constant, wrapped at the variable's type."""
        return _once(self.shared, ("pinned", rule), lambda: {
            v: form.const & E.max_of(self.env[v])
            for v, form in (self.summary(rule) or {}).items()
            if form.is_const()})

    def activity(self, rule: RuleInstance) -> Dnf:
        """The rule's activity cube: its pending and idle actions, its
        steps."""
        def cube(shape: RuleShape):
            return (clean_cube(
                tuple([_eq01(act_var(a), 1) for a in shape.pending]
                      + [_eq01(step_var(s), 1) for s in shape.steps]
                      + [_eq01(act_var(a), 0) for a in shape.idle])),)
        return _once(self.shared, ("activity", rule),
                     lambda: cube(self.model.rules[rule]))

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

    def framed(self, rule: RuleInstance | Entailment) -> bool:
        """The frame rule closes the case: it derives nothing."""
        return rule is not ENTAIL and rule not in self.readings

    def negated(self, conjunct: P.Formula, post: dict) -> Dnf:
        """The conjunct negated after *post*, bounds attached."""
        return tuple([attach_bounds(c, self.env) for c in self.formula_dnf(
            conjunct, post, negated=True)])

    def pre_pieces(self) -> tuple[Dnf, ...]:
        """Each top-level conjunct of the property on the pre-state."""
        return _once(self._memo, "pre", lambda: tuple(
            [self.formula_dnf(c, {}) for c in self.conjuncts]))

    def formula_dnf(self, f: P.Formula, post: dict,
                    negated: bool = False) -> Dnf:
        """DNF of a formula after a rule that sets *post*'s change index
        entries (``{}``: the pre-state): a written V reads as ``post:V``,
        or as the constant that a constant reading holds for it."""
        subst = {v: LinForm.of_var(post_var(v)) if value == WRITTEN
                 else LinForm.of_const(value) for v, value in post.items()
                 if not v.startswith((STEP_PREFIX, ACT_PREFIX))}
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


def hypothesis(ctx: DerivationContext, rule: RuleInstance | Entailment):
    """A proof case's hypothesis as (root, splits): the root is the join of
    every one-cube piece, bounds attached, and the splits are the pieces of
    two or more cubes, in derivation order; (None, ()) when a piece has no
    cube.  ENTAIL's pieces are the invariant's conjuncts, a rule's its
    activity cube, each guard, each negated blocking guard, each conjunct
    of the invariant and its post-value definitions; every piece is derived,
    in that order, before any is joined."""
    if rule is ENTAIL:
        pieces = ctx.pre_pieces()
    else:
        shape = ctx.model.rules[rule]
        pieces = [ctx.activity(rule), *map(ctx.normalized, shape.guards),
                  *(ctx.normalized(g, negate=True) for g in shape.blocked),
                  *ctx.pre_pieces()]
        if ctx.summary(rule) is not None:
            pieces.append(ctx.definitions(rule))
    if not all(pieces):
        return None, ()
    root = conjoin(p for p in pieces if len(p) == 1)[0]
    return attach_bounds(root, ctx.env), tuple([
        tuple([attach_bounds(c, ctx.env) for c in p])
        for p in pieces if len(p) > 1])


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
    if ctx.framed(rule):  # closed: nothing of the rule is derived
        return CaseObligation(rule, (), (FALSE_DNF,) * len(ctx.conjuncts))
    if rule is ENTAIL:
        neg = [ctx.negated(c, {}) for c in P.conjuncts(ctx.target)]
    else:
        readings = ctx.readings[rule]
        pinned = ctx.pinned(rule)  # a failing effect fails first
        if pinned:  # a constant write's reading holds its value
            readings = [tuple((v, pinned.get(v, value)) for v, value in r)
                        for r in readings]
        # one derivation per conjunct and reading, which many rules share
        neg = [reading and _once(ctx._memo, (i, reading), lambda: ctx.negated(
            ctx.conjuncts[i], dict(reading)))
            for i, reading in enumerate(readings)]
    if not any(neg):
        return CaseObligation(rule, (), tuple(neg))
    root, splits = hypothesis(ctx, rule)
    return CaseObligation(rule, () if root is None else (root,), tuple(neg),
                          splits)


def refine(cube: Cube, piece_cube: Cube) -> Cube:
    """A split child's cube: the ``conjoin`` of *cube* and the chosen piece
    cube.  It extends *cube*, and with both bounded it equals
    ``attach_bounds`` of *cube* followed by the piece cube's members before
    their bounds."""
    return conjoin(((cube,), (piece_cube,)))[0]


def joint_cubes(hyp_cube: Cube, neg_concl: tuple[Dnf, ...]):
    """A proof node's cube joined with each negated-conclusion cube, in
    conjunct order and then cube order: the joins the verifier refutes and
    the checker replays witnesses against.  Lazy by conjunct, and no join
    overflows: each DNF is within the cap.
    """
    for neg_dnf in neg_concl:
        yield from conjoin(((hyp_cube,), neg_dnf))
