"""One derivation context per property, whose model-wide pieces the model
keeps: shared pieces, same obligations.

The verifier and the checker derive every rule instance's obligation
through a ``DerivationContext`` for the property.  It computes the
symbolic env, the guard normalizations, the change index and each rule
instance's effect summary, hypothesis prefix and post-value definitions
once per model, in a plain dict memo the model keeps, and negates each
conjunct once per distinct reading of the property.  These tests pin
that sharing changes nothing (obligations, verdicts, certificates,
exception types and messages), whatever order the properties come in,
that the change index holds what the exact post-state held, and that the
sharing really removes the per-rule-instance and per-property work.  They
also pin that every obligation cube is clean, which lets cube joins skip
cleaning.
"""

import gc
import weakref
from collections import Counter
from functools import partial, reduce
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certplc import certificate as C
from certplc import expr as E
from certplc import fbd as F
from certplc import linear as L
from certplc import obligations as O
from certplc import properties as P
from certplc import semantics as S
from certplc import verifier as V
from certplc.lia.solver import Unsat, decide_sat
from certplc.linear import LinCon, attach_bounds, clean_cube, normalize
from certplc.model import canonical_text, parse_model
from certplc.prooftree import CaseProof, HypEntry, ProofTree

from conftest import (FIXTURES, NONLINEAR_ATOM, NONLINEAR_ATOM_PROP,
                      NONLINEAR_GUARD, OPAQUE, WRAP_BLOWUP, WRAP_BLOWUP_PROP,
                      benchmark_cases, fixture_names, load_invariants,
                      load_model, quotient_points, rule_post, strip_widths)


def _cases():
    for name in fixture_names():
        model = load_model(name)
        for inv in load_invariants(name, model):
            yield name, model, inv.formula
    # small rings, where many actions write one counter and so share a
    # reading
    for mc in benchmark_cases():
        model = parse_model(mc.text)
        if mc.name.startswith("ring") and len(model.steps) <= 8:
            for inv in P.parse_properties(mc.props_text(), model):
                yield mc.name, model, inv.formula
    m = parse_model(OPAQUE)
    yield "opaque", m, P.parse_formula_text("y <= 65535", m)
    # trans:0 activates T, so its case needs the guard
    m = parse_model(NONLINEAR_GUARD)
    yield "nonlinear_guard", m, P.parse_formula_text("!step(T)", m)
    m = parse_model(NONLINEAR_ATOM)
    yield "nonlinear_atom", m, P.parse_properties(NONLINEAR_ATOM_PROP,
                                                  m)[0].formula


def _outcome(ctx, rule):
    try:
        return O.build_obligation(ctx, rule)
    except (L.FragmentError, L.LimitExceeded) as err:
        return type(err), str(err)


class TestSharedEqualsFresh:
    @pytest.mark.parametrize("cap", [512, 3])
    def test_every_rule_instance(self, cap, monkeypatch):
        """Each rule's obligation, derived in order through one context,
        equals the one a fresh parse and a fresh context derive for that
        rule alone, where no memo can answer."""
        monkeypatch.setattr(L, "CAP", cap)
        seen = set()
        shared_readings = 0
        for name, model, formula in _cases():
            ctx = O.DerivationContext(model, formula)
            uses = Counter()
            for rule in model.rules:
                shared = _outcome(ctx, rule)
                # a fresh parse of the model has fresh model-wide pieces
                again = parse_model(canonical_text(model))
                fresh = _outcome(O.DerivationContext(again, formula), rule)
                assert shared == fresh, (name, rule.label())
                if isinstance(shared, tuple):
                    seen.add(shared[0])
                uses.update((i, r) for i, r in enumerate(
                    ctx.readings.get(rule, ())) if r)
            shared_readings += sum(n > 1 for n in uses.values())
        # both failure kinds were compared, and many obligations read a
        # negated conjunct derived for an earlier rule
        want = {L.FragmentError}
        if cap == 3:
            want.add(L.LimitExceeded)
        assert want <= seen
        assert shared_readings >= 20

    def test_failed_piece_fails_again_with_same_message(self):
        # every rule can falsify a conjunct, so every case is open (B makes
        # react:T change something): the execute cases fail in their
        # negated conclusion, the others in the pre-state DNF
        m = parse_model(NONLINEAR_ATOM.replace(
            "trans ", "action B on T { y := 0; }\ntrans "))
        f = P.parse_formula_text(
            "x * y <= 5000 && !step(T) && !action(A) && !action(B)", m)
        ctx = O.DerivationContext(m, f)
        rules = list(m.rules)
        # exec:A, exec:B, trans:0, react:S, react:T
        assert len(rules) == 5
        for rule in rules:
            assert _outcome(ctx, rule) == (
                L.FragmentError,
                "multiplication of two non-constant expressions")


_ENV = {"a": "int8", "b": "int16", "c": "bool"}
# per variable: -v <= 0, then v <= max
_BOUNDS = [LinCon(((v, k),), "<=", 0 if k < 0 else E.max_of(ty))
           for v, ty in _ENV.items() for k in (-1, 1)]
_CONS = st.one_of(
    st.sampled_from(_BOUNDS),
    st.builds(LinCon,
              st.dictionaries(st.sampled_from(sorted(_ENV)),
                              st.integers(-3, 3).filter(bool), min_size=1,
                              max_size=3).map(lambda d: tuple(sorted(
                                  d.items()))),
              st.sampled_from(["<=", "=="]), st.integers(-3, 3)))


@st.composite
def _dnf_pairs(draw):
    """Two DNFs of clean cubes drawn from one pool of constraints, so that
    their cubes share members and sometimes hold width bounds already."""
    pool = draw(st.lists(_CONS, min_size=1, max_size=10, unique=True))
    cube = st.lists(st.sampled_from(pool), max_size=6, unique=True).map(tuple)
    return (tuple(draw(st.lists(cube, min_size=1, max_size=3))),
            tuple(draw(st.lists(cube, min_size=1, max_size=3))))


@st.composite
def _dnf_chains(draw):
    """Two to five DNFs of clean cubes (none, one or several cubes each)
    drawn from one pool of constraints."""
    pool = draw(st.lists(_CONS, min_size=1, max_size=10, unique=True))
    cube = st.lists(st.sampled_from(pool), max_size=6, unique=True).map(tuple)
    dnf = st.lists(cube, max_size=3).map(tuple)
    return draw(st.lists(dnf, min_size=2, max_size=5))


def _with_bounds(cube):
    """Reference for attach_bounds: append every bound, then clean."""
    names = dict.fromkeys(v for con in cube for v, _ in con.coeffs)
    bounds = (b for v in names for b in _BOUNDS if b.coeffs[0][0] == v)
    return clean_cube(cube + tuple(bounds))


def _product(dnfs):
    """Reference for linear.conjoin: the cleaned concatenation of every
    combination of cubes, joined left to right from the true DNF, past the
    cap once a product holds CAP + 1 cubes."""
    acc = L.TRUE_DNF
    for b in dnfs:
        out = []
        for x in acc:
            for y in b:
                out.append(clean_cube(x + y))
                if len(out) > L.CAP:
                    raise L.LimitExceeded(
                        f"{len(out)} disjuncts exceed cap {L.CAP}")
        acc = tuple(out)
    return acc


def _is_clean(cube):
    return all(con.coeffs for con in cube) and len(set(cube)) == len(cube)


class TestCleanCubes:
    """Every cube of a Dnf is clean (no constant member, no duplicate), so
    joins and bounding skip cleaning; they must equal cleaning anyway."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_dnf_pairs())
    def test_fast_paths_equal_cleaning(self, pair):
        a, b = pair
        assert L.conjoin((a, b)) == _product((a, b)) == \
            tuple(clean_cube(x + y) for x in a for y in b)
        for x in a:
            assert list(O.joint_cubes(x, (b, (), b))) == \
                [clean_cube(x + y) for y in b] * 2
            assert attach_bounds(x, _ENV) == _with_bounds(x)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_dnf_chains(), st.sampled_from([1, 2, 4, 8, 512]), st.booleans())
    def test_chain_lowers_as_left_deep_chain(self, dnfs, cap, conjunction):
        """A chain's operands are lowered and joined in the order, with the
        cubes and the point of overflow, of left-deep binary nodes."""
        node = E.And if conjunction else E.Or
        atoms = [E.Var(str(i)) for i in range(len(dnfs))]
        deep = reduce(lambda acc, atom: node((acc, atom)), atoms)

        def outcome(e, negate):
            asked = []

            def leaf(atom, neg):
                asked.append(atom.name)
                return dnfs[int(atom.name)]
            try:
                return L.lower(e, negate, leaf), asked
            except L.LimitExceeded as err:
                return str(err), asked

        with mock.patch.object(L, "CAP", cap):
            for negate in (False, True):
                assert outcome(node(tuple(atoms)), negate) == \
                    outcome(deep, negate)
            try:
                want = (_product if conjunction else
                        partial(reduce, L.dnf_or))(dnfs)
            except L.LimitExceeded as err:
                want = str(err)
            assert outcome(node(tuple(atoms)), False)[0] == want

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_obligation_cubes_are_clean(self, name):
        model = load_model(name)
        for inv in load_invariants(name, model):
            ctx = O.DerivationContext(model, inv.formula)
            for rule in model.rules:
                ob = _outcome(ctx, rule)
                if isinstance(ob, tuple):  # not derivable
                    continue
                for cube in ob.hyp_cubes:
                    assert _is_clean(cube), (name, rule.label())
                for dnf in ob.neg_concl:
                    for cube in dnf:
                        assert _is_clean(cube), (name, rule.label())

    def test_fixture_joins_equal_dnf_and(self):
        """joint_cubes builds one member set per hypothesis cube; its joins
        are the cleaned products', cube for cube, conjunct by conjunct and
        in order, for every fixture obligation."""
        joined = 0
        for name, model, formula in _cases():
            ctx = O.DerivationContext(model, formula)
            for rule in model.rules:
                ob = _outcome(ctx, rule)
                if isinstance(ob, tuple):  # not derivable
                    continue
                for cube in ob.hyp_cubes:
                    got = list(O.joint_cubes(cube, ob.neg_concl))
                    assert got == [j for dnf in ob.neg_concl
                                   for j in _product(((cube,), dnf))], \
                        (name, rule.label())
                    joined += len(got)
        assert joined > 0


def _cmps(e):
    if isinstance(e, E.Cmp):
        yield e
    elif isinstance(e, (E.And, E.Or)):
        for arg in e.args:
            yield from _cmps(arg)
    elif isinstance(e, E.Not):
        yield from _cmps(e.arg)


def _atoms(f):
    if isinstance(f, (E.And, E.Or)):
        for arg in f.args:
            yield from _atoms(arg)
    elif isinstance(f, E.Not):
        yield from _atoms(f.arg)
    elif not isinstance(f, (P.Active, P.Within)):
        yield f


class TestNormalizationKey:
    """The context keys normalizations by expression equality, which
    ignores ``E.Cmp.width``; that is exact because, under one model's
    declarations, equal guards and atoms always carry equal widths."""

    def test_width_matters_to_normalize(self):
        env = {"x": "int8"}
        x1 = E.Sum((E.Var("x"), E.IntLit(1)), (1, 1))
        narrow = E.Cmp("<", x1, E.IntLit(3), "int8")
        wide = E.Cmp("<", x1, E.IntLit(3), "int16")
        assert narrow == wide and hash(narrow) == hash(wide)
        assert normalize(narrow, env) != normalize(wide, env)

    @pytest.mark.parametrize("name", fixture_names())
    def test_equal_guards_and_atoms_carry_equal_widths(self, name):
        model = load_model(name)
        env = O.symbolic_env(model)
        exprs = [t.guard for t in model.transitions]
        for inv in load_invariants(name, model):
            exprs.extend(_atoms(inv.formula))
        widths = {}
        for e in exprs:
            # the width is the one typecheck gives an unannotated copy
            ann, _ = E.typecheck(strip_widths(e), env)
            assert [c.width for c in _cmps(e)] == \
                [c.width for c in _cmps(ann)], (name, e)
            for c in _cmps(e):
                assert widths.setdefault(c, c.width) == c.width, (name, c)


def _ring(n: int) -> str:
    lines = ["var c : int16"]
    lines += [f"step S{k}" + (" [initial]" if k == 0 else "")
              for k in range(n)]
    lines += [f"action A{k} on S{k} {{ c := {k}; }}" for k in range(n)]
    lines += [f"trans {{S{k}}} -[ c <= {n + 8} ]-> {{S{(k + 1) % n}}}"
              for k in range(n)]
    return "\n".join(lines) + "\n"


class TestWorkCount:
    """Deriving a ring's obligations normalizes each distinct guard and
    atom O(1) times, not once per rule instance, and negates each conjunct
    once per distinct reading, not once per rule that changes it."""

    N = 32

    def _counting(self, monkeypatch, name):
        calls = []
        original = getattr(O, name)

        def counted(*args, **kwargs):
            calls.append(args[0] if args else None)
            return original(*args, **kwargs)

        monkeypatch.setattr(O, name, counted)
        return calls

    def test_ring_derivation(self, monkeypatch):
        model = parse_model(_ring(self.N))
        inv = P.parse_properties(
            f"invariant p : always (c <= {self.N - 1} && "
            f"(!action(A{self.N // 2}) || step(S{self.N // 2})));\n",
            model)[0]
        rules = list(model.rules)
        assert len(rules) == 3 * self.N
        atoms = list(_atoms(inv.formula))
        guards = {t.guard for t in model.transitions}
        # per polarity one pre-state normalization of each distinct guard
        # and atom, plus one post-state normalization of each atom per
        # distinct reading: every action writes c, so c's conjunct has one
        # reading, and the other conjunct has no arithmetic atom
        bound = 2 * (len(guards) + len(atoms)) + len(atoms)

        normalized = self._counting(monkeypatch, "normalize")
        envs = self._counting(monkeypatch, "symbolic_env")
        ctx = O.DerivationContext(model, inv.formula)
        obs = [O.build_obligation(ctx, rule) for rule in rules]
        assert len(obs) == len(rules)
        assert len(normalized) <= bound < self.N
        assert len(envs) == 1
        # the actions share c's reading; the other conjunct's readings
        # are the few rules that touch A16 or S16
        readings = {(i, r) for by_conj in ctx.readings.values()
                    for i, r in enumerate(by_conj) if r}
        assert len({r for i, r in readings if i == 0}) == 1
        assert len(readings) <= 6

        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        cert = C.emit(model, inv, res.tree)
        normalized.clear()
        envs.clear()
        assert C.check(cert).accepted
        assert len(normalized) <= bound
        assert len(envs) == 1

    def test_subset_atoms_built_once_per_context(self, monkeypatch):
        """Each subset atom's ``!step(T)`` / ``!action(B)`` conjunction is
        built once per context, not once per rule instance and conjunct."""
        model = parse_model(_ring(self.N))
        steps = ", ".join(f"S{k}" for k in range(self.N))
        half = ", ".join(f"A{k}" for k in range(self.N // 2))
        inv = P.parse_properties(
            f"invariant p : always (c <= {self.N - 1} && "
            f"steps_within {{{steps}}} && (actions_within {{{half}}} || "
            f"!actions_within {{{half}}}));\n", model)[0]
        distinct = 2
        built = self._counting(monkeypatch, "_none_of")
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        assert 0 < len(built) <= distinct
        cert = C.emit(model, inv, res.tree)
        built.clear()
        assert C.check(cert).accepted
        assert 0 < len(built) <= distinct


# S's action writes x, T's writes y; T loops on itself and leaves for U
FRAME = parse_model("""var x : int8
var y : int8
step S [initial]
step T
step U
action A on S { x := x + 1; }
action B on T { y := 0; }
trans {S} -[ x >= 3 ]-> {T}
trans {T} -[ y == 0 ]-> {T}
trans {T} -[ x < 3 ]-> {U}
""")


def _framing(text, rule, model=FRAME):
    """Per conjunct of *text*, whether *rule*'s obligation gives it no
    cube; each conjunct chosen has cubes on the exact post-state."""
    f = P.parse_formula_text(text, model)
    ctx = O.DerivationContext(model, f)
    ob = O.build_obligation(ctx, rule)
    post = rule_post(model, rule)
    out = []
    for conj, neg in zip(P.conjuncts(f), ob.neg_concl):
        assert ctx.formula_dnf(conj, post, negated=True), E.pretty(conj)
        out.append(neg == ())
    return out


class TestFrameRule:
    """A rule instance's obligation gives no cube to a conjunct that reads
    nothing the instance changes, and to no other conjunct."""

    def test_written_variable(self):
        assert _framing("x <= 100 && y <= 100 && action(A) && step(S) && "
                        "action(B)", S.ExecuteAction("A")) == \
            [False, True, False, True, True]
        # a write of the value already held still counts as a write
        assert _framing("y <= 100 && x <= 100", S.ExecuteAction("B")) == \
            [False, True]

    def test_toggled_steps_and_actions(self):
        assert _framing("step(S) && !step(T) && !action(B) && step(U) && "
                        "action(A) && x <= 100", S.StepTransition(0)) == \
            [False, False, False, True, True, True]

    def test_self_loop_is_not_framed(self):
        # T leaves and re-enters: its entry is 1 after, a variable before
        assert _framing("!step(T) && !action(B) && step(S)",
                        S.StepTransition(1)) == [False, False, True]

    def test_subset_atoms_read_the_names_outside(self):
        within = "steps_within {S, T} && actions_within {A}"
        assert _framing(within, S.StepTransition(0)) == [True, False]
        assert _framing(within, S.StepTransition(2)) == [False, True]
        assert _framing(within, S.ExecuteAction("A")) == [True, True]

    def test_rule_that_changes_nothing_closes_every_conjunct(self):
        # reactivating U runs no action and toggles nothing
        f = P.parse_formula_text("x <= 100 && step(U) && steps_within {U}",
                                 FRAME)
        ctx = O.DerivationContext(FRAME, f)
        ob = O.build_obligation(ctx, S.Reactivate("U"))
        assert ob.neg_concl == ((), (), ())
        # a closed case: its hypothesis has cubes, the obligation none
        assert O.hypothesis(ctx, S.Reactivate("U"))
        assert ob.hyp_cubes == ()

    def test_entail_is_never_framed(self):
        # nothing changes between ENTAIL's pre- and post-state, so a frame
        # rule applied there would accept any target
        inv = P.Invariant("i", P.parse_formula_text("steps_within {S, T, U}",
                                                    FRAME))
        target = P.Invariant("t", P.parse_formula_text("x <= 5", FRAME))
        ob = O.build_obligation(O.DerivationContext(
            FRAME, inv.formula, target=target.formula), O.ENTAIL)
        assert ob.neg_concl and all(ob.neg_concl)
        res = V.verify_invariant(FRAME, inv, target)
        assert isinstance(res, V.Refuted) and res.rule is O.ENTAIL

    def test_framed_conjunct_past_the_cap_is_not_lowered(self):
        """A conjunct over a variable no rule writes, whose negation has
        more cubes than the cap, is closed under every rule instead of
        leaving exec:A undecided; its certificate checks."""
        m = parse_model("var x : int16\nvar y : int16\nstep S [initial]\n"
                        "step T\naction A on S { x := x + 1; }\n"
                        "trans {S} -[ x < 10 ]-> {T}\n"
                        "trans {T} -[ true ]-> {S}\n")
        clauses = " || ".join(f"(y >= {2 * k} && y <= {2 * k + 1} || "
                              "y == 0)" for k in range(1, 12))
        inv, = P.parse_properties(
            f"invariant p : always (x <= 65535 && ({clauses}));", m)
        ctx = O.DerivationContext(m, inv.formula)
        post = rule_post(m, S.ExecuteAction("A"))
        with pytest.raises(L.LimitExceeded):
            ctx.formula_dnf(P.conjuncts(inv.formula)[1], post, negated=True)
        res = V.verify_invariant(m, inv)
        assert isinstance(res, V.Proved)
        assert C.check(C.emit(m, inv, res.tree)).accepted

    def test_unframed_conjunct_needs_its_cubes(self, loop_model):
        """In x_capped_ind's obligations, exec:A_Init writes x, so the
        conjunct ``x <= 10`` has negated-conclusion cubes there; trans:1
        does not, so it has none, and its entries list witnesses for the
        other conjuncts only.  Dropping the witnesses of ``x <= 10`` from
        one exec:A_Init entry is rejected."""
        inv = next(i for i in load_invariants("loop", loop_model)
                   if i.name == "x_capped_ind")
        res = V.verify_invariant(loop_model, inv)
        assert isinstance(res, V.Proved)
        ctx = O.DerivationContext(loop_model, inv.formula)
        obs = {r.label(): O.build_obligation(ctx, r)
               for r in loop_model.rules}
        assert obs["trans:1"].neg_concl[0] == ()
        own = len(obs["exec:A_Init"].neg_concl[0])
        assert own > 0
        cases = {c.label: c for c in res.tree.cases}
        for label in ("trans:1", "exec:A_Init"):
            cubes = sum(map(len, obs[label].neg_concl))
            assert all(e.witnesses is None or len(e.witnesses) == cubes
                       for e in cases[label].hyps)
        assert C.check(C.emit(loop_model, inv, res.tree)).accepted
        hyps = list(cases["exec:A_Init"].hyps)
        i = next(i for i, e in enumerate(hyps) if e.witnesses)
        hyps[i] = HypEntry(witnesses=hyps[i].witnesses[own:])
        tree = ProofTree(tuple(
            CaseProof(c.label, tuple(hyps)) if c.label == "exec:A_Init"
            else c for c in res.tree.cases))
        data = C.emit(loop_model, inv, tree)
        assert f"hyp {i} cubes {len(hyps[i].witnesses)}\n" in data.decode()
        v = C.check(data)
        assert not v.accepted
        assert v.reason == "coverage: negated-conclusion cube count mismatch"
        assert v.path == ("cases", "exec:A_Init", f"hyp {i}")


class TestChangeIndex:
    """The change index, read off the rule shapes and the action texts,
    holds for each rule instance what its exact post-state map held: each
    step and action its shape sets, a later field winning, and the keys of
    its action's effect summary, wherever that summary exists."""

    def test_index_equals_the_post_state_map(self):
        models = [load_model(name) for name in fixture_names()]
        models += [parse_model(mc.text)
                   for mc in benchmark_cases(seeds=(1, 2, 3))]
        models += [parse_model(OPAQUE), parse_model(WRAP_BLOWUP)]
        compared = Counter()
        for model in models:
            for rule, shape in model.rules.items():
                want = {}
                for prefix, names, value in (
                        (O.STEP_PREFIX, shape.steps_off, 0),
                        (O.STEP_PREFIX, shape.steps_on, 1),
                        (O.ACT_PREFIX, shape.acts_off, 0),
                        (O.ACT_PREFIX, shape.acts_on, 1)):
                    want.update((prefix + n, value) for n in names)
                kind = "no action"
                if shape.action is not None:
                    kind = "diagram" if model.action(
                        shape.action).fbd_ref is not None else "assignments"
                    try:
                        summary = O.effect_summary(model, shape.action)
                    except L.FragmentError:
                        compared["no summary"] += 1
                        continue
                    want.update(dict.fromkeys(summary, O.WRITTEN))
                assert rule_post(model, rule) == want, rule.label()
                compared[kind] += 1
        assert min(compared.values()) > 0, compared
        assert compared.total() > 2500, compared


class TestStopsAfterRefutation:
    def test_no_derivation_after_the_refuted_case(self, loop_model,
                                                  monkeypatch):
        built = []
        original = O.build_obligation

        def counted(ctx, rule):
            built.append(rule)
            return original(ctx, rule)

        monkeypatch.setattr(O, "build_obligation", counted)
        inv = P.Invariant("cap", P.parse_formula_text("x <= 10", loop_model))
        res = V.verify_invariant(loop_model, inv)
        assert isinstance(res, V.Refuted)
        assert built[-1] == res.rule
        assert len(built) < len(loop_model.rules)


# the comparison of a difference d, spelled out apart from linear._CMP
_UNPRUNED_REL = {
    "<": lambda d: LinCon.make(d, "<=", -1),
    "<=": lambda d: LinCon.make(d, "<=", 0),
    "==": lambda d: LinCon.make(d, "==", 0),
    ">=": lambda d: LinCon.make(d.scale(-1), "<=", 0),
    ">": lambda d: LinCon.make(d.scale(-1), "<=", -1),
}


def _pair_cubes(op, la, lb, bits, bounds):
    """The comparison as one cube per pair of its operands' quotients, each
    a constant, none dropped: (quotient of la, quotient of lb) -> the
    pair's cube, None when constant-false."""
    modulus = 1 << bits

    def cases(form):
        lo, hi = form.interval(bounds)
        for q in range(lo // modulus, hi // modulus + 1):
            w = form.shift(-q * modulus)
            yield q, w, (LinCon.make(w.scale(-1), "<=", 0),
                         LinCon.make(w, "<=", modulus - 1))

    return {(qa, qb): clean_cube(side_a + side_b
                                 + (_UNPRUNED_REL[op](wa.sub(wb)),))
            for qa, wa, side_a in cases(la) for qb, wb, side_b in cases(lb)}


def _pinned(cube, values):
    """*cube* with each variable of *values* replaced by its value,
    cleaned: None when a member turns constant-false."""
    out = []
    for con in cube:
        k = sum(c * values[v] for v, c in con.coeffs if v in values)
        out.append(LinCon(tuple((v, c) for v, c in con.coeffs
                                if v not in values), con.rel, con.rhs - k))
    return clean_cube(tuple(out))


def _negations(con):
    """One-member cubes whose disjunction is the negation of *con*."""
    flipped = LinCon(tuple((v, -c) for v, c in con.coeffs), "<=",
                     -con.rhs - 1)
    if con.rel == "<=":
        return (flipped,)
    return flipped, con._replace(rel="<=", rhs=con.rhs - 1)


def _entails(cube, other, box) -> bool:
    """Every point of the box that satisfies *cube* satisfies every member
    of *other*, by the decider."""
    return all(isinstance(decide_sat(cube + box + (neg,)), Unsat)
               for con in other for neg in _negations(con))


def _benchmark_charts():
    for mc in benchmark_cases():
        model = parse_model(mc.text)
        yield model, P.parse_properties(mc.props_text(), model)


class TestPrunedWrapCases:
    """In every obligation (hypotheses and negated conclusions) of the
    fixtures and of the seed-1 benchmark charts, a comparison's one cube,
    its quotients variables, denotes within the width bounds the states of
    the disjunction of one cube per pair of its operands' quotients, each
    a constant, by the decider in both directions: each pair's cube
    entails the one cube with its quotient variables set to the pair, and
    the one cube with its quotient variables set to any values in their
    bounds entails some pair's cube (a dropped pair's cube has no
    solution)."""

    def test_one_cube_equals_every_pair(self, monkeypatch):
        calls = {}
        cmp_atom = L._cmp_atom

        def recorded(op, la, lb, bits, bounds):
            out = cmp_atom(op, la, lb, bits, bounds)
            calls[op, la, lb, bits] = bounds, out
            return out

        monkeypatch.setattr(L, "_cmp_atom", recorded)
        charts = list(_benchmark_charts())
        for name in fixture_names():
            model = load_model(name)
            charts.append((model, load_invariants(name, model)))
        for model, invs in charts:
            for inv in invs:
                ctx = O.DerivationContext(model, inv.formula)
                for rule in model.rules:
                    O.build_obligation(ctx, rule)
        monkeypatch.undo()
        collapsed = dropped = 0
        for (op, la, lb, bits), (bounds, out) in calls.items():
            if op == "!=":  # its two halves are recorded on their own
                continue
            assert len(out) <= 1
            one = out[0] if out else None
            pairs = _pair_cubes(op, la, lb, bits, bounds)
            names = (L.quotient_var(bits, la), L.quotient_var(bits, lb))
            box = tuple(b for v in sorted(
                {v for form in (la, lb) for v, _ in form.coeffs}) for b in (
                LinCon(((v, -1),), "<=", -bounds(v)[0]),
                LinCon(((v, 1),), "<=", bounds(v)[1])))
            for (qa, qb), pair in pairs.items():
                if pair is None or isinstance(decide_sat(pair + box), Unsat):
                    dropped += 1
                    continue
                assert one is not None and (la != lb or qa == qb)
                pinned = _pinned(one, {names[0]: qa, names[1]: qb})
                assert pinned is not None and _entails(pair, pinned, box)
            if one is None:
                continue
            collapsed += any(v in names for con in one for v, _ in con.coeffs)
            for values in quotient_points(one, {}):
                pinned = _pinned(one, values)
                if pinned is None or isinstance(decide_sat(pinned + box),
                                                Unsat):
                    continue
                assert any(_entails(pinned, pair, box)
                           for (qa, qb), pair in pairs.items()
                           if pair is not None
                           and values.get(names[0], qa) == qa
                           and values.get(names[1], qb) == qb)
        assert collapsed > 0 and dropped > 0


def _chart_texts():
    """(name, model text, properties text) of every fixture, of the seed-1
    benchmark charts and of charts whose derivation fails: a diagram with
    no linear summary, a non-linear guard or atom, a wrap past the cap."""
    for name in fixture_names():
        yield (name, (FIXTURES / f"{name}.sfc").read_text(),
               (FIXTURES / f"{name}.inv").read_text())
    for mc in benchmark_cases():
        yield mc.name, mc.text, mc.props_text()
    yield "opaque", OPAQUE, ("invariant p : always (y <= 1);\n"
                             "invariant q : always (x <= 65535);\n")
    yield "nonlinear_guard", NONLINEAR_GUARD, (
        "invariant t : always (!step(T));\n"
        "invariant u : always (!step(T) && x <= 65535);\n")
    yield "nonlinear_atom", NONLINEAR_ATOM, NONLINEAR_ATOM_PROP
    yield "wrap_blowup", WRAP_BLOWUP, WRAP_BLOWUP_PROP


def _outcomes(model, invs):
    """Per invariant: the verdict's repr (proof tree, refutation assignment
    or Undecided reason included) and a proved one's certificate bytes."""
    out = []
    for inv in invs:
        res = V.verify_invariant(model, inv)
        proved = isinstance(res, V.Proved)
        out.append((repr(res), C.emit(model, inv, res.tree) if proved
                    else None))
    return out


def _parsed(text, props):
    model = parse_model(text)
    return model, P.parse_properties(props, model)


class TestModelContextSharing:
    """Every property of one parsed model reads the same model-wide
    pieces, kept on the model, which changes no verdict, assignment,
    reason or certificate byte, whatever order the properties come in."""

    def test_shared_equals_fresh_in_any_order(self):
        kinds = Counter()
        for name, text, props in _chart_texts():
            forward = _outcomes(*_parsed(text, props))
            model, invs = _parsed(text, props)
            backward = _outcomes(model, invs[::-1])[::-1]
            fresh = []
            for i in range(len(invs)):
                model, invs = _parsed(text, props)
                fresh += _outcomes(model, invs[i:i + 1])
            assert forward == backward == fresh, name
            kinds.update(r.split("(", 1)[0] for r, _ in forward)
        assert kinds.keys() == {"Proved", "Refuted", "Undecided"}

    @pytest.mark.parametrize("text, props, counted, reason", [
        (NONLINEAR_GUARD, [f"!step(T) && y <= {65535 - k}" for k in range(3)],
         "normalize", "trans:0: multiplication of two non-constant "
         "expressions"),
        (OPAQUE, [f"y <= {k}" for k in range(3)], "linear_summary",
         "exec:Amux: comparison '<' has no linear form"),
    ])
    def test_failed_model_piece_is_not_kept(self, monkeypatch, text, props,
                                            counted, reason):
        """A guard or diagram outside the linear fragment fails with the
        same reason under every property, and is derived again for each:
        the model's memo keeps no failure."""
        module = F if counted == "linear_summary" else O
        calls = []
        original = getattr(module, counted)

        def recorded(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, counted, recorded)
        model = parse_model(text)
        so_far = []  # calls after each property
        for k, formula in enumerate(props):
            inv = P.Invariant(f"p{k}", P.parse_formula_text(formula, model))
            res = V.verify_invariant(model, inv)
            assert isinstance(res, V.Undecided), formula
            assert res.reason == reason
            so_far.append(len(calls))
        if counted == "normalize":  # the guard, once per property
            guard = model.transitions[0].guard
            assert Counter(calls)[guard] == len(props)
        else:
            assert so_far == [1, 2, 3]

    def test_one_linear_summary_per_diagram_action(self, monkeypatch):
        """Verifying n properties of one parsed chart runs
        ``fbd.linear_summary`` once per diagram action, not once per
        property."""
        calls = []
        original = F.linear_summary

        def counted(program):
            calls.append(program)
            return original(program)

        monkeypatch.setattr(F, "linear_summary", counted)
        charts = [(mc.text, mc.props_text()) for mc in benchmark_cases()
                  if mc.fanout is not None]
        charts += [((FIXTURES / f"{n}.sfc").read_text(),
                    (FIXTURES / f"{n}.inv").read_text())
                   for n in fixture_names() if "fbd" in n]
        summarized = 0
        for text, props in charts:
            model, invs = _parsed(text, props)
            diagrams = sum(a.fbd_ref is not None for a in model.actions)
            calls.clear()
            _outcomes(model, invs)
            first = len(calls)
            assert len(invs) > 1 and first <= diagrams
            assert len(set(map(id, calls))) == first
            _outcomes(model, invs)  # a second pass derives no summary
            assert len(calls) == first
            summarized += first
        assert summarized >= len(charts)

    def test_contexts_are_freed_without_the_collector(self, monkeypatch):
        """Neither a property's context nor the model's memo forms a
        reference cycle: with the cyclic collector off, both are freed as
        soon as verify_invariant or check returns and the model is
        dropped."""
        made = []

        class Recorded(O.DerivationContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        parsed = []

        def recording_parse(text):
            model = parse_model(text)
            parsed.append(weakref.ref(model))
            return model

        monkeypatch.setattr(O, "DerivationContext", Recorded)
        monkeypatch.setattr(C, "parse_model", recording_parse)
        loop_model = load_model("loop")
        invs = load_invariants("loop", loop_model)
        inv = next(i for i in invs if i.name == "x_capped_ind")
        refuted = next(i for i in invs if i.name == "x_capped")
        gc.collect()
        gc.disable()
        try:
            res = V.verify_invariant(loop_model, inv)
            assert isinstance(res, V.Proved)
            assert isinstance(V.verify_invariant(loop_model, refuted),
                              V.Refuted)
            assert made and all(ref() is None for ref in made)
            # the model keeps its memo, a plain dict, which would
            # keep the model alive if it referred to it
            assert "_derivation" in loop_model.__dict__
            model = weakref.ref(loop_model)
            cert = C.emit(loop_model, inv, res.tree)
            del loop_model, res
            assert model() is None
            made.clear()
            assert C.check(cert).accepted
            assert parsed and made
            assert all(ref() is None for ref in parsed + made)
        finally:
            gc.enable()
