import sys
import time
from itertools import count, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certplc import certificate as C
from certplc import expr as E
from certplc import linear as L
from certplc import obligations as O
from certplc import properties as P
from certplc import semantics as S
from certplc import verifier as V
from certplc.lia import solver
from certplc.lia.solver import Sat, Unsat, decide_sat
from certplc.lia.witness import replay_witness
from certplc.model import parse_model
from certplc.parsing import TokenStream
from certplc.prooftree import (CaseProof, Contradiction, Cubes, ProofTree,
                               Split)
from certplc.semantics import reachable_bounded

from conftest import (CAPPED_16, FANOUT, NONLINEAR_ATOM, NONLINEAR_ATOM_PROP,
                      NONLINEAR_GUARD, OPAQUE, WRAP_BLOWUP, WRAP_BLOWUP_PROP,
                      benchmark_cases, decision, fixture_names,
                      load_invariants, load_model, lockstep, proof_nodes,
                      states_of, step2_clauses)


def formula(text, model):
    return P.parse_formula_text(text, model)


def oracle_holds(model, f, depth=25, budget=20_000):
    return all(P.holds_on(f, s) for s in states_of(model, depth, budget))


def _obligations(model, f):
    """Every proof case's obligation, derived from one shared context."""
    ctx = O.DerivationContext(model, f)
    return [O.build_obligation(ctx, rule)
            for rule in O.proof_cases(model, None)]


class TestCheckBase:
    def test_holds_on_loop_initial(self, loop_model):
        assert V.check_base(loop_model, formula("x <= 10", loop_model)) is None

    def test_zero_initialized_strict_positive_fails(self):
        m = parse_model("var y : int16\nstep A [initial]\n")
        res = V.check_base(m, formula("0 < y", m))
        assert isinstance(res, V.Refuted)
        assert res.rule is None

    def test_trivially_true(self, loop_model):
        assert V.check_base(loop_model, formula("true", loop_model)) is None


class TestObligations:
    def test_one_per_rule_instance(self, loop_model):
        labels = [ob.rule.label() for ob in _obligations(
            loop_model, formula("x <= 10", loop_model))]
        assert labels == ["exec:A_Init", "trans:0", "trans:1", "trans:2",
                          "react:Init", "react:Return", "react:Step2"]

    def test_no_transitions_still_covers_actions_and_steps(self):
        m = load_model("multi_action")
        labels = [ob.rule.label()
                  for ob in _obligations(m, formula("true", m))]
        assert labels == ["exec:A_One", "exec:A_Two", "react:Idle"]

    def test_bijection_with_model_structure(self):
        for name in fixture_names():
            model = load_model(name)
            labels = [r.label() for r in model.rules]
            expected = [f"exec:{a}" for a in model.action_ids()]
            expected += [f"trans:{i}" for i in range(len(model.transitions))]
            expected += [f"react:{s}" for s in model.steps]
            assert labels == expected

    def test_guard_enters_hypothesis_cube(self, loop_model):
        # trans:0 activates Step2, so the case is open
        ob = O.build_obligation(
            O.DerivationContext(loop_model, formula("!step(Step2)",
                                                    loop_model)),
            S.StepTransition(0))
        assert ob.hyp_cubes
        from certplc.linear import LinCon
        want = LinCon((("x", 1),), "<=", 9)
        assert all(want in cube for cube in ob.hyp_cubes)

    def test_transition_hypothesis_names_sources_and_actions(self, loop_model):
        ob = O.build_obligation(
            O.DerivationContext(loop_model, formula("!step(Step2)",
                                                    loop_model)),
            S.StepTransition(0))
        from certplc.linear import LinCon
        cube = ob.hyp_cubes[0]
        assert LinCon((("step:Init", 1),), "==", 1) in cube
        assert LinCon((("act:A_Init", 1),), "==", 0) in cube

    def test_opaque_effect_reported_undecided(self):
        m = parse_model(OPAQUE)
        res = V.verify_invariant(m, P.Invariant("t", formula("y <= 65535", m)))
        assert isinstance(res, V.Undecided)
        assert res.reason == "exec:Amux: comparison '<' has no linear form"

    def test_nonlinear_guard_reported_undecided(self):
        # trans:0 activates T, so its case needs the guard
        m = parse_model(NONLINEAR_GUARD)
        res = V.verify_invariant(m, P.Invariant("t",
                                                formula("!step(T)", m)))
        assert isinstance(res, V.Undecided)
        assert res.rule == S.StepTransition(0)
        assert res.reason == ("trans:0: multiplication of two non-constant "
                              "expressions")

    def test_nonlinear_atom_reported_undecided(self):
        m = parse_model(NONLINEAR_ATOM)
        inv = P.parse_properties(NONLINEAR_ATOM_PROP, m)[0]
        res = V.verify_invariant(m, inv)
        assert isinstance(res, V.Undecided)
        assert res.rule == S.ExecuteAction("A")
        assert res.reason.startswith("exec:A: multiplication")

    def test_wrap_quotients_stop_at_the_cap(self):
        m = parse_model(WRAP_BLOWUP)
        inv = P.parse_properties(WRAP_BLOWUP_PROP, m)[0]
        t0 = time.perf_counter()
        res = V.verify_invariant(m, inv)
        assert time.perf_counter() - t0 < 1.0
        assert isinstance(res, V.Undecided)
        assert res.rule == S.ExecuteAction("A")
        assert "exceed cap 512" in res.reason

    def test_witness_past_the_recursion_limit_is_undecided(self):
        """A guard chaining 150 variables, x0 <= x1 <= ..., with 5 <= x0
        and x149 <= 4, is refuted by a witness nested once per link;
        under a recursion limit below that nesting the case is Undecided,
        not a crash."""
        n = 150
        m = parse_model("\n".join(
            [f"var x{i} : int8" for i in range(n)]
            + ["step S [initial]", "step T", "trans {S} -[ " + " && ".join(
                ["5 <= x0"] + [f"x{i} <= x{i + 1}" for i in range(n - 1)]
                + [f"x{n - 1} <= 4"]) + " ]-> {T}"]) + "\n")
        inv = P.Invariant("t", formula("!step(T)", m))
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 120)
        try:
            res = V.verify_invariant(m, inv)
        finally:
            sys.setrecursionlimit(limit)
        assert isinstance(res, V.Undecided)
        assert res.reason == ("trans:0: witness derivation nested too deep "
                              "for the recursion limit")
        assert isinstance(V.verify_invariant(m, inv), V.Proved)

# 500 factors of 10**9 at int8: the wrap quotient count has more digits than
# Python converts to a string.
_HUGE = " * ".join(["x"] + ["1000000000"] * 500)


def _huge_chart(rhs, guard):
    return ("var x : int8\nstep S [initial]\nstep T\n"
            f"action A on S {{ x := {rhs}; }}\n"
            f"trans {{S}} -[ {guard} < 3 ]-> {{T}}\n")


_CAPPED_GUARD = NONLINEAR_GUARD.replace("x * y < 3",
                                        "x == 1 || x == 2 || x == 3")
_TWO_CUBES = (L, "CAP", 2)

# Every source of an Undecided case: the chart, its property, the case that
# fails, the checker's rejection prefix for that case (None: the checker
# runs no decider) and a patch in force for the verifier and the checker.
# Each property is one the failing rule can falsify, so its case is open
# and its hypothesis derived.
_UNDECIDED = {
    "nonlinear-guard": (NONLINEAR_GUARD, "!step(T)", S.StepTransition(0),
                        "unsupported-effect", None),
    "nonlinear-atom": (NONLINEAR_ATOM, "x * y <= 5000", S.ExecuteAction("A"),
                       "unsupported-effect", None),
    "opaque-effect": (OPAQUE, "y <= 65535", S.ExecuteAction("Amux"),
                      "unsupported-effect", None),
    "wrap-quotient-cap": (WRAP_BLOWUP, "z == y", S.ExecuteAction("A"),
                          "resource", None),
    "wrap-quotient-count-assignment": (_huge_chart(_HUGE, "x"), "x == 0",
                                       S.ExecuteAction("A"), "resource",
                                       None),
    "wrap-quotient-count-guard": (_huge_chart("x + 1", _HUGE), "!step(T)",
                                  S.StepTransition(0), "resource", None),
    "disjunct-cap": (_CAPPED_GUARD, "!step(T)", S.StepTransition(0),
                     "resource", _TWO_CUBES),
    "decider-budget": (NONLINEAR_ATOM, "x <= 9 || step(S)",
                       S.ExecuteAction("A"), None,
                       (solver, "MAX_DERIVED", 0)),
    # the guard's first cube is satisfiable only after a range split, here
    # past a bound of no nesting at all
    "split-nesting": ("var x : int8\nvar y : int8\nstep S [initial]\n"
                      "step T\ntrans {S} -[ 3 * x == 5 * y + 1 ]-> {T}\n",
                      "!step(T)", S.StepTransition(0), None,
                      (solver, "MAX_SPLIT_NESTING", 0)),
}


class TestUndecidedPath:
    """verify_invariant turns every failure into one Undecided, its reason
    the failing case's label and the cause; the checker rejects the same
    case with the same text after its prefix."""

    @pytest.mark.parametrize("source", list(_UNDECIDED.values()),
                             ids=list(_UNDECIDED))
    def test_every_source(self, source, monkeypatch):
        chart, prop, rule, prefix, patch = source
        if patch is not None:
            monkeypatch.setattr(*patch)
        model = parse_model(chart)
        inv = P.Invariant("p", formula(prop, model))
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Undecided)
        assert res.rule == rule
        assert res.reason.startswith(f"{rule.label()}: ")
        if prefix is None:
            return
        # a certificate whose cases before the failing one are proved and
        # whose later cases are unlisted
        ctx = O.DerivationContext(model, inv.formula)
        rules = list(model.rules)
        at = rules.index(rule)
        cases = [V.discharge(O.build_obligation(ctx, r)) for r in rules[:at]]
        v = C.check(C.emit(model, inv, ProofTree(tuple(
            c for c in cases if c is not None))))
        assert v.reason == f"{prefix}: {res.reason}"
        assert v.path == ("cases", rule.label())


    @pytest.mark.parametrize("atom, reason", [
        (E.Var("zz"), "trans:0: unbound variable 'zz'"),
        (E.Var("x"), "exec:A_Init: integer variable 'x' used as condition"),
        (E.Sum((E.Var("x"), E.IntLit(1)), (1, 1)),
         "exec:A_Init: not a boolean expression: Sum"),
        (E.Cmp("<", E.Var("zz"), E.IntLit(3), "int16"),
         "trans:0: no declaration for variable 'zz'"),
    ], ids=["unbound", "integer-condition", "integer-atom", "undeclared"])
    def test_formula_built_in_code_and_never_checked(self, atom, reason,
                                                     loop_model):
        """A formula that ``check_refs`` would reject, built in code and
        passed to ``verify_invariant`` as it is: lowering it to linear
        constraints fails in the first case that reads it."""
        inv = P.Invariant("p", E.Or((P.Active("step", "Init"), atom)))
        res = V.verify_invariant(loop_model, inv)
        assert isinstance(res, V.Undecided)
        assert res.reason == reason


# A chart whose only action is outside the linear fragment; y is never
# written.
NONLINEAR_EFFECT = ("var x : int8 = 2\nvar y : int8\nstep S [initial]\n"
                    "action A on S { x := x * y; }\n")

# _UNDECIDED's charts under properties that no rule can falsify: every case
# is closed without its hypothesis, so the failure inside that hypothesis
# is never met.  The last three read no variable an action writes, so no
# case derives its action's effect: the effect summary of the first two
# fails, and the third's fails in its post-value definitions.
_CLOSED = {
    "nonlinear-guard": (NONLINEAR_GUARD, "x <= 65535", None),
    "wrap-quotient-cap": (WRAP_BLOWUP, "steps_within {S}", None),
    "wrap-quotient-count-assignment": (_huge_chart(_HUGE, "x"), "x <= 255",
                                       None),
    "wrap-quotient-count-guard": (_huge_chart("x + 1", _HUGE), "x <= 255",
                                  None),
    "disjunct-cap": (_CAPPED_GUARD, "x <= 65535", _TWO_CUBES),
    "nonlinear-assignment-unread": (NONLINEAR_EFFECT, "y == 0", None),
    "comparison-and-mux-diagram-unread": (OPAQUE, "x == 0 && step(A)", None),
    "wrap-quotient-count-assignment-unread": (
        _huge_chart(_HUGE, "x").replace("step S", "var y : int8 = 7\nstep S",
                                        1), "y == 7", None),
}


class TestClosedCases:
    @pytest.mark.parametrize("source", list(_CLOSED.values()),
                             ids=list(_CLOSED))
    def test_failure_inside_a_closed_case_is_proved(self, source,
                                                    monkeypatch):
        """A case whose negated conclusions are all empty carries no
        hypothesis, and one whose readings are all empty derives no
        effect, so a failure inside either cannot leave it undecided; the
        certificate does not list it, the checker accepts it, and the
        property holds on the reachable states."""
        chart, prop, patch = source
        if patch is not None:
            monkeypatch.setattr(*patch)
        model = parse_model(chart)
        inv = P.Invariant("p", formula(prop, model))
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        assert res.tree.cases == ()
        data = C.emit(model, inv, res.tree)
        assert C.check(data).accepted
        assert all(P.holds_on(inv.formula, s)
                   for s in reachable_bounded(model, 6))


class TestDischarge:
    def test_contradictory_hypothesis_closes_case(self, loop_model):
        # reactivating Init requires both outgoing guards false: impossible;
        # it makes A_Init pending, so the second conjunct is not framed
        ob = O.build_obligation(
            O.DerivationContext(loop_model, formula(
                "x <= 10 && (!action(A_Init) || x <= 9)", loop_model)),
            S.Reactivate("Init"))
        assert any(ob.neg_concl)  # the conclusion alone does not close it
        case = V.discharge(ob)
        assert isinstance(case.node, Contradiction)

    @pytest.fixture
    def true_cert(self, loop_model, monkeypatch):
        """The certificate of `true` on loop, proved without the decider."""
        def no_decisions(*args, **kwargs):
            raise AssertionError("decide_sat called")

        monkeypatch.setattr(V, "decide_sat", no_decisions)
        inv = P.Invariant("t", formula("true", loop_model))
        res = V.verify_invariant(loop_model, inv)
        assert isinstance(res, V.Proved)
        # every case is closed, so none is listed
        assert res.obligations == len(loop_model.rules)
        assert res.tree.cases == ()
        return C.emit(loop_model, inv, res.tree).decode()

    def test_true_conclusion_is_closed_without_decisions(self, true_cert):
        assert C.check(true_cert.encode()).accepted

    def test_zero_cube_entries_do_not_prove_another_property(self,
                                                              true_cert):
        line = "invariant t : always (true);"
        assert line in true_cert
        bad = true_cert.replace(line, "invariant t : always (x <= 10);")
        v = C.check(bad.encode())
        assert not v.accepted
        assert v.reason.startswith("coverage:")
        assert "cube count mismatch" in v.reason

    def test_wraparound_increment_is_caught(self):
        m = parse_model("var y : int8 = 1\nstep A [initial]\n"
                        "action Up on A { y := y + 1; }\n"
                        "trans {A} -[ true ]-> {A}\n")
        inv = P.Invariant("pos", formula("0 < y", m))
        # 0 < y is not preserved: y = 255 wraps to 0 (enumeration at small
        # width confirms; the explorer cannot reach it, inductiveness fails)
        res = V.verify_invariant(m, inv)
        assert isinstance(res, V.Refuted)
        assert res.assignment.get("y") == 255

    @pytest.mark.parametrize("name, prop, rule, assignment", [
        ("loop", "x_capped", S.ExecuteAction("A_Init"),
         {"act:A_Init": 1, "post:x": 11, "x": 10}),
        ("wrap", "x_small", S.ExecuteAction("A_Bump"),
         {"act:A_Bump": 1, "post:x": 11, "x": 10}),
    ])
    def test_refutation_omits_quotient_variables(self, name, prop, rule,
                                                  assignment):
        """x + 1 wraps through two quotients, a variable of the decided
        cube, but the assignment names only the rule's variables."""
        model = load_model(name)
        inv = next(i for i in load_invariants(name, model) if i.name == prop)
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Refuted) and res.rule == rule
        assert res.assignment == assignment

    def test_conjunction_splits_into_leaves(self, loop_model):
        """A node lists one witness per joint cube, over every conjunct
        that has negated-conclusion cubes, in one flat list."""
        inv = load_invariants("loop", loop_model)[1]  # the strengthened one
        res = V.verify_invariant(loop_model, inv)
        assert isinstance(res, V.Proved)
        rule = S.StepTransition(0)
        case = {c.label: c for c in res.tree.cases}[rule.label()]
        ob = O.build_obligation(O.DerivationContext(loop_model, inv.formula),
                                rule)
        assert len(ob.neg_concl) == 4  # one DNF per conjunct
        assert sum(map(bool, ob.neg_concl)) == 2
        assert isinstance(case.node, Cubes)
        assert len(case.node.witnesses) == sum(map(len, ob.neg_concl))


def _decisions(model, inv):
    """(cube, after) of each decide_sat call that verify_invariant makes:
    a joint cube or a node's own cube after the node's simplification."""
    calls, real = [], V.decide_sat

    def recorded(cube, *, after=None):
        calls.append((cube, after))
        return real(cube, after=after)

    V.decide_sat = recorded
    try:
        V.verify_invariant(model, inv)
    finally:
        V.decide_sat = real
    return calls


def _node_cubes(ob, node):
    """(node, its cube) of each node of a case's proof."""
    todo = [(node, ob.hyp_cubes[0])]
    while todo:
        node, cube = todo.pop()
        yield node, cube
        if isinstance(node, Split):
            todo.extend((child, O.refine(cube, piece_cube)) for child,
                        piece_cube in zip(node.children,
                                          ob.splits[node.piece]))


def _charts():
    for name in fixture_names():
        model = load_model(name)
        for inv in load_invariants(name, model):
            yield f"{name}/{inv.name}", model, inv
    for width, c in (("int8", 5), ("int16", 12)):
        model, inv = lockstep(width, c)
        yield f"lockstep/{width}/{c}", model, inv


def _parity_charts():
    """_charts() and lockstep at each width with c = 3, 7 and 12."""
    charts = {name: (name, model, inv) for name, model, inv in _charts()}
    for width in ("int8", "int16", "int32"):
        for c in (3, 7, 12):
            name = f"lockstep/{width}/{c}"
            if name not in charts:
                charts[name] = (name, *lockstep(width, c))
    return list(charts.values())


class TestJointCubeReplay:
    """discharge decides each split child and joint cube by extending its
    parent's or node's simplification instead of redoing it; on these
    charts that gives the from-scratch decision, witnesses included, so
    their certificates do not depend on the shortcut."""

    @pytest.mark.parametrize("chart", list(_charts()), ids=lambda c: c[0])
    def test_every_joint_cube_decides_as_from_scratch(self, chart):
        _, model, inv = chart
        for cube, after in _decisions(model, inv):
            if after is not None:
                assert decision(cube, after=after) == decision(cube)

    @pytest.mark.parametrize("chart", list(_charts()), ids=lambda c: c[0])
    def test_replayed_witness_is_the_decided_one(self, chart):
        """Each witness of a proved chart's tree, the one the checker
        replays against its re-derived cube, is the witness a decision of
        that cube from scratch gives, and it replays."""
        _, model, inv = chart
        res = V.verify_invariant(model, inv)
        if not isinstance(res, V.Proved):
            return
        ctx = O.DerivationContext(model, inv.formula)
        listed = {c.label: c.node for c in res.tree.cases}
        for rule in O.proof_cases(model, None):
            ob = O.build_obligation(ctx, rule)
            assert (rule.label() in listed) == bool(ob.hyp_cubes)
            if not ob.hyp_cubes:
                continue
            for node, cube in _node_cubes(ob, listed[rule.label()]):
                if isinstance(node, Contradiction):
                    pairs = [(cube, node.witness)]
                elif isinstance(node, Cubes):
                    pairs = zip(O.joint_cubes(cube, ob.neg_concl),
                                node.witnesses, strict=True)
                else:
                    continue
                for cube, witness in pairs:
                    assert decide_sat(cube).witness == witness
                    assert replay_witness(cube, witness)

    @pytest.mark.parametrize("chart", _parity_charts(), ids=lambda c: c[0])
    def test_verdicts_equal_those_without_reuse(self, chart, monkeypatch):
        """Verdict, proof tree, refuted rule and assignment, undecided
        reason: equal to those of a verifier that decides every joint cube
        from scratch, reusing nothing of its hypothesis cube's decision."""
        _, model, inv = chart
        res = V.verify_invariant(model, inv)
        monkeypatch.setattr(V, "decide_sat", lambda cube, after=None:
                            decide_sat(cube))
        assert V.verify_invariant(model, inv) == res

    def test_only_hypotheses_and_equality_joins_run_from_scratch(
            self, monkeypatch):
        """Every root cube is simplified from scratch, and a split child's
        cube by extending its parent's simplification; a joint cube is
        decided by extending its node's simplification, or from scratch
        when its extra members hold an equality; a node's own cube is
        decided, from its simplification, only when every joint cube is
        unsatisfiable."""
        model, rel = lockstep("int8", 5)
        lag = P.parse_properties("invariant lag : always (y != 5 * x + 1);",
                                 model)[0]
        calls = []
        simplify, decide = V.simplify, V.decide_sat

        def kind(cube, after):
            if after is None:
                return "scratch"
            if len(cube) == len(after.base.cube):
                return "own"
            return ("scratch" if any(con.rel == "==" for con in
                                     cube[len(after.base.cube):])
                    else "extend")

        def recorded(name, real):
            def call(cube, *, after=None):
                calls.append(f"{name} {kind(cube, after)}")
                return real(cube, after=after)
            return call

        monkeypatch.setattr(V, "simplify", recorded("simplify", simplify))
        monkeypatch.setattr(V, "decide_sat", recorded("decide", decide))
        patterns = []
        for inv in (rel, lag):
            calls.clear()
            assert isinstance(V.verify_invariant(model, inv), V.Proved)
            patterns.append(list(calls))
        # rel: one root cube, 5 * x wrapped by a quotient variable, joined
        # with the < and > halves of y != 5 * x, both unsatisfiable, so the
        # root is decided; lag: the root joined with y == 5 * x + 1, which
        # an assignment satisfies that falsifies the piece y != 5 * x + 1,
        # so the root is never decided and splits on its < and > halves,
        # each joined with y == 5 * x + 1 and then decided
        child = ["simplify extend", "decide scratch", "decide own"]
        assert patterns == [
            ["simplify scratch", "decide extend", "decide extend",
             "decide own"],
            ["simplify scratch", "decide scratch", *child, *child]]
        # an extension and a node's own decision start from the base
        # they extend, a decision from scratch from the empty base
        extended, extend = [], solver._extend
        monkeypatch.setattr(solver, "_extend", lambda base, *args: (
            extended.append(bool(base.cube)) or extend(base, *args)))
        for inv, pattern in zip((rel, lag), patterns):
            extended.clear()
            V.verify_invariant(model, inv)
            assert extended == [not p.endswith("scratch") for p in pattern]


def _root_first_discharge(ob):
    """The reference discharge: each node's cube is decided in full, from
    its parent's decision, before any of its joint cubes, which extend
    that decision; otherwise as ``verifier.discharge``."""
    if not ob.hyp_cubes:
        return None
    stack: list[tuple] = []
    cube, after, used = ob.hyp_cubes[0], None, ()
    for nodes in count(1):
        if nodes > L.CAP:
            raise L.LimitExceeded(f"{nodes} proof nodes exceed cap {L.CAP}")
        res = decide_sat(cube, after=after)
        if isinstance(res, Unsat):
            node = Contradiction(res.witness)
        else:
            witnesses = []
            for joint in O.joint_cubes(cube, ob.neg_concl):
                node = decide_sat(joint, after=res)
                if isinstance(node, Sat):
                    break
                witnesses.append(node.witness)
            else:
                node = Cubes(tuple(witnesses))
        if isinstance(node, Sat):
            open_pieces = [k for k in range(len(ob.splits)) if k not in used]
            if not open_pieces:
                return V.Refuted(ob.rule, {
                    v: n for v, n in node.assignment.items()
                    if not v.startswith(L.WRAP_PREFIX)},
                    "invariant does not imply the target"
                    if ob.rule is O.ENTAIL else "inductive step violated")
            stack.append((cube, res, used + (V._split_choice(
                ob, node.assignment, open_pieces),), []))
        else:
            while stack:
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


def _outcome(discharge, ob):
    """The discharge's result, or the error it raises."""
    try:
        return discharge(ob)
    except (L.FragmentError, L.LimitExceeded) as err:
        return f"{type(err).__name__}: {err}"


def _claim_cases(model, inv, target=None):
    """Each proof case's obligation of a claim; an error deriving one
    leaves it out."""
    ctx = O.DerivationContext(model, inv.formula,
                              target=target and target.formula)
    for rule in O.proof_cases(model, target):
        try:
            yield O.build_obligation(ctx, rule)
        except (L.FragmentError, L.LimitExceeded):
            continue


# x and y step apart in S and y is reset in T; the drawn properties read
# both, the steps and the action A
DRAWN_CHART = parse_model("""var x : int8
var y : int8
step S [initial]
step T
action A on S { x := x + 1; y := y + 3; }
action B on T { y := 0; }
trans {S} -[ x < 10 ]-> {T}
trans {T} -[ x + y >= 12 ]-> {S}
""")


@st.composite
def _drawn_property(draw):
    """A conjunction of one to four clauses of one to three literals over
    DRAWN_CHART: activity atoms and linear comparisons of x and y."""
    def literal():
        kind = draw(st.sampled_from(("step", "action", "cmp", "cmp")))
        if kind != "cmp":
            return draw(st.sampled_from(
                ("step(S)", "!step(S)", "step(T)", "!step(T)")
                if kind == "step" else ("action(A)", "!action(A)")))
        lhs = "0" + "".join(
            f" {'+' if c > 0 else '-'} {abs(c)} * {v}" for v, c in (
                ("x", draw(st.integers(-3, 3))),
                ("y", draw(st.integers(-3, 3)))) if c)
        op = draw(st.sampled_from(("<=", "<", "==", "!=", ">=")))
        return f"{lhs} {op} {draw(st.integers(0, 40))}"

    clauses = draw(st.lists(st.lists(st.builds(literal), min_size=1,
                                     max_size=3), min_size=1, max_size=4))
    return " && ".join("(" + " || ".join(c) + ")" for c in clauses)


class TestLazyNodes:
    """discharge decides a node's own cube only when none of its joint
    cubes is satisfiable, and verify_invariant skips framed cases; the
    proofs, refutations and errors equal those of deciding every node's
    cube first, except where that decision runs past a budget that a
    satisfiable joint cube avoids."""

    @staticmethod
    def _agree(ob, max_derived):
        """Lazy and root-first discharge agree at the default budgets and,
        past *max_derived* derived constraints, wherever the root-first
        one decides."""
        assert _outcome(V.discharge, ob) == _outcome(
            _root_first_discharge, ob), ob.rule
        with mock.patch.object(solver, "MAX_DERIVED", max_derived):
            lazy = _outcome(V.discharge, ob)
            ref = _outcome(_root_first_discharge, ob)
        assert lazy == ref or str(ref).startswith("LimitExceeded"), \
            (ob.rule, max_derived)

    @pytest.mark.parametrize("chart", list(_charts()), ids=lambda c: c[0])
    def test_fixture_claims_equal_the_root_first_reference(self, chart):
        _, model, inv = chart
        for ob in _claim_cases(model, inv):
            for max_derived in (3, 12, 40):
                self._agree(ob, max_derived)

    # tier-1 runs 100 examples; `--hypothesis-profile long` (conftest.py)
    # runs more
    @settings(max_examples=max(100, settings.default.max_examples),
              deadline=None, derandomize=True, database=None)
    @given(_drawn_property(), st.integers(0, 120))
    def test_drawn_obligations_equal_the_root_first_reference(
            self, text, max_derived):
        inv = P.Invariant("p", formula(text, DRAWN_CHART))
        for ob in _claim_cases(DRAWN_CHART, inv):
            self._agree(ob, max_derived)

    def test_a_node_with_a_satisfiable_joint_never_finishes_its_cube(
            self, monkeypatch):
        """Per node, in the order discharge visits them (depth first,
        children in order), the roles of the cubes that `_Solver.finish`
        ran on: ``own`` for the node's cube (the object discharge
        simplified), ``joint`` for a joint cube (a new object, though it
        may equal the node's cube) and ``clash`` for the node's clashing
        simplification.  A node with a satisfiable joint cube (a split,
        or the node that refutes its case) never finishes its own cube; a
        ``cubes`` node finishes it last, a contradiction too unless its
        simplification clashed."""
        visits = []  # [the node's cube, the roles finished since]
        roles = []  # the role of each decision in progress
        simplify, decide, finish = (V.simplify, V.decide_sat,
                                    solver._Solver.finish)

        def simplified(cube, *, after=None):
            visits.append([cube, []])
            roles.append("clash")
            try:
                return simplify(cube, after=after)
            finally:
                roles.pop()

        def decided(cube, *, after=None):
            roles.append("own" if cube is visits[-1][0] else "joint")
            try:
                return decide(cube, after=after)
            finally:
                roles.pop()

        def finished(self, *args):
            visits[-1][1].append(roles[-1])
            return finish(self, *args)

        monkeypatch.setattr(V, "simplify", simplified)
        monkeypatch.setattr(V, "decide_sat", decided)
        monkeypatch.setattr(solver._Solver, "finish", finished)
        kinds = set()
        for _, model, inv in _charts():
            for ob in _claim_cases(model, inv):
                visits.clear()
                res = V.discharge(ob)
                if res is None:
                    assert not visits
                    continue
                if isinstance(res, V.Refuted):
                    assert "own" not in visits[-1][1]
                    kinds.add("refuted")
                    continue
                nodes, todo = [], [res.node]
                while todo:  # the nodes in visiting order
                    nodes.append(todo.pop())
                    todo.extend(reversed(getattr(nodes[-1], "children", ())))
                assert len(nodes) == len(visits)
                for node, (_, done) in zip(nodes, visits):
                    kind = type(node).__name__
                    if isinstance(node, Split):
                        assert "own" not in done
                    elif isinstance(node, Cubes):
                        assert done[-1] == "own"
                    else:
                        kind += done[-1]
                        assert done[-1] in ("own", "clash")
                    kinds.add(kind)
        assert kinds == {"refuted", "Split", "Cubes", "Contradictionown",
                         "Contradictionclash"}, kinds

    def test_framed_cases_are_neither_derived_nor_discharged(
            self, monkeypatch):
        """On the proved ring claims at seed 1, and the dead_ctx claim
        with a target, each case reaches build_obligation and discharge
        exactly when its rule is not framed; ``obligations`` counts every
        case."""
        built, discharged = [], []
        build, discharge = O.build_obligation, V.discharge
        monkeypatch.setattr(O, "build_obligation", lambda ctx, rule: (
            built.append(rule) or build(ctx, rule)))
        monkeypatch.setattr(V, "discharge", lambda ob: (
            discharged.append(ob.rule) or discharge(ob)))
        claims = []
        for mc in benchmark_cases((1,)):
            if mc.name.startswith("ring"):
                model = parse_model(mc.text)
                claims += [(model, inv, None) for inv in
                           P.parse_properties(mc.props_text(), model)]
        model = load_model("dead_ctx")
        claims.append((model, *V.check_guard_unreachable(
            model, "Dead", (formula("0 < y", model),))))
        framed = entailed = 0
        for model, inv, target in claims:
            built.clear()
            discharged.clear()
            res = V.verify_invariant(model, inv, target)
            if not isinstance(res, V.Proved):
                continue
            ctx = O.DerivationContext(model, inv.formula, target=target
                                      and target.formula)
            cases = O.proof_cases(model, target)
            assert res.obligations == len(cases)
            opened = [r for r in cases if not ctx.framed(r)]
            assert built == discharged == opened
            assert (O.ENTAIL in opened) == (target is not None)
            entailed += target is not None
            framed += len(cases) - len(opened)
        assert entailed == 1 and framed > 100, (entailed, framed)

    def test_a_joint_cube_past_the_budget_leaves_a_contradiction(
            self, monkeypatch):
        """x_capped_ind's react:Init root cube is contradictory.  Under a
        budget of 3 derived constraints its own decision refutes it, and
        its second joint cube's runs past the budget: the case is a
        contradiction, as when the root is decided first, not undecided."""
        model = load_model("loop")
        inv = load_invariants("loop", model)[1]
        ob = O.build_obligation(O.DerivationContext(model, inv.formula),
                                S.Reactivate("Init"))
        monkeypatch.setattr(solver, "MAX_DERIVED", 3)
        root = ob.hyp_cubes[0]
        joints = list(O.joint_cubes(root, ob.neg_concl))
        simplified = V.simplify(root)
        assert decision(joints[1], after=simplified) == (
            "LimitExceeded: more than 3 derived constraints")
        expected = _root_first_discharge(ob)
        assert expected.node == Contradiction(
            decide_sat(root, after=simplified).witness)
        assert V.discharge(ob) == expected


class TestVerifyInvariant:
    def test_loop_bound_alone_is_not_inductive(self, loop_model):
        res = V.verify_invariant(
            loop_model, P.Invariant("cap", formula("x <= 10", loop_model)))
        assert isinstance(res, V.Refuted)
        # the counterexample is about inductiveness, not reachability
        assert oracle_holds(loop_model, formula("x <= 10", loop_model), 40)

    def test_loop_strengthened_bound_proved(self, loop_model):
        inv = load_invariants("loop", loop_model)[1]
        res = V.verify_invariant(loop_model, inv)
        assert isinstance(res, V.Proved)
        assert res.obligations == 7

    def test_tightened_bound_refuted_at_boundary(self, loop_model):
        res = V.verify_invariant(
            loop_model, P.Invariant("cap9", formula("x <= 9", loop_model)))
        assert isinstance(res, V.Refuted)

    def test_trivial_property(self, loop_model):
        res = V.verify_invariant(
            loop_model, P.Invariant("t", formula("true", loop_model)))
        assert isinstance(res, V.Proved)

    @pytest.mark.parametrize("text", ["step(Init) || x >= 0", "x <= 10"])
    def test_formula_parsed_without_the_model_is_rejected(self, loop_model,
                                                         text):
        # syntax only: its comparisons carry no width, whether or not the
        # base case reaches them
        f = P.parse_formula(TokenStream(text))
        with pytest.raises(E.ExprError, match="not typechecked"):
            V.verify_invariant(loop_model, P.Invariant("p", f))

    def test_determinism(self, loop_model):
        inv = load_invariants("loop", loop_model)[1]
        a = V.verify_invariant(loop_model, inv)
        b = V.verify_invariant(loop_model, inv)
        assert a.tree == b.tree

    def test_fig9_style_positive_invariant(self, hold_model):
        inv = load_invariants("hold_positive", hold_model)[0]
        res = V.verify_invariant(hold_model, inv)
        assert isinstance(res, V.Proved)
        assert oracle_holds(hold_model, inv.formula, 30)


class TestSoundnessSuite:
    """Every Proved verdict must be confirmed by the bounded explorer."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_proved_properties_hold_on_reachable_states(self, name):
        model = load_model(name)
        proved = 0
        for inv in load_invariants(name, model):
            res = V.verify_invariant(model, inv)
            if isinstance(res, V.Proved):
                proved += 1
                assert oracle_holds(model, inv.formula), (name, inv.name)
        assert proved >= 2, name  # the suite must actually bite


def _basic_lemmas(model):
    """Active action blocks stay within the declared set, and active steps
    within the declared steps: each claim and its verify_invariant
    result."""
    lemmas = [
        P.Invariant("actions_declared",
                    P.Within("action", tuple(sorted(model.action_ids())))),
        P.Invariant("steps_declared",
                    P.Within("step", tuple(sorted(model.steps)))),
    ]
    return [(inv, V.verify_invariant(model, inv)) for inv in lemmas]


class TestBasicLemmas:
    @pytest.mark.parametrize("name", fixture_names())
    def test_lemmas_prove_everywhere(self, name):
        model = load_model(name)
        lemmas = _basic_lemmas(model)
        assert [inv.name for inv, _ in lemmas] == ["actions_declared",
                                                   "steps_declared"]
        for inv, res in lemmas:
            assert isinstance(res, V.Proved)

    def test_declared_set_matches_model(self, loop_model):
        (l1, r1), (l2, r2) = _basic_lemmas(loop_model)
        assert l1.formula == P.Within("action", ("A_Init",))
        assert l2.formula == P.Within("step", ("Init", "Return", "Step2"))
        assert isinstance(r1, V.Proved) and isinstance(r2, V.Proved)


def prove_claim(model, claim):
    """verify_invariant of an (invariant, target) claim; a Proved result
    must also certify: its certificate is emitted and accepted."""
    inv, target = claim
    res = V.verify_invariant(model, inv, target)
    if isinstance(res, V.Proved):
        assert C.check(C.emit(model, inv, res.tree, target)).accepted
    return res


class TestGuardUnreachable:
    def test_unsigned_negative_guard(self):
        m = parse_model("var x : int16\nstep A [initial]\nstep Dead\n"
                        "trans {A} -[ x < 0 ]-> {Dead}\n"
                        "trans {A} -[ true ]-> {A}\n")
        inv, target = V.check_guard_unreachable(m, "Dead")
        assert target is None  # without context the claim is !step(Dead)
        assert isinstance(prove_claim(m, (inv, target)), V.Proved)
        assert oracle_holds(m, formula("!step(Dead)", m))

    def test_needs_context_invariant(self):
        m = load_model("dead_ctx")
        ctx = formula("0 < y", m)
        assert isinstance(V.verify_invariant(m, P.Invariant("c", ctx)),
                          V.Proved)
        claim = V.check_guard_unreachable(m, "Dead", context=(ctx,))
        assert isinstance(prove_claim(m, claim), V.Proved)
        assert oracle_holds(m, formula("!step(Dead)", m))
        # without the context, !step(Dead) alone is not inductive
        res = prove_claim(m, V.check_guard_unreachable(m, "Dead"))
        assert isinstance(res, V.Refuted)

    def test_satisfiable_guard_refuted(self, loop_model):
        res = prove_claim(loop_model,
                          V.check_guard_unreachable(loop_model, "Return"))
        assert isinstance(res, V.Refuted)
        assert res.rule.label() == "trans:2"

    def test_nonlinear_guard_stays_undecided(self):
        m = parse_model(NONLINEAR_GUARD)
        res = prove_claim(m, V.check_guard_unreachable(m, "T"))
        assert isinstance(res, V.Undecided)
        assert "multiplication" in res.reason

    def test_initial_target_rejected(self, loop_model):
        with pytest.raises(ValueError):
            V.check_guard_unreachable(loop_model, "Init")
        with pytest.raises(ValueError):
            V.check_guard_unreachable(loop_model, "Nowhere")


# guards that are chains, one per connective, and a multi-source transition
CHAINED_GUARDS = """var x : int8
step S [initial]
step T
step U
trans {S} -[ x < 3 || x > 7 || x == 5 ]-> {T}
trans {S, T} -[ x >= 1 && x <= 5 && x != 4 ]-> {U}
trans {U} -[ (x < 3 || x > 7) && !(x == 1 && true) ]-> {S}
"""


def _holds_on_assignment(f, assignment):
    """Truth of a formula on a refuting assignment of the symbolic state,
    whose activity variables absent from it read 0."""
    def leaf(g):
        if isinstance(g, P.Active) and g.kind == "step":
            return assignment.get(O.step_var(g.name), 0) == 1
        raise AssertionError(f"unexpected atom {g!r}")

    return bool(E.eval_expr(f, assignment, leaf))


class TestDeterminedSuccessor:
    def _mutex(self, model):
        return formula("!step(Init) || !step(Step2)", model)

    def test_exit_trigger_forces_return(self, loop_model):
        mutex = self._mutex(loop_model)
        assert isinstance(
            V.verify_invariant(loop_model, P.Invariant("m", mutex)), V.Proved)
        trigger = formula("x >= 10 && step(Init)", loop_model)
        claim = V.check_determined_successor(loop_model, trigger, "Return",
                                             context=(mutex,))
        assert isinstance(prove_claim(loop_model, claim), V.Proved)
        # explorer cross-check: in every reachable trigger state the only
        # firable transitions target exactly {Return}
        for s in reachable_bounded(loop_model, 40):
            if P.holds_on(trigger, s):
                fired = [loop_model.transitions[r.index].targets
                         for r, _ in S.successors(loop_model, s)
                         if isinstance(r, S.StepTransition)]
                assert fired and all(t == ("Return",) for t in fired)

    def test_false_trigger_vacuous(self, loop_model):
        claim = V.check_determined_successor(
            loop_model, formula("false", loop_model), "Return")
        assert isinstance(prove_claim(loop_model, claim), V.Proved)

    def test_overlapping_guards_refuted(self):
        m = load_model("ambiguous")
        trigger = formula("x >= 10 && step(S)", m)
        # each step's claim fails on a trigger state that also enables the
        # transition into the other step
        for step, other in (("A", 1), ("B", 0)):
            res = prove_claim(m, V.check_determined_successor(m, trigger,
                                                              step))
            assert isinstance(res, V.Refuted)
            assert res.rule.label() == "entail"
            assert res.note == "invariant does not imply the target"
            guard = m.transitions[other].guard
            assert _holds_on_assignment(trigger, res.assignment)
            assert _holds_on_assignment(guard, res.assignment)

    def test_nonlinear_guard_undecided(self):
        m = parse_model(NONLINEAR_GUARD)
        res = prove_claim(m, V.check_determined_successor(
            m, formula("step(S)", m), "T"))
        assert isinstance(res, V.Undecided)
        assert "multiplication" in res.reason

    def test_unknown_step_rejected(self, loop_model):
        with pytest.raises(ValueError):
            V.check_determined_successor(
                loop_model, formula("true", loop_model), "Nowhere")

    @pytest.mark.parametrize("text", [FANOUT, CHAINED_GUARDS])
    def test_claims_parse_back_to_themselves(self, text):
        """The claims join chains as the parser does, so a certificate's
        property lines parse back to the formulas that were proved."""
        m = parse_model(text)
        first = m.steps[0]
        context = (formula(f"step({first}) || !step({first})", m),
                   formula(f"step({first}) && true", m))
        trigger = formula(f"step({first}) && !step({first})", m)
        for step in m.steps:
            claims = [V.check_determined_successor(m, trigger, step),
                      V.check_determined_successor(m, trigger, step, context)]
            if step not in m.initial:
                claims.append(V.check_guard_unreachable(m, step))
                claims.append(V.check_guard_unreachable(m, step, context))
            for f in (p.formula for claim in claims for p in claim if p):
                assert formula(P.formula_text(f), m) == f


class TestTreeShape:
    def test_case_labels_cover_rule_instances(self, loop_model):
        """The tree lists the open rule instances, those with a hypothesis
        cube, in rule order; ``obligations`` counts them all."""
        inv = load_invariants("loop", loop_model)[1]
        res = V.verify_invariant(loop_model, inv)
        ctx = O.DerivationContext(loop_model, inv.formula)
        labels = [c.label for c in res.tree.cases]
        assert labels == [r.label() for r in loop_model.rules
                          if O.build_obligation(ctx, r).hyp_cubes]
        assert len(labels) < res.obligations == len(loop_model.rules)


def _eager_product(ctx, rule):
    """Each cube of the product of a case's hypothesis pieces, as a member
    set, bounds attached: the hypothesis cubes that the proof's leaves
    must cover, built here from the derivation context's pieces, in the
    order the ``obligations`` docstring gives."""
    if rule is O.ENTAIL:
        pieces = list(ctx.pre_pieces())
    else:
        shape = ctx.model.rules[rule]
        pieces = [ctx.activity(rule), *map(ctx.normalized, shape.guards),
                  *(ctx.normalized(g, negate=True) for g in shape.blocked),
                  *ctx.pre_pieces()]
        if ctx.summary(rule) is not None:
            pieces.append(ctx.definitions(rule))
    for choice in product(*pieces):
        members = dict.fromkeys(m for cube in choice for m in cube)
        yield set(L.attach_bounds(tuple(members), ctx.env))


def _proved_claims_at_seed_1():
    """The fixture and lockstep claims and the ring, arith and fanout
    claims at seed 1."""
    yield from _charts()
    for mc in benchmark_cases((1,)):
        model = parse_model(mc.text)
        for inv in P.parse_properties(mc.props_text(), model):
            yield f"{mc.name}/{inv.name}", model, inv


class TestLazySplitting:
    """A case decides its root cube and splits on a disjunctive piece only
    where a satisfiable joint cube needs it, choosing the first piece that
    the joint assignment falsifies."""

    def _claim(self, text):
        model = load_model("loop")
        inv = P.Invariant("c", formula(text, model))
        return model, inv, V.verify_invariant(model, inv)

    def test_twelve_clauses_are_refuted_not_undecided(self):
        # the product of its pieces has 2**12 cubes, past the cap
        _, _, res = self._claim("x <= 10 && " + step2_clauses(9, 20))
        assert isinstance(res, V.Refuted)
        assert res.rule == S.ExecuteAction("A_Init")
        assert res.assignment == {"x": 10, "step:Step2": 0, "post:x": 11,
                                  "act:A_Init": 1}

    def test_falsified_piece_keeps_the_proof_small(self):
        """x_capped_ind after 16 clauses that it implies: a split on the
        first open piece, not on a falsified one, would take 131,114
        nodes; the falsified piece takes at most 10 in every case."""
        model, inv, res = self._claim(CAPPED_16)
        assert isinstance(res, V.Proved)
        sizes = {c.label: len(list(proof_nodes(c.node)))
                 for c in res.tree.cases}
        assert max(sizes.values()) <= 10, sizes
        assert C.check(C.emit(model, inv, res.tree)).accepted

    def test_nodes_past_the_cap_are_undecided(self, monkeypatch):
        # the twelve clauses' refutation is found at the 13th node
        monkeypatch.setattr(L, "CAP", 12)
        _, _, res = self._claim("x <= 10 && " + step2_clauses(9, 20))
        assert isinstance(res, V.Undecided)
        assert res.reason == "exec:A_Init: 13 proof nodes exceed cap 12"

    def test_leaves_cover_the_eager_product(self):
        """Every cube of the product of a case's pieces, joined with each
        negated-conclusion cube, holds as members the cube of some leaf
        that refutes that join: a contradiction leaf, or a ``cubes`` leaf
        whose witness for that conclusion cube replays."""
        covered = split = 0
        for name, model, inv in _proved_claims_at_seed_1():
            res = V.verify_invariant(model, inv)
            if not isinstance(res, V.Proved):
                continue
            ctx = O.DerivationContext(model, inv.formula)
            nodes = {c.label: c.node for c in res.tree.cases}
            for rule in O.proof_cases(model, None):
                ob = O.build_obligation(ctx, rule)
                goals = [g for dnf in ob.neg_concl for g in dnf]
                leaves = []  # (members, the goal indices refuted)
                for node, cube in (_node_cubes(ob, nodes[rule.label()])
                                   if ob.hyp_cubes else ()):
                    if isinstance(node, Contradiction):
                        assert replay_witness(cube, node.witness)
                        leaves.append((set(cube), range(len(goals))))
                    elif isinstance(node, Cubes):
                        joints = O.joint_cubes(cube, ob.neg_concl)
                        leaves.append((set(cube), {
                            k for k, (w, joint) in enumerate(zip(
                                node.witnesses, joints))
                            if replay_witness(joint, w)}))
                for full in _eager_product(ctx, rule):
                    for k in range(len(goals)):
                        assert any(members <= full and k in refuted
                                   for members, refuted in leaves), \
                            (name, rule.label(), k)
                        covered += 1
                split += len(ob.splits) > 0
        # 447 joins; 92 cases with a split piece
        assert covered > 400 and split > 90, (covered, split)
