import time

import pytest

from certplc import obligations as O
from certplc import properties as P
from certplc import semantics as S
from certplc import verifier as V
from certplc.model import parse_model
from certplc.semantics import reachable_bounded

from conftest import (NONLINEAR_ATOM, NONLINEAR_ATOM_PROP, NONLINEAR_GUARD,
                      WRAP_BLOWUP, WRAP_BLOWUP_PROP, fixture_names,
                      load_invariants, load_model, states_of)


def formula(text, model):
    return P.parse_formula_text(text, model)


def oracle_holds(model, f, depth=25, budget=20_000):
    return all(P.holds_on(f, s) for s in states_of(model, depth, budget))


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
        obs = list(V.iter_obligations(loop_model,
                                      formula("x <= 10", loop_model)))
        labels = [rule.label() for rule, _ in obs]
        assert labels == ["exec:A_Init", "trans:0", "trans:1", "trans:2",
                          "react:Init", "react:Return", "react:Step2"]

    def test_no_transitions_still_covers_actions_and_steps(self):
        m = load_model("multi_action")
        obs = list(V.iter_obligations(m, formula("true", m)))
        labels = [rule.label() for rule, _ in obs]
        assert labels == ["exec:A_One", "exec:A_Two", "react:Idle"]

    def test_bijection_with_model_structure(self):
        for name in fixture_names():
            model = load_model(name)
            labels = [r.label() for r in S.rule_instances(model)]
            expected = [f"exec:{a}" for a in model.action_ids()]
            expected += [f"trans:{i}" for i in range(len(model.transitions))]
            expected += [f"react:{s}" for s in model.steps]
            assert labels == expected

    def test_guard_enters_hypothesis_cube(self, loop_model):
        ob = O.build_obligation(loop_model, formula("true", loop_model),
                                S.StepTransition(0))
        from certplc.linear import LinCon
        want = LinCon((("x", 1),), "<=", 9)
        assert all(want in cube for cube in ob.hyp_cubes)

    def test_transition_hypothesis_names_sources_and_actions(self, loop_model):
        ob = O.build_obligation(loop_model, formula("true", loop_model),
                                S.StepTransition(0))
        from certplc.linear import LinCon
        cube = ob.hyp_cubes[0]
        assert LinCon((("step:Init", 1),), "==", 1) in cube
        assert LinCon((("act:A_Init", 1),), "==", 0) in cube

    def test_opaque_effect_reported_undecided(self):
        m = parse_model(
            "var x : int16\nvar y : int16\nstep A [initial]\n"
            "action Amux on A = fbd F\n"
            "trans {A} -[ true ]-> {A}\n"
            "fbd F {\n block r = read x\n block c = lt(r.out, const 10)\n"
            " block m = mux(c.out, const 1, const 0)\n"
            " block w = write y (m.out)\n timeslice 1\n}\n")
        res = V.verify_invariant(m, P.Invariant("t", formula("y <= 65535", m)))
        assert isinstance(res, V.Undecided)
        assert "linear" in res.reason

    def test_nonlinear_guard_reported_undecided(self):
        m = parse_model(NONLINEAR_GUARD)
        res = V.verify_invariant(m, P.Invariant("t",
                                                formula("x <= 65535", m)))
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


class TestDischarge:
    def test_contradictory_hypothesis_closes_case(self, loop_model):
        # reactivating Init requires both outgoing guards false: impossible
        ob = O.build_obligation(loop_model, formula("true", loop_model),
                                S.Reactivate("Init"))
        case = V.discharge(loop_model, ob)
        assert all(entry.contradiction is not None for entry in case.hyps)

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

    def test_conjunction_splits_into_leaves(self, loop_model):
        inv = load_invariants("loop", loop_model)[1]  # the strengthened one
        res = V.verify_invariant(loop_model, inv)
        assert isinstance(res, V.Proved)
        case = {c.label: c for c in res.tree.cases}["react:Return"]
        entry = case.hyps[0]
        assert entry.conjuncts is not None
        assert len(entry.conjuncts) == 4  # one leaf per conjunct


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


class TestBasicLemmas:
    @pytest.mark.parametrize("name", fixture_names())
    def test_lemmas_prove_everywhere(self, name):
        model = load_model(name)
        lemmas = V.gen_basic_lemmas(model)
        assert [inv.name for inv, _ in lemmas] == ["actions_declared",
                                                   "steps_declared"]
        for inv, res in lemmas:
            assert isinstance(res, V.Proved)

    def test_declared_set_matches_model(self, loop_model):
        (l1, _), (l2, _) = V.gen_basic_lemmas(loop_model)
        assert l1.formula == P.ActionsWithin(("A_Init",))
        assert l2.formula == P.StepsWithin(("Init", "Return", "Step2"))


class TestGuardUnreachable:
    def test_unsigned_negative_guard(self):
        m = parse_model("var x : int16\nstep A [initial]\nstep Dead\n"
                        "trans {A} -[ x < 0 ]-> {Dead}\n"
                        "trans {A} -[ true ]-> {A}\n")
        res = V.check_guard_unreachable(m, "Dead")
        assert isinstance(res, V.Proved)
        assert oracle_holds(m, formula("!step(Dead)", m))

    def test_needs_context_invariant(self):
        m = load_model("dead_ctx")
        ctx = formula("0 < y", m)
        assert isinstance(V.verify_invariant(m, P.Invariant("c", ctx)),
                          V.Proved)
        res = V.check_guard_unreachable(m, "Dead", context=(ctx,))
        assert isinstance(res, V.Proved)
        assert oracle_holds(m, formula("!step(Dead)", m))

    def test_satisfiable_guard_stays_undecided(self, loop_model):
        res = V.check_guard_unreachable(loop_model, "Return")
        assert isinstance(res, V.Undecided)
        assert "transition 2" in res.reason

    def test_nonlinear_guard_stays_undecided(self):
        res = V.check_guard_unreachable(parse_model(NONLINEAR_GUARD), "T")
        assert isinstance(res, V.Undecided)
        assert "multiplication" in res.reason

    def test_initial_target_rejected(self, loop_model):
        with pytest.raises(ValueError):
            V.check_guard_unreachable(loop_model, "Init")


class TestDeterminedSuccessor:
    def _mutex(self, model):
        return formula("!step(Init) || !step(Step2)", model)

    def test_exit_trigger_forces_return(self, loop_model):
        mutex = self._mutex(loop_model)
        assert isinstance(
            V.verify_invariant(loop_model, P.Invariant("m", mutex)), V.Proved)
        trigger = formula("x >= 10 && step(Init)", loop_model)
        res = V.check_determined_successor(loop_model, trigger, "Return",
                                           context=(mutex,))
        assert res.status == "proved"
        # explorer cross-check: in every reachable trigger state the only
        # firable transitions target exactly {Return}
        for s in reachable_bounded(loop_model, 40):
            if P.holds_on(trigger, s):
                fired = [loop_model.transitions[r.index].targets
                         for r, _ in S.successors(loop_model, s)
                         if isinstance(r, S.StepTransition)]
                assert fired and all(t == ("Return",) for t in fired)

    def test_false_trigger_vacuous(self, loop_model):
        res = V.check_determined_successor(
            loop_model, formula("false", loop_model), "Return")
        assert res.status == "proved"

    def test_overlapping_guards_refuted(self):
        m = load_model("ambiguous")
        trigger = formula("x >= 10 && step(S)", m)
        res = V.check_determined_successor(m, trigger, "A")
        assert res.status == "refuted"
        assert [i for i, _ in res.offenders] == [1]
        res_b = V.check_determined_successor(m, trigger, "B")
        assert res_b.status == "refuted"
        assert [i for i, _ in res_b.offenders] == [0]

    def test_nonlinear_guard_undecided(self):
        m = parse_model(NONLINEAR_GUARD)
        res = V.check_determined_successor(m, formula("step(S)", m), "T")
        assert res.status == "undecided"
        assert "multiplication" in res.reason


class TestTreeShape:
    def test_case_labels_cover_rule_instances(self, loop_model):
        inv = load_invariants("loop", loop_model)[1]
        res = V.verify_invariant(loop_model, inv)
        labels = [c.label for c in res.tree.cases]
        assert labels == [r.label() for r in S.rule_instances(loop_model)]

    def test_leaf_count_positive(self, loop_model):
        inv = load_invariants("loop", loop_model)[1]
        res = V.verify_invariant(loop_model, inv)
        assert res.tree.leaf_count() > len(res.tree.cases)
