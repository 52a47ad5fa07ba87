import pytest

from certplc import expr as E
from certplc import semantics as S
from certplc.model import parse_model
from certplc.semantics import (BudgetExceeded, ExecuteAction, NotApplicable,
                               Reactivate, StepTransition, init_state,
                               reachable_bounded, run_trace, state_text,
                               successors)

from conftest import fixture_names, load_model


class TestInitState:
    def test_loop_initial_configuration(self, loop_model):
        c = init_state(loop_model)
        assert c.mem["x"] == 0
        assert c.active_steps == ("Init",)
        assert c.active_actions == ("A_Init",)

    def test_no_variables(self):
        c = init_state(parse_model("step A [initial]\n"))
        assert c.mem == {}

    def test_declared_initializer(self):
        m = parse_model("var x : int16 = 7\nstep A [initial]\n")
        assert init_state(m).mem["x"] == 7

    def test_empty_init_actions_mode(self, loop_model):
        c = init_state(loop_model, "empty")
        assert c.active_actions == ()

    def test_multiple_entry_steps(self):
        m = load_model("init_multi")
        assert init_state(m).active_steps == ("A", "B")


class TestExecuteAction:
    def test_updates_memory_and_retires_action(self, loop_model):
        c = S.SfcState(init_state(loop_model).mem, ("Init",), ("A_Init",))
        c2 = S.apply_rule(loop_model, c, ExecuteAction("A_Init"))
        assert c2.mem["x"] == 1
        assert c2.active_actions == ()
        assert c2.active_steps == c.active_steps

    def test_remove_all_occurrences(self):
        m = load_model("multi_action")
        c = S.SfcState(init_state(m).mem, ("Idle",),
                       ("A_One", "A_Two", "A_One"))
        c2 = S.apply_rule(m, c, ExecuteAction("A_One"))
        assert c2.active_actions == ("A_Two",)

    def test_inactive_action_not_applicable(self, loop_model):
        c = S.SfcState(init_state(loop_model).mem, ("Init",), ())
        with pytest.raises(NotApplicable):
            S.apply_rule(loop_model, c, ExecuteAction("A_Init"))


class TestStepTransition:
    def test_fires_when_guard_holds(self, loop_model):
        mem = {"x": 5}
        c = S.SfcState(mem, ("Init",), ())
        c2 = S.apply_rule(loop_model, c, StepTransition(0))
        assert c2.active_steps == ("Step2",)
        assert c2.active_actions == ()
        assert c2.mem == mem  # memory frame

    def test_guard_false_blocks(self, loop_model):
        c = S.SfcState({"x": 12}, ("Init",), ())
        with pytest.raises(NotApplicable):
            S.apply_rule(loop_model, c, StepTransition(0))
        c2 = S.apply_rule(loop_model, c, StepTransition(2))
        assert c2.active_steps == ("Return",)

    def test_pending_source_action_blocks(self, loop_model):
        c = S.SfcState({"x": 5}, ("Init",), ("A_Init",))
        with pytest.raises(NotApplicable, match="pending"):
            S.apply_rule(loop_model, c, StepTransition(0))

    def test_multi_source_requires_all_active(self):
        m = load_model("parallel")
        mem = {"x": 2}
        with pytest.raises(NotApplicable, match="inactive"):
            S.apply_rule(m, S.SfcState(mem, ("L1",), ()),
                         StepTransition(1))
        c2 = S.apply_rule(m, S.SfcState(mem, ("L1", "L2"), ()),
                          StepTransition(1))
        assert c2.active_steps == ("J",)

    def test_filter_then_append_order(self):
        m = parse_model("step A [initial]\nstep B [initial]\nstep C\n"
                        "trans {B} -[ true ]-> {C}\n")
        c = S.SfcState({}, ("A", "B"), ())
        c2 = S.apply_rule(m, c, StepTransition(0))
        assert c2.active_steps == ("A", "C")

    def test_target_actions_prepended(self, loop_model):
        c = S.SfcState({"x": 1}, ("Step2",), ())
        c2 = S.apply_rule(loop_model, c, StepTransition(1))
        assert c2.active_actions == ("A_Init",)


class TestReactivate:
    def test_blocked_by_enabled_guard(self, loop_model):
        c = S.SfcState({"x": 12}, ("Step2",), ())
        with pytest.raises(NotApplicable):
            S.apply_rule(loop_model, c, Reactivate("Step2"))

    def test_step_without_transitions_always_reactivates(self):
        m = load_model("multi_action")
        c = init_state(m)
        c2 = S.apply_rule(m, c, Reactivate("Idle"))
        assert c2.active_actions == ("A_One", "A_Two") + c.active_actions

    def test_double_reactivation_duplicates(self):
        m = load_model("multi_action")
        c = S.SfcState(init_state(m).mem, ("Idle",), ())
        c2 = S.apply_rule(m, S.apply_rule(m, c, Reactivate("Idle")),
                          Reactivate("Idle"))
        assert sorted(c2.active_actions) == ["A_One", "A_One",
                                             "A_Two", "A_Two"]

    def test_all_guards_false_enables(self, loop_model):
        # from Init both outgoing guards cannot be false at once
        for x in (5, 12):
            c = S.SfcState({"x": x}, ("Init",), ())
            with pytest.raises(NotApplicable):
                S.apply_rule(loop_model, c, Reactivate("Init"))


def _enabled_by_scan(model, c, rule):
    """Independent applicability predicate used to cross-check successors."""
    if isinstance(rule, ExecuteAction):
        return rule.action in c.active_actions
    if isinstance(rule, StepTransition):
        t = model.transitions[rule.index]
        if not set(t.sources) <= set(c.active_steps):
            return False
        if not E.eval_expr(t.guard, c.mem):
            return False
        pending = set(c.active_actions)
        return all(a not in pending
                   for s in t.sources for a in model.actions_of(s))
    if isinstance(rule, Reactivate):
        if rule.step not in c.active_steps:
            return False
        return all(not E.eval_expr(t.guard, c.mem)
                   for t in model.transitions if rule.step in t.sources)
    raise TypeError(rule)


class TestSuccessors:
    def test_sound_and_complete_against_scan(self):
        for name in fixture_names():
            model = load_model(name)
            try:
                states = reachable_bounded(model, 6, state_budget=400)
            except BudgetExceeded as err:
                states = err.partial
            for c in states[:60]:
                got = {r.label() for r, _ in successors(model, c)}
                want = {r.label() for r in S.rule_instances(model)
                        if _enabled_by_scan(model, c, r)}
                assert got == want, (name, state_text(c))

    def test_only_transition_after_action_executed(self, loop_model):
        c = S.SfcState({"x": 5}, ("Init",), ())
        got = [r.label() for r, _ in successors(loop_model, c)]
        assert got == ["trans:0"]

    def test_one_per_pending_action(self):
        m = load_model("multi_action")
        c = init_state(m)
        kinds = [r.label() for r, _ in successors(m, c)
                 if isinstance(r, ExecuteAction)]
        assert kinds == ["exec:A_One", "exec:A_Two"]

    def test_dead_state_has_no_successors(self):
        m = parse_model("step L1 [initial]\nstep L2\nstep J\n"
                        "trans {L1, L2} -[ true ]-> {J}\n")
        c = S.SfcState({}, ("L1",), ())
        assert successors(m, c) == []

    def test_rule_framing(self):
        for name in fixture_names():
            model = load_model(name)
            try:
                states = reachable_bounded(model, 5, state_budget=300)
            except BudgetExceeded as err:
                states = err.partial
            for c in states[:40]:
                for rule, c2 in successors(model, c):
                    if isinstance(rule, ExecuteAction):
                        assert c2.active_steps == c.active_steps
                    elif isinstance(rule, StepTransition):
                        assert c2.mem == c.mem
                    else:
                        assert c2.mem == c.mem
                        assert c2.active_steps == c.active_steps


class TestReachable:
    def test_depth_zero_is_initial_only(self, loop_model):
        states = reachable_bounded(loop_model, 0)
        assert states == [init_state(loop_model)]

    def test_loop_explorer_is_the_oracle(self, loop_model):
        states = reachable_bounded(loop_model, 40)
        assert max(s.mem["x"] for s in states) == 10
        for s in states:
            if "Return" in s.active_steps:
                assert s.mem["x"] == 10

    def test_monotone_in_depth(self, loop_model):
        for d in range(0, 12, 3):
            small = {s.key() for s in reachable_bounded(loop_model, d)}
            large = {s.key() for s in reachable_bounded(loop_model, d + 3)}
            assert small <= large

    def test_budget_exceeded_carries_partial(self):
        m = load_model("multi_action")
        with pytest.raises(BudgetExceeded) as err:
            reachable_bounded(m, 50, state_budget=64)
        assert len(err.value.partial) > 64

    def test_actions_stay_declared(self):
        # structural fact checked dynamically on every fixture
        for name in fixture_names():
            model = load_model(name)
            declared = set(model.action_ids())
            try:
                states = reachable_bounded(model, 8, state_budget=500)
            except BudgetExceeded as err:
                states = err.partial
            for s in states:
                assert set(s.active_actions) <= declared
                assert set(s.active_steps) <= set(model.steps)


class TestTraces:
    def test_priority_scheduler_walks_the_loop(self, loop_model):
        trace = run_trace(loop_model, "priority", max_steps=60)
        labels = [r.label() for r, _ in trace]
        # strict alternation until the exit fires
        assert labels[:6] == ["exec:A_Init", "trans:0", "trans:1",
                              "exec:A_Init", "trans:0", "trans:1"]
        assert "trans:2" in labels
        final = trace[labels.index("trans:2")][1]
        assert final.active_steps == ("Return",)
        assert final.mem["x"] == 10

    def test_max_steps_zero(self, loop_model):
        assert run_trace(loop_model, "priority", max_steps=0) == []

    def test_same_seed_same_trace(self, loop_model):
        a = run_trace(loop_model, "random", max_steps=30, seed=11)
        b = run_trace(loop_model, "random", max_steps=30, seed=11)
        assert [(r.label(), state_text(s)) for r, s in a] == \
            [(r.label(), state_text(s)) for r, s in b]

    def test_trace_states_are_reachable(self, loop_model):
        keys = {s.key() for s in reachable_bounded(loop_model, 25)}
        for _, s in run_trace(loop_model, "fixed", max_steps=25):
            assert s.key() in keys

    def test_priority_orders_transitions(self):
        m = parse_model("step A [initial]\nstep B\nstep C\n"
                        "trans {A} -[ true ]-> {B}\n"
                        "trans {A} -[ true ]-> {C} [prio 0]\n")
        trace = run_trace(m, "priority", max_steps=1)
        assert trace[0][0].label() == "trans:1"  # explicit priority first


class TestStateText:
    def test_canonical_serialization(self):
        mem = {"y": 1, "x": 5}
        s = S.SfcState(mem, ("Init",), ("B", "A"))
        assert state_text(s) == "mem{x=5,y=1} steps[Init] acts[A,B]"

    def test_equality_is_multiset_on_actions(self):
        s1 = S.SfcState({}, ("A",), ("P", "Q"))
        s2 = S.SfcState({}, ("A",), ("Q", "P"))
        s3 = S.SfcState({}, ("A",), ("P", "Q", "Q"))
        assert s1 == s2
        assert s1 != s3

    def test_step_order_is_significant(self):
        assert S.SfcState({}, ("A", "B"), ()) != S.SfcState({}, ("B", "A"), ())
