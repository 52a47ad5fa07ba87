import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certplc import expr as E
from certplc import fbd as F
from certplc import semantics as S
from certplc.linear import LimitExceeded
from certplc.model import parse_model
from certplc.parsing import ParseError
from certplc.semantics import (BudgetExceeded, ExecuteAction, NotApplicable,
                               Reactivate, StepTransition, init_state,
                               reachable_bounded, run_trace, state_text,
                               successors)

from conftest import FANOUT, fixture_names, load_model, states_of


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

    def test_unbound_guard_variable_reported(self, loop_model):
        c = S.SfcState({}, ("Init",), ())
        with pytest.raises(E.ExprError, match="unbound variable 'x'"):
            S.apply_rule(loop_model, c, StepTransition(0))

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
                want = {r.label() for r in model.rules
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

    def test_budget_exceeded_is_a_limit_exceeded(self):
        # one failure class covers every cap and budget
        m = load_model("multi_action")
        with pytest.raises(LimitExceeded) as err:
            reachable_bounded(m, 50, state_budget=64)
        assert isinstance(err.value, BudgetExceeded)
        assert str(err.value) == \
            f"state budget exceeded after {len(err.value.partial)} states"

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


    def test_unknown_scheduler_rejected_before_any_rule(self, loop_model):
        # the join {S, T} never fires: S alone is active, so no rule is
        # enabled in the initial configuration
        stuck = parse_model("step S [initial]\nstep T\nstep U\n"
                            "trans {S, T} -[ true ]-> {U}\n")
        assert run_trace(stuck, "priority") == []
        for model in (stuck, loop_model):
            with pytest.raises(ValueError, match="unknown scheduler 'bogus'"):
                run_trace(model, scheduler="bogus")

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


class TestMemo:
    """One exploration or simulation shares a memo of guard and effect
    results keyed by (id, values read); sharing it changes no result."""

    @pytest.mark.parametrize("name", fixture_names() + ["FANOUT"])
    def test_shared_memo_matches_fresh_memo_per_state(self, monkeypatch,
                                                      name):
        model = parse_model(FANOUT) if name == "FANOUT" else load_model(name)

        def outputs():
            states = [(state_text(s), s.mem) for s in states_of(model, 8,
                                                                  3000)]
            traces = [[(r, state_text(s), s.mem)
                       for r, s in run_trace(model, sched, 150, seed=5)]
                      for sched in ("priority", "fixed", "random")]
            return states, traces

        shared = outputs()
        plain, plain_fired, calls, fired = S.successors, S._fired, [], []

        def fresh(model, c, memo=None):
            calls.append(memo)
            return plain(model, c)

        def fresh_fired(t, c, memo):
            fired.append(memo)
            return plain_fired(t, c, {})

        # the explorer's and the simulator's paths, each with a fresh memo
        # per configuration
        monkeypatch.setattr(S, "successors", fresh)
        monkeypatch.setattr(S, "_fired", fresh_fired)
        assert outputs() == shared
        assert calls and all(m is not None for m in calls)
        assert fired and all(m is not None for m in fired)

    @pytest.mark.parametrize("body", [
        "{ x := x + 1; }",
        "= fbd Inc\nfbd Inc {\n  block r = read x\n"
        "  block a = add(r.out, const 1)\n  block w = write x (a.out)\n}",
    ], ids=["assignments", "diagram"])
    def test_entries_keyed_by_the_values_read(self, body):
        model = parse_model("var x : int16\nvar y : int16\n"
                            f"step S [initial]\naction A on S {body}\n")
        memo = {}

        def executed(mem):
            c = S.SfcState(mem, ("S",), ("A",))
            (rule, c2), = [p for p in successors(model, c, memo)
                           if isinstance(p[0], ExecuteAction)]
            return c2.mem

        def evaluated():
            # an evaluator's key is (id, values read); a control part's
            # key is (active steps, pending actions)
            return sum(isinstance(k[0], int) for k in memo)

        assert executed({"x": 1, "y": 0}) == {"x": 2, "y": 0}
        assert evaluated() == 1
        # y is not read: the entry is shared, y is kept from the memory
        assert executed({"x": 1, "y": 7}) == {"x": 2, "y": 7}
        assert evaluated() == 1
        # x is read: a new entry
        assert executed({"x": 5, "y": 7}) == {"x": 6, "y": 7}
        assert evaluated() == 2
        # one control part, whatever the memory
        assert len(memo) - evaluated() == 1

    @pytest.mark.parametrize("name", ["loop", "lockstep"])
    def test_control_half_runs_once_per_control_part(self, monkeypatch,
                                                     name):
        """One exploration or simulation decides the rows a control part
        enables once, however many memories it meets the part with."""
        model = load_model(name)
        plain_enabled, plain_successors = S._enabled, S.successors
        plain_fired = S._fired
        enabled, parts = [], []

        def counted_enabled(t, steps, acts):
            enabled.append((steps, acts))
            return plain_enabled(t, steps, acts)

        def recorded(model, c, memo=None):
            parts.append((c.active_steps, c.active_actions))
            return plain_successors(model, c, memo)

        def recorded_fired(t, c, memo):
            parts.append((c.active_steps, c.active_actions))
            return plain_fired(t, c, memo)

        monkeypatch.setattr(S, "_enabled", counted_enabled)
        monkeypatch.setattr(S, "successors", recorded)
        monkeypatch.setattr(S, "_fired", recorded_fired)
        for run in (lambda: reachable_bounded(model, 30),
                    lambda: run_trace(model, "random", 200, seed=2)):
            enabled.clear()
            parts.clear()
            run()
            assert len(enabled) == len(set(parts)) < len(parts) / 4
            assert set(enabled) == set(parts)

    def test_step_rows_decided_once_per_step_list(self, monkeypatch):
        """The transitions and reactivations an active step list enables
        are decided once per rule table, however many control parts,
        explorations and simulations meet the list."""
        model = parse_model(FANOUT)
        plain_step_rows, plain_enabled = S._step_rows, S._enabled
        decided, parts = [], []

        def counted_step_rows(t, steps):
            decided.append(steps)
            return plain_step_rows(t, steps)

        def recorded_enabled(t, steps, acts):
            parts.append((steps, acts))
            return plain_enabled(t, steps, acts)

        monkeypatch.setattr(S, "_step_rows", counted_step_rows)
        monkeypatch.setattr(S, "_enabled", recorded_enabled)
        reachable_bounded(model, 12)
        for scheduler in ("priority", "fixed", "random"):
            run_trace(model, scheduler, 300, seed=4)
        reachable_bounded(model, 12)
        step_lists = {steps for steps, _ in parts}
        assert len(decided) == len(set(decided))
        assert set(decided) == step_lists
        assert len(step_lists) < len(set(parts)) / 4

    @pytest.mark.parametrize("scheduler", ["priority", "fixed", "random"])
    def test_simulator_builds_only_the_configurations_it_takes(
            self, monkeypatch, scheduler):
        """A simulation step fires every enabled row but builds only the
        successor its scheduler picks, though FANOUT's steps often enable
        several rows."""
        model = parse_model(FANOUT)
        plain_state, built = S._state, []

        def counted_state(cls, fields):
            built.append(fields)
            return plain_state(cls, fields)

        monkeypatch.setattr(S, "_state", counted_state)
        trace = run_trace(model, scheduler, 400, seed=6)
        assert len(built) == len(trace) == 400
        monkeypatch.setattr(S, "_state", plain_state)
        enabled = [len(successors(model, c)) for _, c in trace]
        assert sum(enabled) > 2 * len(trace)


# Constant guards the rule table decides: trans 0 (false, and first by
# priority) can never fire, U's only leaving guard is true, so U never
# reactivates, and S's reactivation is blocked by x >= 3 (its false guard
# is left out).  B writes a constant.
FOLDED = """var x : int8
var y : int8
step S [initial]
step T
step U
action A on S { x := x + 1; }
action B on U { y := 7; x := 0; }
trans {S} -[ false ]-> {T} [prio 0]
trans {S} -[ x >= 3 ]-> {U} [prio 1]
trans {U} -[ true ]-> {S}
trans {T} -[ true ]-> {S}
"""


class TestFolding:
    """A guard that reads no variable is decided when the rule table is
    built: a rule it stops is never enumerated, ``apply_rule`` still
    reports it, and no constant guard reaches the memo."""

    def test_dead_rows_are_never_enumerated(self):
        model = parse_model(FOLDED)
        dead = {StepTransition(0), Reactivate("U")}
        states = reachable_bounded(model, 30)
        fired = {r for c in states for r, _ in successors(model, c)}
        assert not fired & dead
        # both dead rules pass their control half somewhere, and S's
        # reactivation fires
        assert {StepTransition(1), StepTransition(2), Reactivate("S")} \
            <= fired
        assert all("T" not in c.active_steps for c in states)
        assert any(c.active_steps == ("U",) and not c.active_actions
                   for c in states)
        for rule, c in run_trace(model, "priority", 60):
            assert rule not in dead

    def test_dead_rows_report_the_usual_reasons(self):
        model = parse_model(FOLDED)
        for x in (0, 5):
            with pytest.raises(NotApplicable, match="^guard is false$"):
                S.apply_rule(model, S.SfcState({"x": x, "y": 0}, ("S",), ()),
                             StepTransition(0))
            with pytest.raises(NotApplicable,
                               match="^an outgoing transition is enabled$"):
                S.apply_rule(model, S.SfcState({"x": x, "y": 0}, ("U",), ()),
                             Reactivate("U"))
        # the control half is checked first, as for every rule
        with pytest.raises(NotApplicable, match="^step 'S' inactive$"):
            S.apply_rule(model, S.SfcState({"x": 0, "y": 0}, ("U",), ()),
                         StepTransition(0))
        # the live rows around them fire
        c = S.apply_rule(model, S.SfcState({"x": 1, "y": 0}, ("S",), ()),
                         Reactivate("S"))
        assert c.active_actions == ("A",)
        c = S.apply_rule(model, S.SfcState({"x": 4, "y": 0}, ("U",),
                                           ("B",)), ExecuteAction("B"))
        assert c.mem == {"x": 0, "y": 7}

    def test_memo_holds_no_constant_guard(self, monkeypatch):
        """lockstep's transitions have guard true: neither exploring nor
        simulating it looks that guard up."""
        model = load_model("lockstep")
        plain, plain_fired, memos = S.successors, S._fired, []

        def recorded(model, c, memo=None):
            memos.append(memo)
            return plain(model, c, memo)

        def recorded_fired(t, c, memo):
            memos.append(memo)
            return plain_fired(t, c, memo)

        monkeypatch.setattr(S, "successors", recorded)
        monkeypatch.setattr(S, "_fired", recorded_fired)
        reachable_bounded(model, 40)
        run_trace(model, "priority", 200)
        shared = {id(m): m for m in memos}
        assert len(shared) == 2
        for memo in shared.values():
            # an evaluator's key is (id, values read): () when it reads
            # no variable
            evaluated = [k for k in memo if isinstance(k[0], int)]
            assert evaluated
            assert [k for k in evaluated if k[1] == ()] == []


class TestCompiledEffects:
    """A diagram is validated when its model is built and compiled once,
    on first use, however often its action runs; an invalid one never
    runs, because no model can hold it."""

    @pytest.mark.parametrize("load", [lambda: load_model("fbd_inc"),
                                      lambda: parse_model(FANOUT)],
                             ids=["fbd_inc", "fanout"])
    def test_each_diagram_validated_at_most_once(self, monkeypatch, load):
        model = load()  # parsing validates the model, diagrams included
        validated, executed = [], []
        validate, evaluate = F.validate_fbd, F.eval_iterative

        def counted_validate(f, env):
            validated.append(f.name)
            return validate(f, env)

        def counted_eval(p, *args):
            executed.append(p.name)
            return evaluate(p, *args)

        monkeypatch.setattr(F, "validate_fbd", counted_validate)
        monkeypatch.setattr(F, "eval_iterative", counted_eval)
        reachable_bounded(model, 8)
        run_trace(model, "random", 200, seed=1)
        assert len(validated) == len(set(validated))
        assert set(validated) <= {f.name for f in model.fbds}
        assert set(executed) == {f.name for f in model.fbds}
        assert len(executed) > 2 * len(model.fbds)

    @pytest.mark.parametrize("blocks, match", [
        ((F.Block("a", "add", (F.PortRef("b"), F.ConstIn(1))),
          F.Block("b", "add", (F.PortRef("a"), F.ConstIn(1))),
          F.Block("w", "write", (F.PortRef("a"),), var="x")), "cycle"),
        ((F.Block("a", "add", (F.PortRef("r"), F.ConstIn(1))),
          F.Block("r", "read", var="b"),
          F.Block("w", "write", (F.PortRef("a"),), var="x")),
         "boolean input"),
    ], ids=["undelayed-cycle", "bool-into-add"])
    def test_invalid_diagram_raises_and_never_runs(self, monkeypatch,
                                                   blocks, match):
        ran = []
        monkeypatch.setattr(F, "_run", lambda *args: ran.append(args))
        model = parse_model("var x : int16\nvar b : bool\n"
                            "step S [initial]\naction A on S = fbd D\n"
                            "fbd D { timeslice 1 }\n")
        bad = F.Fbd("D", blocks, 1)
        with pytest.raises(ParseError, match=f"^fbd 'D': .*{match}"):
            replace(model, fbds=(bad,))
        with pytest.raises(F.FbdError, match=match):
            F.compile_fbd(bad, model.env())
        assert ran == []


def _ring_with_joins(n=24):
    """An n-step ring that forks a side step P on its way out of R0 (so P
    can be active twice), two multi-source transitions into Q, and
    [prio] tags.  `{R6, P}` is listed under R6, its first source, and must
    not fire while P is active and R6 is not."""
    lines = ["var x : int8", "var y : int8", "step R0 [initial]"]
    lines += [f"step R{i}" for i in range(1, n)] + ["step P", "step Q"]
    lines.append("action Tick on R3 { y := x; x := x + 1; }")
    lines.append("trans {R0} -[ x < 2 ]-> {R1, P} [prio 0]")
    lines += [f"trans {{R{i}}} -[ true ]-> {{R{(i + 1) % n}}}"
              + (f" [prio {i % 3}]" if i % 4 == 0 else "")
              for i in range(n)]
    lines.append("trans {P, R12} -[ x >= 1 ]-> {Q} [prio 1]")
    lines.append("trans {R6, P} -[ x <= 3 ]-> {R7, Q}")
    return parse_model("\n".join(lines) + "\n")


def _reference_step(model, c, rule):
    """The successor of *c* under *rule*, or None when ``_enabled_by_scan``
    says it is not enabled: memory by the reference interpreters
    (``apply_effect``, ``eval_iterative``), lists from the declared
    chart."""
    if not _enabled_by_scan(model, c, rule):
        return None
    mem, steps, acts = c
    if isinstance(rule, ExecuteAction):
        a = model.action(rule.action)
        writes = (S.apply_effect(a.assigns, mem, model.env())
                  if a.fbd_ref is None
                  else F.eval_iterative(model.program(a.fbd_ref), mem))
        return S.SfcState({**mem, **writes}, steps,
                          tuple(x for x in acts if x != rule.action))
    if isinstance(rule, StepTransition):
        t = model.transitions[rule.index]
        return S.SfcState(
            mem, tuple(s for s in steps if s not in t.sources) + t.targets,
            tuple(x for s in t.targets for x in model.actions_of(s)) + acts)
    return S.SfcState(mem, steps, model.actions_of(rule.step) + acts)


def _reference_successors(model, c):
    """(rule, successor) pairs in enumeration order, by trying every rule
    instance of ``model.rules`` through ``_reference_step``, which runs
    no compiled kernel: execute instances of pending actions in first
    occurrence order, every transition in declaration order, then a
    reactivation per active step."""
    rules = list(model.rules)
    order = ([ExecuteAction(a) for a in dict.fromkeys(c.active_actions)]
             + [r for r in rules if isinstance(r, StepTransition)]
             + [Reactivate(s) for s in c.active_steps])
    out = [(rule, c2) for rule in order
           if (c2 := _reference_step(model, c, rule)) is not None]
    # every other instance is not enabled
    for rule in set(rules) - set(order):
        with pytest.raises(NotApplicable):
            S.apply_rule(model, c, rule)
    return out


def _reference_explore(model, depth):
    """Breadth-first closure deduplicated by SfcState.key()."""
    start = init_state(model)
    seen, states, frontier = {start.key()}, [start], [start]
    for _ in range(depth):
        nxt = []
        for c in frontier:
            for _, c2 in _reference_successors(model, c):
                if c2.key() not in seen:
                    seen.add(c2.key())
                    states.append(c2)
                    nxt.append(c2)
        frontier = nxt
    return states


def _reference_trace(model, scheduler, max_steps, seed):
    rng = random.Random(seed)
    c, trace = init_state(model), []
    for _ in range(max_steps):
        succ = _reference_successors(model, c)
        if not succ:
            break
        if scheduler == "fixed":
            rule, c = succ[0]
        elif scheduler == "random":
            rule, c = succ[rng.randrange(len(succ))]
        else:
            def rank(pair):
                rule = pair[0]
                if isinstance(rule, ExecuteAction):
                    return (0,)
                if isinstance(rule, StepTransition):
                    t = model.transitions[rule.index]
                    return (1, t.priority is None, t.priority or 0,
                            rule.index)
                return (2,)
            rule, c = min(succ, key=rank)  # min keeps the first of ties
        trace.append((rule, c))
    return trace


def _exact(states):
    """States with everything the explorer may order: memory items in key
    order, active steps, pending actions."""
    return [(list(s.mem.items()), s.active_steps, s.active_actions)
            for s in states]


_DIFFERENTIAL = fixture_names() + ["FANOUT", "ring_with_joins", "FOLDED"]


def _differential_model(name):
    if name == "FANOUT":
        return parse_model(FANOUT)
    if name == "ring_with_joins":
        return _ring_with_joins()
    if name == "FOLDED":
        return parse_model(FOLDED)
    return load_model(name)


class TestDifferential:
    """The explorer and the simulator equal a reference that tries every
    rule instance in every configuration, state for state and in order."""

    @pytest.mark.parametrize("name", _DIFFERENTIAL)
    def test_explorer_equals_reference(self, name):
        model = _differential_model(name)
        depth = 120 if name == "ring_with_joins" else 8
        got = reachable_bounded(model, depth)
        assert _exact(got) == _exact(_reference_explore(model, depth))
        for c in got:
            pairs = successors(model, c)
            want = _reference_successors(model, c)
            assert [r for r, _ in pairs] == [r for r, _ in want]
            assert _exact(c2 for _, c2 in pairs) == \
                _exact(c2 for _, c2 in want)
        # the explorer's dedup key reads memory values in this order
        names = [v.name for v in model.vars]
        assert all(list(s.mem) == names for s in got)

    @pytest.mark.parametrize("name", _DIFFERENTIAL)
    @pytest.mark.parametrize("scheduler", ["priority", "fixed", "random"])
    def test_simulator_equals_reference(self, name, scheduler):
        model = _differential_model(name)
        got = run_trace(model, scheduler, 150, seed=3)
        want = _reference_trace(model, scheduler, 150, 3)
        assert [(r, *_exact([s])) for r, s in got] == \
            [(r, *_exact([s])) for r, s in want]

    # tier-1 runs 200 examples; `--hypothesis-profile long` (conftest.py)
    # runs more
    @settings(max_examples=max(200, settings.default.max_examples),
              deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(_DIFFERENTIAL),
           st.sampled_from(["priority", "fixed", "random"]),
           st.integers(0, 2**32 - 1), st.integers(0, 60))
    def test_drawn_simulations_equal_reference(self, name, scheduler, seed,
                                               max_steps):
        model = _differential_model(name)
        got = run_trace(model, scheduler, max_steps, seed)
        want = _reference_trace(model, scheduler, max_steps, seed)
        assert [(r, *_exact([s])) for r, s in got] == \
            [(r, *_exact([s])) for r, s in want]

    def test_ring_reaches_what_the_index_must_skip(self):
        """Explored configurations where {R6, P}'s first source is
        inactive while P is active, where P is active twice, and where
        each multi-source transition fires."""
        model = _ring_with_joins()
        states = reachable_bounded(model, 120)
        assert any("P" in s.active_steps and "R6" not in s.active_steps
                   for s in states)
        assert any(s.active_steps.count("P") == 2 for s in states)
        fired = {r.index for s in states for r, _ in successors(model, s)
                 if isinstance(r, StepTransition)}
        assert {25, 26} <= fired


# --- compiled kernels against the reference interpreters ------------------

KERNEL_ENV = {"a": "int8", "b": "int8", "c": "int16", "d": "int16",
              "e": "int32", "f": "int32", "p": "bool", "q": "bool"}


def _edges(ty):
    """A type's wrap edges: 0, 1, max, max - 1 and 2**(w-1)."""
    top = E.max_of(ty)
    return sorted({0, 1, top, top - 1, (top + 1) // 2})


def _int_expr(draw, ty, depth=2):
    """An integer expression over *ty*'s variables: literals at the wrap
    edges and one past them, sums with drawn signs and products."""
    kind = draw(st.integers(0, 3 if depth else 1))
    if kind == 0:
        return E.Var(draw(st.sampled_from(
            [n for n, t in KERNEL_ENV.items() if t == ty])))
    if kind == 1:
        return E.IntLit(draw(st.sampled_from(_edges(ty)
                                             + [E.max_of(ty) + 2])))
    args = tuple(_int_expr(draw, ty, depth - 1)
                 for _ in range(draw(st.integers(2, 3))))
    if kind == 2:
        return E.Sum(args, (1,) + tuple(
            draw(st.sampled_from((1, -1))) for _ in args[1:]))
    return E.Prod(args)


def _bool_expr(draw, depth=2):
    """A guard: a comparison at a drawn width, a bool literal or variable,
    or a `!`, `&&` or `||` of guards."""
    kind = draw(st.integers(0, 5 if depth else 2))
    if kind == 0:
        ty = draw(st.sampled_from(sorted(E.INT_WIDTHS)))
        return E.Cmp(draw(st.sampled_from(E.CMP_OPS)),
                     _int_expr(draw, ty), _int_expr(draw, ty))
    if kind == 1:
        return E.BoolLit(draw(st.booleans()))
    if kind == 2:
        return E.Var(draw(st.sampled_from(["p", "q"])))
    if kind == 3:
        return E.Not(_bool_expr(draw, depth - 1))
    args = tuple(_bool_expr(draw, depth - 1)
                 for _ in range(draw(st.integers(2, 3))))
    return E.And(args) if kind == 4 else E.Or(args)


def _typed(e):
    return E.typecheck(e, KERNEL_ENV)[0]


@st.composite
def _guards(draw):
    """Typechecked guards (comparison widths annotated)."""
    return _typed(_bool_expr(draw))


@st.composite
def _assignments(draw):
    """Ordered assignment lists, each right-hand side of its target's
    type; a later one often reads an earlier target, as the variables are
    few."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(KERNEL_ENV)))
        ty = KERNEL_ENV[name]
        e = _bool_expr(draw) if ty == "bool" else _int_expr(draw, ty)
        out.append((name, _typed(e)))
    return tuple(out)


def _outcome(run, *args):
    """What *run* returns, or the message of the ExprError it raises."""
    try:
        return run(*args)
    except E.ExprError as err:
        return "ExprError", str(err)


_CHAINED = ((("a", E.Sum((E.Var("a"), E.IntLit(1)), (1, 1))),
             ("b", E.Sum((E.Var("b"), E.Var("a")), (1, 1))),
             ("p", _typed(E.Cmp("<", E.Var("a"), E.Var("b"))))))


class TestKernels:
    """Each guard and assignment list of a rule table runs as a compiled
    kernel; on every drawn input it computes what the reference
    interpreters ``E.eval_expr`` and ``S.apply_effect`` compute, and an
    unbound variable raises the same ExprError."""

    # tier-1 runs 500 examples; `--hypothesis-profile long` (conftest.py)
    # runs more
    @settings(max_examples=max(500, settings.default.max_examples),
              deadline=None, derandomize=True, database=None)
    @given(_guards(), _assignments(),
           st.fixed_dictionaries({n: st.sampled_from(_edges(t))
                                  for n, t in KERNEL_ENV.items()}),
           st.none() | st.sampled_from(sorted(KERNEL_ENV)))
    @example(_typed(E.Cmp("==", E.Sum((E.Var("a"), E.IntLit(1)), (1, 1)),
                          E.IntLit(0))), _CHAINED,
             {n: E.max_of(t) for n, t in KERNEL_ENV.items()}, None)
    @example(E.BoolLit(True), _CHAINED, {"a": 7}, "b")
    def test_kernels_equal_the_interpreters(self, guard, assigns, mem,
                                            missing):
        mem.pop(missing, None)
        assert _outcome(S._guard_kernel(guard), mem) == \
            _outcome(E.eval_expr, guard, mem)
        assert _outcome(S._effect_kernel(assigns, KERNEL_ENV), mem) == \
            _outcome(S.apply_effect, assigns, mem, KERNEL_ENV)
