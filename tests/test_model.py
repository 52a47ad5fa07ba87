import time
from dataclasses import replace

import pytest

from certplc import (canonical_text, model_digest, parse_model, validate)
from certplc.model import (ActionBlock, ExecuteAction, SfcModel, Transition,
                           VarDecl, init_state)
from certplc.parsing import ParseError, TokenStream, parse_expression
from certplc.semantics import apply_rule, reachable_bounded, run_trace
from certplc import expr as E

from conftest import (FANOUT, FIXTURES, MIXED_WIDTH, built_in_code,
                      fixture_names, load_model)

MINIMAL = "step Only [initial]\n"


class TestParse:
    def test_loop_fixture_shape(self):
        model = load_model("loop")
        assert model.steps == ("Init", "Return", "Step2")
        assert model.initial == ("Init",)
        assert len(model.transitions) == 3
        assert model.action_ids() == ("A_Init",)
        assert model.actions_of("Init") == ("A_Init",)
        assert model.actions_of("Return") == ()

    def test_minimal_model(self):
        model = parse_model(MINIMAL)
        assert model.steps == ("Only",)
        assert model.vars == ()
        assert model.transitions == ()
        assert validate(model) == []

    def test_unknown_step_in_target(self):
        bad = MINIMAL + "trans {Only} -[ true ]-> {Ghost}\n"
        with pytest.raises(ParseError, match="unknown step"):
            parse_model(bad)

    @pytest.mark.parametrize("kind, text", [
        ("variable 'x'", "var x : int8\nvar x : int16\n" + MINIMAL),
        ("step 'A'", "step A [initial]\nstep A\n"),
        ("action 'A'",
         MINIMAL + "action A on Only { }\naction A on Only { }\n"),
        ("fbd 'F'", MINIMAL + "fbd F { }\nfbd F { }\n"),
    ], ids=["variable", "step", "action", "fbd"])
    def test_duplicate_declaration(self, kind, text):
        with pytest.raises(ParseError, match=f"duplicate {kind}"):
            parse_model(text)

    def test_duplicate_action_is_one_problem(self):
        with pytest.raises(ParseError) as err:
            parse_model(MINIMAL + "action A on Only { }\n"
                        "action A on Only { }\n")
        assert str(err.value) == "duplicate action 'A'"

    # a diagram with a cycle without a delay, declared before or after an
    # empty one of the same name: each is validated on its own
    CYCLE = ("fbd F {\n block a = add(b.out, const 1)\n"
             " block b = add(a.out, const 1)\n block w = write x (a.out)\n}\n")

    @pytest.mark.parametrize("fbds, problems", [
        (CYCLE + "fbd F { }\n", ["fbd 'F': cycle without a delay block: "
                                  "a -> b -> a", "duplicate fbd 'F'"]),
        ("fbd F { }\n" + CYCLE, ["duplicate fbd 'F'", "fbd 'F': cycle "
                                  "without a delay block: a -> b -> a"]),
    ], ids=["invalid-first", "invalid-second"])
    def test_duplicate_diagrams_are_each_validated(self, fbds, problems):
        with pytest.raises(ParseError) as err:
            parse_model("var x : int16\n" + MINIMAL
                        + "action A on Only = fbd F\n" + fbds)
        assert str(err.value) == "; ".join(problems)

    def test_action_on_unknown_step_carries_position(self):
        with pytest.raises(ParseError, match="unknown step 'Ghost'") as err:
            parse_model(MINIMAL + "action A on Ghost { }\n")
        assert err.value.line == 2
        assert err.value.col == 13

    def test_many_actions_on_the_last_step(self):
        """20000 steps and 20000 actions, all on the last step: finding
        each action's step and listing a step's actions take linear time
        (checking each step against the step list took 13 s here)."""
        n = 20000
        text = "\n".join(
            ["step S00000 [initial]"]
            + [f"step S{k:05d}" for k in range(1, n)]
            + [f"action A{k:05d} on S{n - 1:05d} {{ }}" for k in range(n)])
        t0 = time.perf_counter()
        model = parse_model(text)
        assert time.perf_counter() - t0 < 5.0
        assert len(model.actions_of(f"S{n - 1:05d}")) == n

    def test_type_mismatch_in_guard(self):
        bad = ("var x : int16\nvar b : bool\n" + MINIMAL +
               "trans {Only} -[ x + b > 1 ]-> {Only}\n")
        with pytest.raises(ParseError):
            parse_model(bad)

    def test_guard_must_be_boolean(self):
        bad = "var x : int16\n" + MINIMAL + "trans {Only} -[ x + 1 ]-> {Only}\n"
        with pytest.raises(ParseError, match="boolean"):
            parse_model(bad)

    def test_width_changing_assignment_rejected(self):
        # wrapping at int8 and then storing into int16 differs from one wrap
        # at int16, which is what the symbolic effect encodes
        with pytest.raises(ParseError, match="width mismatch"):
            parse_model(MIXED_WIDTH)

    def test_literal_assignment_adopts_target_width(self):
        model = parse_model("var x : int8\nvar y : int16\n" + MINIMAL +
                            "action A on Only { y := 300; x := 7 * 3; }\n")
        assert validate(model) == []

    def test_initializer_out_of_range(self):
        with pytest.raises(ParseError, match="range"):
            parse_model("var x : int8 = 300\n" + MINIMAL)

    def test_time_marker_rejected(self):
        # the marker is no longer part of the format; time is a counter
        for decl in ("var t : int32 [time]", "var b : bool [time]"):
            with pytest.raises(ParseError):
                parse_model(decl + "\n" + MINIMAL)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_model("step Ok [initial]\nstep 123\n")
        assert err.value.line == 2
        assert err.value.col == 6

    def test_non_ascii_digit_is_an_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_model("var x : int16\nstep S [initial]\n"
                        "action A on S { x := x + ²; }\n")
        assert str(err.value) == "line 3, col 26: unexpected character '²'"
        with pytest.raises(ParseError, match="unexpected character '٣'"):
            parse_model("var x : int16 = ٣\n" + MINIMAL)

    def test_overlong_number_is_a_parse_error(self):
        with pytest.raises(ParseError, match="line 1, col 17: number too "
                                             "long"):
            parse_model("var x : int16 = 1" + "0" * 5000 + "\n" + MINIMAL)

    def test_initializers_parse(self):
        model = parse_model("var x : int16 = 7\nvar t : int32\n"
                            "var b : bool = true\n" + MINIMAL)
        by_name = {v.name: v for v in model.vars}
        assert by_name["x"].init == 7
        assert by_name["t"].init is None
        assert by_name["b"].init == 1

    def test_priority_parses(self):
        model = parse_model(MINIMAL +
                            "trans {Only} -[ true ]-> {Only} [prio 2]\n")
        assert model.transitions[0].priority == 2


class TestValidate:
    def test_fixture_models_clean(self):
        for name in fixture_names():
            assert validate(load_model(name)) == []

    def test_hand_built_guard_is_typechecked(self):
        model = parse_model(MINIMAL)
        for guard, problem in ((E.IntLit(1), "guard is not boolean"),
                               (E.Var("y"), "unbound variable 'y'")):
            t = Transition(("Only",), guard, ("Only",))
            broken = SfcModel(model.vars, model.steps, model.initial,
                              model.actions, (t,))
            assert validate(broken) == [f"transition 0: {problem}"]
        # a well-typed guard or assignment from the expression parser is
        # annotated on construction, so the model runs like its parsed twin
        loop = load_model("loop")
        lt3 = parse_expression(TokenStream("x < 3"))
        assert lt3.width is None
        guarded = replace(loop, transitions=(
            replace(loop.transitions[0], guard=lt3),) + loop.transitions[1:])
        assert validate(guarded) == []
        twin = parse_model(canonical_text(guarded))
        assert reachable_bounded(guarded, 5) == reachable_bounded(twin, 5)
        assert run_trace(guarded, max_steps=20) == run_trace(twin,
                                                             max_steps=20)
        flagged = replace(loop, vars=loop.vars + (VarDecl("b", "bool"),),
                          actions=(ActionBlock("A_Init", "Init",
                                               (("b", lt3),)),))
        assert validate(flagged) == []
        assert apply_rule(flagged, init_state(flagged),
                          ExecuteAction("A_Init")).mem == {"b": 1, "x": 0}

    def test_one_typecheck_per_guard_and_assignment(self, monkeypatch):
        # parsing annotates and validates from the same typecheck
        calls, depth = [], [0]
        typecheck = E.typecheck

        def counted(e, env, leaf=None):
            if not depth[0]:  # not a chain operand's recursive check
                calls.append(e)
            depth[0] += 1
            try:
                return typecheck(e, env, leaf)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(E, "typecheck", counted)
        models = [load_model(name) for name in fixture_names()]
        exprs = sum(len(m.transitions) + sum(
            len(a.assigns) for a in m.actions if a.assigns) for m in models)
        assert len(calls) == exprs == 40
        # built in code and then validated: the same one each
        calls.clear()
        for model in models:
            assert validate(built_in_code(model)) == []
        assert len(calls) == exprs

    def test_empty_initial_set(self):
        model = parse_model(MINIMAL)
        broken = SfcModel(model.vars, model.steps, (), model.actions,
                          model.transitions)
        assert any("initial" in v for v in validate(broken))

    def test_action_on_unknown_step(self):
        model = parse_model(MINIMAL)
        broken = SfcModel(model.vars, model.steps, model.initial,
                          (ActionBlock("A", "Ghost", assigns=()),),
                          model.transitions)
        assert validate(broken) == [
            "action 'A' attached to unknown step 'Ghost'"]

    def test_duplicate_transition_source(self):
        model = parse_model(MINIMAL)
        t = Transition(("Only", "Only"), E.BoolLit(True), ("Only",))
        broken = SfcModel(model.vars, model.steps, model.initial,
                          model.actions, (t,))
        assert any("duplicate source" in v for v in validate(broken))


class TestCanonical:
    def test_parse_print_parse_is_parse(self):
        for name in fixture_names():
            text = (FIXTURES / f"{name}.sfc").read_text()
            once = parse_model(text)
            again = parse_model(canonical_text(once))
            assert once == again, name
            assert canonical_text(once) == canonical_text(again)
            # rebuilt in code, from width-stripped or annotated guards and
            # assignments: typed as parsed, widths included (repr shows them)
            for built in (built_in_code(once), replace(once)):
                assert built == once, name
                assert repr(built) == repr(once), name
                assert canonical_text(built) == canonical_text(once)

    def test_declaration_order_is_normalized(self):
        a = parse_model("var a : int8\nvar b : int16\n" + MINIMAL)
        b = parse_model("var b : int16\nvar a : int8\n" + MINIMAL)
        assert a == b
        assert canonical_text(a) == canonical_text(b)
        # built in code with every declaration list reversed
        parsed = parse_model(FANOUT)
        built = SfcModel(parsed.vars[::-1], parsed.steps[::-1],
                         parsed.initial[::-1], parsed.actions[::-1],
                         parsed.transitions, parsed.fbds[::-1])
        assert built == parsed
        assert canonical_text(built) == canonical_text(parsed)


class TestDigest:
    def test_deterministic(self):
        text = (FIXTURES / "loop.sfc").read_text()
        assert model_digest(parse_model(text)) == model_digest(parse_model(text))

    def test_semantic_edit_changes_digest(self):
        text = (FIXTURES / "loop.sfc").read_text()
        assert model_digest(parse_model(text)) != \
            model_digest(parse_model(text.replace("x < 10", "x < 11")))

    def test_reordered_declarations_share_digest(self):
        a = parse_model("var a : int8\nvar b : int16\n" + MINIMAL)
        b = parse_model("var b : int16\nvar a : int8\n" + MINIMAL)
        assert model_digest(a) == model_digest(b)

    def test_is_sha256_hex(self):
        d = model_digest(parse_model(MINIMAL))
        assert len(d) == 64
        int(d, 16)
