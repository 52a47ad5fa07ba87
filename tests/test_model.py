import time
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certplc import canonical_text, model_digest, parse_model
from certplc import fbd as F
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
        parse_model("var x : int8\nvar y : int16\n" + MINIMAL +
                    "action A on Only { y := 300; x := 7 * 3; }\n")

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


# A chart built in code, and each problem the constructor names, one chart
# per message: the replaced fields of the chart and the exact message.
_X, _Y, _B = E.Var("x"), E.Var("y"), E.Var("b")
_F = F.Fbd("F", (F.Block("r", "read", var="x"),
                 F.Block("a", "add", (F.PortRef("r"), F.ConstIn(1))),
                 F.Block("w", "write", (F.PortRef("a"),), var="x")), 1)
BASE = dict(
    vars=(VarDecl("x", "int8"), VarDecl("y", "int16"), VarDecl("b", "bool")),
    steps=("S", "T"), initial=("S",),
    actions=(ActionBlock("A", "S", (("x", E.Sum((_X, E.IntLit(1)),
                                                  (1, 1))),)),
             ActionBlock("D", "T", fbd_ref="F")),
    transitions=(Transition(("S",), E.Cmp("<", _X, E.IntLit(10)), ("T",)),
                 Transition(("T",), E.BoolLit(True), ("S",), 1)),
    fbds=(_F,))


def _with(**fields):
    """BASE with *fields* replaced; a value that is a function gets BASE's
    value and returns the new one."""
    return {**BASE, **{k: v(BASE[k]) if callable(v) else v
                       for k, v in fields.items()}}


def _plus(*items):
    """For ``_with``: the field's value with *items* appended."""
    return lambda old: old + items


def _guard(e):
    return _plus(Transition(("S",), e, ("T",)))


def _assign(e, target="x"):
    return _plus(ActionBlock("E", "S", ((target, e),)))


def _nots(n, e):
    """*e* under *n* `!`s."""
    for _ in range(n):
        e = E.Not(e)
    return e


def _blocks(*blocks):
    return (F.Fbd("F", blocks + (F.Block("w", "write", (F.PortRef("r"),),
                                         var="x"),), 1),)


_READ = F.Block("r", "read", var="x")
_TRUE = E.BoolLit(True)

PROBLEMS = [
    # names, types and initializers
    ("bad-variable-name", _with(vars=_plus(VarDecl("T 2", "int8"))),
     "bad variable name 'T 2'"),
    # a variable `true` or `false` reads back as the literal
    ("true-variable", _with(vars=_plus(VarDecl("true", "bool")),
                            transitions=_guard(E.Var("true"))),
     "bad variable name 'true'"),
    ("false-variable", _with(vars=_plus(VarDecl("false", "bool"))),
     "bad variable name 'false'"),
    ("duplicate-variable", _with(vars=_plus(VarDecl("x", "int16"))),
     "duplicate variable 'x'"),
    ("unknown-type", _with(vars=_plus(VarDecl("z", "int7"))),
     "variable 'z' has unknown type 'int7'"),
    ("initializer-range", _with(vars=_plus(VarDecl("z", "int8", 256))),
     "initializer of 'z' out of range"),
    ("bad-step-name", _with(steps=_plus("1b")), "bad step name '1b'"),
    ("duplicate-step", _with(steps=_plus("T")), "duplicate step 'T'"),
    ("empty-initial", _with(initial=()), "empty initial step set"),
    ("undeclared-initial", _with(initial=("S", "G")),
     "initial step 'G' not declared"),
    ("duplicate-initial", _with(initial=("S", "S")), "duplicate initial step"),
    # diagrams
    # `2F` and `1b` do not lex as one name, `const.out` reads as a constant
    # and `const -3` does not parse
    ("bad-fbd-name", _with(fbds=_plus(replace(_F, name="2F"))),
     "bad fbd name '2F'"),
    ("duplicate-fbd", _with(fbds=_plus(_F)), "duplicate fbd 'F'"),
    ("fbd-problem", _with(fbds=(replace(_F, time_slice=0),)),
     "fbd 'F': time slice must be positive and at most 1024"),
    ("bad-block-id", _with(fbds=_blocks(_READ, F.Block("1b", "read",
                                                       var="x"))),
     "fbd 'F': bad block id '1b'"),
    ("const-block-id", _with(fbds=_blocks(_READ, F.Block("const", "read",
                                                         var="x"))),
     "fbd 'F': bad block id 'const'"),
    ("negative-constant-block", _with(fbds=_blocks(_READ, F.Block(
        "k", "const", value=-3))), "fbd 'F': block 'k': bad constant -3"),
    ("negative-constant-inline", _with(fbds=_blocks(_READ, F.Block(
        "a", "add", (F.PortRef("r"), F.ConstIn(-3))))),
     "fbd 'F': block 'a': bad constant -3"),
    # action bodies and references
    ("bad-action-name", _with(actions=_plus(ActionBlock("A 2", "S", ()))),
     "bad action name 'A 2'"),
    ("duplicate-action", _with(actions=_plus(ActionBlock("A", "T", ()))),
     "duplicate action 'A'"),
    ("action-unknown-step", _with(actions=_plus(ActionBlock("E", "G", ()))),
     "action 'E' attached to unknown step 'G'"),
    ("two-bodies", _with(actions=_plus(ActionBlock("E", "S", (), "F"))),
     "action 'E' must have exactly one body"),
    ("no-body", _with(actions=_plus(ActionBlock("E", "S"))),
     "action 'E' must have exactly one body"),
    ("unknown-fbd", _with(actions=_plus(ActionBlock("E", "S", fbd_ref="G"))),
     "action 'E' references unknown fbd 'G'"),
    # assignments
    ("assign-undeclared", _with(actions=_assign(E.IntLit(1), "z")),
     "action 'E' assigns undeclared variable 'z'"),
    ("assign-ill-typed", _with(actions=_assign(E.Var("z"))),
     "action 'E': unbound variable 'z'"),
    ("assign-type-mismatch", _with(actions=_assign(_B)),
     "action 'E': type mismatch assigning bool to int8 variable 'x'"),
    ("assign-width-mismatch", _with(actions=_assign(_Y)),
     "action 'E': width mismatch assigning int16 to int8 variable 'x'"),
    # transitions
    ("empty-sources", _with(transitions=_plus(Transition((), _TRUE,
                                                          ("S",)))),
     "transition 2: empty source set"),
    ("empty-targets", _with(transitions=_plus(Transition(("S",), _TRUE,
                                                          ()))),
     "transition 2: empty target set"),
    ("duplicate-source", _with(transitions=_plus(Transition(
        ("S", "S"), _TRUE, ("T",)))), "transition 2: duplicate source step"),
    ("duplicate-target", _with(transitions=_plus(Transition(
        ("S",), _TRUE, ("T", "T")))), "transition 2: duplicate target step"),
    ("transition-unknown-step", _with(transitions=_plus(Transition(
        ("S",), _TRUE, ("G",)))), "transition 2: unknown step 'G'"),
    ("negative-priority", _with(transitions=_plus(Transition(
        ("S",), _TRUE, ("T",), -1))), "transition 2: negative priority"),
    ("guard-ill-typed", _with(transitions=_guard(E.Cmp("<", _X, _TRUE))),
     "transition 2: expected integer expression, got true"),
    ("guard-not-boolean", _with(transitions=_guard(_X)),
     "transition 2: guard is not boolean"),
    # expression nodes the parser cannot build.  Unchecked, signs (-1, 1)
    # read as `x + 2` in the printer and the concrete semantics but as
    # `2 - x` in the decider, so `always (x <= 2)` was Proved while x = 4
    # is reachable; `=<` raised KeyError on exploration; three operands
    # with two signs raised IndexError in the constructor; an empty And
    # printed `-[  ]->`.
    ("sum-first-sign", _with(actions=_assign(E.Sum((_X, E.IntLit(2)),
                                                   (-1, 1)))),
     "action 'E': bad sum signs (-1, 1)"),
    ("sum-sign-count", _with(actions=_assign(E.Sum(
        (_X, E.IntLit(1), E.IntLit(2)), (1, -1)))),
     "action 'E': bad sum signs (1, -1)"),
    ("sum-sign-value", _with(actions=_assign(E.Sum(
        (_X, E.IntLit(1)), (1, 2)))), "action 'E': bad sum signs (1, 2)"),
    ("short-product", _with(actions=_assign(E.Prod((_X,)))),
     "action 'E': Prod of fewer than two operands"),
    ("empty-conjunction", _with(transitions=_guard(E.And(()))),
     "transition 2: And of fewer than two operands"),
    ("short-disjunction", _with(transitions=_guard(E.Or((_B,)))),
     "transition 2: Or of fewer than two operands"),
    ("unknown-comparison", _with(transitions=_guard(E.Cmp(
        "=<", _X, E.IntLit(3)))), "transition 2: unknown comparison '=<'"),
    ("negative-literal", _with(actions=_assign(E.IntLit(-1))),
     "action 'E': negative literal"),
    ("non-integer-literal", _with(actions=_assign(E.IntLit(1.5))),
     "action 'E': literal 1.5 is not an integer"),
    # text the parser refuses.  A literal of 4301 digits constructed, and
    # then canonical_text raised ValueError; 200 nested `!` printed text
    # that does not parse, and 5000 raised RecursionError
    ("long-literal", _with(transitions=_guard(E.Cmp(
        "<", _X, E.IntLit(10**5000)))), "transition 2: number too long"),
    ("long-priority", _with(transitions=_plus(Transition(
        ("S",), _TRUE, ("T",), 10**4300))), "transition 2: number too long"),
    ("long-constant-block", _with(fbds=_blocks(_READ, F.Block(
        "k", "const", value=10**4300))),
     "fbd 'F': block 'k': number too long"),
    ("long-constant-inline", _with(fbds=_blocks(_READ, F.Block(
        "a", "add", (F.PortRef("r"), F.ConstIn(10**4300))))),
     "fbd 'F': block 'a': number too long"),
    ("deep-negation", _with(transitions=_guard(_nots(200, _B))),
     "transition 2: nesting deeper than 160"),
    ("deeper-negation", _with(actions=_assign(_nots(5000, _X))),
     "action 'E': nesting deeper than 160"),
]


class TestValidate:
    """A model is checked where it is built: the constructor raises
    ParseError naming every problem, however the model is built."""

    def test_fixture_models_clean(self):
        for name in fixture_names():
            model = load_model(name)
            assert built_in_code(model) == model

    def test_hand_built_guard_is_typechecked(self):
        model = parse_model(MINIMAL)
        for guard, problem in ((E.IntLit(1), "guard is not boolean"),
                               (E.Var("y"), "unbound variable 'y'")):
            t = Transition(("Only",), guard, ("Only",))
            with pytest.raises(ParseError) as err:
                SfcModel(model.vars, model.steps, model.initial,
                         model.actions, (t,))
            assert str(err.value) == f"transition 0: {problem}"
        # a well-typed guard or assignment from the expression parser is
        # annotated on construction, so the model runs like its parsed twin
        loop = load_model("loop")
        lt3 = parse_expression(TokenStream("x < 3"))
        assert lt3.width is None
        guarded = replace(loop, transitions=(
            replace(loop.transitions[0], guard=lt3),) + loop.transitions[1:])
        twin = parse_model(canonical_text(guarded))
        assert reachable_bounded(guarded, 5) == reachable_bounded(twin, 5)
        assert run_trace(guarded, max_steps=20) == run_trace(twin,
                                                             max_steps=20)
        flagged = replace(loop, vars=loop.vars + (VarDecl("b", "bool"),),
                          actions=(ActionBlock("A_Init", "Init",
                                               (("b", lt3),)),))
        assert apply_rule(flagged, init_state(flagged),
                          ExecuteAction("A_Init")).mem == {"b": 1, "x": 0}

    def test_one_typecheck_per_guard_and_assignment(self, monkeypatch):
        # construction annotates and checks from the same typecheck
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
        # built in code: the same one each
        calls.clear()
        for model in models:
            built_in_code(model)
        assert len(calls) == exprs

    def test_empty_initial_set(self):
        model = parse_model(MINIMAL)
        with pytest.raises(ParseError) as err:
            SfcModel(model.vars, model.steps, (), model.actions,
                     model.transitions)
        assert str(err.value) == "empty initial step set"

    def test_action_on_unknown_step(self):
        model = parse_model(MINIMAL)
        with pytest.raises(ParseError) as err:
            SfcModel(model.vars, model.steps, model.initial,
                     (ActionBlock("A", "Ghost", assigns=()),),
                     model.transitions)
        assert str(err.value) == "action 'A' attached to unknown step 'Ghost'"

    def test_duplicate_transition_source(self):
        model = parse_model(MINIMAL)
        t = Transition(("Only", "Only"), E.BoolLit(True), ("Only",))
        with pytest.raises(ParseError) as err:
            SfcModel(model.vars, model.steps, model.initial,
                     model.actions, (t,))
        assert str(err.value) == "transition 0: duplicate source step"

    def test_base_chart_is_well_formed(self):
        model = SfcModel(**BASE)
        assert parse_model(canonical_text(model)) == model

    @pytest.mark.parametrize("chart, message", [c[1:] for c in PROBLEMS],
                             ids=[c[0] for c in PROBLEMS])
    def test_each_problem_raises_its_message(self, chart, message):
        with pytest.raises(ParseError) as err:
            SfcModel(**chart)
        assert str(err.value) == message
        assert (err.value.line, err.value.col) == (None, None)

    def test_every_problem_is_named_in_order(self):
        chart = _with(steps=_plus("T"), initial=(),
                      actions=_assign(E.IntLit(1), "z"))
        with pytest.raises(ParseError) as err:
            SfcModel(**chart)
        assert str(err.value) == (
            "duplicate step 'T'; empty initial step set; "
            "action 'E' assigns undeclared variable 'z'")

    def test_ill_typed_guard_in_loop_is_rejected(self):
        # was Proved for `x <= 65535`, then raised ExprError on exploration
        # and printed text that does not parse
        loop = load_model("loop")
        guard = E.Cmp("<", _X, _TRUE)
        with pytest.raises(ParseError) as err:
            replace(loop, transitions=(replace(loop.transitions[0],
                                               guard=guard),)
                    + loop.transitions[1:])
        assert str(err.value) == ("transition 0: expected integer "
                                  "expression, got true")


# A chart with every construct the text has, for the round-trip test to
# edit: initializers, two initial steps, n-ary chains of each kind, a sum
# with a minus, priorities, and a diagram with const blocks, inline
# constants, a delay, a comparison and a mux.
CHART = parse_model("""
var x : int8 = 3
var y : int16
var b : bool = true
step S [initial]
step T
step U [initial]
action A on S { x := 2 * x - 1; b := x < 3 || !b && y >= 2; }
action D on T = fbd F
trans {S, U} -[ x <= 9 && b ]-> {T} [prio 1]
trans {T} -[ y + 1 - y * 2 != 4 || !b ]-> {S, U}
fbd F {
  block r = read y
  block k = const 7
  block a = add(r.out, k.out)
  block d = delay(a.out)
  block c = lt(d.out, const 300)
  block m = mux(c.out, a.out, const 0)
  block w = write y (m.out)
  timeslice 2
}
""")


def _sites(x, path=()):
    """(path, value) of each field of *x* that the round-trip test edits:
    a chain's operands, a sum's signs, and every string and integer below,
    a node's unset initializer or priority included.  Booleans, the other
    unset fields and a block's kind, whose change leaves set a field that
    the new kind ignores, are left alone."""
    if isinstance(x, (E.Sum, E.Prod, E.And, E.Or)):
        yield path + ("args",), x.args
        if isinstance(x, E.Sum):
            yield path + ("signs",), x.signs
    if is_dataclass(x):
        for f in fields(x):
            if f.name not in ("signs", "width", "kind"):
                yield from _sites(getattr(x, f.name), path + (f.name,))
    elif isinstance(x, tuple):
        for i, y in enumerate(x):
            yield from _sites(y, path + (i,))
    elif isinstance(x, str) or type(x) is int or (
            x is None and path[-1] in ("init", "priority")):
        yield path, x


_SITES = list(_sites(CHART))
_NAMES = ("true", "false", "1b", "T 2", "const", "Ghost") + tuple(sorted(
    {v for _, v in _SITES if isinstance(v, str)}))  # the chart's: duplicates


def _at(x, path):
    """The value at *path* in *x*."""
    for k in path:
        x = x[k] if isinstance(x, tuple) else getattr(x, k)
    return x


def _deep(chain, depth):
    """Operands of *chain* whose text is nested *depth* deep: its first
    operand under *depth* `!`s, and the chain nested in itself, as its
    first operand, *depth* - 1 times."""
    nested = chain
    for _ in range(depth - 1):
        nested = replace(chain, args=(nested,) + chain.args[1:])
    return st.sampled_from((_nots(depth, chain.args[0]), nested))


# the longest integer the parser reads has 4300 digits
_LONG = st.sampled_from((10**4299, 10**4300 - 1, 10**4300, 10**4300 + 1))


def _hostile(path, old):
    """Values to put at *path*: signs from -2..2, one fewer to one more
    than the operands; 0 to 3 of a chain's own operands and the chain
    itself, so a chain of its kind is a first or later operand, or one
    operand nested 159 to 162 deep; comparison operators the parser builds
    and two it does not; hostile names and every name of the chart;
    integers from -3 to 2**33 and around the longest the parser reads."""
    if path[-1] == "signs":
        return st.lists(st.integers(-2, 2), min_size=len(old) - 1,
                        max_size=len(old) + 1).map(tuple)
    if path[-1] == "args":
        chain = _at(CHART, path[:-1])
        deep = st.integers(159, 162).flatmap(lambda n: _deep(chain, n))
        return st.one_of(
            st.lists(st.sampled_from(old + (chain,)), max_size=3),
            st.lists(st.sampled_from(old), min_size=1, max_size=2).flatmap(
                lambda ops: deep.map(lambda d: [d, *ops]))).map(tuple)
    if path[-1] == "op":
        return st.sampled_from(E.CMP_OPS + ("=<", "<>"))
    if isinstance(old, str):
        return st.sampled_from(_NAMES)
    return st.one_of(st.integers(-3, 2**33), _LONG)


_EDITS = st.sampled_from(_SITES).flatmap(
    lambda site: _hostile(*site).map(lambda new: (site[0], new)))


def _put(x, path, new):
    """*x* with the value at *path* replaced by *new*, each node on the way
    rebuilt by its constructor, the model last."""
    if not path:
        return new
    k, rest = path[0], path[1:]
    if isinstance(x, tuple):
        return x[:k] + (_put(x[k], rest, new),) + x[k + 1:]
    return replace(x, **{k: _put(getattr(x, k), rest, new)})


def _site(*tail, value):
    """The path of the chart's one site ending in *tail* that holds
    *value*."""
    path, = [p for p, v in _SITES if p[-len(tail):] == tail and v == value]
    return path


_AND = _site("transitions", 0, "guard", "args",
             value=CHART.transitions[0].guard.args)


class TestCanonical:
    # tier-1 draws 300 edits; `--hypothesis-profile long` (conftest.py)
    # draws more
    @settings(max_examples=max(300, settings.default.max_examples),
              deadline=None, derandomize=True, database=None)
    @given(_EDITS)
    @example((_site("signs", value=(1, -1)), (-1, 1)))
    @example((_site("op", value="<="), "=<"))
    @example((_site("vars", 0, "name", value="b"), "true"))
    @example((_site("blocks", 6, "id", value="w"), "1b"))
    @example((_site("initial", 0, value="S"), "Ghost"))
    # a chain of its own kind as first and as later operand
    @example((_AND, (_at(CHART, _AND[:-1]), _B)))
    @example((_AND, (_B, _at(CHART, _AND[:-1]))))
    # text nested as deep as the parser reads, and one deeper
    @example((_AND, (_nots(160, _B), _B)))
    @example((_AND, (_nots(161, _B), _B)))
    @example((_site("priority", value=1), 10**4300 - 1))
    @example((_site("priority", value=1), 10**4300))
    def test_every_constructed_chart_round_trips(self, edit):
        """A chart built in code with one field replaced either fails to
        construct with ParseError, and no other exception, or is the chart
        its canonical text describes."""
        try:
            model = _put(CHART, *edit)
        except ParseError:
            return
        assert parse_model(canonical_text(model)) == model

    @pytest.mark.parametrize("text", [
        "action A on S { x := (x + 1) + 2; }",
        "action A on S { x := x - (x - 1) * (2 * (x * 3)); }",
        "trans {S} -[ (x < 1 && x > 0) && true ]-> {S}",
        "trans {S} -[ !(x < 1 || x > 0 || (x == 3 || true)) ]-> {S}",
    ])
    def test_nested_chain_round_trips(self, text):
        # a parenthesized chain of its own kind, first operand or later,
        # printed with its parentheses: it was printed bare, first
        # operands of `+` and `*` and every operand of `&&` and `||`
        model = parse_model(f"var x : int8\nstep S [initial]\n{text}\n")
        assert canonical_text(model).endswith(f"\n{text}\n")
        assert parse_model(canonical_text(model)) == model

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
