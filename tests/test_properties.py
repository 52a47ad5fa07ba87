import pytest

from certplc import expr as E
from certplc import linear as L
from certplc import properties as P
from certplc import verifier as V
from certplc.model import parse_model
from certplc.parsing import ParseError, TokenStream
from certplc.semantics import SfcState, init_state


def syntax(text):
    """A formula's syntax tree, checked against no model."""
    return P.parse_formula(TokenStream(text))


class TestParsing:
    def test_file_with_several_invariants(self, loop_model):
        invs = P.parse_properties(
            "invariant a : always (x <= 10);\n"
            "invariant b : always (step(Init) || step(Step2));\n",
            loop_model)
        assert [i.name for i in invs] == ["a", "b"]

    def test_atoms(self, loop_model):
        f = P.parse_formula_text(
            "step(Init) && !action(A_Init) && actions_within {A_Init} "
            "&& steps_within {Init, Step2}", loop_model)
        kinds = set()

        def walk(g):
            kinds.add((type(g).__name__, getattr(g, "kind", None)))
            for arg in getattr(g, "args", ()):
                walk(arg)
            if hasattr(g, "arg"):
                walk(g.arg)
        walk(f)
        assert {("Active", "step"), ("Active", "action"),
                ("Within", "action"), ("Within", "step"), ("Not", None),
                ("And", None)} <= kinds

    def test_unknown_step_rejected(self, loop_model):
        with pytest.raises(ParseError, match="unknown step"):
            P.parse_formula_text("step(Ghost)", loop_model)

    def test_unknown_action_rejected(self, loop_model):
        with pytest.raises(ParseError, match="unknown action"):
            P.parse_formula_text("actions_within {Ghost}", loop_model)

    def test_non_boolean_atom_rejected(self, loop_model):
        with pytest.raises(ParseError, match="boolean"):
            P.parse_formula_text("x + 1", loop_model)

    def test_duplicate_invariant_names(self, loop_model):
        with pytest.raises(ParseError, match="duplicate"):
            P.parse_properties("invariant a : always (true);\n"
                               "invariant a : always (true);", loop_model)

    def test_parenthesized_arithmetic(self, loop_model):
        f = P.parse_formula_text("(x + 1) <= 10", loop_model)
        assert isinstance(f, E.Cmp)


class TestGrammar:
    @pytest.mark.parametrize("text", ["step(Init) + 1 <= 2",
                                      "action(A_Init) == 1"])
    def test_activity_atom_is_not_a_number(self, text, loop_model):
        with pytest.raises(ParseError):
            P.parse_properties(f"invariant p : always ({text});", loop_model)
        # the grammar rejects it, before any check against the model
        with pytest.raises(ParseError, match="trailing input"):
            P.parse_formula_text(text, loop_model)

    def test_activity_atom_in_model_guard_rejected(self):
        with pytest.raises(ParseError):
            parse_model("step S [initial]\nstep T\n"
                        "trans {S} -[ step(S) ]-> {T}\n")

    def test_variables_named_step_and_action(self):
        m = parse_model("var action : int8\nvar step : int8\n"
                        "step S [initial]\n"
                        "action A on S { action := 3; step := action + 1; }\n")
        inv = P.parse_properties(
            "invariant p : always (action <= 3 && step <= 4"
            " && (!action(A) || step(S)));", m)[0]
        assert P.conjuncts(inv.formula)[:2] == [
            E.Cmp("<=", E.Var("action"), E.IntLit(3)),
            E.Cmp("<=", E.Var("step"), E.IntLit(4))]
        assert isinstance(V.verify_invariant(m, inv), V.Proved)


class TestPrinting:
    @pytest.mark.parametrize("text", [
        "x <= 10",
        "step(Init) || step(Step2)",
        "!(step(Init) && step(Step2))",
        "actions_within {A_Init}",
        "x <= 10 && (!action(A_Init) || x <= 9)",
        "steps_within {Init, Return, Step2}",
        "(x + 1) <= 10",
        "!x + 1 <= 2",
    ])
    def test_round_trip(self, text, loop_model):
        f = P.parse_formula_text(text, loop_model)
        printed = P.formula_text(f)
        assert P.parse_formula_text(printed, loop_model) == f

    def test_activity_atom_as_operand(self, loop_model):
        # parenthesized where it is an operand, bare where it is boolean
        f = syntax("(step(Init)) <= 2")
        assert P.formula_text(f) == "(step(Init)) <= 2"
        assert syntax(P.formula_text(f)) == f
        g = E.Or((E.Not(P.Active("step", "Init")),
                  E.And((E.Var("x"), P.Active("action", "A_Init")))))
        assert P.formula_text(g) == "!step(Init) || x && action(A_Init)"
        with pytest.raises(ParseError, match=r"got step\(Init\)$"):
            P.parse_formula_text("(step(Init)) <= 2", loop_model)

    @pytest.mark.parametrize("text", [
        "(a && b) && c", "a && (b && c)", "(a || b) || c", "(a || b) && c",
        "!(a && b) || c",
    ])
    def test_nested_chains(self, text):
        # a chain nested in one of the same connective, first operand or
        # later, keeps its parentheses, so the text parses back to the tree
        assert P.formula_text(syntax(text)) == text

    def test_one_node_per_chain(self):
        a, b, c = map(E.Var, "abc")
        assert syntax("a && b && c") == E.And((a, b, c))
        assert syntax("(a && b) && c") == E.And((E.And((a, b)), c))
        assert syntax("a || b && c || !c") == \
            E.Or((a, E.And((b, c)), E.Not(c)))
        assert len(P.conjuncts(syntax("a && (b && c)"))) == 3

    def test_invariant_text(self, loop_model):
        inv = P.parse_properties("invariant a : always (x <= 10);",
                                 loop_model)[0]
        assert P.invariant_text(inv) == "invariant a : always (x <= 10);"


class TestSemantics:
    def test_holds_on_initial(self, loop_model):
        s = init_state(loop_model)
        assert P.holds_on(
            P.parse_formula_text("step(Init) && action(A_Init)", loop_model), s)
        assert not P.holds_on(
            P.parse_formula_text("step(Return)", loop_model), s)

    def test_subset_atoms(self, loop_model):
        s = SfcState({"x": 0}, ("Init",), ("A_Init", "A_Init"))
        assert P.holds_on(P.Within("action", ("A_Init",)), s)
        assert not P.holds_on(P.Within("action", ()), s)
        assert P.holds_on(P.Within("step", ("Init", "Step2")), s)

    def test_negate_round_trip(self, loop_model):
        s = init_state(loop_model)
        for text in ("x <= 10", "step(Init) && x <= 0",
                     "actions_within {} || step(Return)"):
            f = P.parse_formula_text(text, loop_model)
            assert P.holds_on(f, s) != P.holds_on(E.Not(f), s)

    def test_conjuncts_flatten(self, loop_model):
        f = P.parse_formula_text("x <= 10 && step(Init) && x <= 9",
                                 loop_model)
        assert len(P.conjuncts(f)) == 3


class _Foreign:
    """A node of no formula kind."""


class TestForeignNodes:
    def test_truth(self, loop_model):
        with pytest.raises(E.ExprError,
                           match="^unknown formula node _Foreign$"):
            P.holds_on(E.Not(_Foreign()), init_state(loop_model))

    def test_reference_check(self, loop_model):
        with pytest.raises(E.ExprError,
                           match="^unknown formula node _Foreign$"):
            P.check_refs(E.Or((P.Active("step", "Init"), _Foreign())),
                         loop_model)


class TestLongChains:
    """A chain is one node, so every walk of a long property loops over its
    operands instead of recursing once per connective."""

    N = 20000

    def _parsed(self, op, atom, model):
        line = ("invariant p : always ("
                + f" {op} ".join(atom.format(i + 1) for i in range(self.N))
                + ");")
        inv, = P.parse_properties(line, model)  # parsed and typechecked
        assert len(inv.formula.args) == self.N
        assert P.invariant_text(inv) == line
        return inv.formula

    def test_conjunction(self, loop_model):
        f = self._parsed("&&", "x <= {}", loop_model)
        assert len(P.conjuncts(f)) == self.N
        assert P.holds_on(f, init_state(loop_model))  # every operand read
        # lowering rebuilds the growing cube at every operand, so a shorter
        # chain, still past the interpreter's recursion limit, stands in
        n = 2000
        cube, = L.normalize(E.And(f.args[:n]), loop_model.env())
        assert len(cube) == 2 + n  # x's width bounds, one per operand

    def test_long_sum_atom(self, loop_model):
        # one Sum of 3000 operands, typechecked and evaluated by loops
        total = " + ".join(["x"] + ["1"] * 2999)
        line = f"invariant p : always ({total} == 2999);"
        inv, = P.parse_properties(line, loop_model)
        assert len(inv.formula.lhs.args) == 3000
        assert P.invariant_text(inv) == line
        assert P.holds_on(inv.formula, init_state(loop_model))  # x is 0

    def test_disjunction(self, loop_model):
        f = self._parsed("||", "x == {}", loop_model)
        assert not P.holds_on(f, init_state(loop_model))  # x starts at 0
        with pytest.raises(L.LimitExceeded,
                           match="^513 disjuncts exceed cap 512$"):
            L.normalize(f, loop_model.env())
