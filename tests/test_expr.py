import operator
import random
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certplc import expr as E
from certplc import linear as L
from certplc.model import parse_model
from certplc.parsing import MAX_NESTING, ParseError, TokenStream
from certplc.properties import parse_formula, parse_formula_text
from certplc.semantics import apply_effect

from conftest import eval_cube, eval_dnf, quotient_points


def parse(text):
    """The syntax tree of a formula, not typechecked: the tests here
    typecheck against envs of their own, no model's."""
    return parse_formula(TokenStream(text))


def ev(text, mem, env):
    e, _ = E.typecheck(parse(text), env)
    return E.eval_expr(e, mem)


def assign(target, text, mem, env):
    return apply_effect([(target, parse(text))], mem, env)


class TestEval:
    def test_guard_comparison(self):
        assert ev("x < 10", {"x": 5}, {"x": "int16"}) == 1
        assert ev("x < 10", {"x": 10}, {"x": "int16"}) == 0

    def test_constant_true_guard(self):
        assert ev("true", {}, {}) == 1
        assert ev("true", {"x": 3}, {"x": "int16"}) == 1

    def test_add_wraps_at_width(self):
        assert assign("x", "x + 1", {"x": 65535}, {"x": "int16"}) == {"x": 0}
        assert assign("x", "x + 1", {"x": 255}, {"x": "int8"}) == {"x": 0}

    def test_sub_wraps_below_zero(self):
        assert assign("x", "x - 1", {"x": 0}, {"x": "int16"}) == \
            {"x": 65535}

    def test_comparison_wraps_operands_at_annotated_width(self):
        assert ev("x + 1 == 0", {"x": 65535}, {"x": "int16"}) == 1
        assert ev("x + 1 == 0", {"x": 255}, {"x": "int8"}) == 1
        assert ev("x + 1 == 0", {"x": 255}, {"x": "int16"}) == 0
        assert ev("x - 1 == 255", {"x": 0}, {"x": "int8"}) == 1

    def test_all_literal_comparison_defaults_to_32_bit(self):
        assert ev("4294967295 + 1 == 0", {}, {}) == 1

    def test_untypechecked_comparison_rejected(self):
        e = parse("x < 10")
        with pytest.raises(E.ExprError, match="not typechecked") as evaluated:
            E.eval_expr(e, {"x": 5})
        # lowering decides no width either: typecheck is the one place
        with pytest.raises(E.ExprError) as lowered:
            L.normalize(e, {"x": "int16"})
        assert str(lowered.value) == str(evaluated.value)

    def test_unbound_variable(self):
        with pytest.raises(E.ExprError, match="unbound"):
            E.eval_expr(parse("y + 1"), {"x": 0})

    def test_bool_ops(self):
        mem = {"a": 1, "b": 0}
        env = {"a": "bool", "b": "bool"}
        assert ev("a && !b", mem, env) == 1
        assert ev("a && b || !b", mem, env) == 1
        assert ev("!(a || b)", mem, env) == 0

    def test_mixed_width_rejected(self):
        # widths are joined by typecheck; evaluation trusts its annotation
        with pytest.raises(E.ExprError, match="width mismatch"):
            E.typecheck(parse("a + b"),
                        {"a": "int8", "b": "int16"})


class TestTypecheck:
    @pytest.mark.parametrize("text, env", [
        ("a < b", {"a": "int8", "b": "int16"}),
        ("a + 1", {"a": "bool"}),
        ("a && x", {"a": "bool", "x": "int8"}),
        ("!x", {"x": "int8"}),
        ("y + 1", {"x": "int8"}),
    ], ids=["mixed-width-cmp", "bool-arith", "int-logic",
            "int-not", "unbound"])
    def test_type_errors_rejected(self, text, env):
        with pytest.raises(E.ExprError):
            E.typecheck(parse(text), env)

    @pytest.mark.parametrize("text, message", [
        ("x + 1 && x <= 1 && y <= 1",
         "logical operator on non-boolean operand"),
        ("x <= 1 && y <= 1 && x + 1", "unbound variable 'y'"),
        ("x + 1 || y <= 1", "unbound variable 'y'"),
        ("x + 1 - w", "width mismatch in sub: int8 vs int16"),
        ("1 - x + w - y", "width mismatch in add: int8 vs int16"),
        ("2 + 3 - w + x", "width mismatch in add: int16 vs int8"),
        ("x - 1 + y + w", "unbound variable 'y'"),
        ("x + 1 + true", "expected integer expression, got true"),
        ("2 * x * w", "width mismatch in mul: int8 vs int16"),
        ("x * 2 * (x < 1) * w", "expected integer expression, got x < 1"),
    ])
    def test_chain_error_is_the_left_deep_chains(self, text, message):
        # each join is tested once both its sides are typechecked, as in
        # the left-deep chain of binary nodes the same text once parsed to
        flat = parse(text)
        deep = flat.args[0]
        for i, arg in enumerate(flat.args[1:], 1):
            if isinstance(flat, E.Sum):
                deep = E.Sum((deep, arg), (1, flat.signs[i]))
            else:
                deep = type(flat)((deep, arg))
        for e in (flat, deep):
            with pytest.raises(E.ExprError, match=f"^{message}$"):
                E.typecheck(e, {"x": "int8", "w": "int16"})

    def test_comparison_width_annotated(self):
        e, ty = E.typecheck(parse("x + 1 < 3"),
                            {"x": "int8"})
        assert ty == "bool" and e.width == "int8"
        e, _ = E.typecheck(parse("1 < 3"), {})
        assert e.width == E.DEFAULT_INT


class TestValues:
    def test_arithmetic_stays_in_range(self):
        rng = random.Random(7)
        for _ in range(300):
            ty = rng.choice(["int8", "int16", "int32"])
            a = rng.randrange(E.max_of(ty) + 1)
            b = rng.randrange(E.max_of(ty) + 1)
            env = {"a": ty, "b": ty}
            for text in ("a + b", "a - b", "a * b", "a * 3 + b"):
                out = assign("a", text, {"a": a, "b": b}, env)
                assert 0 <= out["a"] <= E.max_of(ty)


class TestApplyEffect:
    def test_single_increment(self):
        mem = {"x": 5, "y": 2}
        env = {"x": "int16", "y": "int16"}
        # only the written value: the caller merges it into memory
        assert assign("x", "x + 1", mem, env) == {"x": 6}
        assert mem == {"x": 5, "y": 2}  # input untouched

    def test_literal_wraps_at_target_width(self):
        assert assign("x", "300", {"x": 0}, {"x": "int8"}) == {"x": 44}

    def test_empty_effect_is_identity(self):
        # it writes nothing, so merging its writes leaves memory as it was
        assert apply_effect([], {"x": 3}, {"x": "int16"}) == {}

    def test_assignments_are_sequential(self):
        mem = {"x": 3, "y": 9}
        effect = [("x", parse("0")),
                  ("y", parse("x"))]
        out = apply_effect(effect, mem, {"x": "int16", "y": "int16"})
        assert out == {"x": 0, "y": 0}

    def test_assign_undeclared(self):
        # never reaches apply_effect: no model can hold the assignment
        with pytest.raises(ParseError) as err:
            parse_model("step S [initial]\naction A on S { z := 1; }\n")
        assert str(err.value) == "action 'A' assigns undeclared variable 'z'"

    def test_purity(self):
        mem = {"x": 7}
        effect = [("x", parse("x * 2"))]
        env = {"x": "int16"}
        assert apply_effect(effect, mem, env) == \
            apply_effect(effect, mem, env)


class TestPrinter:
    @pytest.mark.parametrize("text", [
        "x + 1", "x - 1 + y", "2 * x + 3", "x < 10", "x >= 10",
        "a && b || c", "!(a && b)", "x + 1 <= y - 2", "(x + y) * 2",
        "true", "false && a",
    ])
    def test_roundtrip(self, text):
        e = parse(text)
        printed = E.pretty(e)
        assert parse(printed) == e
        assert E.pretty(parse(printed)) == printed

    def test_equality_alias(self):
        assert parse("x = 1") == parse("x == 1")

    @pytest.mark.parametrize("text", [
        "!!b", "!!!(a && b)", "!(!a || b)", "!!x < 3",
    ])
    def test_not_under_not_prints_bare(self, text):
        assert E.pretty(parse(text)) == text


class TestLongArithmetic:
    """A `+`/`-` chain is one Sum and a `*` chain one Prod, so every walk
    of a long one loops over its operands instead of recursing once per
    operator."""

    N = 3000

    def test_sum(self):
        text = "x" + "".join(" + 1" if i % 3 else " - 2"
                             for i in range(self.N - 1))
        e = parse(text)
        assert isinstance(e, E.Sum) and len(e.args) == self.N
        assert E.pretty(e) == text
        assert E.typecheck(e, ENV1) == (e, "int8")
        value = 5 + sum(1 if i % 3 else -2 for i in range(self.N - 1))
        assert E.eval_expr(e, {"x": 5}) == value
        assert L.linear_form(e) == L.LinForm((("x", 1),), value - 5)

    def test_product(self):
        text = "1 * " * (self.N - 1) + "x"
        e = parse(text)
        assert isinstance(e, E.Prod) and len(e.args) == self.N
        assert E.pretty(e) == text
        assert E.typecheck(e, ENV1) == (e, "int8")
        assert E.eval_expr(e, {"x": 7}) == 7
        assert L.linear_form(e) == L.LinForm.of_var("x")

    def test_sum_form_equals_operand_chain(self):
        """linear_form gathers a sum in one dict; it equals the fold of
        ``add``, ``sub`` and ``mul`` over the expression, coefficients that
        cancel on the way or at the end included."""
        rng = random.Random(5)

        def term(depth):
            r = rng.random()
            if depth > 2 or r < 0.4:
                return E.Var(rng.choice("abcd")) if r < 0.3 else \
                    E.IntLit(rng.randint(0, 3))
            if r < 0.6:
                return E.Prod((E.IntLit(rng.randint(-2, 2)), term(depth + 1)))
            n = rng.randint(2, 6)
            return E.Sum(tuple(term(depth + 1) for _ in range(n)),
                         (1,) + tuple(rng.choice((1, -1))
                                      for _ in range(n - 1)))

        sums = 0
        for _ in range(500):
            e = term(0)
            sums += isinstance(e, E.Sum)
            assert L.linear_form(e) == \
                E.fold_int(e, L.LinDomain, L.LinForm.of_var), E.pretty(e)
        assert sums > 100

    def test_long_product_scales_its_sum_once(self):
        """linear_form of a 4000-variable sum times 3999 constants scales
        the sum once; scaling it once per factor took seconds.  The form,
        and the error of a product of two non-constant factors, equal the
        fold of ``mul``, a zero factor before the second one included."""
        n = 4000
        names = [f"v{i}" for i in range(n)]
        total = E.Sum(tuple(map(E.Var, names)), (1,) * n)
        factors = tuple(E.IntLit(3 if i % 1000 == 0 else 1)
                        for i in range(n - 1))
        e = E.Prod((total,) + factors)
        start = time.perf_counter()
        form = L.linear_form(e)
        assert time.perf_counter() - start < 0.5
        assert form == E.fold_int(e, L.LinDomain, L.LinForm.of_var)
        assert form == L.LinForm(tuple((v, 81) for v in sorted(names)))

        def lowered(lower, e):
            try:
                return lower(e)
            except L.FragmentError as err:
                return str(err)

        x, y, zero = E.Var("x"), E.Var("y"), E.IntLit(0)
        for args in ((zero, x, y), (x, zero, y), (x, y, zero), (x, y),
                     (E.IntLit(2), x, E.IntLit(3)), (zero, zero)):
            e = E.Prod(args)
            assert lowered(L.linear_form, e) == lowered(
                partial(E.fold_int, dom=L.LinDomain, read=L.LinForm.of_var),
                e), E.pretty(e)

    def test_distinct_operands_lower_in_linear_time(self):
        """A sum of 20 000 distinct variables and a conjunction of 20 000
        comparisons lower in seconds; copying the coefficients or the cube
        once per operand took minutes."""
        n = 20_000
        names = [f"v{i}" for i in range(n)]
        signs = (1,) + tuple(1 if i % 2 else -1 for i in range(1, n))
        env = dict.fromkeys(names, "int8")
        atoms = tuple(E.Cmp("<=", E.Var(v), E.IntLit(i % 200), "int8")
                      for i, v in enumerate(names))
        start = time.perf_counter()
        form = L.linear_form(E.Sum(tuple(map(E.Var, names)), signs))
        dnf = L.normalize(E.And(atoms), env)
        neg = L.normalize(E.Or(tuple(map(E.Not, atoms))), env, negate=True)
        assert time.perf_counter() - start < 20
        assert form == L.LinForm(tuple(sorted(zip(names, signs))))
        assert neg == dnf and len(dnf) == 1 and len(dnf[0]) == 3 * n


ENV1 = {"x": "int8"}
ENV2 = {"x": "int8", "y": "int8"}

ONE_VAR = [
    "x < 10", "x <= 9", "x >= 10", "x > 200", "x == 17", "x != 0",
    "x + 1 < 10", "x + 1 <= 255", "x - 1 >= 250", "x + 250 < 100",
    "2 * x > 300", "x + x >= 256", "!(x >= 10)", "x < 10 || x >= 10",
    "x < 5 && x != 2", "3 * x + 7 == 100",
]

TWO_VAR = [
    "x + y < 100", "x - y >= 1", "x + y + 1 == 0", "2 * x + y <= 255",
    "x < y && y < 200", "x == y || x + 1 == y", "x + y != 255",
    "!(x + y > 254)",
]


def _agree(text, env, points):
    e = parse(text)
    e, ty = E.typecheck(e, env)
    assert ty == "bool"
    dnf = L.normalize(e, env)
    for point in points:
        direct = E.eval_expr(e, point) == 1
        lowered = eval_dnf(dnf, point)
        assert direct == lowered, (text, point, direct, lowered)


class TestNormalize:
    def test_strict_less_becomes_bounded_le(self):
        e, _ = E.typecheck(parse("x < 10"), {"x": "int16"})
        dnf = L.normalize(e, {"x": "int16"})
        assert len(dnf) == 1
        assert set(dnf[0]) == {
            L.LinCon((("x", 1),), "<=", 9),
            L.LinCon((("x", -1),), "<=", 0),
            L.LinCon((("x", 1),), "<=", 65535),
        }

    def test_negated_ge_matches_lt(self):
        env = {"x": "int16"}
        a, _ = E.typecheck(parse("!(x >= 10)"), env)
        b, _ = E.typecheck(parse("x < 10"), env)
        assert L.normalize(a, env) == L.normalize(b, env)

    def test_excluded_middle_covers_box(self):
        env = {"x": "int16"}
        e, _ = E.typecheck(parse("x < 10 || x >= 10"), env)
        dnf = L.normalize(e, env)
        assert len(dnf) == 2
        for v in (0, 9, 10, 65535, 1234):
            assert eval_dnf(dnf, {"x": v})

    def test_nonlinear_rejected(self):
        env = {"x": "int16", "y": "int16"}
        e, _ = E.typecheck(parse("x * y < 10"), env)
        with pytest.raises(L.FragmentError):
            L.normalize(e, env)

    @pytest.mark.parametrize("text", ONE_VAR)
    def test_exhaustive_one_var(self, text):
        _agree(text, ENV1, [{"x": v} for v in range(256)])

    @pytest.mark.parametrize("text", TWO_VAR)
    def test_two_var_boundary_and_random(self, text):
        rng = random.Random(42)
        points = [{"x": a, "y": b}
                  for a in (0, 1, 127, 254, 255)
                  for b in (0, 1, 128, 254, 255)]
        points += [{"x": rng.randrange(256), "y": rng.randrange(256)}
                   for _ in range(400)]
        _agree(text, ENV2, points)

    def test_wide_width_random(self):
        env = {"x": "int16", "y": "int16"}
        rng = random.Random(3)
        for text in ("x + y >= 65536", "x + 1 > y", "x - y <= 10",
                     "2 * x == y"):
            pts = [{"x": rng.randrange(65536), "y": rng.randrange(65536)}
                   for _ in range(200)]
            pts += [{"x": a, "y": b} for a in (0, 65535) for b in (0, 65535)]
            _agree(text, env, pts)


# Comparisons whose operands straddle a wrap, so that some pairs of
# quotients leave the comparison no value and are dropped: every op, each at
# the edge of its test (`x < 1` keeps a case only x = 0 satisfies, `x < 0`
# keeps none).
PRUNED_ONE_VAR = [
    "x < 0", "x < 1", "254 < x", "x - 200 < 56", "3 * x < 250",
    "x <= 0", "x + 1 <= 0", "255 <= x", "x - 200 <= 9", "2 * x + 7 <= 6",
    "x == 255", "x + 1 == 0", "0 == x + 1", "x + 100 == 99", "3 * x == 7",
    "0 >= x", "0 >= x + 1", "x + 56 >= 56", "x - 200 >= 56",
    "0 > x", "1 > x", "x > 254", "x + 56 > 55", "x + 56 > 255",
    "x != 0", "x + 1 != 0", "x - 200 != 55",
]

PRUNED_TWO_VAR = [
    "x + y >= 300", "3 * x < y + 250", "x - y > 100", "x + y == 255",
    "x + y != 300", "y + 250 <= 2 * x", "x - 200 <= y + 9",
    "x + 1 > y + 1", "x + 200 == y + 100", "y + 1 >= x + 1",
]


class TestWrapPruning:
    """Dropping the quotient pairs a comparison cannot meet keeps the
    lowering exact: it still agrees with wrapped evaluation everywhere."""

    @pytest.mark.parametrize("text", PRUNED_ONE_VAR)
    def test_exhaustive_one_var(self, text):
        _agree(text, ENV1, [{"x": v} for v in range(256)])

    @pytest.mark.parametrize("text", PRUNED_TWO_VAR)
    def test_two_var_boundary_and_random(self, text):
        rng = random.Random(7)
        edges = (0, 1, 55, 56, 99, 100, 127, 128, 199, 200, 254, 255)
        points = [{"x": a, "y": b} for a in edges for b in edges]
        points += [{"x": rng.randrange(256), "y": rng.randrange(256)}
                   for _ in range(600)]
        _agree(text, ENV2, points)

    @pytest.mark.parametrize(
        "text", [t for t in PRUNED_ONE_VAR if "*" not in t])
    def test_one_var_keeps_only_satisfiable_cases(self, text):
        # x + c against a constant: the clipped ranges are exact, so a
        # case that survives has a solution in the box
        e, _ = E.typecheck(parse(text), ENV1)
        for cube in L.normalize(e, ENV1):
            assert any(eval_cube(cube, {"x": v}) for v in range(256)), \
                (text, cube)

    def test_unmeetable_quotient_is_dropped(self):
        # x - 200 wraps to x + 56 for x < 200, which is never <= 9: the
        # one quotient left is a constant, not a variable
        e, _ = E.typecheck(parse("x - 200 <= 9"), ENV1)
        (cube,) = L.normalize(e, ENV1)
        assert {v for con in cube for v, _ in con.coeffs} == {"x"}


class TestConstantComparisons:
    """Two constant operands compare at once, each wrapped at the
    comparison's width: the DNF is ``TRUE_DNF`` or ``FALSE_DNF`` exactly
    where wrapped evaluation says true or false, for all six operators on
    every int8 pair and on sampled int16 and int32 pairs, operands past
    the width's range included."""

    @staticmethod
    def _agree(width, pairs):
        for a, b in pairs:
            for op in sorted(_PY_CMP):
                e = E.Cmp(op, E.IntLit(a), E.IntLit(b), width)
                want = E.eval_expr(e, {}) == 1
                assert L.normalize(e, {}) == \
                    (L.TRUE_DNF if want else L.FALSE_DNF), (width, a, op, b)

    def test_every_int8_pair(self):
        self._agree("int8", [(a, b) for a in range(256) for b in range(256)])

    @pytest.mark.parametrize("width", ["int16", "int32"])
    def test_sampled_wide_pairs(self, width):
        rng = random.Random(40)
        top = E.max_of(width)
        edges = (0, 1, top - 1, top, top + 1, -1, 2 * top + 2)
        pairs = [(a, b) for a in edges for b in edges]
        pairs += [(rng.randint(-top, 2 * top), rng.randint(-top, 2 * top))
                  for _ in range(3000)]
        self._agree(width, pairs)

    def test_substituted_constants_compare_at_their_width(self):
        # a constant reading substitutes -1 for an int8 x, which wraps to
        # 255: x == 255 holds, and x + 10 wraps to 9
        env = {"x": "int8"}
        subst = {"x": L.LinForm.of_const(-1)}
        for text, want in (("x == 255 && x + 10 < 10", L.TRUE_DNF),
                           ("x + 10 >= 10", L.FALSE_DNF)):
            e, _ = E.typecheck(parse(text), env)
            assert L.normalize(e, env, subst=subst) == want, text


_PY_CMP = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
           "!=": operator.ne, ">=": operator.ge, ">": operator.gt}


@st.composite
def _comparisons(draw):
    """A comparison of two linear forms over x and y."""
    def operand():
        text = str(draw(st.integers(0, 300)))
        for v in "xy":
            k = draw(st.integers(-3, 3))
            if k:
                text += f" {'+' if k > 0 else '-'} {abs(k)} * {v}"
        return text
    return f"{operand()} {draw(st.sampled_from(sorted(_PY_CMP)))} {operand()}"


class TestQuotientVariables:
    """A comparison lowers to one cube (``!=`` two), an operand with
    several quotients wrapped by a quotient variable, and the DNF agrees
    with wrapped evaluation on every int8 memory of x and y (a quotient
    variable bound existentially over its cube's range)."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(_comparisons())
    def test_agrees_with_wrapped_evaluation(self, text):
        e, _ = E.typecheck(parse(text), ENV2)
        grid = dict(zip("xy", np.meshgrid(np.arange(256), np.arange(256))))
        want = _PY_CMP[e.op](*(E.fold_int(side, E.IntDomain, grid.get) & 255
                               for side in (e.lhs, e.rhs)))
        dnf = L.normalize(e, ENV2)
        assert len(dnf) <= (2 if e.op == "!=" else 1)
        got = np.zeros_like(want)
        for cube in dnf:
            for point in quotient_points(cube, grid):
                holds = np.ones_like(want)
                for con in cube:
                    holds &= con.evaluate(point)
                got |= holds
        assert (got == want).all(), text

    def test_several_quotients_make_a_variable(self):
        e, _ = E.typecheck(parse("3 * x == y"), ENV2)
        (cube,) = L.normalize(e, ENV2)
        q = L.quotient_var(8, L.LinForm.make({"x": 3}))
        assert q == "wrap:8:3*x,0"
        assert L.LinCon(((q, -1),), "<=", 0) in cube
        assert L.LinCon(((q, 1),), "<=", 2) in cube


class TestParseErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse("x +")
        assert err.value.line == 1

    def test_trailing_garbage(self):
        model = parse_model("var x : int8\nstep S [initial]\n")
        with pytest.raises(ParseError, match="trailing input"):
            parse_formula_text("x + 1 )", model)

    @pytest.mark.parametrize("opener", ["(", "!", "!("])
    def test_nesting_past_the_bound(self, opener):
        # the opener that passes the bound is the error's position
        def nested(depth):
            text = opener * -(-depth // len(opener))
            return text[:depth] + "b" + ")" * text[:depth].count("(")
        parse(nested(MAX_NESTING))
        with pytest.raises(ParseError, match=(
                f"^line 1, col {MAX_NESTING + 1}: nesting deeper than "
                f"{MAX_NESTING}$")):
            parse(nested(MAX_NESTING + 1))
