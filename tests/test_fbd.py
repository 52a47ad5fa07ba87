import itertools
from dataclasses import replace

import pytest

from certplc import expr as E
from certplc import fbd as F
from certplc.linear import LinForm
from certplc.model import parse_model
from certplc.parsing import TokenStream, lex

INC = """{
  block r = read x
  block a = add(r.out, const 1)
  block w = write x (a.out)
  timeslice 1
}"""

COUNTER = """{
  block d = delay(a.out)
  block a = add(d.out, const 1)
  block w = write out (a.out)
  timeslice 3
}"""

TWO_IN = """{
  block rx = read x
  block ry = read y
  block s = add(rx.out, ry.out)
  block w = write z (s.out)
  timeslice 1
}"""

ENV16 = dict.fromkeys(("out", "x", "y", "z"), "int16")


def parse(body, name="f"):
    return F.parse_fbd(TokenStream(lex(body)), name)


def program(body):
    return F.compile_fbd(parse(body), ENV16)


class TestAcyclic:
    def test_increment(self):
        out = F.eval_iterative(program(INC), dict(x=5))
        assert out["x"] == 6

    def test_no_write_leaves_memory(self):
        p = program("{ block r = read x\n block a = add(r.out, const 1) }")
        m = dict(x=5)
        assert F.eval_iterative(p, m) == m

    def test_two_reads(self):
        out = F.eval_iterative(program(TWO_IN), dict(x=2, y=3, z=0))
        assert out["z"] == 5
        assert out["x"] == 2

    def test_undelayed_cycle_rejected(self):
        f = parse("{ block a = add(b.out, const 1)\n"
                  "  block b = add(a.out, const 1) }")
        with pytest.raises(F.FbdError, match="cycle"):
            F.validate_fbd(f, {})

    def test_cycle_reported_with_its_path(self):
        # the path runs from the block the search started at
        f = parse("{ block a = add(b.out, const 1)\n"
                  "  block b = add(c.out, const 1)\n"
                  "  block c = add(b.out, const 1) }")
        with pytest.raises(F.FbdError) as err:
            F.validate_fbd(f, {})
        assert str(err.value) == ("cycle without a delay block: "
                                  "a -> b -> c -> b")

    def test_long_chain_against_id_order(self):
        """Each block reads the next one by id, so the dependency chain is
        3000 blocks deep; ordering it does not recurse per block."""
        n = 3000
        chain = "".join(f" block b{i:05d} = add(b{i + 1:05d}.out, const 1)\n"
                        for i in range(1, n))
        model = parse_model(
            "var x : int16\nstep S [initial]\naction A on S = fbd F\n"
            "fbd F {\n block r = read x\n" + chain
            + f" block b{n:05d} = add(r.out, const 1)\n"
            " block w = write x (b00001.out)\n timeslice 1\n}\n")
        program = model.program("F")
        assert F.eval_iterative(program, {"x": 5}) == {"x": 3005}
        assert F.linear_summary(program)["x"] == LinForm.make({"x": 1}, n)

    @pytest.mark.parametrize("body", [
        # the delay is typed int16 from its consumer, its input int8 from
        # the read: x + 1 wrapped at 8 bits, then stored at 16
        "{ block a = add(r.out, const 1)\n  block d = delay(a.out)\n"
        "  block r = read x\n  block w = write y (d.out)\n  timeslice 2 }",
        "{ block a = add(r.out, const 1)\n  block r = read x\n"
        "  block w = write y (a.out) }",
    ], ids=["delay", "add"])
    def test_width_change_inside_diagram_rejected(self, body):
        with pytest.raises(F.FbdError, match="int8 input to int16"):
            F.validate_fbd(parse(body), {"x": "int8", "y": "int16"})

    def test_integer_constant_into_boolean_rejected(self):
        f = parse("{ block m = mux(const 1, const 2, const 3)\n"
                  "  block w = write b (m.out) }")
        with pytest.raises(F.FbdError, match="boolean position"):
            F.validate_fbd(f, {"b": "bool"})

    def test_result_independent_of_block_names(self):
        # same dataflow under reversed id ordering evaluates identically
        p1 = program("{ block a = read x\n block b = add(a.out, const 2)\n"
                     "  block c = write x (b.out) }")
        p2 = program("{ block z = read x\n block y = add(z.out, const 2)\n"
                     "  block q = write x (y.out) }")
        m = dict(x=7)
        assert F.eval_iterative(p1, m)["x"] == F.eval_iterative(p2, m)["x"]


class TestIterative:
    def test_counter_counts_time_slice(self):
        out = F.eval_iterative(program(COUNTER), dict(out=0))
        assert out["out"] == 3

    def test_counter_overwrites_start_value(self):
        assert F.eval_iterative(program(COUNTER), dict(out=40))["out"] == 3

    def test_time_slice_zero_rejected_at_parse(self):
        with pytest.raises(Exception, match="positive"):
            parse("{ block r = read x\n timeslice 0 }")

    def test_one_slice_equals_acyclic(self):
        # without delays, every iteration computes the same values
        p = program(INC.replace("timeslice 1", "timeslice 4"))
        m = dict(x=11)
        assert F.eval_iterative(p, m) == \
            F.eval_iterative(replace(p, time_slice=1), m)

    def test_deterministic(self):
        p = program(COUNTER)
        m = dict(out=0)
        assert F.eval_iterative(p, m) == F.eval_iterative(p, m)

    def test_mux_and_comparison(self):
        p = program("{ block r = read x\n block c = lt(r.out, const 10)\n"
                    "  block m = mux(c.out, const 1, const 0)\n"
                    "  block w = write y (m.out) }")
        assert F.eval_iterative(p, dict(x=5, y=9))["y"] == 1
        assert F.eval_iterative(p, dict(x=55, y=9))["y"] == 0


class TestCompile:
    def test_increment_matches_assignment_oracle(self):
        p = F.compile_fbd(parse(INC), ENV16)
        inc = [("x", E.Sum((E.Var("x"), E.IntLit(1)), (1, 1)))]
        for v in itertools.chain(range(16), (254, 255, 65534, 65535)):
            m = dict(x=v)
            assert F.eval_iterative(p, m) == E.apply_effect(inc, m, ENV16), v

    def test_empty_diagram_is_identity(self):
        p = F.compile_fbd(parse("{ timeslice 1 }"), ENV16)
        m = dict(x=3)
        assert F.eval_iterative(p, m) == m

    def test_counter_effect_writes_three(self):
        p = F.compile_fbd(parse(COUNTER), ENV16)
        for v in range(16):
            assert F.eval_iterative(p, dict(out=v))["out"] == 3


class TestLinearSummary:
    def test_increment(self):
        s = F.linear_summary(F.compile_fbd(parse(INC), {"x": "int16"}))
        assert set(s) == {"x"}
        assert s["x"].coeffs == (("x", 1),)
        assert s["x"].const == 1

    def test_counter_is_constant(self):
        s = F.linear_summary(F.compile_fbd(parse(COUNTER), {"out": "int16"}))
        assert s["out"].coeffs == ()
        assert s["out"].const == 3

    def test_mux_is_not_linear(self):
        f = parse("{ block r = read x\n block c = lt(r.out, const 10)\n"
                  "  block m = mux(c.out, const 1, const 0)\n"
                  "  block w = write y (m.out) }")
        p = F.compile_fbd(f, {"x": "int16", "y": "int16"})
        assert F.linear_summary(p) is None

    def test_summary_agrees_with_evaluation(self):
        f = parse(TWO_IN)
        p = F.compile_fbd(f, ENV16)
        s = F.linear_summary(p)
        for x in (0, 1, 7, 65535):
            for y in (0, 3, 65535):
                m = dict(x=x, y=y, z=0)
                got = F.eval_iterative(p, m)["z"]
                raw = s["z"].evaluate({"x": x, "y": y, "z": 0})
                assert got == raw % (1 << 16)


class TestSurface:
    def test_roundtrip_through_lines(self):
        f = parse(COUNTER, name="FCnt")
        text = "\n".join(F.fbd_lines(f))
        again = F.parse_fbd(TokenStream(lex(text[len("fbd FCnt "):])), "FCnt")
        assert again == f

    def test_unknown_kind(self):
        with pytest.raises(Exception, match="unknown block kind"):
            parse("{ block b = frobnicate(a.out) }")
