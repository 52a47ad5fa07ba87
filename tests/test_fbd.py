import itertools
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certplc import certificate as C
from certplc import expr as E
from certplc import fbd as F
from certplc import properties as P
from certplc import verifier as V
from certplc.linear import FragmentError, LinForm
from certplc.model import canonical_text, parse_model
from certplc.parsing import ParseError, TokenStream
from certplc.semantics import apply_effect

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

# One setpoint block wired to two ports: w := x < 10 ? 10 : x.
CLAMP = """{
  block r = read x
  block k = const 10
  block c = lt(r.out, k.out)
  block m = mux(c.out, k.out, r.out)
  block o = write w (m.out)
  timeslice 1
}"""

# Two const blocks whose only typed neighbour is the written variable:
# w := p ? 7 : 300, the literals at the width of w.
CONST_MUX = """{
  block s = read p
  block a = const 7
  block b = const 300
  block m = mux(s.out, a.out, b.out)
  block o = write w (m.out)
  timeslice 1
}"""


def parse(body, name="f"):
    return F.parse_fbd(TokenStream(body), name)


def program(body):
    return F.compile_fbd(parse(body), ENV16)


class TestAcyclic:
    def test_increment(self):
        out = F.eval_iterative(program(INC), dict(x=5))
        assert out["x"] == 6

    def test_no_write_leaves_memory(self):
        p = program("{ block r = read x\n block a = add(r.out, const 1) }")
        assert F.eval_iterative(p, dict(x=5)) == {}

    def test_two_reads(self):
        # only the written variable: the reads are not written back
        out = F.eval_iterative(program(TWO_IN), dict(x=2, y=3, z=0))
        assert out == {"z": 5}

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
        # each block reads the previous one, from a const block on, so only
        # the write types the chain; typing it took one round per block
        chain = "".join(f" block c{i:05d} = add(c{i - 1:05d}.out, const 1)\n"
                        for i in range(1, n))
        t0 = time.perf_counter()
        model = parse_model(
            "var x : int16\nstep S [initial]\naction A on S = fbd F\n"
            "fbd F {\n block c00000 = const 1\n" + chain
            + f" block w = write x (c{n - 1:05d}.out)\n timeslice 1\n}}\n")
        assert time.perf_counter() - t0 < 5.0
        program = model.program("F")
        assert F.eval_iterative(program, {"x": 5}) == {"x": n}
        assert F.linear_summary(program)["x"] == LinForm.make({}, n)

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
        with pytest.raises(ParseError, match="fbd 'F': time slice must be "
                                             "positive"):
            parse_model("var x : int16\nstep S [initial]\n"
                        "action A on S = fbd F\n"
                        "fbd F { block r = read x\n timeslice 0 }\n")

    def test_time_slice_bound(self):
        body = "{ block r = read x\n timeslice %d }"
        at_bound = parse(body % F.MAX_TIME_SLICE)
        assert at_bound.time_slice == F.MAX_TIME_SLICE
        F.validate_fbd(at_bound, ENV16)
        with pytest.raises(F.FbdError, match="at most 1024"):
            F.validate_fbd(parse(body % (F.MAX_TIME_SLICE + 1)), ENV16)

    def test_second_time_slice_rejected(self):
        with pytest.raises(ParseError, match="duplicate timeslice") as err:
            parse("{ timeslice 3\n  timeslice 5 }")
        assert (err.value.line, err.value.col) == (2, 3)

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
            assert F.eval_iterative(p, m) == apply_effect(inc, m, ENV16), v

    def test_empty_diagram_is_identity(self):
        # it writes nothing, so merging its writes leaves memory as it was
        p = F.compile_fbd(parse("{ timeslice 1 }"), ENV16)
        assert F.eval_iterative(p, dict(x=3)) == {}

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
        with pytest.raises(FragmentError,
                           match="^comparison '<' has no linear form$"):
            F.linear_summary(p)

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
        again = F.parse_fbd(TokenStream(text[len("fbd FCnt "):]), "FCnt")
        assert again == f

    def test_boolean_constants_parse_print_and_certify(self):
        """``const true`` and ``const false``, as blocks and as an inline
        operand, parse, print canonically (the blocks in id order) and
        certify a property over the variables they write."""
        text = ("var b : bool\nvar c : bool = true\nvar d : bool\n"
                "step S [initial]\naction A on S = fbd F\n"
                "fbd F {\n  block t = const true\n  block f = const false\n"
                "  block wb = write b (t.out)\n  block wc = write c (f.out)\n"
                "  block wd = write d (const false)\n  timeslice 1\n}\n"
                "trans {S} -[ true ]-> {S}\n")
        model = parse_model(text)
        printed = canonical_text(model)
        assert printed == text.replace(
            "  block t = const true\n  block f = const false\n",
            "  block f = const false\n  block t = const true\n")
        assert canonical_text(parse_model(printed)) == printed
        inv, = P.parse_properties(
            "invariant p : always (!d && (b || c || action(A)));", model)
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        assert C.check(C.emit(model, inv, res.tree)).accepted

    def test_unknown_kind(self):
        with pytest.raises(F.FbdError, match="unknown block kind"):
            F.validate_fbd(parse("{ block b = frobnicate(a.out) }"), {})


_ENV = {"p": "bool", "x": "int8", "y": "int16", "z": "int32"}
_INTS = ("int8", "int16", "int32")
# every kind, with const, mux, read and write blocks drawn more often
_KINDS = sorted(F.PORTS) + ["const"] * 4 + ["mux", "mux", "read", "write"]


@st.composite
def _diagrams(draw):
    """Up to four blocks of every kind, with port references, inline
    constants of both sorts and variables of each width.  A block reads
    blocks listed after it, a delay any block, and ids are shuffled, so
    the id order is unrelated to the dataflow."""
    ids = draw(st.permutations("abcd"))[:draw(st.integers(1, 4))]
    literal = st.one_of(st.integers(0, 300), st.integers(0, 300),
                        st.booleans())
    blocks = []
    for i, bid in enumerate(ids):
        kind = draw(st.sampled_from(_KINDS))
        srcs = ids if kind == "delay" else ids[i + 1:]
        refs = [st.sampled_from(srcs).map(F.PortRef)] * 3 if srcs else []
        operand = st.one_of(*refs, literal.map(F.ConstIn))
        blocks.append(F.Block(
            bid, kind, tuple(draw(operand) for _ in F.PORTS[kind]),
            draw(st.sampled_from(sorted(_ENV)))
            if kind in ("read", "write") else None,
            draw(literal) if kind == "const" else None))
    return F.Fbd("D", tuple(blocks), 1)


def _fits(op, t, types):
    """Operand *op* can carry type *t* when block outputs have *types*."""
    if isinstance(op, F.PortRef):
        return types[op.block] == t
    return (t == "bool") == isinstance(op.value, bool)


def _obeys(b, types):
    """Block *b* obeys the port rule when block outputs have *types*."""
    t, ins = types.get(b.id), b.inputs
    if b.kind == "read":
        return t == _ENV[b.var]
    if b.kind == "const":
        return _fits(F.ConstIn(b.value), t, types)
    if b.kind == "write":
        return _fits(ins[0], _ENV[b.var], types)
    if b.kind in F.CMP_KINDS:
        return t == "bool" and any(_fits(ins[0], w, types)
                                   and _fits(ins[1], w, types) for w in _INTS)
    if b.kind == "mux":
        return _fits(ins[0], "bool", types) and _fits(ins[1], t, types) \
            and _fits(ins[2], t, types)
    if b.kind == "delay":
        return _fits(ins[0], t, types)
    return t != "bool" and all(_fits(op, t, types) for op in ins)


class TestPortRule:
    """Const blocks and inline constants adopt the type of the ports they
    feed, mux data inputs and comparison operands included."""

    @pytest.mark.parametrize("body, env, cases", [
        (CLAMP, {"x": "int8", "w": "int8"},
         [({"x": x, "w": 0}, 10 if x < 10 else x) for x in range(256)]),
        (CONST_MUX, {"p": "bool", "w": "int8"},
         [({"p": True, "w": 0}, 7), ({"p": False, "w": 0}, 300 % 256)]),
    ], ids=["clamp", "const-mux"])
    def test_const_block_adopts_its_ports_type(self, body, env, cases):
        decls = "".join(f"var {v} : {t}\n" for v, t in env.items())
        model = parse_model(decls + "step S [initial]\n"
                            "action A on S = fbd F\nfbd F " + body + "\n")
        p = model.program("F")
        for m, want in cases:
            assert F.eval_iterative(p, m) == {"w": want}, m
        with pytest.raises(FragmentError):
            F.linear_summary(p)

    @settings(max_examples=500, deadline=None, derandomize=True,
              database=None)
    @given(_diagrams())
    # a const block shared by a comparison and a mux, a const block typed
    # through a mux by the write, and a delay island typed by a selector
    @example(parse("{ block r = read x\n  block k = const 10\n"
                   "  block c = lt(r.out, k.out)\n"
                   "  block m = mux(c.out, k.out, r.out) }"))
    @example(parse("{ block a = const 7\n  block m = mux(s.out, a.out, a.out)\n"
                   "  block s = read p\n  block o = write x (m.out) }"))
    @example(parse("{ block d = delay(d.out)\n"
                   "  block m = mux(d.out, const 1, const 2) }"))
    def test_against_brute_force(self, f):
        """Accepted exactly when some typing of the block outputs obeys the
        port rule; a type every such typing agrees on is returned, and
        int32 for an island free to take several."""
        targets = [b.var for b in f.blocks if b.kind == "write"]
        try:
            F.topo_order(f)
            structural = len(set(targets)) == len(targets)
        except F.FbdError:
            structural = False
        outs = [b.id for b in f.blocks if b.kind != "write"]
        good = [types for types in (dict(zip(outs, combo)) for combo in
                                    itertools.product(E.TYPES,
                                                      repeat=len(outs)))
                if structural and all(_obeys(b, types) for b in f.blocks)]
        try:
            _, types = F.validate_fbd(f, _ENV)
        except F.FbdError:
            assert not good
            return
        assert types in good
        for bid in outs:
            seen = {g[bid] for g in good}
            assert types[bid] == (seen.pop() if len(seen) == 1
                                  else E.DEFAULT_INT)
