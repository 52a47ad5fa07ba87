"""Concrete and symbolic semantics agree on generated actions.

The verifier reasons about an action through its symbolic summary (raw
linear forms, wrapped once per written variable); the explorer runs it
concretely.  Proofs are sound only if both give the same post-state, so
this compares them on random same-width assignment lists and diagrams.
"""

import random

from certplc import expr as E
from certplc import fbd as F
from certplc import obligations as O
from certplc import semantics as S
from certplc.model import parse_model
from certplc.parsing import TokenStream, lex

WIDTHS = ("int8", "int16", "int32")
INTS = ("x", "y", "z")
BOOLS = ("b", "c")


def _int_expr(rng, depth=0):
    r = rng.random()
    if depth > 2 or r < 0.3:
        return rng.choice(INTS) if rng.random() < 0.7 else \
            str(rng.randrange(300))
    op = rng.choice(["+", "-", "*"])
    lhs = _int_expr(rng, depth + 1)
    if op == "*":  # one factor constant keeps the product linear
        return f"{rng.randrange(1, 70000)} * ({lhs})"
    return f"({lhs}) {op} ({_int_expr(rng, depth + 1)})"


def _bool_expr(rng):
    return rng.choice(["true", "false", "b", "c", "!b", "!c", "!!c"])


def _assignments(rng):
    out = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.25:
            out.append(f"{rng.choice(BOOLS)} := {_bool_expr(rng)};")
        else:
            out.append(f"{rng.choice(INTS)} := {_int_expr(rng)};")
    return " ".join(out)


def _port(rng, earlier):
    if not earlier or rng.random() < 0.2:
        return f"const {rng.randrange(70000)}"
    return f"{rng.choice(earlier)}.out"


def _diagram_blocks(rng):
    """Linear blocks; delays may read later blocks, closing loops."""
    n = rng.randint(2, 7)
    ids = [f"b{i}" for i in range(n)]
    lines = []
    for i, bid in enumerate(ids):
        earlier = ids[:i]
        kind = rng.choice(["read", "const", "add", "sub", "mul", "delay"])
        if kind == "read":
            lines.append(f"block {bid} = read {rng.choice(INTS)}")
        elif kind == "const":
            lines.append(f"block {bid} = const {rng.randrange(70000)}")
        elif kind == "delay":
            lines.append(f"block {bid} = delay({_port(rng, ids)})")
        elif kind == "mul":
            lines.append(f"block {bid} = mul({_port(rng, earlier)}, "
                         f"const {rng.randrange(70000)})")
        else:
            lines.append(f"block {bid} = {kind}({_port(rng, earlier)}, "
                         f"{_port(rng, earlier)})")
    for j, var in enumerate(rng.sample(INTS, rng.randint(1, len(INTS)))):
        lines.append(f"block w{j} = write {var} ({_port(rng, ids)})")
    return lines


def _model(rng, width):
    decls = [f"var {v} : {width}" for v in INTS]
    decls += [f"var {v} : bool" for v in BOOLS]
    decls.append("step S [initial]")
    decls.append(f"action A on S {{ {_assignments(rng)} }}")
    decls.append("action D on S = fbd F")
    decls.append("fbd F {")
    decls += ["  " + ln for ln in _diagram_blocks(rng)]
    decls.append(f"  timeslice {rng.randint(1, 5)}")
    decls.append("}")
    return parse_model("\n".join(decls) + "\n")


def _memory(rng, model):
    return {v.name: E.Value(v.ty, rng.randrange(E.max_of(v.ty) + 1))
            for v in model.vars}


def test_effect_summary_matches_execution():
    rng = random.Random(11)
    for _ in range(150):
        model = _model(rng, rng.choice(WIDTHS))
        for aid in ("A", "D"):
            summary = O.effect_summary(model, aid)
            for _ in range(4):
                mem = _memory(rng, model)
                pre = {k: v.payload for k, v in mem.items()}
                state = S.SfcState(mem, ("S",), (aid,))
                post = S.execute_action(model, state, aid).mem
                for v in model.vars:
                    want = post[v.name].payload
                    if v.name in summary:
                        got = summary[v.name].evaluate(pre) \
                            & E.max_of(v.ty)
                    else:
                        got = pre[v.name]
                    assert got == want, (aid, v.name, mem)


def test_comparisons_and_muxes_have_no_summary():
    rng = random.Random(12)
    for _ in range(50):
        env = dict.fromkeys(INTS, rng.choice(WIDTHS))
        lines = _diagram_blocks(rng)
        kind = rng.choice(["lt", "le", "eq", "ne", "ge", "gt"])
        lines.append(f"block k = {kind}(b0.out, const 5)")
        if rng.random() < 0.5:
            lines.append("block m = mux(k.out, b0.out, const 1)")
        f = F.parse_fbd(TokenStream(lex("{" + "\n".join(lines) + "}")), "F")
        F.validate_fbd(f, env)
        assert F.linear_summary(f, env) is None
