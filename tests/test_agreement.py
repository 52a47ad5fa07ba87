"""Concrete and symbolic semantics agree on fixtures and generated models.

The verifier reasons about an action through its symbolic summary (raw
linear forms, wrapped once per written variable); the explorer runs it
concretely.  Proofs are sound only if both give the same post-state, so
this compares them on random same-width assignment lists and diagrams,
checks that every rule instance's obligation hypothesis holds on exactly
the reachable fixture states where the rule fires, with the successor the
obligation's post-state describes, and checks that every invariant proved
on a random two-step chart holds on the states the explorer reaches and
certifies.
"""

import random

from certplc import certificate as C
from certplc import expr as E
from certplc import fbd as F
from certplc import obligations as O
from certplc import properties as P
from certplc import semantics as S
from certplc import verifier as V
from certplc.linear import eval_dnf
from certplc.model import parse_model
from certplc.parsing import TokenStream, lex

from conftest import fixture_names, load_model, states_of

WIDTHS = ("int8", "int16", "int32")
INTS = ("x", "y", "z")
BOOLS = ("b", "c")
# constants and multipliers drawn below this overflow every width; the
# soundness test draws below 8, because large multipliers make most proofs
# end Undecided at the disjunct cap
WIDE = 70000


def _int_expr(rng, span, depth=0):
    r = rng.random()
    if depth > 2 or r < 0.3:
        return rng.choice(INTS) if rng.random() < 0.7 else \
            str(rng.randrange(300))
    op = rng.choice(["+", "-", "*"])
    lhs = _int_expr(rng, span, depth + 1)
    if op == "*":  # one factor constant keeps the product linear
        return f"{rng.randrange(1, span)} * ({lhs})"
    return f"({lhs}) {op} ({_int_expr(rng, span, depth + 1)})"


def _condition(rng):
    """Linear comparison with small coefficients, maybe with a flag."""
    terms = " + ".join(f"{rng.randint(1, 5)} * {v}"
                       for v in rng.sample(INTS, rng.randint(1, 2)))
    cond = f"{terms} {rng.choice(E.CMP_OPS)} {rng.randrange(300)}"
    if rng.random() < 0.3:
        cond += f" {rng.choice(['&&', '||'])} {rng.choice(BOOLS)}"
    return cond


def _bool_expr(rng):
    return rng.choice(["true", "false", "b", "c", "!b", "!c", "!!c"])


def _assignments(rng, span):
    out = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.25:
            out.append(f"{rng.choice(BOOLS)} := {_bool_expr(rng)};")
        else:
            out.append(f"{rng.choice(INTS)} := {_int_expr(rng, span)};")
    return " ".join(out)


def _port(rng, earlier, span):
    if not earlier or rng.random() < 0.2:
        return f"const {rng.randrange(span)}"
    return f"{rng.choice(earlier)}.out"


def _diagram_blocks(rng, span):
    """Linear blocks; delays may read later blocks, closing loops.

    Constants and multipliers are drawn below *span*.
    """
    n = rng.randint(2, 7)
    ids = [f"b{i}" for i in range(n)]
    lines = []
    for i, bid in enumerate(ids):
        earlier = ids[:i]
        kind = rng.choice(["read", "const", "add", "sub", "mul", "delay"])
        if kind == "read":
            lines.append(f"block {bid} = read {rng.choice(INTS)}")
        elif kind == "const":
            lines.append(f"block {bid} = const {rng.randrange(span)}")
        elif kind == "delay":
            lines.append(f"block {bid} = delay({_port(rng, ids, span)})")
        elif kind == "mul":
            lines.append(f"block {bid} = mul({_port(rng, earlier, span)}, "
                         f"const {rng.randrange(span)})")
        else:
            lines.append(f"block {bid} = {kind}({_port(rng, earlier, span)}, "
                         f"{_port(rng, earlier, span)})")
    for j, var in enumerate(rng.sample(INTS, rng.randint(1, len(INTS)))):
        lines.append(f"block w{j} = write {var} ({_port(rng, ids, span)})")
    return lines


def _model(rng, width, span=WIDE):
    """Steps S and T; S runs both actions, a guard and its negation
    lead from S to T and back."""
    decls = [f"var {v} : {width} = {rng.randrange(256)}" for v in INTS]
    decls += [f"var {v} : bool" for v in BOOLS]
    decls.append("step S [initial]")
    decls.append("step T")
    decls.append(f"action A on S {{ {_assignments(rng, span)} }}")
    decls.append("action D on S = fbd F")
    decls.append("fbd F {")
    decls += ["  " + ln for ln in _diagram_blocks(rng, span)]
    decls.append(f"  timeslice {rng.randint(1, 5)}")
    decls.append("}")
    guard = _condition(rng)
    decls.append(f"trans {{S}} -[ {guard} ]-> {{T}}")
    decls.append(f"trans {{T}} -[ !({guard}) ]-> {{S}}")
    return parse_model("\n".join(decls) + "\n")


def _memory(rng, model):
    return {v.name: rng.randrange(E.max_of(v.ty) + 1) for v in model.vars}


def test_effect_summary_matches_execution():
    rng = random.Random(11)
    for _ in range(150):
        model = _model(rng, rng.choice(WIDTHS))
        for aid in ("A", "D"):
            summary = O.effect_summary(model, aid)
            for _ in range(4):
                pre = _memory(rng, model)
                state = S.SfcState(pre, ("S",), (aid,))
                post = S.apply_rule(model, state, S.ExecuteAction(aid)).mem
                for v in model.vars:
                    want = post[v.name]
                    if v.name in summary:
                        got = summary[v.name].evaluate(pre) \
                            & E.max_of(v.ty)
                    else:
                        got = pre[v.name]
                    assert got == want, (aid, v.name, pre)


def _encoding(model, state, post_mem):
    """A configuration as the obligations' variables: memory as-is,
    activity as 0/1 and post:V read from *post_mem*."""
    enc = dict(state.mem)
    for s in model.steps:
        enc[O.step_var(s)] = int(s in state.active_steps)
    for a in model.action_ids():
        enc[O.act_var(a)] = int(a in state.active_actions)
    for v in model.vars:
        enc[O.post_var(v.name)] = post_mem[v.name]
    return enc


def _obligations(model, text):
    """Obligation per rule instance for an invariant."""
    f = P.parse_formula_text(text, model)
    ctx = O.DerivationContext(model, f)
    return {rule: O.build_obligation(model, f, rule, context=ctx)
            for rule in S.rule_instances(model)}


def test_rule_shapes_agree_on_fixtures():
    """A rule fires concretely iff its hypothesis holds, and the symbolic
    post-state has exactly the successor's steps and pending actions."""
    enabled = 0
    for name in fixture_names():
        model = load_model(name)
        pre = _obligations(model,
                           f"steps_within {{{', '.join(model.steps)}}}")
        atoms = [(f"step({s})", lambda c, s=s: s in c.active_steps)
                 for s in model.steps]
        atoms += [(f"action({a})", lambda c, a=a: a in c.active_actions)
                  for a in model.action_ids()]
        posts = [(_obligations(model, text), has) for text, has in atoms]
        for state in states_of(model, 6, 3000):
            for rule in S.rule_instances(model):
                try:
                    succ = S.apply_rule(model, state, rule)
                except S.NotApplicable:
                    succ = None
                enc = _encoding(model, state,
                                state.mem if succ is None else succ.mem)
                where = (name, rule.label(), S.state_text(state))
                assert eval_dnf(pre[rule].hyp_cubes, enc) == \
                    (succ is not None), where
                if succ is None:
                    continue
                enabled += 1
                for obs, has in posts:
                    neg, = obs[rule].neg_concl
                    assert eval_dnf(neg, enc) != has(succ), where
    assert enabled >= 400, enabled


def test_comparisons_and_muxes_have_no_summary():
    rng = random.Random(12)
    for _ in range(50):
        env = dict.fromkeys(INTS, rng.choice(WIDTHS))
        lines = _diagram_blocks(rng, WIDE)
        kind = rng.choice(["lt", "le", "eq", "ne", "ge", "gt"])
        lines.append(f"block k = {kind}(b0.out, const 5)")
        if rng.random() < 0.5:
            lines.append("block m = mux(k.out, b0.out, const 1)")
        f = F.parse_fbd(TokenStream(lex("{" + "\n".join(lines) + "}")), "F")
        F.validate_fbd(f, env)
        assert F.linear_summary(f, env) is None


def _invariants(rng, model):
    """Four kinds that hold on most generated charts, then two random
    arithmetic ones that seldom do."""
    guard = E.pretty(model.transitions[0].guard)
    atom = _condition(rng)
    return [
        "steps_within {S, T}",
        "!(step(S) && step(T))",
        # T is entered with the guard true and nothing pending, and
        # nothing runs until it is left
        f"!step(T) || ({guard}) && !action(A) && !action(D)",
        f"({atom}) || !step(S) || step(S)",
        _condition(rng),
        f"step(T) || ({_condition(rng)})",
    ]


def test_proved_invariants_hold_and_certify():
    rng = random.Random(13)
    proved = set()
    for _ in range(8):
        model = _model(rng, rng.choice(WIDTHS), span=8)
        states = states_of(model, 10, 2000)
        for i, text in enumerate(_invariants(rng, model)):
            inv, = P.parse_properties(f"invariant p : always ({text});",
                                      model)
            res = V.verify_invariant(model, inv)
            if not isinstance(res, V.Proved):
                continue
            proved.add(i)
            for s in states:
                assert P.holds_on(inv.formula, s), (text, S.state_text(s))
            assert C.check(C.emit(model, inv, res.tree)).accepted, text
    assert {0, 1, 2, 3} <= proved and proved & {4, 5}, proved
