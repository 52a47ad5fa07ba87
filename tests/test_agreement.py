"""Concrete and symbolic semantics agree on fixtures and generated models.

The verifier reasons about an action through its symbolic summary (raw
linear forms, wrapped once per written variable); the explorer runs it
concretely.  Proofs are sound only if both give the same post-state, so
this compares them on random same-width assignment lists and diagrams,
checks that every rule instance's obligation hypothesis holds on exactly
the reachable fixture states where the rule fires, with the successor the
obligation's post-state describes, and checks that every invariant proved
on a random two-step chart holds on the states the explorer reaches and
certifies, and checks that a property's concrete truth and its lowering to
cubes agree on random formulas and configurations of a small chart.
"""

import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from certplc import certificate as C
from certplc import expr as E
from certplc import fbd as F
from certplc import obligations as O
from certplc import properties as P
from certplc import semantics as S
from certplc import verifier as V
from certplc.linear import FragmentError, LimitExceeded
from certplc.model import SfcState, parse_model
from certplc.parsing import TokenStream

from conftest import (eval_cube, eval_dnf, fixture_names, load_invariants,
                      load_model, rule_post, states_of)

WIDTHS = ("int8", "int16", "int32")
INTS = ("x", "y", "z")
BOOLS = ("b", "c")
# constants and multipliers drawn below this overflow every width; the
# soundness test draws below 8 and below this: over the wide ones, the
# 8 charts x 6 invariants of its seed give 28 Proved, 15 Refuted and 5
# Undecided, each past the wrap-quotient cap
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


def _closed(model, formulas):
    """rule -> (framed, pinned): the conjuncts of *formulas* whose negated
    conclusion build_obligation empties under that rule although their
    exact negated post-state DNF has cubes.  A framed one has an empty
    reading (the frame rule); a pinned one reads a constant write."""
    out = {rule: ([], []) for rule in model.rules}
    for f in formulas:
        ctx = O.DerivationContext(model, f)
        for rule in model.rules:
            try:
                ob = O.build_obligation(ctx, rule)
            except (FragmentError, LimitExceeded):
                continue
            post = rule_post(model, rule)
            readings = ctx.readings.get(rule, [()] * len(ob.neg_concl))
            for conj, reading, neg in zip(P.conjuncts(f), readings,
                                          ob.neg_concl):
                if not neg and ctx.formula_dnf(conj, post, negated=True):
                    out[rule][bool(reading)].append(conj)
    return out


def test_rule_shapes_agree_on_fixtures():
    """A rule fires concretely iff its hypothesis (``hypothesis``, which
    build_obligation derives for an open case: its root cube and a cube
    of each split piece) holds; the exact symbolic
    post-state (the rule's change index entries, whose readings
    build_obligation negates) has exactly the successor's steps and
    pending actions; a conjunct that the frame rule closes under a rule
    has the same truth value before and after it fires; and one that a
    constant write closes holds after it fires."""
    enabled = framed = pinned = 0
    for name in fixture_names():
        model = load_model(name)
        ctx = O.DerivationContext(model, P.parse_formula_text(
            f"steps_within {{{', '.join(model.steps)}}}", model))
        hyps = {rule: O.hypothesis(ctx, rule) for rule in model.rules}
        atoms = [(P.Active("step", s), lambda c, s=s: s in c.active_steps)
                 for s in model.steps]
        atoms += [(P.Active("action", a),
                   lambda c, a=a: a in c.active_actions)
                  for a in model.action_ids()]
        exact = {rule: [ctx.formula_dnf(
            atom, rule_post(model, rule), negated=True)
            for atom, _ in atoms] for rule in model.rules}
        # the fixture invariants, each activity atom, and each variable
        # tested against 0, which most writes change
        closed = _closed(model, [inv.formula for inv in
                                 load_invariants(name, model)]
                         + [atom for atom, _ in atoms]
                         + [P.parse_formula_text(
                             v.name if v.ty == "bool" else f"{v.name} == 0",
                             model) for v in model.vars])
        for state in states_of(model, 6, 3000):
            for rule in model.rules:
                try:
                    succ = S.apply_rule(model, state, rule)
                except S.NotApplicable:
                    succ = None
                enc = _encoding(model, state,
                                state.mem if succ is None else succ.mem)
                where = (name, rule.label(), S.state_text(state))
                root, splits = hyps[rule]
                assert (root is not None and eval_cube(root, enc) and all(
                    eval_dnf(piece, enc) for piece in splits)) == \
                    (succ is not None), where
                if succ is None:
                    continue
                enabled += 1
                for neg, (_, has) in zip(exact[rule], atoms):
                    assert eval_dnf(neg, enc) != has(succ), where
                for conj in closed[rule][0]:
                    framed += 1
                    assert P.holds_on(conj, state) == \
                        P.holds_on(conj, succ), (where, E.pretty(conj))
                for conj in closed[rule][1]:
                    pinned += 1
                    assert P.holds_on(conj, succ), (where, E.pretty(conj))
    assert enabled >= 400, enabled
    assert framed >= 1000, framed
    assert pinned >= 100, pinned


def test_comparisons_and_muxes_have_no_summary():
    rng = random.Random(12)
    for _ in range(50):
        env = dict.fromkeys(INTS, rng.choice(WIDTHS))
        lines = _diagram_blocks(rng, WIDE)
        kind = rng.choice(["lt", "le", "eq", "ne", "ge", "gt"])
        lines.append(f"block k = {kind}(b0.out, const 5)")
        if rng.random() < 0.5:
            lines.append("block m = mux(k.out, b0.out, const 1)")
        f = F.parse_fbd(TokenStream("{" + "\n".join(lines) + "}"), "F")
        with pytest.raises(FragmentError, match="has no linear form$"):
            F.linear_summary(F.compile_fbd(f, env))


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


def _proved_hold_and_certify(span):
    """The invariant kinds proved on 8 charts drawn at seed 13 with
    constants below *span*; each proved one holds on every reachable
    state and its certificate is accepted."""
    rng = random.Random(13)
    proved = set()
    for _ in range(8):
        model = _model(rng, rng.choice(WIDTHS), span=span)
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
    return proved


def test_proved_invariants_hold_and_certify():
    proved = _proved_hold_and_certify(8)
    assert {0, 1, 2, 3} <= proved and proved & {4, 5}, proved
    # wide constants wrap: the random arithmetic kinds are seldom proved
    assert {0, 1, 2, 3} <= _proved_hold_and_certify(WIDE)


# --- one boolean semantics: evaluation versus lowering ----------------------

CHART = parse_model("""var x : int8
var y : int8
var b : bool
step S [initial]
step T
step U
action A on S { x := x + 1; }
action B on T { y := y + 3; }
trans {S} -[ x >= 3 ]-> {T}
trans {T} -[ b ]-> {U, S}
""")
_STEPS = CHART.steps
_ACTS = tuple(CHART.action_ids())


def _names(pool):
    return st.lists(st.sampled_from(pool), unique=True).map(
        lambda names: tuple(sorted(names)))


# sums of c*v at int8, so comparisons wrap; constants up to 300 wrap too
def _sum(terms):
    prods = tuple(E.Prod((E.IntLit(c), E.Var(v))) for c, v in terms)
    return E.Sum(prods, (1,) * len(prods)) if len(prods) > 1 else prods[0]


_SUMS = st.lists(st.tuples(st.integers(1, 3), st.sampled_from(("x", "y"))),
                 min_size=1, max_size=2).map(_sum)
_LEAVES = st.one_of(
    st.builds(E.Cmp, st.sampled_from(E.CMP_OPS), _SUMS,
              st.integers(0, 300).map(E.IntLit)),
    st.just(E.Var("b")),
    st.booleans().map(E.BoolLit),
    st.sampled_from(_STEPS).map(lambda s: P.Active("step", s)),
    st.sampled_from(_ACTS).map(lambda a: P.Active("action", a)),
    _names(_STEPS).map(lambda names: P.Within("step", names)),
    _names(_ACTS).map(lambda names: P.Within("action", names)))


def _chains(kids):
    return st.lists(kids, min_size=2, max_size=4).map(tuple)


_FORMULAS = st.recursive(_LEAVES, lambda kids: st.one_of(
    kids.map(E.Not), _chains(kids).map(E.And), _chains(kids).map(E.Or)),
    max_leaves=6)
_CONFIGS = st.builds(
    SfcState,
    st.fixed_dictionaries({"x": st.integers(0, 255),
                           "y": st.integers(0, 255),
                           "b": st.integers(0, 1)}),
    st.lists(st.sampled_from(_STEPS), unique=True).map(tuple),
    st.lists(st.sampled_from(_ACTS), max_size=3).map(tuple))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_FORMULAS, _CONFIGS)
def test_evaluation_agrees_with_lowering(formula, config):
    """holds_on and the pre-state DNF give the same truth value on every
    configuration, and the negated DNF gives the opposite one."""
    f = P.check_refs(formula, CHART)
    ctx = O.DerivationContext(CHART, f)
    try:
        dnf = ctx.formula_dnf(f, {})
        neg = ctx.formula_dnf(f, {}, negated=True)
    except LimitExceeded:
        reject()
    enc = _encoding(CHART, config, config.mem)
    truth = P.holds_on(f, config)
    assert eval_dnf(dnf, enc) == truth
    assert eval_dnf(neg, enc) != truth
