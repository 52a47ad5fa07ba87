import itertools
import random
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certplc import obligations as O
from certplc import parse_model, parse_properties
from certplc.lia import solver
from certplc.lia import witness as W
from certplc.lia.solver import Sat, Simplified, Unsat, decide_sat
from certplc.linear import LimitExceeded
from certplc.lia.witness import (MAX_SPLIT_NESTING, Combine, RangeSplit,
                                 Tighten, Witness, parse_witness_lines,
                                 replay_witness, witness_lines)
from certplc.linear import LinCon, clean_cube
from certplc.parsing import ParseError

from conftest import (benchmark_cases, decision, fixture_names,
                      load_invariants, load_model, lockstep)


def con(coeffs, rel, rhs):
    return LinCon(tuple(sorted(coeffs.items())), rel, rhs)


def bounds(var, hi):
    return [con({var: -1}, "<=", 0), con({var: 1}, "<=", hi)]


def boxed(cons, hi, names):
    out = list(cons)
    for v in names:
        out.extend(bounds(v, hi))
    return tuple(out)


class TestDecideSat:
    def test_contradictory_pair(self):
        cube = boxed([con({"x": 1}, "<=", 9), con({"x": -1}, "<=", -10)],
                     65535, ["x"])
        res = decide_sat(cube)
        assert isinstance(res, Unsat)
        assert replay_witness(cube, res.witness)

    def test_bounds_alone_sat_at_zero(self):
        res = decide_sat(tuple(bounds("x", 65535)))
        assert isinstance(res, Sat)
        assert res.assignment == {"x": 0}

    def test_equality_solution(self):
        cube = boxed([con({"x": 1, "y": 1}, "==", 7),
                      con({"x": 1}, "<=", 3)], 15, ["x", "y"])
        res = decide_sat(cube)
        assert isinstance(res, Sat)
        a = res.assignment
        assert a["x"] + a["y"] == 7 and a["x"] <= 3

    def test_gcd_tightening_refutes(self):
        # 3 <= 2x <= 3 has a rational point but no integer one
        cube = boxed([con({"x": 2}, "<=", 3), con({"x": -2}, "<=", -3)],
                     15, ["x"])
        res = decide_sat(cube)
        assert isinstance(res, Unsat)
        assert replay_witness(cube, res.witness)

    def test_equality_divisibility_refutes(self):
        cube = boxed([con({"x": 2, "y": 2}, "==", 5)], 15, ["x", "y"])
        res = decide_sat(cube)
        assert isinstance(res, Unsat)
        assert replay_witness(cube, res.witness)

    def test_integrality_gap_closed_by_split(self):
        # x == 3y and 3y+2 == x cannot both hold; rationally inconsistent
        # only after integer reasoning across the pair
        cube = boxed([con({"x": 1, "y": -3}, "==", 0),
                      con({"x": -1, "y": 3}, "<=", -2),
                      con({"x": 1, "y": -3}, "<=", 2)], 15, ["x", "y"])
        res = decide_sat(cube)
        assert isinstance(res, Unsat)
        assert replay_witness(cube, res.witness)

    def test_assignment_is_rechecked(self):
        rng = random.Random(5)
        for _ in range(100):
            cube = _random_cube(rng, nvars=2, width=4)
            res = decide_sat(cube)
            if isinstance(res, Sat):
                assert all(c.evaluate(res.assignment) for c in cube)

    def test_generator_input_is_rechecked(self, monkeypatch):
        cube = boxed([con({"x": 1, "y": 1}, "==", 7)], 15, ["x", "y"])
        assert isinstance(decide_sat(c for c in cube), Sat)
        # an assignment failing the input must be caught for any iterable
        monkeypatch.setattr(LinCon, "evaluate", lambda self, a: False)
        with pytest.raises(AssertionError, match="model fails"):
            decide_sat(c for c in cube)


def _random_cube(rng, nvars=3, width=4, ncons=4):
    names = ["x", "y", "z"][:nvars]
    hi = (1 << width) - 1
    cons = []
    for _ in range(rng.randrange(1, ncons + 1)):
        coeffs = {v: rng.randint(-3, 3) for v in names}
        coeffs = {v: c for v, c in coeffs.items() if c}
        if not coeffs:
            continue
        rel = "==" if rng.random() < 0.25 else "<="
        cons.append(con(coeffs, rel, rng.randint(-10, 2 * hi)))
    return boxed(cons, hi, names)


_PUGH = boxed([con({"x": 11, "y": 13}, "<=", 45),
               con({"x": -11, "y": -13}, "<=", -27),
               con({"x": 7, "y": -9}, "<=", 4),
               con({"x": -7, "y": 9}, "<=", 10)], 15, ["x", "y"])


def _enumerate_sat(cube, names, width):
    hi = 1 << width
    for point in itertools.product(range(hi), repeat=len(names)):
        assignment = dict(zip(names, point))
        if all(c.evaluate(assignment) for c in cube):
            return assignment
    return None


class TestOracleAgreement:
    def test_random_cubes_match_enumeration(self):
        rng = random.Random(99)
        names = ["x", "y", "z"]
        for i in range(120):
            cube = _random_cube(rng)
            res = decide_sat(cube)
            brute = _enumerate_sat(cube, names, 4)
            if isinstance(res, Sat):
                assert brute is not None, cube
            else:
                assert brute is None, cube
                assert replay_witness(cube, res.witness), cube


class TestWitnessReplay:
    def test_round_trip_on_fresh_unsat(self):
        cube = boxed([con({"x": 1}, "<=", 9), con({"x": -1}, "<=", -10)],
                     65535, ["x"])
        res = decide_sat(cube)
        assert replay_witness(cube, res.witness)

    def test_weakened_cube_rejects_witness(self):
        cube = boxed([con({"x": 1}, "<=", 9), con({"x": -1}, "<=", -10)],
                     65535, ["x"])
        res = decide_sat(cube)
        weak = boxed([con({"x": 1}, "<=", 11), con({"x": -1}, "<=", -10)],
                     65535, ["x"])
        assert not replay_witness(weak, res.witness)

    def test_corrupted_multiplier_rejects(self):
        cube = boxed([con({"x": 1}, "<=", 9), con({"x": -1}, "<=", -10)],
                     65535, ["x"])
        res = decide_sat(cube)
        bad_steps = []
        for step in res.witness.steps:
            if isinstance(step, Combine):
                # skew a single multiplier so the combination stops canceling
                (i0, m0), *rest = step.terms
                bad_steps.append(Combine(((i0, m0 + 1),) + tuple(rest)))
            else:
                bad_steps.append(step)
        assert not replay_witness(cube, Witness(tuple(bad_steps)))

    def test_negative_multiplier_on_inequality_rejects(self):
        cube = (con({"x": 1}, "<=", 5),)
        w = Witness((Combine(((0, -1),)),))
        assert not replay_witness(cube, w)

    def test_out_of_range_index_rejects(self):
        cube = (con({"x": 1}, "<=", 5),)
        assert not replay_witness(cube, Witness((Tighten(7),)))
        assert not replay_witness(cube, Witness((Combine(((9, 1),)),)))

    def test_malformed_objects_never_raise(self):
        cube = (con({"x": 1}, "<=", 5),)
        assert not replay_witness(cube, Witness((object(),)))
        assert not replay_witness(cube, Witness(("combine",)))

    def test_constant_false_base_member_is_a_refutation(self):
        cube = (con({"x": 1}, "<=", 5), LinCon((), "<=", -1))
        assert replay_witness(cube, Witness(()))
        # a step that derives nothing false leaves the base's contradiction
        assert replay_witness(cube, Witness((Tighten(0),)))
        # malformed steps reject, whatever the base holds
        assert not replay_witness(cube, Witness((Tighten(7),)))
        assert not replay_witness(cube, Witness((object(),)))

    def test_empty_combination_rejects(self):
        # the base's contradiction would accept a step that derives nothing
        cube = (con({"x": 1}, "<=", 5), LinCon((), "<=", -1))
        w = Witness((Combine(()),))
        assert not replay_witness(cube, w)
        with pytest.raises(W._Reject, match="^empty combination$"):
            W._replay(list(cube), len(cube), w)

    def test_tighten_on_a_derived_constant_rejects(self):
        # x <= 5 and -x <= 5 combine to the constant 0 <= 10, which has no
        # coefficient to divide by
        cube = (con({"x": 1}, "<=", 5), con({"x": -1}, "<=", 5),
                LinCon((), "<=", -1))
        w = Witness((Combine(((0, 1), (1, 1))), Tighten(3)))
        assert not replay_witness(cube, w)
        with pytest.raises(W._Reject, match="^tighten on constant "
                           "constraint$"):
            W._replay(list(cube), len(cube), w)

    def test_constant_truth_of_a_constraint(self):
        assert LinCon((), "<=", 0).const_true()
        assert LinCon((), "==", 1).const_false()
        for rel in ("<=", "=="):
            c = con({"x": 1}, rel, 0)
            assert not c.const_true() and not c.const_false()

    def test_printer_rejects_a_foreign_step(self):
        with pytest.raises(ValueError, match="^unknown step object$"):
            witness_lines(Witness((Tighten(0), object())))

    def test_valid_witness_never_scans_the_base(self, monkeypatch):
        cube = boxed([con({"x": 1}, "<=", 9), con({"x": -1}, "<=", -10)],
                     65535, ["x"])
        res = decide_sat(cube)
        assert isinstance(res, Unsat)
        asked = []
        const_false = LinCon.const_false

        def counted(self):
            asked.append(self)
            return const_false(self)

        monkeypatch.setattr(LinCon, "const_false", counted)
        assert replay_witness(cube, res.witness)
        # one test per derived constraint, none of a base member, and the
        # replay ends at the witness's last step
        assert len(asked) == len(res.witness.steps)
        assert not set(asked) & set(cube)

    def test_split_replays_and_is_checked(self):
        # rationally feasible, integer infeasible; needs the case split
        cube = _PUGH
        res = decide_sat(cube)
        assert isinstance(res, Unsat)
        assert any(isinstance(s, RangeSplit) for s in res.witness.steps)
        assert replay_witness(cube, res.witness)

    def test_split_range_must_match_bounds(self):
        cube = tuple(bounds("x", 3))
        branches = tuple(Witness(()) for _ in range(4))
        w = Witness((RangeSplit("x", 0, 3, 0, 1, branches),))
        # branches are empty witnesses and x == v is satisfiable: reject
        assert not replay_witness(cube, w)

    def test_replay_cost_is_witness_length(self):
        cube = boxed([con({"x": 1, "y": 2}, "<=", 4),
                      con({"x": -1, "y": -2}, "<=", -9)], 15, ["x", "y"])
        res = decide_sat(cube)
        assert isinstance(res, Unsat)

        def count(w):
            n = 0
            for s in w.steps:
                n += 1
                if isinstance(s, RangeSplit):
                    n += sum(count(b) for b in s.branches)
            return n

        assert count(res.witness) < 200
        assert replay_witness(cube, res.witness)


class TestWitnessText:
    def test_lines_round_trip(self):
        cube = boxed([con({"x": 2}, "<=", 5), con({"x": -2}, "<=", -5)],
                     15, ["x"])
        res = decide_sat(cube)
        lines = witness_lines(res.witness)
        rows = iter(lines)
        again = parse_witness_lines(rows)
        assert next(rows, None) is None  # the block is read to its end
        assert again == res.witness
        assert replay_witness(cube, again)

    def test_decimal_coefficients_per_line(self):
        cube = boxed([con({"x": 1}, "<=", 9), con({"x": -1}, "<=", -10)],
                     65535, ["x"])
        res = decide_sat(cube)
        for line in witness_lines(res.witness)[1:]:
            head = line.split()[0]
            assert head in ("combine", "tighten", "split")

    def test_split_nesting_is_bounded(self):
        def chain(depth):
            return iter(["steps 1", "split x 0 0 0 0"] * depth
                        + ["steps 1", "combine 0*1"])

        w = parse_witness_lines(chain(MAX_SPLIT_NESTING))
        for _ in range(MAX_SPLIT_NESTING):
            w, = w.steps[0].branches
        assert w == Witness((Combine(((0, 1),)),))
        for depth in (MAX_SPLIT_NESTING + 1, 2000):
            with pytest.raises(ParseError, match="split nesting deeper than "
                               f"{MAX_SPLIT_NESTING}$"):
                parse_witness_lines(chain(depth))


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestResourceLimits:
    def test_split_budget_reports_resource_error(self, monkeypatch):
        monkeypatch.setattr(solver, "SPLIT_LIMIT", 0)
        with pytest.raises(LimitExceeded,
                           match="^case split budget 0 exceeded$"):
            decide_sat(_PUGH)

    def test_derived_budget_reports_resource_error(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_DERIVED", 0)
        with pytest.raises(LimitExceeded,
                           match="^more than 0 derived constraints$"):
            decide_sat(_PUGH)

    def test_split_nesting_past_the_bound_is_a_resource_error(
            self, monkeypatch):
        # _PUGH's refutation nests one split
        monkeypatch.setattr(solver, "MAX_SPLIT_NESTING", 1)
        assert isinstance(decide_sat(_PUGH), Unsat)
        monkeypatch.setattr(solver, "MAX_SPLIT_NESTING", 0)
        with pytest.raises(LimitExceeded,
                           match="^split nesting deeper than 0$"):
            decide_sat(_PUGH)

    def test_wide_cube_decides_in_a_shallow_stack(self):
        """Elimination loops over the variables, so a cube of 120 decides
        within 150 frames of the caller's depth."""
        names = [f"x{i:03d}" for i in range(120)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 150)
        try:
            res = decide_sat(boxed([], 255, names))
        finally:
            sys.setrecursionlimit(limit)
        assert isinstance(res, Sat)
        assert res.assignment == dict.fromkeys(names, 0)


def _chain(n: int):
    """An int8 chain x0 <= x1 <= ... <= x(n-1) with 5 <= x0 and
    x(n-1) <= 4: unsatisfiable, and its refutation combines along the
    whole chain, one derivation level per link."""
    names = [f"x{i:04d}" for i in range(n)]
    links = [con({a: 1, b: -1}, "<=", 0) for a, b in zip(names, names[1:])]
    return boxed([con({names[0]: -1}, "<=", -5), *links,
                  con({names[-1]: 1}, "<=", 4)], 255, names)


def _pick_var_by_scan(active):
    """The scorer as it was before indexing: every variable over every
    active node."""
    variables = sorted({v for nd in active for v, _ in nd.con.coeffs})
    if not variables:
        return None
    scored = []
    for var in variables:
        lo_coefs, up_coefs = [], []
        for nd in active:
            c = solver._coeff(nd.con, var)
            if c == 0:
                continue
            if nd.con.rel == "==":
                lo_coefs.append(abs(c))
                up_coefs.append(abs(c))
            elif c > 0:
                up_coefs.append(c)
            else:
                lo_coefs.append(-c)
        exact = (not lo_coefs or not up_coefs
                 or all(c == 1 for c in lo_coefs)
                 or all(c == 1 for c in up_coefs))
        scored.append((not exact, len(lo_coefs) * len(up_coefs), var))
    return min(scored)[2]


class TestElimination:
    def test_pick_var_equals_the_scan(self):
        """The indexed scorer picks what scanning every variable over every
        node picks, on random node lists whose coefficients hold no zero,
        as `decide_sat` requires of every node."""
        rng = random.Random(5)
        names = ["a", "b", "c", "d", "e"]
        for _ in range(3000):
            nodes = []
            for i in range(rng.randrange(0, 7)):
                coeffs = tuple(sorted(
                    (v, rng.choice([-3, -2, -1, -1, 1, 1, 2, 3]))
                    for v in rng.sample(names, rng.randrange(1, 4))))
                rel = "==" if rng.random() < 0.3 else "<="
                nodes.append(solver._Node(LinCon(coeffs, rel, 0), "orig", i))
            assert solver._Solver._pick_var(nodes) == \
                _pick_var_by_scan(nodes), nodes

    def test_decisions_equal_the_scan(self, monkeypatch):
        """Whole decisions, witnesses and assignments included, are those
        of the scanning scorer."""
        rng = random.Random(17)
        cubes = [_random_cube(rng, ncons=6) for _ in range(300)]
        cubes.append(_chain(30))
        indexed = [decision(c) for c in cubes]
        monkeypatch.setattr(solver._Solver, "_pick_var",
                            staticmethod(_pick_var_by_scan))
        assert indexed == [decision(c) for c in cubes]

    def test_long_chain_decides_in_quadratic_time(self):
        """Picking a variable costs one pass over the active nodes, so a
        300-link chain decides in well under a second (scanning every
        variable over every node took seconds)."""
        cube = _chain(300)
        t0 = time.perf_counter()
        res = decide_sat(cube)
        assert time.perf_counter() - t0 < 2.0
        assert isinstance(res, Unsat)
        assert replay_witness(cube, res.witness)

    def test_witness_deeper_than_the_stack_is_a_resource_error(self):
        """Witness extraction recurses once per derivation level; a chain
        whose refutation nests past the recursion limit ends in
        LimitExceeded, which the verifier reports as Undecided."""
        cube = _chain(120)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            with pytest.raises(LimitExceeded, match="nested too deep"):
                decide_sat(cube)
        finally:
            sys.setrecursionlimit(limit)
        assert isinstance(decide_sat(cube), Unsat)


@st.composite
def _hyp_and_joint(draw):
    """A satisfiable hypothesis cube (a drawn point satisfies it; unit
    equalities make substitution passes) and the cube joining it with
    extra members: inequalities of a hypothesis member's coefficients, of
    their negation or of a multiple (equal after tightening) at an equal,
    tighter or looser right-hand side, fresh inequalities (sometimes
    scaled) and, sometimes, an equality.  Few variables and small
    coefficients make keys collide after substitution."""
    hi = draw(st.sampled_from((3, 7)))
    names = ("a", "b", "c")[:draw(st.integers(2, 3))]
    point = {v: draw(st.integers(0, hi)) for v in names}
    coeff = st.sampled_from((-2, -1, 1, 1, 2))

    def shape():
        picked = draw(st.lists(st.sampled_from(names), min_size=1,
                               max_size=3, unique=True))
        return {v: draw(coeff) for v in picked}

    def value(coeffs):
        return sum(c * point[v] for v, c in coeffs.items())

    members = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = shape()
        if draw(st.booleans()):
            coeffs[min(coeffs)] = draw(st.sampled_from((1, -1)))
            members.append(con(coeffs, "==", value(coeffs)))
        else:
            members.append(con(coeffs, "<=",
                               value(coeffs) + draw(st.integers(0, 2))))
    hyp = clean_cube(boxed(members, hi, names))
    extra = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("same", "negated", "scaled", "fresh",
                                     "fresh", "equality")))
        shift = draw(st.integers(-2, 1))
        if kind == "equality":
            coeffs = shape()
            extra.append(con(coeffs, "==", value(coeffs) + shift))
            continue
        if kind == "fresh":  # sometimes a multiple, tightened back
            coeffs, k = shape(), draw(st.sampled_from((1, 2)))
            extra.append(con({v: k * c for v, c in coeffs.items()}, "<=",
                             k * value(coeffs) + shift))
            continue
        base = draw(st.sampled_from(hyp))
        k = {"same": 1, "negated": -1, "scaled": 2}[kind]
        extra.append(LinCon(tuple((v, k * c) for v, c in base.coeffs), "<=",
                            k * base.rhs + shift))
    return hyp, clean_cube(hyp + tuple(extra))


class TestReplayAfterHypothesis:
    """A joint cube decided after its hypothesis cube extends the
    hypothesis's simplification.  Its result may differ from a decision of
    the joint cube from scratch in the witness it gives and, at a budget's
    edge, in raising LimitExceeded; it may not differ in the answer."""

    # tier-1 runs 500 examples; `--hypothesis-profile long` (conftest.py)
    # runs more
    @settings(max_examples=max(500, settings.default.max_examples),
              deadline=None, derandomize=True, database=None)
    @given(_hyp_and_joint())
    def test_extension_decides_as_full_decision(self, pair):
        hyp, joint = pair
        after = decide_sat(hyp)
        assert isinstance(after, Sat)
        res = decide_sat(joint, after=after)
        assert type(res) is type(decide_sat(joint))
        if isinstance(res, Unsat):
            assert replay_witness(joint, res.witness)
        for max_derived in range(9):
            try:
                with mock.patch.object(solver, "MAX_DERIVED", max_derived):
                    small = decide_sat(joint, after=after)
            except LimitExceeded:
                continue
            assert type(small) is type(res)

    @pytest.mark.parametrize("hyp_member, extra", [
        # x == y substitutes x away: the extra x <= 5 becomes y <= 5, which
        # ties the hypothesis's y <= 5
        (con({"y": 1}, "<=", 5),
         (con({"x": 1}, "<=", 5), con({"y": -1}, "<=", -6))),
        # 2x - 3y <= -2 becomes -y <= -2, which ties the hypothesis's -y <= -2
        (con({"y": -1}, "<=", -2),
         (con({"x": 2, "y": -3}, "<=", -2), con({"y": 1}, "<=", 1))),
    ])
    def test_tie_after_substitution_gives_a_valid_refutation(
            self, hyp_member, extra):
        hyp = boxed([con({"x": 1, "y": -1}, "==", 0), hyp_member], 15,
                    ["x", "y"])
        joint = hyp + extra
        res = decide_sat(joint, after=decide_sat(hyp))
        assert isinstance(res, Unsat) and replay_witness(joint, res.witness)
        assert isinstance(decide_sat(joint), Unsat)
        # the tie goes to the hypothesis member, index 1, where a run from
        # scratch keeps the substituted extra member, index 6
        assert any(isinstance(step, Combine) and (1, 1) in step.terms
                   for step in res.witness.steps)

    def test_cube_not_extending_the_hypothesis_is_decided_afresh(self):
        hyp = boxed([con({"x": 1, "y": -1}, "==", 0)], 15, ["x", "y"])
        after = decide_sat(hyp)
        other = boxed([con({"x": 1}, "<=", 4), con({"y": -1}, "<=", -5)],
                      15, ["x", "y"])
        assert decision(other, after=after) == decision(other)
        joint = hyp + (con({"x": 1}, "<=", 4), con({"y": -1}, "<=", -5))
        res = decide_sat(joint, after=after)
        assert isinstance(res, Unsat) and replay_witness(joint, res.witness)


@st.composite
def _two_terms(draw):
    """Two name-sorted constraints without zero coefficients and the
    multipliers a two-term combination takes: either relation, a negative
    one only on an equality.  Some variables get coefficients that cancel
    under the multipliers, and a common factor of the coefficients makes
    tightening divide, often into an equality's right-hand side that it
    does not divide."""
    rels = [draw(st.sampled_from(("<=", "=="))) for _ in range(2)]
    mults = [draw(st.integers(1, 4)) * (draw(st.sampled_from((1, -1)))
                                        if rel == "==" else 1)
             for rel in rels]
    factor = draw(st.sampled_from((1, 1, 2, 3, 6)))
    nonzero = st.integers(-4, 4).filter(bool)
    coeffs: list[dict] = [{}, {}]
    for v in ("a", "b", "c", "d"):
        kind = draw(st.sampled_from(("none", "first", "second", "both",
                                     "cancel")))
        if kind == "cancel":
            t = draw(nonzero)
            coeffs[0][v] = factor * mults[1] * t
            coeffs[1][v] = -factor * mults[0] * t
            continue
        if kind in ("first", "both"):
            coeffs[0][v] = factor * draw(nonzero)
        if kind in ("second", "both"):
            coeffs[1][v] = factor * draw(nonzero)
    for side in coeffs:
        if not side:
            side["e"] = factor
    cons = [con(side, rel, draw(st.integers(-20, 20)))
            for side, rel in zip(coeffs, rels)]
    return cons, mults


def _name_sorted_without_zero(c: LinCon) -> bool:
    names = [v for v, _ in c.coeffs]
    return (all(k for _, k in c.coeffs)
            and all(a < b for a, b in zip(names, names[1:])))


def _obligation_members(model, inv):
    """Every member of every cube that build_obligation gives for the
    cases of *inv*: root cubes, negated-conclusion cubes and split pieces,
    of which every joint cube and split child is made."""
    ctx = O.DerivationContext(model, inv.formula)
    for rule in O.proof_cases(model, None):
        if ctx.framed(rule):
            continue
        ob = O.build_obligation(ctx, rule)
        for dnf in (ob.hyp_cubes, *ob.neg_concl, *ob.splits):
            for cube in dnf:
                yield from cube


class TestDeciderKernels:
    """The decider builds each derived constraint in one pass; the
    checker's general combination and tightening re-derive it."""

    # tier-1 runs 500 examples; `--hypothesis-profile long` (conftest.py)
    # runs more
    @settings(max_examples=max(500, settings.default.max_examples),
              deadline=None, derandomize=True, database=None)
    @given(_two_terms())
    def test_two_term_kernels_equal_the_checkers(self, drawn):
        (a, b), (ma, mb) = drawn
        na, nb = solver._Node(a, "orig", 0), solver._Node(b, "orig", 1)
        combo = solver._combine(na, ma, nb, mb)
        ctx = [a, b]
        assert combo.con == W._combine(ctx, ((0, ma), (1, mb)))
        assert combo.kind == "combine"
        assert combo.args == ((na, ma), (nb, mb))
        assert _name_sorted_without_zero(combo.con)
        tight = solver._tighten_node(combo)
        ctx.append(combo.con)
        if not combo.con.coeffs:  # the checker tightens no constant
            assert tight is combo
        elif tight is combo:  # gcd 1: tightening derives it again
            assert W._tighten(ctx, 2) == combo.con
        else:
            assert tight.kind == "tighten" and tight.args is combo
            assert tight.con == W._tighten(ctx, 2)
            assert _name_sorted_without_zero(tight.con)

    def test_obligation_members_meet_the_merge_precondition(self):
        """decide_sat needs every member's coefficients strictly
        increasing by name, with no zero; build_obligation gives such
        members on the fixtures and on the benchmark charts."""
        charts = []
        for name in fixture_names():
            model = load_model(name)
            charts.append((model, load_invariants(name, model)))
        for mc in benchmark_cases(seeds=(7,)):
            model = parse_model(mc.text)
            charts.append((model, parse_properties(mc.props_text(), model)))
        seen = 0
        for model, invs in charts:
            for inv in invs:
                for member in _obligation_members(model, inv):
                    assert _name_sorted_without_zero(member), member
                    seen += 1
        assert seen > 10_000


def _least_budget(decide) -> int:
    """The smallest MAX_DERIVED at which *decide* decides."""
    lo, hi = 0, solver.MAX_DERIVED
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            with mock.patch.object(solver, "MAX_DERIVED", mid):
                decide()
            hi = mid
        except LimitExceeded:
            lo = mid + 1
    return lo


def _charge(decide):
    """A decision's kind and the derived count its simplification charged,
    or for an Unsat the least budget it decides at."""
    res = decide()
    if isinstance(res, Unsat):
        return "unsat", _least_budget(decide)
    return type(res).__name__.lower(), res.base.derived


def _charges(model, inv) -> dict:
    """Per open case of *inv*: the charge of simplifying its root cube,
    then of deciding each joint cube of the root from that."""
    ctx = O.DerivationContext(model, inv.formula)
    out = {}
    for rule in O.proof_cases(model, None):
        if ctx.framed(rule):
            continue
        ob = O.build_obligation(ctx, rule)
        root = ob.hyp_cubes[0]
        res = solver.simplify(root)
        got = [_charge(lambda: solver.simplify(root))]
        if isinstance(res, Simplified):
            got += [_charge(lambda j=j: decide_sat(j, after=res))
                    for j in O.joint_cubes(root, ob.neg_concl)]
        out[rule.label()] = got
    return out


class TestBudgetCharges:
    """The derived constraints each decision charges, pinned at what the
    decider charged when it combined through a dictionary: a change that
    charges more would turn a decision at a budget's edge into
    LimitExceeded, and so a verdict into Undecided."""

    @pytest.mark.parametrize("width", ["int8", "int16", "int32"])
    def test_lockstep_exec_case(self, width):
        # the chart of the arith workload, at its largest constant
        model, rel = lockstep(width, 12)
        assert _charges(model, rel) == {
            "exec:Inc": [("simplified", 10), ("unsat", 23), ("unsat", 22)]}

    def test_loop_x_capped_ind(self):
        model = load_model("loop")
        inv = next(i for i in load_invariants("loop", model)
                   if i.name == "x_capped_ind")
        assert _charges(model, inv) == {
            "exec:A_Init": [("simplified", 4), ("sat", 5), ("sat", 6)],
            "trans:0": [("simplified", 4), ("unsat", 5), ("unsat", 1)],
            "trans:1": [("simplified", 2), ("sat", 2)],
            "react:Init": [("simplified", 2), ("unsat", 3), ("unsat", 5)]}
