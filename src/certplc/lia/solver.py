"""Satisfiability of linear integer constraint conjunctions.

Variable elimination in the style of the Omega test: unit equalities are
substituted away, every derived inequality is gcd-tightened, and variables
are eliminated by combining lower and upper bounds (variables with a unit
coefficient on one side go first, where the shadow is exact for integers).
Because every cube carries finite width bounds, an integrality gap left by
inexact elimination is closed by an exhaustive case split over the
variable's bounded range, so the procedure is complete on the fragment.

Every derived constraint remembers its provenance; refutations unwind into
witnesses that `witness.replay_witness` checks without search.  Satisfying
assignments are re-checked against the input cube before being returned.

A cube that extends a satisfiable one by inequalities (an inductive case's
joint cube: its hypothesis cube plus one negated-conclusion cube) is
decided from the hypothesis decision's simplification (`Sat.base`): each
extra member is substituted through the hypothesis's eliminated
equalities, in order, and one `_simplify` runs over the hypothesis's
active nodes followed by those members.  The result is valid because
  * substitution and tightening keep provenance, so every refutation
    unwinds into a witness of the whole cube that `replay_witness` checks;
  * the assignment is back-substituted through the eliminated stack and
    re-checked against every member of the cube; and
  * elimination and range split run on an active set equivalent to the
    cube (with the eliminated variables' definitions), as for any cube.
It is not always the from-scratch decision.  Where a substituted member
ties a hypothesis node at an intermediate pass, a from-scratch run keeps
the node of the earlier scan position while the extension keeps the
hypothesis node, so the witness differs (and is as valid).  And the
extension charges the hypothesis's derived constraints plus every
substitution of the extra members, at least what a from-scratch run
charges, so at a budget's edge it may raise LimitExceeded where a
from-scratch run decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

from ..linear import Cube, FragmentError, LimitExceeded, LinCon
from .witness import (MAX_SPLIT_NESTING, Combine, RangeSplit, Tighten,
                      Witness)


@dataclass
class Sat:
    assignment: dict
    # the decided cube's top-level simplification, which a decision of an
    # extension of the cube extends (`decide_sat`'s `after`)
    base: _Base = field(repr=False, compare=False)


@dataclass
class Unsat:
    witness: Witness


# the decider's budgets, read at each call: the most derived constraints
# and range-split values of one decision, past which it raises
# LimitExceeded
MAX_DERIVED = 50_000
SPLIT_LIMIT = 4096


class _Node:
    """A constraint plus how it was obtained."""

    __slots__ = ("con", "kind", "args")

    def __init__(self, con: LinCon, kind: str, args):
        self.con = con
        self.kind = kind  # orig | assume | combine | tighten
        self.args = args  # orig: cube index; assume: depth;
        #                   combine: ((node, mult), ...); tighten: node


def _combine_nodes(terms) -> _Node:
    coeffs: dict[str, int] = {}
    rhs = 0
    rel = "=="
    for node, mult in terms:
        con = node.con
        if con.rel == "<=":
            rel = "<="
        for v, c in con.coeffs:
            coeffs[v] = coeffs.get(v, 0) + mult * c
        rhs += mult * con.rhs
    items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
    return _Node(LinCon(items, rel, rhs), "combine", tuple(terms))


def _coeff(con: LinCon, var: str) -> int:
    for v, c in con.coeffs:
        if v == var:
            return c
    return 0


def _tighten_node(node: _Node) -> _Node:
    con = node.con
    g = 0
    for _, c in con.coeffs:
        g = gcd(g, abs(c))
    if g <= 1:
        return node
    coeffs = tuple((v, c // g) for v, c in con.coeffs)
    if con.rel == "<=":
        tight = LinCon(coeffs, "<=", con.rhs // g)
    elif con.rhs % g != 0:
        tight = LinCon((), "<=", -1)
    else:
        tight = LinCon(coeffs, "==", con.rhs // g)
    if tight == con:
        return node
    return _Node(tight, "tighten", node)


def _emit(node: _Node, steps: list, index: dict, n_orig: int,
          n_assume: int) -> int:
    """Append the derivation chain of `node`, returning its context index."""
    got = index.get(id(node))
    if got is not None:
        return got
    if node.kind == "orig":
        idx = node.args
    elif node.kind == "assume":
        idx = n_orig + node.args
    elif node.kind == "combine":
        terms = tuple((_emit(p, steps, index, n_orig, n_assume), m)
                      for p, m in node.args)
        steps.append(Combine(terms))
        idx = n_orig + n_assume + len(steps) - 1
    elif node.kind == "tighten":
        parent = _emit(node.args, steps, index, n_orig, n_assume)
        steps.append(Tighten(parent))
        idx = n_orig + n_assume + len(steps) - 1
    else:
        raise AssertionError(node.kind)
    index[id(node)] = idx
    return idx


def _extract(node: _Node, n_orig: int, n_assume: int) -> Witness:
    steps: list = []
    _emit(node, steps, {}, n_orig, n_assume)
    return Witness(tuple(steps))


class _Limits:
    def __init__(self):
        self.derived = 0
        self.split_values = 0

    def count(self, n: int = 1):
        self.derived += n
        if self.derived > MAX_DERIVED:
            raise LimitExceeded(f"more than {MAX_DERIVED} derived constraints")

    def count_split(self, n: int):
        self.split_values += n
        if self.split_values > SPLIT_LIMIT:
            raise LimitExceeded(f"case split budget {SPLIT_LIMIT} exceeded")


def _simplify(cons: list[_Node], limits: _Limits):
    """Tighten, deduplicate and substitute unit equalities away.

    The input nodes are tight and each substituted node is tightened when
    it is made, so no node is tightened twice (that would return it
    unchanged).  Returns (active nodes, eliminated (var, eq-node) stack,
    contradiction node or None).
    """
    eliminated: list[tuple[str, _Node]] = []
    work = cons
    while True:
        best: dict[tuple, _Node] = {}
        for nd in work:
            con = nd.con
            if con.is_const():
                if con.const_false():
                    return [], eliminated, nd
                continue
            key = (con.coeffs, con.rel)
            other = best.get(key)
            if other is None:
                best[key] = nd
            elif con.rel == "<=":
                if con.rhs < other.con.rhs:
                    best[key] = nd
            elif con.rhs != other.con.rhs:
                limits.count()
                return [], eliminated, _combine_nodes(((nd, 1), (other, -1)))
        active = [best[key] for key in sorted(best)]
        pick = None
        for nd in active:
            if nd.con.rel != "==":
                continue
            units = [v for v, c in nd.con.coeffs if abs(c) == 1]
            if units:
                pick = (nd, min(units))
                break
        if pick is None:
            return active, eliminated, None
        eq, var = pick
        work = []
        for nd in active:
            if nd is not eq:
                work.append(_substitute(nd, var, eq, limits))
        eliminated.append((var, eq))


def _substitute(nd: _Node, var: str, eq: _Node, limits: _Limits) -> _Node:
    """*nd* with *var* replaced through the unit equality *eq*, tightened;
    *nd* itself when it does not hold *var*."""
    c = _coeff(nd.con, var)
    if c == 0:
        return nd
    limits.count()
    return _tighten_node(
        _combine_nodes(((nd, 1), (eq, -c // _coeff(eq.con, var)))))


class _Base(NamedTuple):
    """A decided cube, its top-level `_simplify`'s active nodes and
    eliminated stack, and the derived count at that point."""

    cube: Cube
    active: list
    eliminated: list
    derived: int


def _extend(base: _Base, cube: Cube, limits: _Limits):
    """`_simplify`'s result for *cube*, which extends *base*'s cube, from
    *base*; the module docstring says how it can differ from a run over
    the whole cube."""
    limits.count(base.derived)
    extra = []
    for i, con in enumerate(cube[len(base.cube):], len(base.cube)):
        nd = _tighten_node(_Node(con, "orig", i))
        for var, eq in base.eliminated:
            nd = _substitute(nd, var, eq, limits)
        extra.append(nd)
    active, eliminated, clash = _simplify(base.active + extra, limits)
    return active, base.eliminated + eliminated, clash


def _back_substitute(assignment: dict, eliminated) -> None:
    """Give each variable of an eliminated stack, innermost first, the value
    its unit equality leaves."""
    for var, eq in reversed(eliminated):
        coeffs = dict(eq.con.coeffs)
        c = coeffs.pop(var)
        rest = sum(k * assignment[v] for v, k in coeffs.items())
        assignment[var] = (eq.con.rhs - rest) // c


class _Solver:
    def __init__(self, n_orig: int, limits: _Limits):
        self.n_orig = n_orig
        self.limits = limits

    def _solve(self, cons: list[_Node], n_assume: int):
        """Returns ("sat", assignment) or ("unsat", witness)."""
        return self.finish(_simplify(cons, self.limits), n_assume)

    def finish(self, simplified, n_assume: int):
        """Decide from `_simplify`'s result on the cube of this depth.

        Eliminates one variable per level in a loop, keeping each level's
        active nodes, eliminated stack, variable and bounds; then unwinds
        from the innermost level: picks each level's value (a range split
        at a level whose rational interval holds no integer) and
        back-substitutes its eliminated stack.  Only a range split nests,
        one level per split."""
        levels = []
        while True:
            active, eliminated, clash = simplified
            if clash is not None:
                return "unsat", _extract(clash, self.n_orig, n_assume)
            var = self._pick_var(active)
            if var is None:
                break
            lowers, uppers, rest = self._entries(active, var)
            derived = list(rest)
            for lnd, lsign, leff in lowers:
                for und, usign, ueff in uppers:
                    if lnd is und:
                        continue
                    self.limits.count()
                    combo = _combine_nodes(((lnd, ueff * lsign),
                                            (und, -leff * usign)))
                    combo = _tighten_node(combo)
                    if combo.con.const_false():
                        return "unsat", _extract(combo, self.n_orig, n_assume)
                    if not (combo.con.is_const() and combo.con.const_true()):
                        derived.append(combo)
            levels.append((active, eliminated, var, lowers, uppers))
            simplified = _simplify(derived, self.limits)
        assignment: dict = {}
        _back_substitute(assignment, eliminated)
        for active, eliminated, var, lowers, uppers in reversed(levels):
            value = self._pick_value(var, lowers, uppers, assignment)
            if value is not None:
                assignment[var] = value
            else:
                # rational interval holds no integer: exhaust the range
                result = self._range_split(active, var, n_assume)
                if result[0] == "unsat":
                    return result
                assignment = result[1]
            _back_substitute(assignment, eliminated)
        return "sat", assignment

    # An "entry" reads a node as the inequality sign*con: equalities give
    # entries of both signs, inequalities only sign +1.  Combining entry
    # weights w >= 0 translates to node multipliers w*sign, which replay
    # accepts (equalities take either sign).

    @staticmethod
    def _entries(nodes, var):
        lowers, uppers, rest = [], [], []
        for nd in nodes:
            c = _coeff(nd.con, var)
            if c == 0:
                rest.append(nd)
                continue
            signs = (1, -1) if nd.con.rel == "==" else (1,)
            for sign in signs:
                eff = c * sign
                entry = (nd, sign, eff)
                if eff > 0:
                    uppers.append(entry)
                else:
                    lowers.append(entry)
        return lowers, uppers, rest

    @staticmethod
    def _pick_var(active):
        """Prefer exact eliminations, then fewest bound pairs, then name;
        None when no active node holds a variable.  One pass over the
        nodes' coefficients tallies, per variable, its lower and upper
        bound entries and whether each side's coefficients are all 1."""
        # var -> [lowers, uppers, lowers all unit, uppers all unit]
        tally: dict[str, list] = {}
        for nd in active:
            eq = nd.con.rel == "=="
            for var, c in nd.con.coeffs:
                t = tally.get(var)
                if t is None:
                    t = tally[var] = [0, 0, True, True]
                if c == 0:
                    continue
                unit = c == 1 or c == -1
                if eq or c < 0:
                    t[0] += 1
                    t[2] = t[2] and unit
                if eq or c > 0:
                    t[1] += 1
                    t[3] = t[3] and unit
        best = None
        for var, (lo, up, unit_lo, unit_up) in tally.items():
            exact = not lo or not up or unit_lo or unit_up
            score = (not exact, lo * up, var)
            if best is None or score < best:
                best = score
        return None if best is None else best[2]

    def _pick_value(self, var, lowers, uppers, assignment):
        """Integer in the interval the bounds leave for var, or None."""
        def rest_of(nd):
            total = 0
            for v, k in nd.con.coeffs:
                if v == var:
                    continue
                if v not in assignment:
                    raise FragmentError(
                        f"variable {v!r} has no bounds in the cube")
                total += k * assignment[v]
            return total

        lo = None
        for nd, sign, eff in lowers:
            num = sign * (nd.con.rhs - rest_of(nd))
            b = -(-num // eff)  # ceil; dividing by eff < 0 flips the relation
            if lo is None or b > lo:
                lo = b
        hi = None
        for nd, sign, eff in uppers:
            num = sign * (nd.con.rhs - rest_of(nd))
            b = num // eff
            if hi is None or b < hi:
                hi = b
        if lo is None or hi is None:
            raise FragmentError(f"variable {var!r} is unbounded")
        if lo > hi:
            return None
        return lo

    def _unit_bounds(self, active, var):
        """Single-variable bounds on var among the (tight, so
        unit-coefficient) active nodes."""
        lo = hi = None
        lo_nd = hi_nd = None
        for nd in active:
            con = nd.con
            if con.rel != "<=" or len(con.coeffs) != 1:
                continue
            v, c = con.coeffs[0]
            if v != var:
                continue
            if c == 1:
                if hi is None or con.rhs < hi:
                    hi, hi_nd = con.rhs, nd
            else:
                b = -con.rhs
                if lo is None or b > lo:
                    lo, lo_nd = b, nd
        return lo, hi, lo_nd, hi_nd

    def _range_split(self, active: list[_Node], var: str, n_assume: int):
        lo, hi, lo_nd, hi_nd = self._unit_bounds(active, var)
        if lo is None or hi is None:
            raise FragmentError(f"variable {var!r} is unbounded")
        if lo > hi:
            self.limits.count()
            combo = _tighten_node(_combine_nodes(((lo_nd, 1), (hi_nd, 1))))
            if not combo.con.const_false():
                raise AssertionError("expected contradiction from bounds")
            return "unsat", _extract(combo, self.n_orig, n_assume)
        if n_assume == MAX_SPLIT_NESTING:  # n_assume splits enclose this one
            raise LimitExceeded(
                f"split nesting deeper than {MAX_SPLIT_NESTING}")
        self.limits.count_split(hi - lo + 1)
        branches = []
        for value in range(lo, hi + 1):
            assume = _Node(LinCon(((var, 1),), "==", value), "assume",
                           n_assume)
            sub = self._solve(active + [assume], n_assume + 1)
            if sub[0] == "sat":
                return sub
            branches.append(sub[1])
        steps: list = []
        index: dict = {}
        lo_idx = _emit(lo_nd, steps, index, self.n_orig, n_assume)
        hi_idx = _emit(hi_nd, steps, index, self.n_orig, n_assume)
        steps.append(RangeSplit(var, lo, hi, lo_idx, hi_idx, tuple(branches)))
        return "unsat", Witness(tuple(steps))


def decide_sat(cube: Cube, *, after: Sat | None = None):
    """Sat with a checked assignment, or Unsat with a replayable witness.

    *after* is the result of deciding a prefix of *cube*; when the members
    past that prefix hold no equality, the decision extends the prefix's
    simplification (see the module docstring).  Any other cube is decided
    from scratch, as an extension of the empty cube.  Raises LimitExceeded
    past MAX_DERIVED derived constraints, SPLIT_LIMIT split values or a
    witness nested past the recursion limit, and FragmentError for an
    unbounded variable.
    """
    cube = tuple(cube)
    limits = _Limits()
    extends = after is not None and _extends(cube, after.base.cube)
    base = after.base if extends else _Base((), [], [], 0)
    simplified = _extend(base, cube, limits)
    derived = limits.derived
    try:
        kind, payload = _Solver(len(cube), limits).finish(simplified, 0)
    except RecursionError:
        # `_emit` recurses once per derivation level, which is cheaper than
        # a walk with its own stack; a deeper derivation is a resource limit
        raise LimitExceeded("witness derivation nested too deep for the "
                            "recursion limit") from None
    if kind == "unsat":
        return Unsat(payload)
    for con in cube:
        if not con.evaluate(payload):
            raise AssertionError(f"internal error: model fails {con!r}")
    active, eliminated, _ = simplified
    return Sat(payload, _Base(cube, active, eliminated, derived))


def _extends(cube: Cube, prefix: Cube) -> bool:
    """*cube* is *prefix* followed by members that hold no equality."""
    n = len(prefix)
    for con in cube[n:]:  # the few extra members first: cheaper
        if con.rel == "==":
            return False
    return cube[:n] == prefix
