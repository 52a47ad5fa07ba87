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
joint cube: its hypothesis cube plus one negated-conclusion cube) reuses
the hypothesis decision's top-level simplification.  `_simplify` records
each of its passes (work list, dedup table, sorted keys, picked unit
equality, derived count), and `_replay` redoes them for the extra members
alone: it substitutes only an overlay, the extra members' nodes and the
hypothesis keys where one of them won the dedup, and reads every other
node from the record.  The result,
witnesses included, equals a full run, because
  * an extra member's descendants are inequalities (an inequality combined
    with an equality is one), so the equalities and thus the picks are the
    hypothesis's, and no equality clash is new;
  * a substitution maps a key to a key whatever the right-hand side is, and
    substitution and tightening keep the right-hand side order of two nodes
    with equal coefficients;
  * a node of the overlay sits at the scan position of the node it
    replaced (the position of the previous pass's key it came from), so an
    overlay winner keeps beating that node's descendants; against the
    winner of a key that no overlay node replaced, the dedup rule itself
    decides: smaller right-hand side, then earlier position;
  * the hypothesis passes hold no contradiction (it was satisfiable), so
    the first constant-false overlay node in scan order is the clash; and
    the derived-constraint count of a pass is the hypothesis's plus the
    substitutions of overlay keys the hypothesis lacks (an overlaid key
    holds the variable exactly when its hypothesis node does).
Elimination, range split, witness extraction, back-substitution and the
assignment re-check run as for any cube.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

from ..linear import Cube, FragmentError, LimitExceeded, LinCon
from .witness import Combine, RangeSplit, Tighten, Witness


@dataclass
class Sat:
    assignment: dict
    # the top-level simplification of the decided cube, which a decision of
    # an extension of the cube replays (`decide_sat`'s `after`); None when
    # the decision was itself a replay
    trace: _Trace | None = field(default=None, repr=False, compare=False)


@dataclass
class Unsat:
    witness: Witness


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _floor_div(a: int, b: int) -> int:
    return a // b


class _Node:
    """A constraint plus how it was obtained."""

    __slots__ = ("con", "kind", "args")

    def __init__(self, con: LinCon, kind: str, args):
        self.con = con
        self.kind = kind  # orig | assume | combine | tighten
        self.args = args  # orig: cube index; assume: depth;
        #                   combine: ((node, mult), ...); tighten: node

    def __repr__(self):
        return f"_Node({self.con.pretty()}, {self.kind})"


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
        tight = LinCon(coeffs, "<=", _floor_div(con.rhs, g))
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
    def __init__(self, max_derived: int, split_limit: int):
        self.max_derived = max_derived
        self.split_limit = split_limit
        self.derived = 0
        self.split_values = 0

    def count(self, n: int = 1):
        self.derived += n
        if self.derived > self.max_derived:
            raise LimitExceeded(
                f"more than {self.max_derived} derived constraints")

    def count_split(self, n: int):
        self.split_values += n
        if self.split_values > self.split_limit:
            raise LimitExceeded(
                f"case split budget {self.split_limit} exceeded")


def _simplify(cons: list[_Node], limits: _Limits, passes=None):
    """Tighten, deduplicate and substitute unit equalities away.

    The input nodes are tight and each substituted node is tightened when
    it is made, so no node is tightened twice (that would return it
    unchanged).  Returns (active nodes, eliminated (var, eq-node) stack,
    contradiction node or None).  When *passes* is a list, each pass that
    ends without a contradiction appends (work list, dedup table, sorted
    keys, pick, derived count so far) to it, pick being (eq-node, var) or
    None on the last pass.
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
        keys = sorted(best)  # unique
        active = [best[key] for key in keys]
        pick = None
        for nd in active:
            if nd.con.rel != "==":
                continue
            units = [v for v, c in nd.con.coeffs if abs(c) == 1]
            if units:
                pick = (nd, min(units))
                break
        if passes is not None:
            passes.append((work, best, keys, pick, limits.derived))
        if pick is None:
            return active, eliminated, None
        eq, var = pick
        c_eq = _coeff(eq.con, var)
        work = []
        for nd in active:
            if nd is eq:
                continue
            c = _coeff(nd.con, var)
            if c == 0:
                work.append(nd)
            else:
                limits.count()
                work.append(_tighten_node(
                    _combine_nodes(((nd, 1), (eq, -c // c_eq)))))
        eliminated.append((var, eq))


class _Trace(NamedTuple):
    """A decided cube and the passes of its top-level `_simplify`, as that
    records them, for decisions of cubes that extend it (`_replay`)."""

    cube: Cube
    passes: list


def _replay(trace: _Trace, extra: list[_Node], limits: _Limits):
    """`_simplify` of the trace's first work list followed by the
    inequality nodes *extra*, read from the trace's passes; the module
    docstring gives the argument that the results are equal."""
    passes = trace.passes
    eliminated: list[tuple[str, _Node]] = []
    n = len(trace.cube)
    pending = [(n + i, nd) for i, nd in enumerate(extra)]  # scan order
    for p, (_, best, keys, pick, derived) in enumerate(passes):
        over: dict[tuple, tuple] = {}  # key -> (position, node)
        for pos, nd in pending:
            con = nd.con
            if con.is_const():
                if con.const_false():
                    return [], eliminated, nd
                continue
            key = (con.coeffs, con.rel)
            other = over.get(key)
            if other is None or con.rhs < other[1].con.rhs:
                over[key] = (pos, nd)
        # a hypothesis winner whose position the overlay took never wins
        # here: the node there has no larger right-hand side
        for key, (pos, nd) in list(over.items()):
            won = best.get(key)
            if won is None or nd.con.rhs < won.con.rhs:
                continue
            if nd.con.rhs > won.con.rhs or _position(passes, p, won) < pos:
                del over[key]
        if pick is None:
            if over:
                keys = sorted(set(keys).union(over))
            return ([over[key][1] if key in over else best[key]
                     for key in keys], eliminated, None)
        eq, var = pick
        c_eq = _coeff(eq.con, var)
        subs = passes[p + 1][4] - derived  # the hypothesis's, then new keys
        pending = []
        for key in sorted(over):
            nd = over[key][1]
            c = _coeff(nd.con, var)
            if c == 0:
                pending.append((key, nd))
                continue
            if key not in best:
                subs += 1
            pending.append((key, _tighten_node(
                _combine_nodes(((nd, 1), (eq, -c // c_eq))))))
        if subs:
            limits.count(subs)
        eliminated.append((var, eq))


def _position(passes: list, p: int, nd: _Node):
    """Scan position of a node of pass *p*'s work list: its index in the
    first pass and, later, the key of the previous pass it came from."""
    i = passes[p][0].index(nd)
    if p == 0:
        return i
    _, best, keys, (eq, _), _ = passes[p - 1]
    return [key for key in keys if best[key] is not eq][i]


class _Solver:
    def __init__(self, n_orig: int, limits: _Limits):
        self.n_orig = n_orig
        self.limits = limits

    def _solve(self, cons: list[_Node], n_assume: int):
        """Returns ("sat", assignment) or ("unsat", witness)."""
        return self.finish(_simplify(cons, self.limits), n_assume)

    def finish(self, simplified, n_assume: int):
        """Decide from `_simplify`'s result on the cube of this depth."""
        active, eliminated, clash = simplified
        if clash is not None:
            return "unsat", _extract(clash, self.n_orig, n_assume)
        result = self._eliminate(active, n_assume)
        if result[0] == "unsat":
            return result
        assignment = result[1]
        for var, eq in reversed(eliminated):
            coeffs = dict(eq.con.coeffs)
            c = coeffs.pop(var)
            rest = sum(k * assignment[v] for v, k in coeffs.items())
            assignment[var] = (eq.con.rhs - rest) // c
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

    def _eliminate(self, active: list[_Node], n_assume: int):
        variables = sorted({v for nd in active for v, _ in nd.con.coeffs})
        if not variables:
            return "sat", {}
        var = self._pick_var(active, variables)
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

        sub = self._solve(derived, n_assume)
        if sub[0] == "unsat":
            return sub
        assignment = sub[1]
        value = self._pick_value(var, lowers, uppers, assignment)
        if value is not None:
            assignment[var] = value
            return "sat", assignment
        # rational interval holds no integer: exhaust the bounded range
        return self._range_split(active, var, n_assume)

    @staticmethod
    def _pick_var(active, variables):
        """Prefer exact eliminations, then fewest bound pairs, then name."""
        scored = []
        for var in variables:
            lo_coefs, up_coefs = [], []
            for nd in active:
                c = _coeff(nd.con, var)
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
        scored.sort()
        return scored[0][2]

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
            b = _ceil_div(num, eff)  # dividing by eff < 0 flips the relation
            if lo is None or b > lo:
                lo = b
        hi = None
        for nd, sign, eff in uppers:
            num = sign * (nd.con.rhs - rest_of(nd))
            b = _floor_div(num, eff)
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


def decide_sat(cube: Cube, *, after: Sat | None = None,
               max_derived: int = 50_000, split_limit: int = 4096):
    """Sat with a checked assignment, or Unsat with a replayable witness.

    *after* is the result of deciding a prefix of *cube*; when the members
    past that prefix hold no equality, the prefix's simplification is
    replayed (see the module docstring).  Any other cube, or an *after*
    without a trace, is decided from scratch; the result is the same.
    Raises LimitExceeded past *max_derived* derived constraints or
    *split_limit* split values, and FragmentError for an unbounded variable.
    """
    cube = tuple(cube)
    limits = _Limits(max_derived, split_limit)
    trace = None if after is None else after.trace
    passes = None
    if trace is not None and _extends(cube, trace.cube):
        n = len(trace.cube)
        extra = [_tighten_node(_Node(con, "orig", i))
                 for i, con in enumerate(cube[n:], n)]
        simplified = _replay(trace, extra, limits)
    else:
        passes = []
        roots = [_tighten_node(_Node(con, "orig", i))
                 for i, con in enumerate(cube)]
        simplified = _simplify(roots, limits, passes)
    kind, payload = _Solver(len(cube), limits).finish(simplified, 0)
    if kind == "unsat":
        return Unsat(payload)
    for con in cube:
        if not con.evaluate(payload):
            raise AssertionError(
                f"internal error: model fails {con.pretty()}")
    return Sat(payload, None if passes is None else _Trace(cube, passes))


def _extends(cube: Cube, prefix: Cube) -> bool:
    """*cube* is *prefix* followed by members that hold no equality."""
    n = len(prefix)
    for con in cube[n:]:  # the few extra members first: cheaper
        if con.rel == "==":
            return False
    return cube[:n] == prefix
