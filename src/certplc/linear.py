"""Linear integer constraints and normalization of boolean expressions.

``lower`` is the one walk of the boolean connectives into disjunctive
normal form; ``normalize`` lowers guards and invariant atoms through it to
disjunctions of conjunctions of linear constraints over unbounded integers.
Modular wraparound is made exact by a quotient: at width w, an operand's
raw linear form L stands for L - q*2**w under the range constraints
0 <= L - q*2**w <= 2**w - 1, which pin q to floor(L / 2**w).  A form with
one feasible quotient gets q as a constant.  A form with more gets the
integer variable ``wrap:<w>:<L>`` (see ``quotient_var``), bounded by the
cube members q_lo <= q <= q_hi; equal forms at one width share it, which
is exact because the range constraints pin it.  So a comparison is one
cube, and the output is plain Presburger arithmetic that agrees with
wrapped evaluation on every memory.

Each operand's bounds span the quotients of the pairs (one quotient per
operand) that a comparison keeps; a pair is dropped when the operands'
wrapped ranges (each interval over the width bounds, clipped to
0..2**w - 1) leave the comparison no value.  The one cube denotes the
same states as the disjunction of one cube per kept pair.  A kept pair's
cube is the one cube with q set to the pair, which the bounds allow.
Conversely, a memory within the width bounds that satisfies the one cube
pins a pair inside the box of the bounds, and a pair in that box that was
dropped has no solution within those bounds, which every normalized cube
carries; so the pair was kept and its cube holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import NamedTuple

from . import expr as E


class FragmentError(Exception):
    """Expression or cube outside the bounded linear fragment."""


class LimitExceeded(Exception):
    """A cap or budget was exceeded: disjuncts, wrap quotients, the
    decider's derived constraints, split values and split nesting, or the
    explorer's state budget (``semantics.BudgetExceeded``)."""


# the most disjuncts of a DNF and wrap quotients of an operand, read at each
# call; lowering past it raises LimitExceeded
CAP = 512


@dataclass(frozen=True)
class LinForm:
    """Linear form: sum of coeff * var plus a constant."""

    coeffs: tuple[tuple[str, int], ...]  # sorted by name, no zero entries
    const: int = 0

    @staticmethod
    def make(coeffs: dict[str, int], const: int = 0) -> "LinForm":
        items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return LinForm(items, const)

    @staticmethod
    def of_var(name: str) -> "LinForm":
        return LinForm(((name, 1),), 0)

    @staticmethod
    def of_const(n: int) -> "LinForm":
        return LinForm((), n)

    def add(self, other: "LinForm") -> "LinForm":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs:
            coeffs[v] = coeffs.get(v, 0) + c
        return LinForm.make(coeffs, self.const + other.const)

    def sub(self, other: "LinForm") -> "LinForm":
        return self.add(other.scale(-1))

    def scale(self, k: int) -> "LinForm":
        if k == 0:
            return LinForm((), 0)
        return LinForm(tuple((v, c * k) for v, c in self.coeffs),
                       self.const * k)

    def shift(self, k: int) -> "LinForm":
        return LinForm(self.coeffs, self.const + k)

    def is_const(self) -> bool:
        return not self.coeffs

    def interval(self, bounds) -> tuple[int, int]:
        """Value range given per-variable (lo, hi) bounds."""
        lo = hi = self.const
        for v, c in self.coeffs:
            blo, bhi = bounds(v)
            if c >= 0:
                lo += c * blo
                hi += c * bhi
            else:
                lo += c * bhi
                hi += c * blo
        return lo, hi

    def evaluate(self, assignment) -> int:
        return self.const + sum(c * assignment[v] for v, c in self.coeffs)


class LinCon(NamedTuple):
    """Constraint ``sum(coeffs) REL rhs`` with REL one of <= or ==."""

    coeffs: tuple[tuple[str, int], ...]
    rel: str  # "<=" | "=="
    rhs: int

    @staticmethod
    def make(form: LinForm, rel: str, rhs: int) -> "LinCon":
        # form REL rhs  with the form's constant folded into the rhs
        return LinCon(form.coeffs, rel, rhs - form.const)

    def is_const(self) -> bool:
        return not self.coeffs

    def const_true(self) -> bool:
        if not self.is_const():
            return False
        return 0 <= self.rhs if self.rel == "<=" else self.rhs == 0

    def const_false(self) -> bool:
        return self.is_const() and not self.const_true()

    def evaluate(self, assignment) -> bool:
        n = sum(c * assignment[v] for v, c in self.coeffs)
        return n <= self.rhs if self.rel == "<=" else n == self.rhs


Cube = tuple  # tuple[LinCon, ...]
Dnf = tuple   # tuple[Cube, ...], every cube clean (see clean_cube)

TRUE_DNF: Dnf = ((),)
FALSE_DNF: Dnf = ()


def attach_bounds(cube: Cube, env: dict[str, str]) -> Cube:
    """Append width bounds, in order of first occurrence, for the variables
    of the clean *cube* that it lacks; the result is clean.  A quotient
    variable gets none: its bounds are members of every cube holding it."""
    names: dict[str, None] = {}
    present = set()
    for con in cube:
        if len(con.coeffs) == 1 and con.rel == "<=":  # maybe a bound
            present.add((con.coeffs[0], con.rhs))
        for v, _ in con.coeffs:
            names[v] = None
    extra = []
    for v in names:
        if v.startswith(WRAP_PREFIX):
            continue
        ty = env.get(v)
        if ty is None:
            raise FragmentError(f"no declaration for variable {v!r}")
        for bound in _width_bounds(v, ty):
            if (bound.coeffs[0], bound.rhs) not in present:
                extra.append(bound)
    return cube + tuple(extra)


@lru_cache(maxsize=4096)
def _width_bounds(v: str, ty: str) -> tuple[LinCon, LinCon]:
    """0 <= v <= max as -v <= 0 and v <= max."""
    return (LinCon(((v, -1),), "<=", 0), LinCon(((v, 1),), "<=", E.max_of(ty)))


def clean_cube(cube: Cube) -> Cube | None:
    """Drop duplicates and constant-true members; None if constant-false.
    Run where a cube is built from raw constraints: Dnf cubes are clean."""
    out = []
    seen = set()
    for con in cube:
        if con.is_const():
            if con.const_false():
                return None
            continue
        if con not in seen:
            seen.add(con)
            out.append(con)
    return tuple(out)


def dnf_or(a: Dnf, b: Dnf) -> Dnf:
    out = a + b
    if len(out) > CAP:
        raise LimitExceeded(f"{len(out)} disjuncts exceed cap {CAP}")
    return out


# --- lowering expressions -------------------------------------------------

class LinDomain:
    """Symbolic value domain: raw linear forms over the pre-state.

    ``wrap`` is the identity: consumers wrap once at the end, which is exact
    because arithmetic at one width is congruent mod 2**w.  Comparisons,
    muxes and products of two non-constant forms are outside the fragment.
    The concrete counterpart is ``expr.IntDomain``.
    """

    @staticmethod
    def const(v: int | bool) -> LinForm:
        return LinForm.of_const(int(v))

    add = staticmethod(LinForm.add)
    sub = staticmethod(LinForm.sub)

    @staticmethod
    def mul(a: LinForm, b: LinForm) -> LinForm:
        if a.is_const():
            return b.scale(a.const)
        if b.is_const():
            return a.scale(b.const)
        raise FragmentError("multiplication of two non-constant expressions")

    @staticmethod
    def cmp(op: str, a: LinForm, b: LinForm) -> LinForm:
        raise FragmentError(f"comparison {op!r} has no linear form")

    @staticmethod
    def mux(sel: LinForm, a: LinForm, b: LinForm) -> LinForm:
        raise FragmentError("mux has no linear form")

    @staticmethod
    def wrap(form: LinForm, ty: str) -> LinForm:
        return form


def linear_form(e: E.Expr, subst=None) -> LinForm:
    """Raw linear form of an integer expression (no wrapping applied).

    Booleans read as 0/1: literals and variables directly, ``!a`` as
    ``1 - a``.  *subst* optionally maps variable names to linear forms;
    unmapped variables stand for themselves.
    """
    if isinstance(e, E.BoolLit):
        return LinDomain.const(e.value)
    if isinstance(e, E.Not):
        return LinForm.of_const(1).sub(linear_form(e.arg, subst))
    return _int_form(e, subst)


def _int_form(e: E.Expr, subst) -> LinForm:
    """``E.fold_int(e, LinDomain, read)``, except that a sum gathers its
    operands' coefficients in one dict: folding it with ``LinForm.add``
    would copy them once per operand, quadratic in the sum's length.  A
    product likewise multiplies its constant factors first and scales its
    one non-constant factor once, not once per factor."""
    if isinstance(e, E.Var):
        if subst is not None and e.name in subst:
            return subst[e.name]
        return LinForm.of_var(e.name)
    if isinstance(e, E.IntLit):
        return LinDomain.const(e.value)
    if isinstance(e, E.Sum):
        coeffs: dict[str, int] = {}
        const = 0
        for arg, sign in zip(e.args, e.signs):
            form = _int_form(arg, subst)
            for v, c in form.coeffs:
                coeffs[v] = coeffs.get(v, 0) + sign * c
            const += sign * form.const
        return LinForm.make(coeffs, const)
    if isinstance(e, E.Prod):
        k, form = 1, None
        for arg in e.args:
            f = _int_form(arg, subst)
            if f.is_const():
                k *= f.const
            elif form is None:
                form = f
            else:  # two non-constant factors: mul raises
                form = LinDomain.mul(form, f)
            if k == 0:  # the product so far is the constant 0
                form = None
        return LinDomain.const(k) if form is None else form.scale(k)
    raise FragmentError(
        f"expected integer expression, got {type(e).__name__}")


_NEG_OP = {"<": ">=", "<=": ">", "==": "!=", "!=": "==", ">=": "<", ">": "<="}


WRAP_PREFIX = "wrap:"


def quotient_var(bits: int, form: LinForm) -> str:
    """The quotient variable of *form* at *bits*: ``wrap:<bits>:`` and the
    form's ``c*v`` terms and constant, comma separated.  No model
    identifier holds a colon, so it names no declared variable, and the
    verifier and the checker derive the same name from the form alone."""
    terms = [f"{c}*{v}" for v, c in form.coeffs] + [str(form.const)]
    return f"{WRAP_PREFIX}{bits}:{','.join(terms)}"


def quotients(form: LinForm, bits: int, bounds) -> tuple[int, int]:
    """The least and greatest wrap quotient of *form* at *bits*:
    floor(v / 2**bits) for v at each end of its interval.  Raises
    LimitExceeded when there are more than CAP."""
    lo, hi = form.interval(bounds)
    q_lo, q_hi = lo >> bits, hi >> bits
    if q_hi - q_lo >= CAP:
        # the count can be too long to print, so the message names the cap
        raise LimitExceeded(f"wrap quotients exceed cap {CAP}")
    return q_lo, q_hi


def wrapped(form: LinForm, bits: int, q_lo: int, q_hi: int):
    """(form - q*2**bits, its members): the range constraints
    0 <= form - q*2**bits <= 2**bits - 1, then, unless q_lo == q_hi makes
    q that constant, the bounds q_lo <= q <= q_hi of the quotient
    variable q."""
    modulus = 1 << bits
    if q_lo == q_hi:
        out, bound = form.shift(-q_lo * modulus), ()
    else:
        q = quotient_var(bits, form)
        out = form.add(LinForm(((q, -modulus),)))
        bound = (LinCon(((q, -1),), "<=", -q_lo),
                 LinCon(((q, 1),), "<=", q_hi))
    side = (LinCon.make(out.scale(-1), "<=", 0),
            LinCon.make(out, "<=", modulus - 1))
    return out, side + bound


# a OP b  exactly when  s * (a - b) REL rhs
_CMP = {"<": (1, "<=", -1), "<=": (1, "<=", 0), "==": (1, "==", 0),
        ">=": (-1, "<=", 0), ">": (-1, "<=", -1)}


def _cmp_atom(op: str, la: LinForm, lb: LinForm, bits: int, bounds) -> Dnf:
    """One cube, each operand wrapped over the quotients of the pairs
    that OP keeps (the module docstring says which, and why the cube is
    exact); no cube when it keeps none.  Two constant operands compare at
    once, wrapped: the scan would keep their one pair, or none, and the
    cube's members would all be constant."""
    if op == "!=":
        return dnf_or(_cmp_atom("<", la, lb, bits, bounds),
                      _cmp_atom(">", la, lb, bits, bounds))
    s, rel, rhs = _CMP[op]
    top = (1 << bits) - 1
    if la.is_const() and lb.is_const():  # the operands wrap to constants
        d = s * ((la.const & top) - (lb.const & top))
        return TRUE_DNF if (d <= rhs if rel == "<=" else d == rhs) \
            else FALSE_DNF
    ranges = []  # per operand: each quotient and its clipped range
    for form in (la, lb):
        q_lo, q_hi = quotients(form, bits, bounds)
        lo, hi = form.interval(bounds)
        ranges.append([(q, max(lo - (q << bits), 0),
                        min(hi - (q << bits), top))
                       for q in range(q_lo, q_hi + 1)])
    kept_a, kept_b = set(), set()
    for qa, alo, ahi in ranges[0]:
        for qb, blo, bhi in ranges[1]:
            # the range of s * (a - b), both wrapped operands within 0..top
            dlo, dhi = sorted((s * (alo - bhi), s * (ahi - blo)))
            if dlo > rhs or (rel == "==" and dhi < rhs):
                continue
            kept_a.add(qa)
            kept_b.add(qb)
    if not kept_a:
        return FALSE_DNF
    wa, members_a = wrapped(la, bits, min(kept_a), max(kept_a))
    wb, members_b = wrapped(lb, bits, min(kept_b), max(kept_b))
    cube = clean_cube(members_a + members_b + (
        LinCon.make(wa.sub(wb).scale(s), rel, rhs),))
    return FALSE_DNF if cube is None else (cube,)


def lower(e: E.Expr, negate: bool, leaf) -> Dnf:
    """DNF of a boolean expression (its negation with *negate*), negation
    pushed to the leaves: every node other than a literal or connective goes
    to ``leaf(node, negate)``.  Raises LimitExceeded past CAP disjuncts.
    A chain's operands are lowered and joined left to right, as in a
    left-deep chain of binary nodes: same cubes, same point of overflow."""
    if isinstance(e, E.BoolLit):
        return FALSE_DNF if e.value == negate else TRUE_DNF
    if isinstance(e, E.Not):
        return lower(e.arg, not negate, leaf)
    if isinstance(e, (E.And, E.Or)):
        parts = (lower(arg, negate, leaf) for arg in e.args)
        if isinstance(e, E.And) != negate:
            return conjoin(parts)
        return reduce(dnf_or, parts)
    return leaf(e, negate)


def conjoin(dnfs) -> Dnf:
    """The one cube join: each cube of the product of *dnfs*, left to
    right, is its left cube followed by the members of the next DNF's cube
    that it lacks, which equals ``clean_cube`` of their concatenation.
    An empty sequence gives ``TRUE_DNF``.  A cube joined with a one-cube
    DNF grows in place next to its member set, so a chain of n one-cube
    operands is joined in time linear in n; a member set is built only
    for a cube that is joined again.  Consumes *dnfs* one at a time, after
    each join, and raises LimitExceeded before a product past CAP cubes."""
    acc = [[[], set()]]  # each cube's members, and their set once needed
    for b in dnfs:
        if len(acc) * len(b) > CAP:
            raise LimitExceeded(f"{CAP + 1} disjuncts exceed cap {CAP}")
        for entry in acc:
            if entry[1] is None:
                entry[1] = set(entry[0])
        if len(b) == 1:
            for cube, have in acc:
                new = [c for c in b[0] if c not in have]
                cube.extend(new)
                have.update(new)
        else:
            acc = [[cube + [c for c in cb if c not in have], None]
                   for cube, have in acc for cb in b]
    return tuple([tuple(cube) for cube, _ in acc])


def normalize(e: E.Expr, env: dict[str, str], *, subst=None,
              negate=False) -> Dnf:
    """Lower a boolean expression to DNF over linear constraints.

    Every cube carries width bounds for each variable it mentions.  With
    *negate* the result describes the expression's negation.  *subst* maps
    variable names to linear forms over other declared variables; it is used
    for symbolic post-state reasoning and applies to arithmetic atoms only.
    """
    leaf = partial(_lower_atom, env=env, subst=subst)
    return tuple(attach_bounds(cube, env) for cube in lower(e, negate, leaf))


def bounds_fn(env):
    def bounds(name):
        ty = env.get(name)
        if ty is None:
            raise FragmentError(f"no declaration for variable {name!r}")
        return 0, E.max_of(ty)
    return bounds


def _lower_atom(e, negate, env, subst) -> Dnf:
    """DNF of a boolean variable or a comparison, wraparound made exact."""
    if isinstance(e, E.Var):
        ty = env.get(e.name)
        if ty is None:
            raise FragmentError(f"unbound variable {e.name!r}")
        if ty != "bool":
            raise FragmentError(f"integer variable {e.name!r} used as condition")
        want = 0 if negate else 1
        cube = clean_cube((LinCon.make(linear_form(e, subst), "==", want),))
        return FALSE_DNF if cube is None else (cube,)
    if isinstance(e, E.Cmp):
        if e.width is None:
            raise E.ExprError(f"comparison {e.op!r} was not typechecked")
        op = _NEG_OP[e.op] if negate else e.op
        la = linear_form(e.lhs, subst)
        lb = linear_form(e.rhs, subst)
        return _cmp_atom(op, la, lb, E.bits_of(e.width), bounds_fn(env))
    raise FragmentError(f"not a boolean expression: {type(e).__name__}")
