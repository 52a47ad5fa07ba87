"""Linear integer constraints and normalization of boolean expressions.

Guards and invariant atoms are lowered to disjunctions of conjunctions of
linear constraints over unbounded integers.  Modular wraparound is made
exact by case-splitting: for a comparison at width w, every operand's raw
linear form L is replaced by L - q*2**w for each feasible quotient q (the
range of q is computed from the operands' width bounds), together with the
range constraints 0 <= L - q*2**w <= 2**w - 1.  Each quotient choice
becomes its own disjunct, so the output is plain Presburger arithmetic and
agrees with wrapped evaluation on every memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as E


class FragmentError(Exception):
    """Expression outside the supported linear fragment."""


class CubeOverflow(Exception):
    """Disjunct count exceeded the configured cap."""


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


@dataclass(frozen=True)
class LinCon:
    """Constraint ``sum(coeffs) REL rhs`` with REL one of <= or ==."""

    coeffs: tuple[tuple[str, int], ...]
    rel: str  # "<=" | "=="
    rhs: int

    @staticmethod
    def make(form: LinForm, rel: str, rhs: int) -> "LinCon":
        # form REL rhs  with the form's constant folded into the rhs
        return LinCon(form.coeffs, rel, rhs - form.const)

    def form(self) -> LinForm:
        return LinForm(self.coeffs, 0)

    def is_const(self) -> bool:
        return not self.coeffs

    def const_true(self) -> bool:
        if not self.is_const():
            return False
        return 0 <= self.rhs if self.rel == "<=" else self.rhs == 0

    def const_false(self) -> bool:
        return self.is_const() and not self.const_true()

    def vars(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def evaluate(self, assignment) -> bool:
        n = sum(c * assignment[v] for v, c in self.coeffs)
        return n <= self.rhs if self.rel == "<=" else n == self.rhs

    def pretty(self) -> str:
        if not self.coeffs:
            lhs = "0"
        else:
            parts = []
            for v, c in self.coeffs:
                if c == 1:
                    parts.append(v)
                elif c == -1:
                    parts.append(f"-{v}")
                else:
                    parts.append(f"{c}*{v}")
            lhs = " + ".join(parts).replace("+ -", "- ")
        return f"{lhs} {self.rel} {self.rhs}"


Cube = tuple  # tuple[LinCon, ...]
Dnf = tuple   # tuple[Cube, ...]

TRUE_DNF: Dnf = ((),)
FALSE_DNF: Dnf = ()


def bound_constraints(name: str, ty: str) -> tuple[LinCon, LinCon]:
    lo = LinCon(((name, -1),), "<=", 0)
    hi = LinCon(((name, 1),), "<=", E.max_of(ty))
    return lo, hi


def attach_bounds(cube: Cube, env: dict[str, str]) -> Cube:
    """Add width bounds for every variable occurring in the cube."""
    seen = []
    names = set()
    for con in cube:
        for v in con.vars():
            if v not in names:
                names.add(v)
                seen.append(v)
    extra = []
    for v in seen:
        ty = env.get(v)
        if ty is None:
            raise FragmentError(f"no declaration for variable {v!r}")
        extra.extend(bound_constraints(v, ty))
    return clean_cube(cube + tuple(extra))


def clean_cube(cube: Cube) -> Cube | None:
    """Drop duplicates and constant-true members; None if constant-false."""
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


def dnf_or(a: Dnf, b: Dnf, cap: int) -> Dnf:
    out = a + b
    if len(out) > cap:
        raise CubeOverflow(f"{len(out)} disjuncts exceed cap {cap}")
    return out


def dnf_and(a: Dnf, b: Dnf, cap: int) -> Dnf:
    out = []
    for ca in a:
        for cb in b:
            merged = clean_cube(ca + cb)
            if merged is not None:
                out.append(merged)
            if len(out) > cap:
                raise CubeOverflow(f"{len(out)} disjuncts exceed cap {cap}")
    return tuple(out)


def eval_cube(cube: Cube, assignment) -> bool:
    return all(con.evaluate(assignment) for con in cube)


def eval_dnf(dnf: Dnf, assignment) -> bool:
    return any(eval_cube(c, assignment) for c in dnf)


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

    def read(name):
        if subst is not None and name in subst:
            return subst[name]
        return LinForm.of_var(name)

    try:
        return E.fold_int(e, LinDomain, read)
    except E.ExprError as err:
        raise FragmentError(str(err))


_NEG_OP = {"<": ">=", "<=": ">", "==": "!=", "!=": "==", ">=": "<", ">": "<="}


def wrap_cases(form: LinForm, bits: int, bounds,
               cap: int) -> list[tuple[LinForm, Cube]]:
    """Enumerate wrapped values of *form* at the given width.

    Returns (wrapped form, side conditions) per feasible quotient.  The side
    conditions pin the quotient: 0 <= form - q*2**bits <= 2**bits - 1.
    Raises CubeOverflow, before enumerating, when there are more than *cap*.
    """
    modulus = 1 << bits
    lo, hi = form.interval(bounds)
    q_lo = lo // modulus
    q_hi = hi // modulus
    count = q_hi - q_lo + 1
    if count > cap:
        raise CubeOverflow(f"{count} wrap quotients exceed cap {cap}")
    cases = []
    for q in range(q_lo, q_hi + 1):
        wrapped = form.shift(-q * modulus)
        side = (
            LinCon.make(wrapped.scale(-1), "<=", 0),
            LinCon.make(wrapped, "<=", modulus - 1),
        )
        cases.append((wrapped, side))
    return cases


def _cmp_atom(op: str, la: LinForm, lb: LinForm, bits: int, bounds,
              cap: int) -> Dnf:
    if op == "!=":
        return dnf_or(_cmp_atom("<", la, lb, bits, bounds, cap),
                      _cmp_atom(">", la, lb, bits, bounds, cap), cap)
    out = []
    for wa, side_a in wrap_cases(la, bits, bounds, cap):
        for wb, side_b in wrap_cases(lb, bits, bounds, cap):
            diff = wa.sub(wb)
            if op == "<":
                rels = [LinCon.make(diff, "<=", -1)]
            elif op == "<=":
                rels = [LinCon.make(diff, "<=", 0)]
            elif op == "==":
                rels = [LinCon.make(diff, "==", 0)]
            elif op == ">=":
                rels = [LinCon.make(diff.scale(-1), "<=", 0)]
            elif op == ">":
                rels = [LinCon.make(diff.scale(-1), "<=", -1)]
            else:
                raise FragmentError(f"unknown comparison {op!r}")
            cube = clean_cube(side_a + side_b + tuple(rels))
            if cube is not None:
                out.append(cube)
            if len(out) > cap:
                raise CubeOverflow("comparison expansion exceeds cap")
    return tuple(out)


def normalize(e: E.Expr, env: dict[str, str], *, subst=None, negate=False,
              max_cubes: int = 256) -> Dnf:
    """Lower a boolean expression to DNF over linear constraints.

    Every cube carries width bounds for each variable it mentions.  With
    *negate* the result describes the expression's negation.  *subst* maps
    variable names to linear forms over other declared variables; it is used
    for symbolic post-state reasoning and applies to arithmetic atoms only.
    """
    dnf = _normalize(e, env, subst, negate, max_cubes)
    out = []
    for cube in dnf:
        bounded = attach_bounds(cube, env)
        if bounded is not None:
            out.append(bounded)
    return tuple(out)


def bounds_fn(env):
    def bounds(name):
        ty = env.get(name)
        if ty is None:
            raise FragmentError(f"no declaration for variable {name!r}")
        return 0, E.max_of(ty)
    return bounds


def _normalize(e, env, subst, negate, cap) -> Dnf:
    if isinstance(e, E.BoolLit):
        return FALSE_DNF if e.value == negate else TRUE_DNF
    if isinstance(e, E.Not):
        return _normalize(e.arg, env, subst, not negate, cap)
    if isinstance(e, E.And):
        l = _normalize(e.lhs, env, subst, negate, cap)
        r = _normalize(e.rhs, env, subst, negate, cap)
        return dnf_or(l, r, cap) if negate else dnf_and(l, r, cap)
    if isinstance(e, E.Or):
        l = _normalize(e.lhs, env, subst, negate, cap)
        r = _normalize(e.rhs, env, subst, negate, cap)
        return dnf_and(l, r, cap) if negate else dnf_or(l, r, cap)
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
        op = _NEG_OP[e.op] if negate else e.op
        width = e.width or E.typecheck(e, env)[0].width
        bits = E.bits_of(width)
        la = linear_form(e.lhs, subst)
        lb = linear_form(e.rhs, subst)
        return _cmp_atom(op, la, lb, bits, bounds_fn(env), cap)
    raise FragmentError(f"not a boolean expression: {type(e).__name__}")
