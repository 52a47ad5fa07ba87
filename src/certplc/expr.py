"""Typed expression language shared by guards, action effects and invariants.

Values are unsigned fixed-width integers (8, 16 or 32 bit) or booleans.
A memory maps each variable to a plain int (booleans 0/1); its width is the
variable's declared type.  Integer arithmetic wraps modulo 2**width.
Integer literals are polymorphic: they adopt the width of the variables
they are combined with, and an all-literal expression defaults to 32 bit at
the point a width is required.

``&&``, ``||``, ``+``/``-`` and ``*`` are n-ary: one node holds a whole
chain of operands (``Sum`` also the sign of each), so every walk loops over
a chain instead of recursing once per operator.  A module may add boolean
leaves of its own (``properties``' activity atoms): each prints by its
``pretty()``, and ``typecheck``, ``eval_expr`` and ``linear.lower`` pass it
to the *leaf* function their caller supplies.  Running an assignment list
is ``semantics.apply_effect``'s: the checker never executes an action.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Union

INT_WIDTHS = {"int8": 8, "int16": 16, "int32": 32}
TYPES = ("int8", "int16", "int32", "bool")

CMP_OPS = ("<", "<=", "==", "!=", ">=", ">")

DEFAULT_INT = "int32"


class ExprError(Exception):
    """Type error or evaluation error in the expression layer."""


def bits_of(ty: str) -> int:
    """Number of value bits for a declared type (bool counts as one)."""
    if ty == "bool":
        return 1
    return INT_WIDTHS[ty]


_MAX = {ty: (1 << bits_of(ty)) - 1 for ty in TYPES}


def max_of(ty: str) -> int:
    """Largest value of a declared type; KeyError for an unknown type."""
    return _MAX[ty]


# --- abstract syntax ------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Sum:
    args: tuple["Expr", ...]  # two or more, in source order
    signs: tuple[int, ...]    # 1 or -1 per operand; the first is 1


@dataclass(frozen=True)
class Prod:
    args: tuple["Expr", ...]  # two or more, in source order


@dataclass(frozen=True)
class Cmp:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    width: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class And:
    args: tuple["Expr", ...]  # two or more, in source order


@dataclass(frozen=True)
class Or:
    args: tuple["Expr", ...]  # two or more, in source order


@dataclass(frozen=True)
class Not:
    arg: "Expr"


Expr = Union[IntLit, BoolLit, Var, Sum, Prod, Cmp, And, Or, Not]

Memory = dict  # variable name -> int (booleans 0/1)


def chain(node, parts) -> Expr:
    """*parts* joined by *node*, And, Or or Prod, as the parser joins a chain:
    one part stands alone, and none is ``true`` for And, ``false`` for Or."""
    parts = tuple(parts)
    if len(parts) > 1:
        return node(parts)
    return parts[0] if parts else BoolLit(node is And)


def _op(e: Sum | Prod, i: int) -> str:
    """``add``, ``sub`` or ``mul``: how operand *i* > 0 joins those before."""
    return "mul" if isinstance(e, Prod) else "add" if e.signs[i] > 0 else "sub"


def vars_of(e: Expr, leaf=None) -> set[str]:
    """The variables an expression reads; *leaf* gives the names an added
    leaf reads."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (IntLit, BoolLit)):
        return set()
    if isinstance(e, Not):
        return vars_of(e.arg, leaf)
    if isinstance(e, Cmp):
        return vars_of(e.lhs) | vars_of(e.rhs)
    if isinstance(e, (Sum, Prod, And, Or)):
        return set().union(*(vars_of(arg, leaf) for arg in e.args))
    return leaf(e)


# --- type checking --------------------------------------------------------

def _join(a: str | None, b: str | None, what: str) -> str | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ExprError(f"width mismatch in {what}: {a} vs {b}")


def _operands(e: Sum | Prod | And | Or) -> tuple[Expr, ...]:
    """A chain's operands; ExprError unless the parser could build it: two
    or more operands and, for a sum, a first sign 1 and one 1 or -1 each."""
    if len(e.args) < 2:
        raise ExprError(f"{type(e).__name__} of fewer than two operands")
    if isinstance(e, Sum) and (len(e.signs) != len(e.args) or e.signs[0] != 1
                               or not {*e.signs} <= {1, -1}):
        raise ExprError(f"bad sum signs {e.signs!r}")
    return e.args


def _width(e: Expr, env: dict[str, str]) -> str | None:
    """Width of an integer expression, None when it has no variable.
    Arithmetic holds no comparison, so it needs no annotation."""
    if isinstance(e, IntLit):
        if type(e.value) is not int:
            raise ExprError(f"literal {e.value!r} is not an integer")
        if e.value < 0:
            raise ExprError("negative literal")
        return None
    if isinstance(e, Var):
        ty = env.get(e.name)
        if ty is None:
            raise ExprError(f"unbound variable {e.name!r}")
        if ty == "bool":
            raise ExprError(f"boolean variable {e.name!r} in arithmetic")
        return ty
    if isinstance(e, (Sum, Prod)):
        args = _operands(e)
        w = _width(args[0], env)
        for i in range(1, len(args)):
            w = _join(w, _width(args[i], env), _op(e, i))
        return w
    raise ExprError(f"expected integer expression, got {pretty(e)}")


def typecheck(e: Expr, env: dict[str, str], leaf=None) -> tuple[Expr, str]:
    """Check *e* against variable declarations.

    Returns the annotated expression (comparison widths filled in) and its
    type, an integer type name or "bool"; *leaf* gives both for an added leaf.
    """
    if isinstance(e, BoolLit):
        return e, "bool"
    if isinstance(e, Var):
        ty = env.get(e.name)
        if ty is None:
            raise ExprError(f"unbound variable {e.name!r}")
        return e, ty
    if isinstance(e, (IntLit, Sum, Prod)):
        return e, _width(e, env) or DEFAULT_INT
    if isinstance(e, Cmp):
        if e.op not in CMP_OPS:
            raise ExprError(f"unknown comparison {e.op!r}")
        w = _join(_width(e.lhs, env), _width(e.rhs, env),
                  f"comparison {e.op!r}") or DEFAULT_INT
        return Cmp(e.op, e.lhs, e.rhs, w), "bool"
    if isinstance(e, (And, Or)):
        args = []
        for arg in _operands(e):  # each join tested as in a left-deep chain
            args.append(typecheck(arg, env, leaf))
            if len(args) > 1 and any(t != "bool" for _, t in args[-2:]):
                raise ExprError("logical operator on non-boolean operand")
        return type(e)(tuple(ann for ann, _ in args)), "bool"
    if isinstance(e, Not):
        arg, t = typecheck(e.arg, env, leaf)
        if t != "bool":
            raise ExprError("'!' on non-boolean operand")
        return Not(arg), "bool"
    if leaf is not None:
        return leaf(e)
    raise ExprError(f"unknown expression node {type(e).__name__}")


# --- evaluation -----------------------------------------------------------

_CMP_FUNCS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


class IntDomain:
    """Concrete value domain: exact Python ints, booleans as 0/1.

    Addition, subtraction and multiplication are congruent mod 2**w, so
    wrapping once after a computation at one width equals wrapping after
    every operation.  The symbolic counterpart is ``linear.LinDomain``.
    """

    const = int
    add = operator.add
    sub = operator.sub
    mul = operator.mul

    @staticmethod
    def cmp(op: str, a: int, b: int) -> int:
        return int(_CMP_FUNCS[op](a, b))

    @staticmethod
    def mux(sel: int, a: int, b: int) -> int:
        return a if sel else b

    @staticmethod
    def wrap(n: int, ty: str) -> int:
        return n & _MAX[ty]


def fold_int(e: Expr, dom, read):
    """Value of an integer expression in a value domain, unwrapped.

    *dom* supplies ``const``, ``add``, ``sub`` and ``mul``; *read* maps a
    variable name to its value in the domain.
    """
    if isinstance(e, Var):
        return read(e.name)
    if isinstance(e, IntLit):
        return dom.const(e.value)
    if isinstance(e, (Sum, Prod)):
        value = fold_int(e.args[0], dom, read)
        for i in range(1, len(e.args)):
            join = getattr(dom, _op(e, i))
            value = join(value, fold_int(e.args[i], dom, read))
        return value
    raise ExprError(f"expected integer expression, got {type(e).__name__}")


def _reader(m: Memory):
    def read(name):
        v = m.get(name)
        if v is None:
            raise ExprError(f"unbound variable {name!r}")
        return v
    return read


def eval_expr(e: Expr, m: Memory, leaf=None) -> int:
    """Value of a typechecked expression on a memory of plain ints.

    Booleans are 0/1.  Integer expressions come back unwrapped: arithmetic
    is congruent mod 2**w, so the caller wraps once at the width it needs.
    Comparisons wrap their operands at the width ``typecheck`` annotated;
    *leaf* gives the value of an added leaf.
    """
    if isinstance(e, Cmp):
        if e.width is None:
            raise ExprError(f"comparison {e.op!r} was not typechecked")
        mask = max_of(e.width)
        read = _reader(m)
        return IntDomain.cmp(e.op, fold_int(e.lhs, IntDomain, read) & mask,
                             fold_int(e.rhs, IntDomain, read) & mask)
    if isinstance(e, BoolLit):
        return int(e.value)
    if isinstance(e, (And, Or)):
        decisive = isinstance(e, Or)  # an operand of this value decides
        for arg in e.args:
            if bool(eval_expr(arg, m, leaf)) is decisive:
                return int(decisive)
        return int(not decisive)
    if isinstance(e, Not):
        return 1 - eval_expr(e.arg, m, leaf)
    if leaf is None or isinstance(e, (Var, IntLit, Sum, Prod)):
        return fold_int(e, IntDomain, _reader(m))
    return leaf(e)


# --- printing -------------------------------------------------------------

_PREC = {"||": 1, "&&": 2, "!": 3, "cmp": 4, "+": 5, "*": 6}
_SYMBOLS = {"add": "+", "sub": "-", "mul": "*"}


def _show(e: Expr, parent: int) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, (Sum, Prod)):
        mine = _PREC["*" if isinstance(e, Prod) else "+"]
        s = _show(e.args[0], mine) + "".join(
            f" {_SYMBOLS[_op(e, i)]} {_show(e.args[i], mine + 1)}"
            for i in range(1, len(e.args)))
    elif isinstance(e, Cmp):
        mine = _PREC["cmp"]
        s = f"{_show(e.lhs, mine + 1)} {e.op} {_show(e.rhs, mine + 1)}"
    elif isinstance(e, (And, Or)):
        op = "&&" if isinstance(e, And) else "||"
        mine = _PREC[op]
        s = f" {op} ".join(_show(arg, mine) for arg in e.args)
    elif isinstance(e, Not):
        mine = _PREC["!"]  # so a `!` operand of `!` stays bare
        s = f"!{_show(e.arg, mine)}"
    elif hasattr(e, "pretty"):  # an added leaf, e.g. step(S)
        # binds like a comparison: parenthesized only as an operand
        mine = _PREC["cmp"]
        s = e.pretty()
    else:
        raise ExprError(f"unknown expression node {type(e).__name__}")
    return f"({s})" if mine < parent else s


def pretty(e: Expr) -> str:
    """Canonical text form; re-parsing it yields an equal expression."""
    return _show(e, 0)
