"""Mechanical replay of infeasibility witnesses.

A witness is an ordered list of derivation steps over a growing context of
linear constraints.  The context starts as the cube under refutation (plus
any case-split assumptions); each step appends one derived constraint:

* combine: an integer combination of earlier constraints; multipliers on
  inequalities must be non-negative, multipliers on equalities are free.
* tighten: divide an inequality by the gcd of its coefficients, flooring
  the right-hand side; an equality whose gcd does not divide its right-hand
  side derives the canonical contradiction 0 <= -1.
* split: exhaustive case distinction over an integer range.  The referenced
  bound constraints must already pin the variable to [lo, hi]; one branch
  witness per value refutes the cube extended with `var == value`.

Replay accepts when a constant-false constraint is in the context: a
derived one ends the replay at once, a member of the cube is looked for
only when the steps end without one (a split accepts when every branch
accepts).  There is no search: cost is linear in the size of the witness.
Replay never raises; a malformed step rejects, whatever the cube holds.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from ..linear import Cube, LinCon
from ..parsing import ParseError


@dataclass(frozen=True)
class Combine:
    terms: tuple[tuple[int, int], ...]  # (context index, multiplier)


@dataclass(frozen=True)
class Tighten:
    index: int


@dataclass(frozen=True)
class RangeSplit:
    var: str
    lo: int
    hi: int
    lo_index: int
    hi_index: int
    branches: tuple["Witness", ...]


Step = Combine | Tighten | RangeSplit


@dataclass(frozen=True)
class Witness:
    steps: tuple[Step, ...]


class _Reject(Exception):
    pass


def _combine(ctx: list[LinCon], terms) -> LinCon:
    if not terms:
        raise _Reject("empty combination")
    coeffs: dict[str, int] = {}
    rhs = 0
    rel = "=="
    for idx, mult in terms:
        if not 0 <= idx < len(ctx):
            raise _Reject("index out of range")
        con = ctx[idx]
        if con.rel == "<=":
            if mult < 0:
                raise _Reject("negative multiplier on inequality")
            rel = "<="
        for v, c in con.coeffs:
            coeffs[v] = coeffs.get(v, 0) + mult * c
        rhs += mult * con.rhs
    items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
    return LinCon(items, rel, rhs)


def _tighten(ctx: list[LinCon], index: int) -> LinCon:
    if not 0 <= index < len(ctx):
        raise _Reject("index out of range")
    con = ctx[index]
    if not con.coeffs:
        raise _Reject("tighten on constant constraint")
    g = 0
    for _, c in con.coeffs:
        g = gcd(g, abs(c))
    coeffs = tuple((v, c // g) for v, c in con.coeffs)
    if con.rel == "<=":
        return LinCon(coeffs, "<=", con.rhs // g)
    if con.rhs % g != 0:
        return LinCon((), "<=", -1)  # no integer solution exists
    return LinCon(coeffs, "==", con.rhs // g)


def _is_lower_bound(con: LinCon, var: str, lo: int) -> bool:
    return con == LinCon(((var, -1),), "<=", -lo)


def _is_upper_bound(con: LinCon, var: str, hi: int) -> bool:
    return con == LinCon(((var, 1),), "<=", hi)


def _replay(base: list[LinCon], base_len: int, w: Witness) -> bool:
    """`base[:base_len]` is cube plus assumptions; the rest is derived."""
    ctx = list(base)
    for pos, step in enumerate(w.steps):
        if isinstance(step, Combine):
            derived = _combine(ctx, step.terms)
        elif isinstance(step, Tighten):
            derived = _tighten(ctx, step.index)
        elif isinstance(step, RangeSplit):
            if pos != len(w.steps) - 1:
                raise _Reject("split must be the final step")
            if step.lo > step.hi:
                raise _Reject("empty split range")
            if len(step.branches) != step.hi - step.lo + 1:
                raise _Reject("branch count does not match range")
            if not 0 <= step.lo_index < len(ctx):
                raise _Reject("index out of range")
            if not 0 <= step.hi_index < len(ctx):
                raise _Reject("index out of range")
            if not _is_lower_bound(ctx[step.lo_index], step.var, step.lo):
                raise _Reject("lower bound constraint does not match")
            if not _is_upper_bound(ctx[step.hi_index], step.var, step.hi):
                raise _Reject("upper bound constraint does not match")
            prefix = ctx[:base_len]
            for k, value in enumerate(range(step.lo, step.hi + 1)):
                assumption = LinCon(((step.var, 1),), "==", value)
                branch_base = prefix + [assumption]
                if not _replay(branch_base, len(branch_base),
                               step.branches[k]):
                    return False
            return True
        else:
            raise _Reject(f"unknown step {type(step).__name__}")
        ctx.append(derived)
        if derived.const_false():
            return True
    # no step derived a contradiction: accepted only if the base holds
    # one.  Scanned here, not first, so that a valid witness never pays
    # for it (the checker's cubes are clean and hold none)
    return any(con.const_false() for con in ctx[:base_len])


def replay_witness(cube: Cube, witness: Witness) -> bool:
    """True when the witness mechanically refutes the cube."""
    try:
        return _replay(list(cube), len(cube), witness)
    except (_Reject, TypeError, ValueError, AttributeError, IndexError):
        return False


# --- text form --------------------------------------------------------------
#
# steps N
# combine IDX*MULT IDX*MULT ...
# tighten IDX
# split VAR LO HI LOIDX HIIDX     (followed by one block per branch)

def witness_lines(w: Witness) -> list[str]:
    out = [f"steps {len(w.steps)}"]
    for step in w.steps:
        if isinstance(step, Combine):
            out.append("combine " + " ".join(f"{i}*{m}" for i, m in step.terms))
        elif isinstance(step, Tighten):
            out.append(f"tighten {step.index}")
        elif isinstance(step, RangeSplit):
            out.append(f"split {step.var} {step.lo} {step.hi} "
                       f"{step.lo_index} {step.hi_index}")
            for branch in step.branches:
                out.extend(witness_lines(branch))
        else:
            raise ValueError(f"unknown step {type(step).__name__}")
    return out


# Deepest nesting of `split` steps.  Parsing and replay recurse once per
# nested split and the decider three times (range split, `_solve`,
# `finish`), so at the bound the decider's 192 frames leave most of the
# default 1000 to its callers and to the innermost refutation's witness
# extraction.  A decision that would nest deeper raises LimitExceeded, so
# no emitted witness passes the bound.
MAX_SPLIT_NESTING = 64

_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


@lru_cache(maxsize=1024)
def decimal(text: str, signed: bool = False) -> int:
    """*text* read as the printers write numbers: canonical ASCII decimal,
    negative only where *signed* (multipliers and split bounds)."""
    if _DECIMAL.fullmatch(text) is None or (text[0] == "-" and not signed):
        raise ParseError(f"bad number {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int converts
        raise ParseError(f"number too long: {len(text)} digits") from None


def parse_witness_lines(rows: Iterator[str]) -> Witness:
    """Parse one witness block from *rows*, the stripped non-blank lines of
    a proof, consuming exactly its rows.  Splits nested deeper than
    MAX_SPLIT_NESTING are a ParseError."""
    return _parse_block(rows, 0)


def _parse_block(rows: Iterator[str], depth: int) -> Witness:
    """`parse_witness_lines` of a block inside *depth* splits."""
    head = next(rows, "").split()
    if len(head) != 2 or head[0] != "steps":
        raise ParseError(f"expected 'steps N', got {' '.join(head)!r}")
    steps: list[Step] = []
    for _ in range(decimal(head[1])):
        line = next(rows, None)
        if line is None:
            raise ParseError("truncated witness")
        parts = line.split()
        if parts[0] == "combine" and len(parts) > 1:
            step = Combine(tuple(
                (decimal(idx), decimal(mult, True))
                for idx, _, mult in (t.partition("*") for t in parts[1:])))
        elif parts[0] == "tighten" and len(parts) == 2:
            step = Tighten(decimal(parts[1]))
        elif parts[0] == "split" and len(parts) == 6:
            lo, hi = decimal(parts[2], True), decimal(parts[3], True)
            if hi < lo or hi - lo > 1_000_000:
                raise ParseError("bad split range")
            if depth == MAX_SPLIT_NESTING:
                raise ParseError(
                    f"split nesting deeper than {MAX_SPLIT_NESTING}")
            branches = []
            for _ in range(hi - lo + 1):  # a loop: one frame per level
                branches.append(_parse_block(rows, depth + 1))
            step = RangeSplit(
                parts[1], lo, hi, decimal(parts[4]), decimal(parts[5]),
                tuple(branches))
        else:
            raise ParseError(f"malformed step {line!r}")
        steps.append(step)
    return Witness(tuple(steps))
