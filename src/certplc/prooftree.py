"""Proof trees for inductive invariants.

Shape: an induction node with a base leaf and an exhaustive case
distinction over rule instances, followed by ``case entail`` when the
certificate has a target (its hypothesis cubes are the invariant's, its
conjuncts the target's).  Only the open cases are listed, in rule order;
a closed case has no hypothesis cube, so no entry and no line.  Under a
listed case, one entry per hypothesis cube (disjunct split); each entry is
either a contradiction witness refuting the hypothesis cube or one witness
per joint cube, in the order of ``obligations.joint_cubes``: conjunct by
conjunct, then cube by cube within each conjunct's negated-conclusion DNF.

The text form is line based with explicit counts, so parsing needs no
lookahead and rejects any truncation:

    base
    case exec:A_Init hyps 2
    hyp 0 contradiction
    <witness block>
    hyp 1 cubes 3
    <witness block>
    again 1
    again 0

An entry's witness is printed as a block (see ``lia.witness``) the first
time it appears, and blocks are numbered 0, 1, ... in that order; a later
equal witness is the line ``again K``, naming block K printed before it.
Split branches stay inside their block and are not numbered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .lia.witness import (Witness, decimal, parse_witness_lines,
                          witness_lines)
from .parsing import ParseError


@dataclass(frozen=True)
class HypEntry:
    contradiction: Witness | None = None
    witnesses: tuple[Witness, ...] | None = None  # one per joint cube

    def __post_init__(self):
        if (self.contradiction is None) == (self.witnesses is None):
            raise ValueError("entry needs exactly one justification")


@dataclass(frozen=True)
class CaseProof:
    label: str  # rule instance label, e.g. "trans:0"
    hyps: tuple[HypEntry, ...]


@dataclass(frozen=True)
class ProofTree:
    cases: tuple[CaseProof, ...]


def proof_lines(tree: ProofTree) -> list[str]:
    out = ["base"]
    table: dict[Witness, int] = {}  # printed block -> its index

    def block(w: Witness):
        k = table.get(w)
        if k is None:
            table[w] = len(table)
            out.extend(witness_lines(w))
        else:
            out.append(f"again {k}")

    for case in filter(lambda c: c.hyps, tree.cases):  # the open cases
        out.append(f"case {case.label} hyps {len(case.hyps)}")
        for i, entry in enumerate(case.hyps):
            if entry.contradiction is not None:
                out.append(f"hyp {i} contradiction")
                block(entry.contradiction)
            else:
                out.append(f"hyp {i} cubes {len(entry.witnesses)}")
                for w in entry.witnesses:
                    block(w)
    return out


def _count(parts: list[str], what: str, least: int = 0) -> int:
    """Entry count closing a header row: a number in least..1,000,000."""
    try:
        n = decimal(parts[-1])
    except ParseError:
        n = -1
    if not least <= n <= 1_000_000:
        raise ParseError(f"bad {what} count in {' '.join(parts)!r}")
    return n


def _next_witness(rows, table: list[Witness]) -> Witness:
    """The next entry-level witness: a block, which joins *table*, or an
    ``again K`` line naming one of the blocks already in it."""
    line = next(rows, "")
    parts = line.split()
    if parts[:1] != ["again"]:
        table.append(parse_witness_lines(chain((line,), rows)))
        return table[-1]
    if len(parts) != 2:
        raise ParseError(f"malformed line {line!r}")
    k = decimal(parts[1])
    if k >= len(table):
        raise ParseError(f"again {k} before block {k} is defined")
    return table[k]


def parse_proof_lines(lines: list[str]) -> ProofTree:
    """One pass over the lines; blank ones are skipped.  Raises ParseError
    on a malformed or truncated proof."""
    rows = filter(None, map(str.strip, lines))
    if next(rows, None) != "base":
        raise ParseError("proof must start with the base leaf")
    table: list[Witness] = []
    cases = []
    for line in rows:
        head = line.split()
        if len(head) != 4 or head[0] != "case" or head[2] != "hyps":
            raise ParseError(f"expected case header, got {line!r}")
        hyps = []
        for i in range(_count(head, "hyp", least=1)):
            parts = next(rows, "").split()
            if len(parts) < 3 or parts[0] != "hyp" or parts[1] != str(i):
                raise ParseError(f"expected hyp {i}, got {' '.join(parts)!r}")
            if parts[2] == "contradiction":
                if len(parts) != 3:
                    raise ParseError("malformed contradiction entry")
                hyps.append(HypEntry(
                    contradiction=_next_witness(rows, table)))
            elif parts[2] == "cubes" and len(parts) == 4:
                hyps.append(HypEntry(witnesses=tuple(
                    _next_witness(rows, table)
                    for _ in range(_count(parts, "cube")))))
            else:
                raise ParseError(f"malformed hyp entry {' '.join(parts)!r}")
        cases.append(CaseProof(head[1], tuple(hyps)))
    return ProofTree(tuple(cases))
