"""Proof trees for inductive invariants.

Shape: an induction node with a base leaf and an exhaustive case
distinction over rule instances, followed by ``case entail`` when the
certificate has a target (its hypothesis cubes are the invariant's, its
conjuncts the target's).  Under each case, one entry per hypothesis cube
(disjunct split), so none under a closed case; each entry is either a
contradiction witness refuting the hypothesis cube or one witness per joint
cube, in the order of ``obligations.joint_cubes``: conjunct by conjunct,
then cube by cube within each conjunct's negated-conclusion DNF.

The text form is line based with explicit counts, so parsing needs no
lookahead and rejects any truncation:

    base
    case exec:A_Init hyps 2
    hyp 0 contradiction
    <witness block>
    hyp 1 cubes 2
    <witness block>
    <witness block>
    case trans:0 hyps 0
"""

from __future__ import annotations

from dataclasses import dataclass

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
    for case in tree.cases:
        out.append(f"case {case.label} hyps {len(case.hyps)}")
        for i, entry in enumerate(case.hyps):
            if entry.contradiction is not None:
                out.append(f"hyp {i} contradiction")
                out.extend(witness_lines(entry.contradiction))
            else:
                out.append(f"hyp {i} cubes {len(entry.witnesses)}")
                for w in entry.witnesses:
                    out.extend(witness_lines(w))
    return out


def _count(parts: list[str], what: str) -> int:
    """Entry count closing a header row: a number in 0..1,000,000."""
    try:
        n = decimal(parts[-1])
    except ParseError:
        n = -1
    if not 0 <= n <= 1_000_000:
        raise ParseError(f"bad {what} count in {' '.join(parts)!r}")
    return n


def parse_proof_lines(lines: list[str]) -> ProofTree:
    """One pass over the lines; blank ones are skipped, and a witness line
    seen before is not parsed again.  Raises ParseError on a malformed or
    truncated proof."""
    rows = filter(None, map(str.strip, lines))
    if next(rows, None) != "base":
        raise ParseError("proof must start with the base leaf")
    seen: dict = {}
    cases = []
    for line in rows:
        head = line.split()
        if len(head) != 4 or head[0] != "case" or head[2] != "hyps":
            raise ParseError(f"expected case header, got {line!r}")
        hyps = []
        for i in range(_count(head, "hyp")):
            parts = next(rows, "").split()
            if len(parts) < 3 or parts[0] != "hyp" or parts[1] != str(i):
                raise ParseError(f"expected hyp {i}, got {' '.join(parts)!r}")
            if parts[2] == "contradiction":
                if len(parts) != 3:
                    raise ParseError("malformed contradiction entry")
                hyps.append(HypEntry(
                    contradiction=parse_witness_lines(rows, seen)))
            elif parts[2] == "cubes" and len(parts) == 4:
                hyps.append(HypEntry(witnesses=tuple(
                    parse_witness_lines(rows, seen)
                    for _ in range(_count(parts, "cube")))))
            else:
                raise ParseError(f"malformed hyp entry {' '.join(parts)!r}")
        cases.append(CaseProof(head[1], tuple(hyps)))
    return ProofTree(tuple(cases))
