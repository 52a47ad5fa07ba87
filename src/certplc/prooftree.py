"""Proof trees for inductive invariants.

Shape: an induction node with a base leaf and an exhaustive case
distinction over rule instances, followed by ``case entail`` when the
certificate has a target (its hypothesis cubes are the invariant's, its
conjuncts the target's).  Under each case, one entry per hypothesis cube
(disjunct split); each entry is either a contradiction leaf refuting the
hypothesis cube or, split by conclusion conjunct, an arithmetic leaf with
one witness per negated-conclusion cube.  A case whose conclusion holds on
every post-state has no negated-conclusion cubes, so each of its entries
lists zero cubes per conjunct, whatever its hypothesis cube.  A conjunct
that the rule instance cannot change (``obligations``' frame rule) has no
negated-conclusion cube either, so it lists zero cubes in every entry.

The text form is line based with explicit counts, so parsing needs no
lookahead and rejects any truncation:

    base
    case exec:A_Init hyps 2
    hyp 0 contradiction
    <witness block>
    hyp 1 conjuncts 2
    conj 0 cubes 1
    <witness block>
    conj 1 cubes 0
"""

from __future__ import annotations

from dataclasses import dataclass

from .lia.witness import (Witness, decimal, parse_witness_lines,
                          witness_lines)
from .parsing import ParseError


@dataclass(frozen=True)
class ArithLeaf:
    witnesses: tuple[Witness, ...]  # one per negated-conclusion cube


@dataclass(frozen=True)
class HypEntry:
    contradiction: Witness | None = None
    conjuncts: tuple[ArithLeaf, ...] | None = None

    def __post_init__(self):
        if (self.contradiction is None) == (self.conjuncts is None):
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
                out.append(f"hyp {i} conjuncts {len(entry.conjuncts)}")
                for j, leaf in enumerate(entry.conjuncts):
                    out.append(f"conj {j} cubes {len(leaf.witnesses)}")
                    for w in leaf.witnesses:
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
            elif parts[2] == "conjuncts" and len(parts) == 4:
                leaves = []
                for j in range(_count(parts, "conjunct")):
                    conj = next(rows, "").split()
                    if (len(conj) != 4 or conj[0] != "conj"
                            or conj[1] != str(j) or conj[2] != "cubes"):
                        raise ParseError(
                            f"expected conj {j}, got {' '.join(conj)!r}")
                    leaves.append(ArithLeaf(tuple(
                        parse_witness_lines(rows, seen)
                        for _ in range(_count(conj, "cube")))))
                hyps.append(HypEntry(conjuncts=tuple(leaves)))
            else:
                raise ParseError(f"malformed hyp entry {' '.join(parts)!r}")
        cases.append(CaseProof(head[1], tuple(hyps)))
    return ProofTree(tuple(cases))
