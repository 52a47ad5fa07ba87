"""Proof trees for inductive invariants.

Shape: an induction node with a base leaf and an exhaustive case
distinction over rule instances.  Under each case, one entry per
hypothesis cube (disjunct split); each entry is either a contradiction
leaf refuting the hypothesis cube or, split by invariant conjunct, an
arithmetic leaf with one witness per negated-conclusion cube.

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

from .lia.witness import (Witness, parse_witness_lines, witness_lines,
                          WitnessSyntaxError)


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


class ProofSyntaxError(Exception):
    pass


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


def _count(text: str, what: str, line: str) -> int:
    """Entry count of a header: an integer in 0..1,000,000."""
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or not 0 <= n <= 1_000_000:
        raise ProofSyntaxError(f"bad {what} count in {line!r}")
    return n


def parse_proof_lines(lines: list[str]) -> ProofTree:
    lines = [ln for ln in (ln.strip() for ln in lines) if ln]
    if not lines or lines[0] != "base":
        raise ProofSyntaxError("proof must start with the base leaf")
    at = 1
    cases = []
    while at < len(lines):
        parts = lines[at].split()
        if len(parts) != 4 or parts[0] != "case" or parts[2] != "hyps":
            raise ProofSyntaxError(f"expected case header, got {lines[at]!r}")
        label = parts[1]
        n_hyps = _count(parts[3], "hyp", lines[at])
        at += 1
        hyps = []
        for i in range(n_hyps):
            if at >= len(lines):
                raise ProofSyntaxError("truncated proof")
            parts = lines[at].split()
            if len(parts) < 3 or parts[0] != "hyp" or parts[1] != str(i):
                raise ProofSyntaxError(f"expected hyp {i}, got {lines[at]!r}")
            at += 1
            if parts[2] == "contradiction":
                if len(parts) != 3:
                    raise ProofSyntaxError("malformed contradiction entry")
                try:
                    w, at = parse_witness_lines(lines, at)
                except (WitnessSyntaxError, ValueError) as err:
                    raise ProofSyntaxError(str(err))
                hyps.append(HypEntry(contradiction=w))
            elif parts[2] == "conjuncts" and len(parts) == 4:
                n_conj = _count(parts[3], "conjunct", lines[at - 1])
                leaves = []
                for j in range(n_conj):
                    if at >= len(lines):
                        raise ProofSyntaxError("truncated proof")
                    parts = lines[at].split()
                    if (len(parts) != 4 or parts[0] != "conj"
                            or parts[1] != str(j) or parts[2] != "cubes"):
                        raise ProofSyntaxError(
                            f"expected conj {j}, got {lines[at]!r}")
                    n_cubes = _count(parts[3], "cube", lines[at])
                    at += 1
                    witnesses = []
                    for _ in range(n_cubes):
                        try:
                            w, at = parse_witness_lines(lines, at)
                        except (WitnessSyntaxError, ValueError) as err:
                            raise ProofSyntaxError(str(err))
                        witnesses.append(w)
                    leaves.append(ArithLeaf(tuple(witnesses)))
                hyps.append(HypEntry(conjuncts=tuple(leaves)))
            else:
                raise ProofSyntaxError(f"malformed hyp entry {lines[at - 1]!r}")
        cases.append(CaseProof(label, tuple(hyps)))
    return ProofTree(tuple(cases))
