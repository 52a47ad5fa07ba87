"""Proof trees for inductive invariants.

Shape: an induction node with a base leaf and an exhaustive case
distinction over rule instances, followed by ``case entail`` when the
certificate has a target (its hypothesis pieces are the invariant's
conjuncts, its conclusion conjuncts the target's).  Only the open cases
are listed, in rule order; a closed case has no root cube, so no entry and
no line.  A listed case has exactly one node, which stands for a cube:
the case's root cube (see ``obligations``) for the case's node, and for a
split's child its parent's cube refined by one cube of the split piece.
A node is one of

* a contradiction: one witness refuting the node's cube;
* cubes: one witness per joint cube of the node's cube, in the order of
  ``obligations.joint_cubes``: conjunct by conjunct, then cube by cube
  within each conjunct's negated-conclusion DNF;
* a split on split piece K (an index into the case's splits, not split on
  before on the path from the case's node): one child per cube of the
  piece, in the piece's order.

The text form is line based with explicit counts, so parsing needs no
lookahead and rejects any truncation; a node's children follow it, each
with its own children before the next one:

    base
    case exec:A_Init
    split 0 2
    contradiction
    <witness block>
    cubes 3
    <witness block>
    again 1
    again 0

A node's witness is printed as a block (see ``lia.witness``) the first
time it appears, and blocks are numbered 0, 1, ... in that order; a later
equal witness is the line ``again K``, naming block K printed before it.
Split branches stay inside their block and are not numbered.  Printing
and parsing walk the nodes with their own stack, so a tree may nest as
deep as its case has split pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .lia.witness import (Witness, decimal, parse_witness_lines,
                          witness_lines)
from .parsing import ParseError


@dataclass(frozen=True)
class Contradiction:
    witness: Witness  # refutes the node's cube


@dataclass(frozen=True)
class Cubes:
    witnesses: tuple[Witness, ...]  # one per joint cube


@dataclass(frozen=True)
class Split:
    piece: int  # index into the case's split pieces
    children: tuple  # one node per cube of the piece


Node = Contradiction | Cubes | Split


@dataclass(frozen=True)
class CaseProof:
    label: str  # rule instance label, e.g. "trans:0"
    node: Node


@dataclass(frozen=True)
class ProofTree:
    cases: tuple[CaseProof, ...]  # the open cases


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

    for case in tree.cases:
        out.append(f"case {case.label}")
        todo = [case.node]
        while todo:
            node = todo.pop()
            if isinstance(node, Contradiction):
                out.append("contradiction")
                block(node.witness)
            elif isinstance(node, Cubes):
                out.append(f"cubes {len(node.witnesses)}")
                for w in node.witnesses:
                    block(w)
            else:
                out.append(f"split {node.piece} {len(node.children)}")
                todo.extend(reversed(node.children))
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
    """The next node-level witness: a block, which joins *table*, or an
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


def _parse_node(rows, table: list[Witness]) -> Node:
    """A case's node, its children read depth first with a stack of the
    open splits: (piece, child count, children so far)."""
    open_splits: list[tuple[int, int, list]] = []
    while True:
        line = next(rows, "")
        parts = line.split()
        if parts == ["contradiction"]:
            node = Contradiction(_next_witness(rows, table))
        elif len(parts) == 2 and parts[0] == "cubes":
            node = Cubes(tuple(_next_witness(rows, table)
                               for _ in range(_count(parts, "cube"))))
        elif len(parts) == 3 and parts[0] == "split":
            open_splits.append((decimal(parts[1]),
                                _count(parts, "branch", least=1), []))
            continue
        else:
            raise ParseError(f"expected a proof node, got {line!r}")
        while open_splits:  # close each split whose last child this is
            piece, n, children = open_splits[-1]
            children.append(node)
            if len(children) < n:
                break
            open_splits.pop()
            node = Split(piece, tuple(children))
        else:
            return node


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
        if len(head) != 2 or head[0] != "case":
            raise ParseError(f"expected case header, got {line!r}")
        cases.append(CaseProof(head[1], _parse_node(rows, table)))
    return ProofTree(tuple(cases))
