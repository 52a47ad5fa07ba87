"""Self-contained certificates: ``emit`` prints one, ``check`` judges one.

Layout (UTF-8 text, LF line endings):

    CERTPLC/7
    digest: <64 hex digits of the embedded model's canonical text>
    --- model
    <canonical model text>
    --- property
    invariant <name> : always (<formula>);
    [invariant <target name> : always (<target formula>);]
    --- proof
    <proof tree, see prooftree>

The magic line names the proof grammar and derivation (in ``CERTPLC/7``
only the open cases are listed, a constant write closing the cases it
decides, and an unlisted case has no node; each listed case has one node,
which splits on a hypothesis piece only where its proof needs to; a
witness printed before is ``again K``); a certificate in another one,
``CERTPLC/1`` to ``CERTPLC/6`` included, is rejected at line one.

The property section holds an invariant I, optionally followed by a target
P (without one, P is I).  The checker trusts nothing from the proof section
except where it splits, which node cubes are claimed contradictory and
the witness hint lines.  It re-parses the embedded model, re-evaluates I
on the initial configuration, re-enumerates every rule instance,
re-derives every obligation and every node's cube from the model and
property alone (a split on a piece not split on above it has one child
per cube of the piece, so the leaves cover the product of the pieces),
and replays each witness against its re-derived cube; with a target, a
last case ``entail`` refutes I jointly with each negated conjunct of P.
So I is inductive and I implies P.  Replay is integer arithmetic without search, so acceptance
implies P holds in every reachable configuration; a bad certificate can
only be rejected, never believed.

The re-derived cubes encode wraparound as ``linear`` does: a wrapped
form's quotient is a constant when it has one feasible value, else the
integer variable ``wrap:<bits>:<form>`` bounded by two members of its
cube; so a comparison is one cube (``!=`` two), as is a post-value.

The checker replays one witness per contradiction node and per joint cube
of a ``cubes`` node (an ``again K`` line is block K replayed again); the
nodes nest at most as deep as the case has split pieces, each level at
most as wide as its piece, and each replay costs at most the length of
the longest block.  The walk keeps its own stack, so nesting costs no
Python recursion.

The checker keeps the last chart it parsed and found canonical in one
(model text, model) slot: a certificate whose model section is that text
reuses the model and its derivation memo, skipping the parse and re-print;
every check from the digest line on still runs.  Sound, as the model and
each memo piece are deterministic in the text, or in an expression typed
under its env, and memos keep only successes.  The slot is read once per
check; what it holds grows only with the distinct property atoms checked
against its chart, and is released when the next chart takes the slot.

Rejection never means the property is false, only that this certificate
does not establish it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import obligations as O
from . import properties as P
from .lia.witness import replay_witness
from .linear import FragmentError, LimitExceeded
from .model import (SfcModel, canonical_text, init_state, parse_model,
                    text_digest)
from .parsing import ParseError
from .prooftree import (Contradiction, Cubes, ProofTree, parse_proof_lines,
                        proof_lines)

MAGIC = "CERTPLC/7"

_SECTIONS = ("--- model", "--- property", "--- proof")

_last: tuple = ("", None)  # the slot; no model section is empty


@dataclass(frozen=True)
class CheckVerdict:
    accepted: bool
    reason: str = ""
    path: tuple[str, ...] = ()

    def __bool__(self):
        return self.accepted


def _rejected(reason: str, *path: str) -> CheckVerdict:
    return CheckVerdict(False, reason, tuple(path))


ACCEPTED = CheckVerdict(True)


def emit(model: SfcModel, inv: P.Invariant, tree: ProofTree,
         target: P.Invariant | None = None) -> bytes:
    """Byte-deterministic certificate for *inv* and, when given, the
    target it implies, with *tree* as its proof section.  It only prints:
    whatever the tree, only ``check`` decides whether it is accepted."""
    text = canonical_text(model)
    props = (inv,) if target is None else (inv, target)
    parts = [MAGIC, f"digest: {text_digest(text)}", "--- model",
             text.rstrip("\n"), "--- property",
             *map(P.invariant_text, props), "--- proof", *proof_lines(tree)]
    return ("\n".join(parts) + "\n").encode("utf-8")


def _listed_in_order(tree: ProofTree, rules) -> bool:
    """Each case label is a rule's, in rule order, each at most once."""
    labels = iter(r.label() for r in rules)
    return all(c.label in labels for c in tree.cases)


def _split_sections(text: str):
    lines = text.split("\n")
    if not lines or lines[0] != MAGIC:
        raise ValueError("bad magic line")
    if len(lines) < 2 or not lines[1].startswith("digest: "):
        raise ValueError("missing digest line")
    digest = lines[1][len("digest: "):].strip()
    marks = {}
    for i, ln in enumerate(lines):
        if ln in _SECTIONS:
            if ln in marks:
                raise ValueError(f"duplicate section {ln!r}")
            marks[ln] = i
    for name in _SECTIONS:
        if name not in marks:
            raise ValueError(f"missing section {name!r}")
    if not marks["--- model"] < marks["--- property"] < marks["--- proof"]:
        raise ValueError("sections out of order")
    model_text = "\n".join(lines[marks["--- model"] + 1:
                                 marks["--- property"]]) + "\n"
    prop_text = "\n".join(lines[marks["--- property"] + 1:
                                marks["--- proof"]]).strip()
    proof = lines[marks["--- proof"] + 1:]
    return digest, model_text, prop_text, proof


def check(data: bytes) -> CheckVerdict:
    """Re-validate a certificate from raw bytes; never raises."""
    try:
        return _check(data)
    except Exception as err:  # malformed input of any shape is a rejection
        return _rejected(f"error: {err}")


def _check(data: bytes) -> CheckVerdict:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return _rejected("parse: not UTF-8")
    try:
        digest, model_text, prop_text, proof_raw = _split_sections(text)
    except ValueError as err:
        return _rejected(f"parse: {err}")

    global _last
    text, model = _last  # one read: a text never meets another's model
    if text != model_text:
        try:
            model = parse_model(model_text)
        except ParseError as err:
            return _rejected(f"model-parse: {err}")
        if canonical_text(model) != model_text:
            return _rejected("model-canonical: embedded model text is not "
                             "in canonical form")
        _last = (model_text, model)
    if text_digest(model_text) != digest:
        return _rejected("digest: header does not match the embedded model")

    try:
        invs = P.parse_properties(prop_text, model)
    except ParseError as err:
        return _rejected(f"property-parse: {err}")
    if not 1 <= len(invs) <= 2:
        return _rejected("property-parse: expected an invariant and at "
                         "most one target")
    inv, target = invs[0], invs[1].formula if len(invs) == 2 else None

    try:
        tree = parse_proof_lines(proof_raw)
    except ParseError as err:
        return _rejected(f"proof-parse: {err}")

    # base case, re-evaluated concretely on the rebuilt initial state
    if not P.holds_on(inv.formula, init_state(model)):
        return _rejected("base: property fails in the initial configuration",
                         "base")

    # exhaustive case distinction over the model's own rule instances,
    # then the entailment of the target; an unlisted case has no entry
    rules = O.proof_cases(model, target)
    if not _listed_in_order(tree, rules):
        return _rejected("coverage: case distinction does not match the "
                         "rule instances", "cases")

    listed = {c.label: c.node for c in tree.cases}
    context = O.DerivationContext(model, inv.formula, target=target)
    for rule in rules:
        where = ("cases", rule.label())
        node = listed.get(rule.label())
        try:  # a framed case is closed, so its obligation is not built
            ob = (None if context.framed(rule)
                  else O.build_obligation(context, rule))
        except FragmentError as err:
            return _rejected(f"unsupported-effect: {rule.label()}: {err}",
                             *where)
        except LimitExceeded as err:
            return _rejected(f"resource: {rule.label()}: {err}", *where)
        if (node is None) != (ob is None or not ob.hyp_cubes):
            return _rejected("coverage: hypothesis cube count mismatch",
                             *where)
        if node is not None:
            verdict = _check_node(node, ob, where)
            if not verdict.accepted:
                return verdict
    return ACCEPTED


def _check_node(root, ob: O.CaseObligation, where) -> CheckVerdict:
    """Whether *root* proves the case of *ob* at *where*.  Each node's cube
    is re-derived (the root cube, then each split child refined by its
    piece cube) and its witnesses replayed; the walk keeps its own stack
    of (node, cube, branches taken to it), and a rejection's path names
    each branch as ``split K:I``."""
    cubes = sum(map(len, ob.neg_concl))
    todo = [(root, ob.hyp_cubes[0], ())]
    while todo:
        node, cube, path = todo.pop()
        at = (*where, *(f"split {k}:{i}" for k, i in path))
        if isinstance(node, Contradiction):
            if not replay_witness(cube, node.witness):
                return _rejected("replay: contradiction witness does not "
                                 "refute the hypothesis cube", *at)
        elif isinstance(node, Cubes):
            if len(node.witnesses) != cubes:
                return _rejected("coverage: negated-conclusion cube count "
                                 "mismatch", *at)
            for k, (w, joint) in enumerate(zip(
                    node.witnesses, O.joint_cubes(cube, ob.neg_concl))):
                if not replay_witness(joint, w):
                    return _rejected("replay: witness does not refute the "
                                     "counterexample cube", *at, f"cube {k}")
        else:
            k = node.piece
            if k >= len(ob.splits):
                return _rejected(f"coverage: split on piece {k} of "
                                 f"{len(ob.splits)}", *at)
            if any(k == j for j, _ in path):
                return _rejected(f"coverage: piece {k} split twice on one "
                                 "path", *at)
            piece = ob.splits[k]
            if len(node.children) != len(piece):
                return _rejected(f"coverage: split {k} has "
                                 f"{len(node.children)} branches, its piece "
                                 f"{len(piece)} cubes", *at)
            for i in reversed(range(len(piece))):
                todo.append((node.children[i], O.refine(cube, piece[i]),
                             path + ((k, i),)))
    return ACCEPTED


def trusted_core_inventory() -> tuple[str, ...]:
    """Modules the checker's verdict depends on.

    The solver (search) and the verifier (proof construction) are absent by
    design: their output is advisory and re-checked here.  A test pins this
    list against the actual import graph.
    """
    return (
        "certplc.certificate",
        "certplc.expr",
        "certplc.fbd",
        "certplc.lia.witness",
        "certplc.linear",
        "certplc.model",
        "certplc.obligations",
        "certplc.parsing",
        "certplc.prooftree",
        "certplc.properties",
    )
