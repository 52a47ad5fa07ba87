"""Self-contained certificates and the checker that re-validates them.

Layout (UTF-8 text, LF line endings):

    CERTPLC/1
    digest: <64 hex digits of the embedded model's canonical text>
    --- model
    <canonical model text>
    --- property
    invariant <name> : always (<formula>);
    --- proof
    <proof tree, see prooftree>

The checker trusts nothing from the proof section except which hypothesis
cubes are claimed contradictory and the witness hint lines.  It re-parses
the embedded model, re-evaluates the property on the initial configuration,
re-enumerates every rule instance, re-derives every obligation cube from
the model and property alone, and replays each witness against its
re-derived cube.  Replay is integer arithmetic without search, so
acceptance implies the property holds in every reachable configuration;
a bad certificate can only be rejected, never believed.

Rejection never means the property is false, only that this certificate
does not establish it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import obligations as O
from . import properties as P
from .lia.witness import replay_witness
from .model import SfcModel, canonical_text, model_digest, parse_model
from .parsing import ParseError
from .prooftree import ProofSyntaxError, ProofTree, parse_proof_lines, \
    proof_lines
from .semantics import init_state, rule_instances

MAGIC = "CERTPLC/1"

_SECTIONS = ("--- model", "--- property", "--- proof")


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


class EmitError(Exception):
    pass


def emit(model: SfcModel, inv: P.Invariant, tree: ProofTree) -> bytes:
    """Byte-deterministic certificate for a proved invariant."""
    if tree is None:
        raise EmitError("no proof tree to embed; the result is not a "
                        "certifiable proof")
    labels = [c.label for c in tree.cases]
    expected = [r.label() for r in rule_instances(model)]
    if labels != expected:
        raise EmitError("proof tree does not cover the rule instances")
    parts = [MAGIC, f"digest: {model_digest(model)}", "--- model",
             canonical_text(model).rstrip("\n"), "--- property",
             P.invariant_text(inv), "--- proof"]
    parts.extend(proof_lines(tree))
    return ("\n".join(parts) + "\n").encode("utf-8")


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

    try:
        model = parse_model(model_text)
    except ParseError as err:
        return _rejected(f"model-parse: {err}")
    if canonical_text(model) != model_text:
        return _rejected("model-canonical: embedded model text is not in "
                         "canonical form")
    if model_digest(model) != digest:
        return _rejected("digest: header does not match the embedded model")

    try:
        invs = P.parse_properties(prop_text, model)
    except ParseError as err:
        return _rejected(f"property-parse: {err}")
    if len(invs) != 1:
        return _rejected("property-parse: expected exactly one invariant")
    inv = invs[0]

    try:
        tree = parse_proof_lines(proof_raw)
    except ProofSyntaxError as err:
        return _rejected(f"proof-parse: {err}")

    # base case, re-evaluated concretely on the rebuilt initial state
    if not P.holds_on(inv.formula, init_state(model)):
        return _rejected("base: property fails in the initial configuration",
                         "base")

    # exhaustive case distinction over the model's own rule instances
    rules = rule_instances(model)
    labels = [c.label for c in tree.cases]
    if labels != [r.label() for r in rules]:
        return _rejected("coverage: case distinction does not match the "
                         "rule instances", "cases")

    context = O.DerivationContext(model, inv.formula)
    for rule, case in zip(rules, tree.cases):
        where = ("cases", case.label)
        try:
            ob = O.build_obligation(model, inv.formula, rule,
                                    context=context)
        except O.UnsupportedEffect as err:
            return _rejected(f"unsupported-effect: {err}", *where)
        except O.ObligationOverflow as err:
            return _rejected(f"resource: {err}", *where)
        if len(case.hyps) != len(ob.hyp_cubes):
            return _rejected("coverage: hypothesis cube count mismatch",
                             *where)
        for i, entry in enumerate(case.hyps):
            at = where + (f"hyp {i}",)
            hyp_cube = ob.hyp_cubes[i]
            if entry.contradiction is not None:
                if not replay_witness(hyp_cube, entry.contradiction):
                    return _rejected("replay: contradiction witness does "
                                     "not refute the hypothesis cube", *at)
                continue
            if len(entry.conjuncts) != len(ob.neg_concl):
                return _rejected("coverage: conjunct count mismatch", *at)
            for j, leaf in enumerate(entry.conjuncts):
                neg_dnf = ob.neg_concl[j]
                spot = at + (f"conj {j}",)
                if len(leaf.witnesses) != len(neg_dnf):
                    return _rejected("coverage: negated-conclusion cube "
                                     "count mismatch", *spot)
                for k, neg_cube in enumerate(neg_dnf):
                    joint = O.joint_cube(hyp_cube, neg_cube)
                    if joint is None:
                        continue  # join is visibly false, nothing to prove
                    if not replay_witness(joint, leaf.witnesses[k]):
                        return _rejected("replay: witness does not refute "
                                         "the counterexample cube",
                                         *spot, f"cube {k}")
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
        "certplc.semantics",
    )
