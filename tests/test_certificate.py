import ast
import functools
import importlib
import inspect
import pathlib
import re
import sys
import time
import types
from dataclasses import replace

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from certplc import certificate as C
from certplc import expr as E
from certplc import fbd as F
from certplc import obligations as O
from certplc import properties as P
from certplc import verifier as V
from certplc.lia import witness as W
from certplc.lia.solver import decide_sat
from certplc.linear import _width_bounds
from certplc.model import (ActionBlock, SfcModel, canonical_text,
                           model_digest, parse_model, text_digest)
from certplc.lia.witness import MAX_SPLIT_NESTING
from certplc.parsing import MAX_NESTING
from certplc.prooftree import ProofTree, parse_proof_lines, proof_lines

from conftest import (CAPPED_16, FANOUT, FIXTURES, NONLINEAR_GUARD, OPAQUE,
                      WRAP_BLOWUP, WRAP_BLOWUP_PROP, benchmark_cases,
                      built_in_code, fixture_names, load_invariants,
                      load_model, node_witnesses, states_of)
from test_lia import _PUGH


def proved_certificate(name="loop", index=1):
    model = load_model(name)
    inv = load_invariants(name, model)[index]
    res = V.verify_invariant(model, inv)
    assert isinstance(res, V.Proved)
    return model, inv, C.emit(model, inv, res.tree)


def repeating_certificate():
    """loop's CAPPED_16 claim and its certificate, whose proof names
    witness blocks printed before it: ``cubes 18`` entries repeat one
    block, the one that refutes each clause's negated conclusion."""
    model = load_model("loop")
    inv = P.parse_properties(
        f"invariant capped_16 : always ({CAPPED_16});", model)[0]
    res = V.verify_invariant(model, inv)
    assert isinstance(res, V.Proved)
    return model, inv, C.emit(model, inv, res.tree)


def target_certificates(load=load_model):
    """Certificates with a target, from the two lemma claims: Dead
    unreachable in dead_ctx under the context ``0 < y``, and the loop's
    exit trigger determining Return under the mutex context, on the models
    *load* gives.  Maps a name to (model, invariant, target, certificate
    bytes)."""
    dead = load("dead_ctx")
    loop = load("loop")
    claims = {
        "dead_ctx/unreachable": (dead, V.check_guard_unreachable(
            dead, "Dead", (P.parse_formula_text("0 < y", dead),))),
        "loop/determined": (loop, V.check_determined_successor(
            loop, P.parse_formula_text("x >= 10 && step(Init)", loop),
            "Return",
            (P.parse_formula_text("!step(Init) || !step(Step2)", loop),))),
    }
    out = {}
    for name, (model, (inv, target)) in claims.items():
        res = V.verify_invariant(model, inv, target)
        assert isinstance(res, V.Proved), name
        out[name] = (model, inv, target, C.emit(model, inv, res.tree, target))
    return out


def refresh_digest(text: str) -> str:
    """Recompute the digest line from the embedded model section."""
    body = text.split("--- model\n", 1)[1].split("--- property", 1)[0]
    model = parse_model(body)
    return re.sub(r"digest: [0-9a-f]{64}",
                  f"digest: {model_digest(model)}", text)


class TestEmit:
    def test_round_trip_accepts(self):
        _, _, data = proved_certificate()
        assert C.check(data).accepted
        assert bool(C.check(data))

    def test_byte_deterministic(self):
        model, inv, data = proved_certificate()
        res = V.verify_invariant(model, inv)
        assert C.emit(model, inv, res.tree) == data

    def test_embeds_canonical_model(self):
        model, _, data = proved_certificate()
        text = data.decode()
        body = text.split("--- model\n", 1)[1].split("--- property", 1)[0]
        assert body == canonical_text(model)


class TestCheckRejections:
    def test_arbitrary_bytes(self):
        assert not C.check(b"\x00\xff garbage").accepted
        assert not C.check(b"").accepted

    def test_bad_magic(self):
        # CERTPLC/1 is the grammar with per-conjunct headers, CERTPLC/2 the
        # one that lists an entry per hypothesis cube of a closed case,
        # CERTPLC/3 the one that prints a repeated witness again in full,
        # CERTPLC/4 the one that lists each closed case as ``hyps 0``,
        # CERTPLC/5 the one whose derivation reads a constant write as a
        # post-value variable, so that it lists the cases the constant
        # closes, CERTPLC/6 the one with an entry per cube of the product
        # of every disjunctive hypothesis piece: each is rejected at its
        # first line, before the proof is read
        _, _, data = proved_certificate()
        for magic in (b"CERTPLC/9", b"CERTPLC/1", b"CERTPLC/2",
                      b"CERTPLC/3", b"CERTPLC/4", b"CERTPLC/5",
                      b"CERTPLC/6"):
            bad = data.replace(C.MAGIC.encode(), magic, 1)
            assert bad != data
            v = C.check(bad)
            assert v.reason == "parse: bad magic line" and v.path == ()

    def test_open_case_without_entries_is_a_count_mismatch(self):
        # trans:0 is open: the checker derives its root cube.  Its case is
        # dropped from the tree, which is printed again, which leaves
        # trans:0 unlisted and the witness table well formed
        model, inv, data = proved_certificate()
        tree = V.verify_invariant(model, inv).tree
        assert "case trans:0\n" in data.decode()
        bad = C.emit(model, inv, ProofTree(tuple(
            c for c in tree.cases if c.label != "trans:0")))
        assert "case trans:0\n" not in bad.decode()
        v = C.check(bad)
        assert v.reason == "coverage: hypothesis cube count mismatch"
        assert v.path == ("cases", "trans:0")

    def test_closed_case_with_an_entry_is_a_count_mismatch(self):
        # trans:2 is closed: the checker derives no hypothesis cube for it,
        # and the certificate lists it nowhere
        _, _, data = proved_certificate()
        text = data.decode()
        assert "case trans:2\n" not in text
        bad = text.replace("case react:Init\n",
                           "case trans:2\ncubes 0\ncase react:Init\n", 1)
        v = C.check(bad.encode())
        assert v.reason == "coverage: hypothesis cube count mismatch"
        assert v.path == ("cases", "trans:2")

    @pytest.mark.parametrize("node", [
        "cubes 0\n", "contradiction\nsteps 1\ncombine 0*1\n"])
    def test_listed_framed_case_is_rejected_before_derivation(
            self, node, monkeypatch):
        # x_capped_ind frames trans:2, so the checker derives nothing for
        # it; listed with any node, it is a count mismatch at its path
        model, inv, data = proved_certificate()
        ctx = O.DerivationContext(model, inv.formula)
        rule, = (r for r in model.rules if r.label() == "trans:2")
        assert ctx.framed(rule)
        bad = data.decode().replace(
            "case react:Init\n", f"case trans:2\n{node}case react:Init\n", 1)
        built, build = [], O.build_obligation
        monkeypatch.setattr(O, "build_obligation", lambda ctx, r: (
            built.append(r.label()) or build(ctx, r)))
        v = C.check(bad.encode())
        assert v.reason == "coverage: hypothesis cube count mismatch"
        assert v.path == ("cases", "trans:2")
        assert built == ["exec:A_Init", "trans:0", "trans:1"]

    @pytest.mark.parametrize("order, reason", [
        (("model", "property", "property", "proof"),
         "duplicate section '--- property'"),
        (("property", "model", "proof"), "sections out of order"),
    ], ids=["duplicate", "out-of-order"])
    def test_section_marks_are_unique_and_in_order(self, order, reason):
        _, _, data = proved_certificate()
        head, rest = data.decode().split("--- model\n", 1)
        body = dict(zip(("model", "property", "proof"), re.split(
            "--- property\n|--- proof\n", rest)))
        bad = head + "".join(f"--- {name}\n{body[name]}" for name in order)
        v = C.check(bad.encode())
        assert (v.reason, v.path) == (f"parse: {reason}", ())

    def test_listed_constant_closed_case_is_a_count_mismatch(self):
        # ``y := 1`` closes exec:A_Main; the entry a CERTPLC/5 certificate
        # listed for it names a case that derives no hypothesis cube
        *_, data = target_certificates()["dead_ctx/unreachable"]
        text = data.decode()
        assert "case exec:A_Main\n" not in text
        bad = text.replace("case trans:0\n", "case exec:A_Main\ncubes 1\n"
                           "steps 1\ncombine 12*1 5*1\ncase trans:0\n", 1)
        v = C.check(bad.encode())
        assert v.reason == "coverage: hypothesis cube count mismatch"
        assert v.path == ("cases", "exec:A_Main")

    def test_listed_closed_case_is_a_proof_parse_rejection(self):
        # a closed case has one text, the absent one: a listed case has a
        # node
        _, _, data = proved_certificate()
        bad = data.decode().replace("case react:Init\n",
                                    "case trans:2\ncase react:Init\n", 1)
        v = C.check(bad.encode())
        assert v.reason == "proof-parse: expected a proof node, got " \
            "'case react:Init'"

    def test_digest_mismatch(self):
        _, _, data = proved_certificate()
        text = data.decode()
        bad = re.sub(r"digest: [0-9a-f]{8}", "digest: deadbeef", text)
        v = C.check(bad.encode())
        assert not v.accepted and "digest" in v.reason

    def test_guard_edit_with_digest_fixup(self):
        _, _, data = proved_certificate()
        bad = refresh_digest(data.decode().replace("x < 10", "x < 12"))
        v = C.check(bad.encode())
        assert not v.accepted
        assert v.reason.startswith("replay")

    def test_nonlinear_guard_is_unsupported_effect(self):
        _, _, data = proved_certificate()
        bad = refresh_digest(data.decode().replace("x < 10", "x * x < 10"))
        v = C.check(bad.encode())
        assert not v.accepted
        assert v.reason == ("unsupported-effect: trans:0: multiplication of "
                            "two non-constant expressions")
        assert v.path == ("cases", "trans:0")

    def test_nonlinear_property_atom_is_unsupported_effect(self):
        _, _, data = proved_certificate()
        bad = data.decode().replace("always (x <= 10 &&",
                                    "always (x * x <= 100 &&", 1)
        v = C.check(bad.encode())
        assert not v.accepted
        assert v.reason.startswith("unsupported-effect: exec:A_Init: "
                                   "multiplication")

    def test_wrap_blowup_is_a_resource_rejection(self):
        # prove the property on a harmless effect, then swap the effect
        mild = parse_model(WRAP_BLOWUP.replace("750 * (15928 * y - (y - 18))",
                                               "y"))
        inv = P.parse_properties(WRAP_BLOWUP_PROP, mild)[0]
        res = V.verify_invariant(mild, inv)
        assert isinstance(res, V.Proved)
        text = C.emit(mild, inv, res.tree).decode()
        bad = refresh_digest(text.replace(
            "z := y;", "z := 750 * (15928 * y - (y - 18));"))
        assert bad != text
        t0 = time.perf_counter()
        v = C.check(bad.encode())
        assert time.perf_counter() - t0 < 1.0
        assert not v.accepted
        assert v.reason.startswith("resource:")
        assert v.path == ("cases", "exec:A")

    def test_cases_out_of_rule_order_are_a_coverage_rejection(self):
        # emit prints any tree; the listed cases, reversed or with the last
        # one listed twice, no longer follow rule order once each
        model, inv, _ = proved_certificate()
        cases = V.verify_invariant(model, inv).tree.cases
        for bad in (cases[::-1], cases + cases[-1:]):
            v = C.check(C.emit(model, inv, ProofTree(bad)))
            assert v.reason == ("coverage: case distinction does not match "
                                "the rule instances")
            assert v.path == ("cases",)

    def test_case_deletion_is_coverage_error(self):
        # react:Init is open; deleting it leaves it unlisted
        _, _, data = proved_certificate()
        lines = data.decode().split("\n")
        start = next(i for i, ln in enumerate(lines)
                     if ln.startswith("case react:Init"))
        end = next(i for i in range(start + 1, len(lines))
                   if lines[i].startswith("case ") or lines[i] == "")
        bad = "\n".join(lines[:start] + lines[end:])
        v = C.check(bad.encode())
        assert not v.accepted and "coverage" in v.reason

    def test_truncated_proof(self):
        _, _, data = proved_certificate()
        bad = b"\n".join(data.split(b"\n")[:-10])
        assert not C.check(bad).accepted

    @pytest.mark.parametrize("count", ["x", "-1", "1000001"],
                             ids=["non-numeric", "negative", "over-limit"])
    @pytest.mark.parametrize("header, what", [
        (r"split \d+", "branch"),
        (r"cubes", "cube"),
    ], ids=["split", "cubes"])
    def test_bad_header_count(self, header, what, count):
        _, _, data = proved_certificate()
        text = data.decode()
        m = re.search(rf"^({header}) \d+$", text, re.M)
        assert m
        bad = text[:m.start()] + f"{m.group(1)} {count}" + text[m.end():]
        v = C.check(bad.encode())
        assert not v.accepted
        assert v.reason.startswith(f"proof-parse: bad {what} count")

    def test_witness_coefficient_corruption(self):
        _, _, data = proved_certificate()
        text = data.decode()
        m = re.search(r"combine (\d+)\*(\d+)", text)
        assert m
        skew = f"combine {m.group(1)}*{int(m.group(2)) + 3}"
        bad = text[:m.start()] + skew + text[m.end():]
        assert not C.check(bad.encode()).accepted

    def test_property_strengthening_rejected(self):
        # certificate for x <= 65535 cannot be replayed for x <= 5
        model = load_model("loop")
        inv = load_invariants("loop", model)[2]
        res = V.verify_invariant(model, inv)
        data = C.emit(model, inv, res.tree).decode()
        bad = data.replace("x <= 65535);", "x <= 5);")
        v = C.check(bad.encode())
        assert not v.accepted

    def test_long_property_with_short_proof_is_a_coverage_rejection(self):
        # 1200 conjuncts against the proof of x_capped_ind's four: the
        # checker derives every obligation and counts, without recursing
        # once per connective.  The added conjuncts are split pieces after
        # x_capped_ind's, so its root cubes and split indices stay and the
        # first node that the count reaches is rejected
        model, inv, data = proved_certificate("loop", 1)
        text = P.formula_text(inv.formula)
        longer = text + "".join(f" && (!step(Step2) || x <= {11 + i})"
                                for i in range(1196))
        bad = data.decode().replace(f"({text});", f"({longer});")
        v = C.check(bad.encode())
        assert v.reason == "coverage: negated-conclusion cube count " \
            "mismatch", v

    def test_replay_rejection_names_the_flat_cube_index(self):
        """A node's witnesses follow its joint cubes across conjuncts:
        x_capped_ind's trans:0 node lists a cube of the third conjunct,
        then one of the fourth, so a wrong second witness is rejected at
        ``cube 1``."""
        from certplc.prooftree import CaseProof, Cubes
        model, inv, _ = proved_certificate("loop", 1)
        tree = V.verify_invariant(model, inv).tree
        case = next(c for c in tree.cases if c.label == "trans:0")
        first, second = case.node.witnesses
        assert first != second
        bad = ProofTree(tuple(
            CaseProof(c.label, Cubes((first, first))) if c is case else c
            for c in tree.cases))
        v = C.check(C.emit(model, inv, bad))
        assert v.reason == ("replay: witness does not refute the "
                            "counterexample cube")
        assert v.path == ("cases", "trans:0", "cube 1")

    @pytest.mark.parametrize("again, why", [
        ("again 2", "again 2 before block 2 is defined"),
        ("again 12", "again 12 before block 12 is defined"),
        ("again 01", "bad number '01'"),
        ("again -1", "bad number '-1'"),
        ("again 1 2", "malformed line 'again 1 2'"),
        ("again", "malformed line 'again'"),
    ], ids=["forward", "undefined", "leading-zero", "negative",
            "two-numbers", "no-number"])
    def test_bad_again_line(self, again, why):
        """CAPPED_16's proof prints 9 blocks; the first joint cube of its
        first ``cubes 18`` node prints block 1, the second repeats it, and
        block 2 is first printed at the node's 17th joint cube."""
        *_, data = repeating_certificate()
        text = data.decode()
        old = "cubes 18\nsteps 1\ncombine 17*1 13*-1\nagain 1\n"
        assert text.count("\nsteps ") == 9 and old in text
        v = C.check(text.replace(old, old.replace("again 1", again),
                                 1).encode())
        assert v.reason == f"proof-parse: {why}", v.reason

    def test_again_as_the_first_block(self):
        _, _, data = proved_certificate()
        text = data.decode()
        head = "contradiction"
        first = f"{head}\nsteps 1\ncombine 13*1 0*-1\n"
        assert text.index("\nsteps ") == text.index(first) + len(head)
        v = C.check(text.replace(first, f"{head}\nagain 0\n", 1).encode())
        assert v.reason == "proof-parse: again 0 before block 0 is defined"

    def test_again_to_a_witness_that_does_not_refute(self):
        """A well-formed ``again K`` is replayed against the cube its node
        stands for: CAPPED_16's trans:0 node prints block 4 at its first
        joint cube and repeats it at the second, where block 0 (exec:A_Init's
        first contradiction) does not refute."""
        *_, data = repeating_certificate()
        text = data.decode()
        at = text.index("case trans:0\n")
        old = "cubes 18\nsteps 1\ncombine 10*1 4*1\nagain 4\n"
        assert text.index(old, at) == at + len("case trans:0\n")
        bad = text[:at] + text[at:].replace(
            old, old.replace("again 4", "again 0"), 1)
        v = C.check(bad.encode())
        assert v.reason == ("replay: witness does not refute the "
                            "counterexample cube")
        assert v.path == ("cases", "trans:0", "cube 1")

    def test_non_canonical_model_rejected(self):
        _, _, data = proved_certificate()
        text = data.decode().replace("--- model\n", "--- model\n\n", 1)
        v = C.check(refresh_digest(text).encode())
        assert not v.accepted and "canonical" in v.reason

    def test_rejection_never_claims_falsity(self):
        # a valid property with a damaged proof is rejected, yet still true
        model, inv, data = proved_certificate()
        bad = b"\n".join(data.split(b"\n")[:-4])
        assert not C.check(bad).accepted
        from certplc.semantics import reachable_bounded
        assert all(P.holds_on(inv.formula, s)
                   for s in reachable_bounded(model, 25))


CMP_OPS = ("<=", "<", ">=", ">", "==", "!=")


def property_mutants(line: str, model, rng, count: int = 12) -> list[str]:
    """Up to *count* single edits of a property line, drawn at random: a
    constant moved by one, a comparison swapped, && and || swapped, a !
    dropped, or a step or action name replaced by another declared one."""
    names = list(model.steps) + list(model.action_ids())
    edits = []
    for m in re.finditer(r"(?<!\w)\d+(?!\w)", line):
        edits += [(m, str(int(m.group()) + d)) for d in (1, -1)]
    for m in re.finditer(r"<=|>=|==|!=|<|>", line):
        edits += [(m, op) for op in CMP_OPS]
    for m in re.finditer(r"&&|\|\|", line):
        edits.append((m, "||" if m.group() == "&&" else "&&"))
    for m in re.finditer(r"!(?!=)", line):
        edits.append((m, ""))
    for m in re.finditer(r"\w+", line):
        if m.group() in names:
            edits += [(m, n) for n in names]
    mutants = {line[:m.start()] + new + line[m.end():] for m, new in edits}
    mutants.discard(line)
    return rng.sample(sorted(mutants), min(count, len(mutants)))


class TestPropertyMutants:
    def test_checker_never_raises_and_accepts_only_true_mutants(self):
        """Edit the property line of every fixture certificate.  The
        checker must return a verdict for each mutant, and each mutant it
        accepts must hold on every state found within 25 steps."""
        import random
        from conftest import fixture_names
        from certplc.semantics import reachable_bounded
        rng = random.Random(9)
        inputs = []  # (name, model, certificate text, property lines)
        for name in fixture_names():
            model = load_model(name)
            for inv in load_invariants(name, model):
                res = V.verify_invariant(model, inv)
                if isinstance(res, V.Proved):
                    inputs.append((name, model,
                                   C.emit(model, inv, res.tree).decode(),
                                   [P.invariant_text(inv)]))
        for name, (model, inv, target, data) in target_certificates().items():
            inputs.append((name, model, data.decode(),
                           [P.invariant_text(inv), P.invariant_text(target)]))
        tried = accepted = 0
        explored = {}
        for name, model, text, lines in inputs:
            if id(model) not in explored:
                explored[id(model)] = reachable_bounded(model, 25)
            states = explored[id(model)]
            for line in lines:
                assert text.count(line + "\n") == 1
                for mutant in property_mutants(line, model, rng):
                    tried += 1
                    verdict = C.check(text.replace(line, mutant).encode())
                    if not verdict.accepted:
                        continue
                    accepted += 1
                    f = P.parse_properties(mutant, model)[0].formula
                    assert all(P.holds_on(f, s) for s in states), \
                        (name, mutant)
        assert tried > 200 and 0 < accepted < tried


class TestProofNumberMutants:
    """Respell one number of the loop certificate's proof in a way ``int``
    reads as the same value.  Proof numbers are canonical decimal, so the
    checker must reject each edit while parsing the proof, not by an error
    escaping from it."""

    @pytest.mark.parametrize("old, new", [
        ("split 0 2", "split 0 0_2"),
        ("combine 13*1 0*-1", "combine \u066013*+1 0*-1"),
        ("combine 13*1 0*-1", "combine 13*1 0*-0_1"),
        ("combine 13*1 0*-1", "combine 13*\uff11 0*-1"),
        ("combine 13*1 0*-1", "combine +13*1 0*-1"),
        ("combine 13*1 0*-1", "combine 13*1 -0*-1"),
        ("cubes 2\n", "cubes \uff12\n"),
        ("cubes 2\n", "cubes +2\n"),
        ("steps 1\n", "steps +1\n"),
        ("steps 1\n", "steps 0_1\n"),
        ("steps 1\n", "steps \uff11\n"),
        ("cubes 2\n", "cubes 02\n"),
        ("combine 13*1 0*-1", "combine 13*1 0*-01"),
    ], ids=["split-underscore", "arabic-indic-and-plus", "mult-underscore",
            "fullwidth-mult", "plus-index", "minus-zero-index",
            "fullwidth-count", "plus-count", "plus-steps",
            "underscore-steps", "fullwidth-steps", "leading-zero-count",
            "leading-zero-mult"])
    def test_non_canonical_number_rejected(self, old, new):
        _, _, data = proved_certificate()
        text = data.decode()
        assert old in text and C.check(data).accepted
        v = C.check(text.replace(old, new, 1).encode())
        assert not v.accepted
        assert v.reason.startswith("proof-parse: "), v.reason

    @pytest.mark.parametrize("old, new", [
        ("combine 13*1 0*-1", "combine 13*1{} 0*-1"),
        ("cubes 2\n", "cubes 2{}\n"),
        ("steps 1\n", "steps 1{}\n"),
    ], ids=["mult", "count", "steps"])
    def test_overlong_number_rejected(self, old, new):
        """More digits than ``int`` reads is a parse rejection too."""
        _, _, data = proved_certificate()
        new = new.format("0" * 5000)
        v = C.check(data.decode().replace(old, new, 1).encode())
        assert not v.accepted
        assert v.reason.startswith("proof-parse: "), v.reason


_COUNT = re.compile(r"(split \d+|cubes|steps) (\d+)")
_NUMBER = re.compile(r"(?<![\w.-])-?\d+(?![\w.])")


@functools.cache
def _mutation_inputs() -> tuple[str, ...]:
    """Small certificates that between them hold contradiction nodes,
    nodes whose joint cubes come from several conjuncts (x_capped_ind's
    trans:0), splits nested in splits (its exec:A_Init) and a target with
    its entail case, where the constant write ``y := 1`` closes
    exec:A_Main."""
    loop = load_model("loop")
    inv = next(i for i in load_invariants("loop", loop)
               if i.name == "x_capped_ind")
    res = V.verify_invariant(loop, inv)
    *_, dead = target_certificates()["dead_ctx/unreachable"]
    return C.emit(loop, inv, res.tree).decode(), dead.decode()


def _proof_rows(lines: list[str]) -> list[int]:
    """Indices of the non-blank proof lines."""
    start = lines.index("--- proof") + 1
    return [i for i in range(start, len(lines)) if lines[i].strip()]


def _block_end(lines: list[str], i: int) -> int:
    """Index just past the witness block that starts at lines[i]: a
    ``steps`` line and its steps, or the single line ``again K``."""
    if lines[i].startswith("again "):
        return i + 1
    n = int(lines[i].split()[1])
    i += 1
    for _ in range(n):
        parts = lines[i].split()
        i += 1
        if parts[0] == "split":
            for _ in range(int(parts[3]) - int(parts[2]) + 1):
                i = _block_end(lines, i)
    return i


def _node_end(lines: list[str], i: int) -> int:
    """Index just past the proof node that starts at lines[i], its
    witness blocks and children included."""
    parts = lines[i].split()
    if parts[0] == "contradiction":
        return _block_end(lines, i + 1)
    i += 1
    for _ in range(int(parts[-1])):
        i = (_block_end if parts[0] == "cubes" else _node_end)(lines, i)
    return i


def _children(lines: list[str], h: int) -> list[int]:
    """The start of each child of the split at lines[h], then the index
    just past its last child."""
    starts = [h + 1]
    for _ in range(int(lines[h].split()[2])):
        starts.append(_node_end(lines, starts[-1]))
    return starts


def _count_edit(draw, lines):
    at = draw(st.sampled_from([i for i in _proof_rows(lines)
                               if _COUNT.fullmatch(lines[i].strip())]))
    m = _COUNT.fullmatch(lines[at].strip())
    old = int(m.group(2))
    new = draw(st.one_of(st.sampled_from([old - 1, old + 1]),
                         st.integers(0, 1_000_001)).filter(
        lambda n: n >= 0 and n != old))
    lines[at] = f"{m.group(1)} {new}"


def _block_removal(draw, lines):
    """Remove one witness block of a ``cubes M`` node, M >= 1, and write
    M - 1 in its header."""
    heads = [i for i in _proof_rows(lines)
             if re.fullmatch(r"cubes [1-9]\d*", lines[i])]
    at = draw(st.sampled_from(heads))
    head, _, m = lines[at].rpartition(" ")
    starts = [at + 1]
    for _ in range(int(m)):
        starts.append(_block_end(lines, starts[-1]))
    k = draw(st.integers(0, int(m) - 1))
    lines[starts[k]:starts[k + 1]] = []
    lines[at] = f"{head} {int(m) - 1}"


def _derivation(text: str):
    """A certificate's model and the derivation context of its property."""
    model = parse_model(text.split("--- model\n", 1)[1]
                        .split("--- property")[0])
    props = P.parse_properties(text.split("--- property\n", 1)[1]
                               .split("--- proof")[0], model)
    target = props[1].formula if len(props) == 2 else None
    return model, O.DerivationContext(model, props[0].formula, target)


def _rule_labels(text: str) -> list[str]:
    """The labels of a certificate's proof cases, listed or not."""
    model, ctx = _derivation(text)
    return [r.label() for r in O.proof_cases(model, ctx.target)]


@functools.lru_cache(maxsize=4)
def _pinned_labels(text: str) -> tuple[str, ...]:
    """The labels of the cases that a constant write closes: a reading
    with a written variable, and no hypothesis cube."""
    model, ctx = _derivation(text)
    return tuple(r.label() for r in model.rules
                 if any(value == O.WRITTEN for reading in
                        ctx.readings.get(r, ()) for _, value in reading)
                 and not O.build_obligation(ctx, r).hyp_cubes)


def _case_edit(draw, kind, text, lines):
    """Edit the list of cases: a ``case L`` line and a ``cubes 0`` node
    inserted in rule order for a closed rule L, or ``case L`` with a
    ``cubes 1`` node of one witness (the first block) for a rule L that a
    constant write closes, one listed case removed with its nodes, two
    listed cases swapped, one listed twice, or one relabelled with a
    label no rule has."""
    heads = [i for i in _proof_rows(lines) if lines[i].startswith("case ")]
    spans = list(zip(heads, heads[1:] + [len(lines) - 1]))
    listed = [lines[h].split()[1] for h in heads]
    labels = _rule_labels(text)
    if kind in ("closed", "pinned"):
        label = draw(st.sampled_from(
            _pinned_labels(text) if kind == "pinned"
            else [x for x in labels if x not in listed]))
        at = next((h for h, x in zip(heads, listed)
                   if labels.index(x) > labels.index(label)), len(lines) - 1)
        if kind == "closed":
            lines[at:at] = [f"case {label}", "cubes 0"]
            return
        first = next(i for i in _proof_rows(lines)
                     if lines[i].startswith("steps "))
        lines[at:at] = [f"case {label}", "cubes 1",
                        *lines[first:_block_end(lines, first)]]
        return
    if kind == "swap-cases":
        (h, e), (h2, e2) = sorted(draw(st.lists(st.sampled_from(spans),
                                                min_size=2, max_size=2,
                                                unique=True)))
        lines[h:e2] = lines[h2:e2] + lines[e:h2] + lines[h:e]
        return
    h, e = draw(st.sampled_from(spans))
    if kind == "unlist":
        lines[h:e] = []
    elif kind == "duplicate-case":
        lines[e:e] = lines[h:e]
    else:
        lines[h] += ":unknown"


@functools.lru_cache(maxsize=4)
def _split_counts(text: str) -> dict[str, int]:
    """Each listed case's label -> its number of split pieces."""
    model, ctx = _derivation(text)
    listed = {ln.split()[1] for ln in text.split("\n")
              if ln.startswith("case ")}
    return {r.label(): len(O.build_obligation(ctx, r).splits)
            for r in O.proof_cases(model, ctx.target)
            if r.label() in listed}


def _split_edit(draw, kind, text, lines):
    """Edit one split node, or a case's node: its piece index past the
    case's split pieces, an inner split on its parent's piece, a split
    in a case with no split piece (around two copies of the case's
    node), one child more than its piece has cubes, two children
    swapped, or its last child removed."""
    rows = _proof_rows(lines)
    if kind == "split-none":
        h = draw(st.sampled_from([i for i in rows if lines[i].startswith(
            "case ") and _split_counts(text)[lines[i].split()[1]] == 0]))
        node = lines[h + 1:_node_end(lines, h + 1)]
        lines[h + 1:h + 1 + len(node)] = ["split 0 2", *node, *node]
        return
    h = draw(st.sampled_from([i for i in rows
                              if lines[i].startswith("split ")]))
    _, k, n = lines[h].split()
    starts = _children(lines, h)
    if kind == "split-range":
        label = next(lines[i].split()[1] for i in reversed(rows)
                     if i < h and lines[i].startswith("case "))
        past = _split_counts(text)[label] + draw(st.integers(0, 3))
        lines[h] = f"split {past} {n}"
    elif kind == "split-twice":
        child = lines[starts[0]:starts[1]]
        lines[starts[0]:starts[1]] = [lines[h], *child * int(n)]
    elif kind == "split-count":
        lines[starts[-1]:starts[-1]] = lines[starts[-2]:starts[-1]]
        lines[h] = f"split {k} {int(n) + 1}"
    elif kind == "split-swap":
        i, j = sorted(draw(st.lists(st.integers(0, int(n) - 1), min_size=2,
                                    max_size=2, unique=True)))
        a, b = lines[starts[i]:starts[i + 1]], lines[starts[j]:starts[j + 1]]
        assume(a != b)
        lines[starts[i]:starts[j + 1]] = \
            b + lines[starts[i + 1]:starts[j]] + a
    else:  # truncated
        del lines[starts[-2]:starts[-1]]


# the reason each split edit is rejected with: its start
SPLIT_REASONS = {
    "split-range": "coverage: split on piece ",
    "split-twice": "coverage: piece ",
    "split-none": "coverage: split on piece 0 of 0",
    "split-count": "coverage: split ",
    "split-swap": "replay: ",
    "split-truncate": "proof-parse: expected a proof node, got ",
}


@st.composite
def _broken_certificates(draw):
    """A certificate with one edit that no checker may accept: one proof
    line dropped or duplicated, a count header changed, one witness block
    (``steps`` and its lines, or ``again K``) removed and its node's count
    decremented, the list of cases edited (see ``_case_edit``) or a split
    edited (see ``_split_edit``)."""
    text = draw(st.sampled_from(_mutation_inputs()))
    lines = text.split("\n")
    splits = [k for k in SPLIT_REASONS if k != "split-none"]
    kind = draw(st.sampled_from(["drop", "duplicate", "count", "block",
                                 "closed", "unlist", "swap-cases",
                                 "duplicate-case", "unknown-label"]
                                + ["pinned"] * bool(_pinned_labels(text))
                                + splits * ("\nsplit " in text)
                                + ["split-none"] * (0 in _split_counts(
                                    text).values())))
    if kind == "count":
        _count_edit(draw, lines)
    elif kind == "block":
        _block_removal(draw, lines)
    elif kind.startswith("split-"):
        _split_edit(draw, kind, text, lines)
    elif kind not in ("drop", "duplicate"):
        _case_edit(draw, kind, text, lines)
    else:
        at = draw(st.sampled_from(_proof_rows(lines)))
        lines[at:at + 1] = [lines[at]] * (2 if kind == "duplicate" else 0)
    return kind, "\n".join(lines).encode()


@st.composite
def _edited_certificates(draw):
    """A certificate with two proof lines swapped, one number anywhere
    replaced by another canonical number, or one byte flipped; the digest
    line is optionally recomputed from the edited model section, so that
    the checker has to reject an edited model on its merits."""
    text = original = draw(st.sampled_from(_mutation_inputs()))
    kind = draw(st.sampled_from(["swap", "number", "flip"]))
    if kind == "swap":
        lines = text.split("\n")
        i, j = draw(st.lists(st.sampled_from(_proof_rows(lines)), min_size=2,
                             max_size=2, unique_by=lines.__getitem__))
        lines[i], lines[j] = lines[j], lines[i]
        text = "\n".join(lines)
    elif kind == "number":
        m = draw(st.sampled_from(list(_NUMBER.finditer(text))))
        old = int(m.group())
        new = draw(st.one_of(st.sampled_from([old - 1, old + 1, -old]),
                             st.integers(-70000, 70000)))
        text = text[:m.start()] + str(new) + text[m.end():]
    data = text.encode()
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) \
            + data[at + 1:]
    if draw(st.booleans()):
        model = data.split(b"--- model\n", 1)[-1].split(b"--- property")[0]
        data = re.sub(rb"digest: [0-9a-f]{64}",
                      f"digest: {text_digest(model.decode('utf-8', 'replace'))}"
                      .encode(), data, count=1)
    assume(data != original.encode())
    return kind, data


def _timed_check(data: bytes):
    """check's verdict, which must come from a rejection path or an
    acceptance, never from an exception caught by check's last resort,
    and within a second."""
    t0 = time.perf_counter()
    v = C.check(data)
    assert time.perf_counter() - t0 < 1.0
    assert isinstance(v, C.CheckVerdict) and not v.reason.startswith("error:")
    return v


@functools.lru_cache(maxsize=16)
def _states(model_text: str):
    return states_of(parse_model(model_text), 25, 20_000)


class TestCertificateMutants:
    """Whole-certificate mutants, drawn derandomized: 300 each in Tier-1,
    more under ``--hypothesis-profile long``.  Breaking the proof's
    structure is always rejected; any other edit gets a verdict within a
    second, and an accepted certificate's properties hold on every state
    found within 25 steps of its own model."""

    @settings(max_examples=max(300, settings.default.max_examples),
              deadline=None, derandomize=True, database=None)
    @given(_broken_certificates())
    def test_structural_edits_are_rejected(self, mutant):
        kind, data = mutant
        v = _timed_check(data)
        event(f"{kind}: {v.reason[:24]}")
        assert not v.accepted, (kind, data.decode())
        assert not C.check(data)
        if kind == "pinned":
            assert v.reason == "coverage: hypothesis cube count mismatch"
        if kind in SPLIT_REASONS:
            assert v.reason.startswith(SPLIT_REASONS[kind]), (kind, v)
        if kind == "split-twice":
            assert v.reason.endswith(" split twice on one path"), v

    @settings(max_examples=max(300, settings.default.max_examples),
              deadline=None, derandomize=True, database=None)
    @given(_edited_certificates())
    def test_other_edits_are_sound(self, mutant):
        kind, data = mutant
        v = _timed_check(data)
        event(f"{kind}: {'accepted' if v.accepted else v.reason[:24]}")
        if not v.accepted:
            return
        text = data.decode()
        model_text = text.split("--- model\n", 1)[1].split("--- property")[0]
        model = parse_model(model_text)
        props = P.parse_properties(
            text.split("--- property\n", 1)[1].split("--- proof")[0], model)
        for s in _states(model_text):
            assert all(P.holds_on(p.formula, s) for p in props), \
                (kind, text)


class TestAllFixturesRoundTrip:
    def test_every_proved_invariant_certifies(self):
        from conftest import fixture_names
        for name in fixture_names():
            model = load_model(name)
            for inv in load_invariants(name, model):
                res = V.verify_invariant(model, inv)
                if isinstance(res, V.Proved):
                    data = C.emit(model, inv, res.tree)
                    assert C.check(data).accepted, (name, inv.name)


@functools.cache
def _proved_claims(seeds=(1,)) -> tuple:
    """(name, model, invariant, target, tree) of every claim that proves:
    the fixture invariants, the two target claims, and the invariants of
    the ring, arith and fanout benchmark charts of *seeds*."""
    out = []
    charts = [(name, load_model(name), None) for name in fixture_names()]
    for mc in benchmark_cases(seeds):
        charts.append((mc.name, parse_model(mc.text), mc.props_text()))
    for name, model, props in charts:
        invs = (load_invariants(name, model) if props is None
                else P.parse_properties(props, model))
        for inv in invs:
            res = V.verify_invariant(model, inv)
            if isinstance(res, V.Proved):
                out.append((f"{name}/{inv.name}", model, inv, None, res.tree))
    for name, (model, inv, target, _) in target_certificates().items():
        out.append((name, model, inv, target,
                    V.verify_invariant(model, inv, target).tree))
    return tuple(out)


def _entry_witnesses(tree):
    """The witness of every contradiction node and joint cube, in proof
    order."""
    for case in tree.cases:
        yield from node_witnesses(case.node)


def _entry_blocks(lines: list[str]) -> list[str]:
    """The first line of each node-level block of a proof: ``steps N``
    or ``again K``; the blocks inside a witness's splits are skipped."""
    heads, i = [], 0
    while i < len(lines):
        parts = lines[i].split()
        i += 1
        if parts[0] in ("contradiction", "cubes"):
            for _ in range(int(parts[-1]) if parts[0] == "cubes" else 1):
                heads.append(lines[i])
                i = _block_end(lines, i)
    return heads


class TestOpenCases:
    def test_listed_iff_open(self):
        """A certificate's case lines are exactly the proof cases whose
        re-derived obligation has a hypothesis cube, in proof-case
        order."""
        for name, model, inv, target, tree in _proved_claims():
            goal = None if target is None else target.formula
            ctx = O.DerivationContext(model, inv.formula, target=goal)
            proof = C.emit(model, inv, tree, target).decode() \
                .split("--- proof\n")[1]
            assert [ln.split()[1] for ln in proof.split("\n")
                    if ln.startswith("case ")] == \
                [r.label() for r in O.proof_cases(model, goal)
                 if O.build_obligation(ctx, r).hyp_cubes], name


class TestWitnessTable:
    """Each distinct entry-level witness is printed once as a block and
    then named by ``again K``; the table changes the text, not the tree
    nor the checker's replays."""

    def test_corpus_holds_repeated_witnesses(self):
        # a proof node's joint cubes share witnesses where their conjuncts
        # are alike: CAPPED_16 repeats 32 of its 41 node-level witnesses
        # (the fixture and benchmark proofs repeat none)
        model, inv, data = repeating_certificate()
        tree = V.verify_invariant(model, inv).tree
        witnesses = list(_entry_witnesses(tree))
        assert len(witnesses) - len(set(witnesses)) == 32
        assert data.decode().count("\nagain ") == 32
        assert C.check(data).accepted

    def test_round_trip(self):
        for name, *_, tree in _proved_claims():
            assert parse_proof_lines(proof_lines(tree)) == tree, name

    def test_each_witness_is_printed_once(self):
        for name, *_, tree in _proved_claims():
            heads = _entry_blocks(proof_lines(tree))
            blocks = [h for h in heads if h.startswith("steps ")]
            assert len(heads) == len(list(_entry_witnesses(tree))), name
            assert len(blocks) == len(set(_entry_witnesses(tree))), name
            assert len(heads) - len(blocks) == sum(
                h.startswith("again ") for h in heads), name

    def test_checker_replays_every_entry(self, monkeypatch):
        calls = 0
        replay = C.replay_witness

        def counted(cube, witness):
            nonlocal calls
            calls += 1
            return replay(cube, witness)

        monkeypatch.setattr(C, "replay_witness", counted)
        for name, model, inv, target, tree in _proved_claims():
            calls = 0
            assert C.check(C.emit(model, inv, tree, target)).accepted, name
            assert calls == len(list(_entry_witnesses(tree))), name


# SHA-256 of the certificate of every fixture invariant that proves.  Any
# change to the derivation of obligations, the proof search or the printers
# shows up here; a refactor that keeps the semantics keeps these bytes.
FIXTURE_CERT_SHA256 = {
    "ambiguous/steps_declared":
        "cbadb35754224d46117e823fe48c5e64b952a4179a4b9f5d8cce2395b9781ff0",
    "ambiguous/no_actions":
        "c583cb0118df3f6dd447ca5ed29128c8b2bd7a2cb7340297181d16fa7c4fd93d",
    "ambiguous/x_in_range":
        "6e5840995871a266bab3aebca8eaf3bee92f67317998f93a3e38a8473d3d2a99",
    "const_write/x_wrapped":
        "b8de892bd316ca409187c4ab136af83e3a4440ad4655c321ad415df4b1cb12b1",
    "const_write/b_on_hold":
        "b1a503dbe962939093b62afa78c5a2cc5d168de4d7c77dcb6c9cde20f38dad87",
    "const_write/m_wrapped":
        "7e7306006ba29c3304f10b43a9f94243c6dc114fe5af5eab03237102dbb892c0",
    "dead_ctx/y_positive":
        "a0ca0e7f87637ef012edca885b3c31468d7b0513b817fd0c4687760532a6d0aa",
    "dead_ctx/never_dead":
        "9916155c0333b6746683597bd0994f42011c0de96ce302c2684c4bc66d4b2c21",
    "dead_ctx/acts_declared":
        "2b481fc194c7263ac2df3f6f4d0303601d4bcc697b7c506bb157c0429ddf1526",
    "fbd_counter/out_small":
        "0f0655514015eabad51d838d998a0ca9313d9692e48fd12215d3d482162b17e6",
    "fbd_counter/out_in_range":
        "f73bfda058257124a1ba69b4c0e74ce4dc93a14cbfe0542ed5999790963223f2",
    "fbd_counter/acts_declared":
        "825077549731e19b802f6fb3c774bc751e8107ea9f552564e712582a327f2b08",
    "fbd_inc/x_capped_ind":
        "aca275320e2622bf41ccf214c6899d1de81e310a531ec86a066b1e9db8fb06e8",
    "fbd_inc/in_range":
        "68a6f22ef43f00f957542fe8484a70add89fe1884ee97dd9a0036300dcfb6293",
    "fbd_inc/acts_declared":
        "1d8c709fe403d8377b3bf9961f8a05b0bcf70ba03ad06a4490826dd16cf6e8d4",
    "flip/tautology":
        "77d97ac2786e6b63195701417c073c1a5deb9f24b715caab12fa02571435a6bd",
    "flip/steps_declared":
        "c53c0fd806f0c6bdbf8cb2f05b212f93d9b0ae946e793e797cc287d74e3864c0",
    "flip/acts_declared":
        "1196c571da40cbe32be4cc5633066fd956ab26b80e50f9fa5d6d00be801f04ba",
    "hold_positive/y_positive":
        "fb30717275690fd074ea0ed15b08a4a909e0125b6fe53ea1ceeda4be3d2752a7",
    "hold_positive/y_low":
        "84e79beaa647099116ff48fee28543a34e0eb0b9c919dbfc63882713bb11b362",
    "hold_positive/acts_declared":
        "bf5515b2f6534f9973e9b17d82a789f5ebcdde944b5a3e3a0f8e9340ab088c92",
    "hold_positive/x_in_range":
        "e9bb5badedc212622fd684b155400b917f2b2ac4a27e377b0dc728167ca2c850",
    "init_multi/steps_declared":
        "8e193599a47d19bde9a2d976c1e247c8b811b9d822121b17a7b63a19d2f187e5",
    "init_multi/no_actions":
        "5dc4c37dedd80cf9619abd405a6b0426775f66cc0374148d43f9c29c61c0ad63",
    "init_multi/k_in_range":
        "28f8cbf3defaf70bdb5be8214cb318cda51cc5e72f4bfc22429c11bf80b714fb",
    "lockstep/rel":
        "4c6f5e239e5cac288505e4f6fcfde6faf1c96c32aabcbfcfd124454053d7a4c3",
    "lockstep/x_in_range":
        "a63feb7535523257913d58e24cfbf80c18e03626b4defce2bd08a08b0f7cb84e",
    "lockstep/acts_declared":
        "a0ef0b9e17e74ffe876b4fc5c566548c31541e82b477e8f4dfa7e926a2f61f78",
    "loop/x_capped_ind":
        "9f56f65cb96741d449f38d56a8738b4cf3a0606e0047ccb16b93c70a6eb32942",
    "loop/in_range":
        "59e2df116528d877654c350859fa63534b235087a1a167ceab033b62b8a42bd4",
    "loop/acts_declared":
        "2f0ba0e6fa34b6a5ca57cc7d6a28b187c1dbcf904ca6c80ffdceb0c4fc017aa9",
    "multi_action/c_small":
        "4a7f08498136465fce204c00d7639315228d9dc384ba2c226ff6473a62316c61",
    "multi_action/steps_declared":
        "06dcc11674a561236768ef813b2759405d8de3cdc8d31bd60a09857fc62fb957",
    "multi_action/acts_declared":
        "2117f5223d61648d8742c55c48871d73eceacb10cb6dbd2ffb0cbac71b8136f7",
    "parallel/steps_declared":
        "e8a2b20ca8d85d2d607df67a32a2897b32cce41849ed14d9cdac85a0d73927ff",
    "parallel/acts_declared":
        "d68fa59bef53704ee3ee8435b70672ab4e0c341ff4d15825d356d526ac7a9b0e",
    "parallel/x_in_range":
        "d5110bee921e642dc49b030cbbad21cca812c1d6c0f669ed45b4887205bfbf9c",
    "timer/one_tick":
        "efeb1459c2a80e520fadb49d7125a4541a1eeb6f7a95993482bdc507ef55e063",
    "timer/t_in_range":
        "50fb3aa8c51187148e088638b840c1897b82847c9657cea587d5b70c7c344d72",
    "timer/acts_declared":
        "e13cb9386127d11c0132c9c1e4ea495c796793e0f3dcc89ae6d29bf0909c84a6",
    "toggle/mutex":
        "7e601aeeb6a7ec104e68c0cf821d4820677be67308a9b6faa2c17c357d611fd4",
    "toggle/n_in_range":
        "b29a090b1b071c64bcb65676a43d8f739c8218a1c5fb2330bfeb0459595cd20d",
    "toggle/acts_declared":
        "2211493d94c5dc91845de35100e919844657cba3bd280e2504dfc2a94f896dcd",
    "wrap/in_range":
        "02a8df5514f278e6303e8b4f259b235eb4927f6b53a21fcf5410976e02e2232d",
    "wrap/acts_declared":
        "09413a79aa2e406fb632394ba2320725d834f8cf5d95a60a6b23dd2b43171bed",
}


class TestCertificateBytes:
    def test_fixture_certificates_are_byte_identical(self):
        import hashlib
        from conftest import fixture_names
        got = {}
        for name in fixture_names():
            model = load_model(name)
            for inv in load_invariants(name, model):
                res = V.verify_invariant(model, inv)
                if isinstance(res, V.Proved):
                    data = C.emit(model, inv, res.tree)
                    got[f"{name}/{inv.name}"] = \
                        hashlib.sha256(data).hexdigest()
        assert got == FIXTURE_CERT_SHA256

    # `y == c * x` stepped in lockstep: the decider's refutations divide by
    # gcds, so these certificates carry tighten steps, which no fixture
    # certificate does
    LOCKSTEP_CERT_SHA256 = {
        ("int8", 5):
            "853aaf0eb9876b5e88d908a512311e85c57aa04b93a4a68d40d813bd41570676",
        ("int16", 12):
            "6306ebd6d13df6e38286406eb1e18c15bd82ed8c6de78e6664ece446d2842266",
    }

    @pytest.mark.parametrize("width, c", sorted(LOCKSTEP_CERT_SHA256))
    def test_tighten_certificates_are_byte_identical(self, width, c):
        import hashlib
        model = parse_model(
            f"var x : {width} = 0\nvar y : {width} = 0\n"
            "step P [initial]\nstep Q\n"
            f"action Inc on P {{ x := x + 1; y := y + {c}; }}\n"
            "trans {P} -[ true ]-> {Q}\ntrans {Q} -[ true ]-> {P}\n")
        inv = P.parse_properties(f"invariant rel : always (y == {c} * x);\n",
                                 model)[0]
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        data = C.emit(model, inv, res.tree)
        assert any(ln.lstrip().startswith("tighten ")
                   for ln in data.decode().split("\n"))
        assert hashlib.sha256(data).hexdigest() == \
            self.LOCKSTEP_CERT_SHA256[(width, c)]

    # the two lemma claims' certificates, each with a target and a
    # closing entail case
    TARGET_CERT_SHA256 = {
        "dead_ctx/unreachable":
            "70b44186b46590d9e2261217e5eb38412ba949c53d388c48c9ccec93c3c27e78",
        "loop/determined":
            "559c6dcefec7f5b3f2e057a4d7a01b8bc1e8bcbe9f08aa0beeff02f27a873308",
    }

    def test_target_certificates_are_byte_identical(self):
        import hashlib
        got = {name: hashlib.sha256(data).hexdigest()
               for name, (*_, data) in target_certificates().items()}
        assert got == self.TARGET_CERT_SHA256


class TestTargetCertificates:
    """A certificate whose property section names an invariant and a
    target: accepted as emitted, rejected once its proof or property no
    longer establishes the target."""

    @pytest.fixture(scope="class")
    def certs(self):
        return {name: data.decode() for name, (*_, data)
                in target_certificates().items()}

    def test_entail_case_deletion_is_coverage_error(self, certs):
        for text in certs.values():
            bad = text[:text.index("case entail\n")]
            v = C.check(bad.encode())
            assert not v.accepted and v.reason.startswith("coverage:")

    def test_stronger_false_target_rejected(self, certs):
        text = certs["dead_ctx/unreachable"]
        line = "invariant unreachable_Dead : always (!step(Dead));"
        assert line in text
        bad = text.replace(line, "invariant unreachable_Dead : always "
                                 "(!step(Dead) && 1 < y);")
        v = C.check(bad.encode())
        assert not v.accepted
        assert v.path[:2] == ("cases", "entail"), v

    def test_three_property_lines_rejected(self, certs):
        text = certs["loop/determined"].replace(
            "--- proof\n", "invariant extra : always (true);\n--- proof\n")
        v = C.check(text.encode())
        assert not v.accepted and v.reason.startswith("property-parse:")

    def test_non_inductive_invariant_rejected(self, certs):
        # !step(Dead) alone is true but not inductive: the context 0 < y
        # is what closes the transition guarded by y == 0
        text = certs["dead_ctx/unreachable"]
        line = ("invariant unreachable_Dead_ctx : always "
                "(0 < y && !step(Dead));")
        assert line in text
        bad = text.replace(line, "invariant unreachable_Dead_ctx : always "
                                 "(!step(Dead));")
        assert not C.check(bad.encode()).accepted

    def test_entail_case_listed_exactly_with_target(self):
        model, inv, target, _ = target_certificates()["dead_ctx/unreachable"]
        with_entail = V.verify_invariant(model, inv, target).tree
        without = V.verify_invariant(model, inv).tree
        # an entail case without a target follows no rule instance
        v = C.check(C.emit(model, inv, with_entail))
        assert v.reason == ("coverage: case distinction does not match the "
                            "rule instances")
        assert v.path == ("cases",)
        # the open entail case missing from a tree is unlisted
        v = C.check(C.emit(model, inv, without, target))
        assert v.reason == "coverage: hypothesis cube count mismatch"
        assert v.path == ("cases", "entail")


def _module_imports(modname: str) -> set[str]:
    """Modules whose code `modname` references, resolved from its AST.

    Parent-package initialization is not a reference: `from . import expr`
    counts as certplc.expr, not as the certplc root shim.
    """
    import certplc
    root = pathlib.Path(certplc.__file__).parent
    rel = modname.split(".")[1:]
    path = root.joinpath(*rel)
    path = path.with_suffix(".py") if path.with_suffix(".py").exists() \
        else path / "__init__.py"
    tree = ast.parse(path.read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import inside the package
                base = modname.split(".")
                if path.name != "__init__.py":
                    base = base[:-1]
                prefix = ".".join(base[:len(base) - node.level + 1])
                if node.module:
                    found.add(f"{prefix}.{node.module}")
                else:
                    for alias in node.names:
                        found.add(f"{prefix}.{alias.name}")
            elif node.module:
                found.add(node.module)
    return found


def _transitive_imports(start: str) -> set[str]:
    seen = set()
    todo = [start]
    while todo:
        mod = todo.pop()
        if mod in seen or not mod.startswith("certplc"):
            continue
        seen.add(mod)
        todo.extend(_module_imports(mod))
    return seen


def _reversed(model):
    """The model built in code with every declaration list and every
    diagram's blocks in reverse order."""
    return SfcModel(model.vars[::-1], model.steps[::-1], model.initial[::-1],
                    model.actions[::-1], model.transitions,
                    tuple(F.Fbd(f.name, f.blocks[::-1], f.time_slice)
                          for f in model.fbds[::-1]))


def _same_certificates(built, parsed, invariants):
    """*built* equals *parsed* and proves each property, read against
    either model, to the same verdict and the same certificate bytes, which
    the checker accepts."""
    assert built == parsed
    for text in invariants:
        inv_b = P.parse_properties(text, built)[0]
        res_b = V.verify_invariant(built, inv_b)
        inv_p = P.parse_properties(text, parsed)[0]
        res_p = V.verify_invariant(parsed, inv_p)
        assert repr(res_b) == repr(res_p), text
        if isinstance(res_b, V.Proved):
            data = C.emit(built, inv_b, res_b.tree)
            assert data == C.emit(parsed, inv_p, res_p.tree), text
            assert C.check(data).accepted, text


def _invariant_texts(name):
    return [ln for ln in (FIXTURES / f"{name}.inv").read_text().splitlines()
            if ln.startswith("invariant ")]


class TestCodeBuiltModels:
    """A model built in code is canonical whatever order its declarations
    and blocks come in, and typed whether or not its comparisons carry
    widths: it certifies byte for byte like its parsed twin."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_reversed_declarations(self, name):
        parsed = load_model(name)
        _same_certificates(_reversed(parsed), parsed, _invariant_texts(name))

    @pytest.mark.parametrize("name", fixture_names())
    def test_width_stripped_guards_and_assignments(self, name):
        parsed = load_model(name)
        _same_certificates(built_in_code(parsed), parsed,
                           _invariant_texts(name))

    def test_width_stripped_target_claims(self):
        built = target_certificates(lambda name: built_in_code(
            load_model(name)))
        for name, (*_, data) in target_certificates().items():
            assert built[name][-1] == data, name
            assert C.check(data).accepted, name

    @pytest.mark.parametrize("aid", ["A_Done", "Z_Done"])
    def test_replaced_actions(self, aid):
        # a new action prepended by dataclasses.replace, its id sorting
        # before or after the declared one
        parsed = load_model("loop")
        new = ActionBlock(aid, "Return", assigns=(("x", E.IntLit(0)),))
        built = replace(parsed, actions=(new,) + parsed.actions)
        twin = parse_model((FIXTURES / "loop.sfc").read_text()
                           + f"action {aid} on Return {{ x := 0; }}\n")
        _same_certificates(built, twin, _invariant_texts("loop"))


# A claim proved on FANOUT that reads n0: its open execute case is C0's,
# the one diagram action that writes n0; R's, which assigns n0 the
# constant 0, is closed by that constant
RESET_N0 = ("(!step(F) || n0 == 0) && (!step(J) || action(R) || n0 == 0)"
            " && (!action(C0) || step(B0)) && (!step(B0) || !step(J))"
            " && (!step(B0) || !step(F)) && (!step(F) || !step(J))")


class TestCheckWork:
    """Parsing a model validates its diagrams without compiling them; the
    checker compiles only the diagrams whose execute case is open."""

    def _certificate(self, claim):
        model = parse_model(FANOUT)
        inv = P.parse_properties(f"invariant p : always ({claim});",
                                 model)[0]
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        return C.emit(model, inv, res.tree)

    def _counted(self, monkeypatch, name):
        """The names of the diagrams ``fbd.<name>`` is called on."""
        calls, real = [], getattr(F, name)

        def counted(f, env):
            calls.append(f.name)
            return real(f, env)

        monkeypatch.setattr(F, name, counted)
        return calls

    def test_parse_validates_each_diagram_and_compiles_none(self,
                                                            monkeypatch):
        compiled = self._counted(monkeypatch, "compile_fbd")
        validated = self._counted(monkeypatch, "validate_fbd")
        parse_model(FANOUT)
        assert compiled == []
        assert validated == ["Cnt0", "Cnt1", "Cnt2"]

    def test_each_diagram_validated_once_per_check(self, monkeypatch):
        """The re-parse of the embedded model validates each diagram once;
        no case of a steps_within claim is open, so none is compiled."""
        data = self._certificate("steps_within {F, B0, B1, B2, J}")
        compiled = self._counted(monkeypatch, "compile_fbd")
        validated = self._counted(monkeypatch, "validate_fbd")
        assert C.check(data).accepted
        assert compiled == []
        assert sorted(validated) == ["Cnt0", "Cnt1", "Cnt2"]

    def test_only_diagrams_of_open_cases_are_compiled(self, monkeypatch):
        data = self._certificate(RESET_N0)
        assert {ln.split()[1] for ln in data.decode().split("\n")
                if ln.startswith("case exec:")} == {"exec:C0"}
        compiled = self._counted(monkeypatch, "compile_fbd")
        assert C.check(data).accepted
        assert compiled == ["Cnt0"]


def _chart(guard, rhs="x + 1"):
    return ("var x : int8\nstep S [initial]\nstep T\n"
            f"action A on S {{ x := {rhs}; }}\n"
            f"trans {{S}} -[ {guard} ]-> {{T}}\n")


class TestLongAndDeepExpressions:
    """Long sums are one node each, and nesting within MAX_NESTING leaves
    every walk, the checker's re-parse included, inside the stack; nesting
    past it is a model parse error."""

    def _certified(self, text):
        model = parse_model(text)
        inv = P.parse_properties("invariant p : always (x <= 255);",
                                 model)[0]
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        data = C.emit(model, inv, res.tree)
        assert C.check(data).accepted
        return data.decode()

    def test_long_sum_in_assignment_and_guard(self):
        # 1000 terms overflowed the stack when + was a binary node
        total = " + ".join(["x"] + ["1"] * 2999)
        text = self._certified(_chart(f"{total} < 3", total))
        assert f"x := {total};" in text and f"-[ {total} < 3 ]->" in text

    def test_not_chain_certifies(self):
        # `!` under `!` prints bare, so the canonical text the checker
        # re-parses nests no parenthesis per `!`
        text = self._certified(_chart("!" * 150 + "(x < 3)"))
        assert f"-[ {'!' * 150}x < 3 ]->" in text

    def test_nesting_at_the_bound_certifies(self):
        # each parenthesis of x - (1 - (1 - ...)) survives printing
        guard = ("x - (" + "1 - (" * (MAX_NESTING - 1) + "1 - x"
                 + ")" * MAX_NESTING + " < 3")
        text = self._certified(_chart(guard))
        assert f"-[ {guard} ]->" in text

    def test_nesting_past_the_bound_is_a_model_parse_rejection(self):
        data = self._certified(_chart("x < 3"))
        deep = "(" * 3000 + "x < 3" + ")" * 3000
        v = C.check(data.replace("-[ x < 3 ]->", f"-[ {deep} ]->").encode())
        assert v.reason == (f"model-parse: line 5, col {MAX_NESTING + 14}: "
                            f"nesting deeper than {MAX_NESTING}")


def _nested_splits(data: bytes, depth: int) -> bytes:
    """x_capped_ind's certificate with the witness of exec:A_Init's first
    contradiction replaced by *depth* nested one-branch splits around
    ``combine 0*1``."""
    lines = data.decode().split("\n")
    i = lines.index("case exec:A_Init") + 2
    assert lines[i - 1:i + 3] == ["split 0 2", "contradiction", "steps 1",
                                  "combine 13*1 0*-1"]
    lines[i + 1:i + 3] = (["steps 1", "split x 0 0 0 0"] * depth
                          + ["steps 1", "combine 0*1"])
    return "\n".join(lines).encode()


class TestSplitNesting:
    """Splits nested past MAX_SPLIT_NESTING are a proof parse rejection,
    not a recursion error; a chain at the bound parses and is replayed."""

    @pytest.fixture(scope="class")
    def data(self):
        model = load_model("loop")
        inv = next(i for i in load_invariants("loop", model)
                   if i.name == "x_capped_ind")
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        return C.emit(model, inv, res.tree)

    def test_deep_chain_is_a_proof_parse_rejection(self, data):
        for depth in (MAX_SPLIT_NESTING + 1, 2000):
            v = C.check(_nested_splits(data, depth))
            assert v.reason == ("proof-parse: split nesting deeper than "
                                f"{MAX_SPLIT_NESTING}")

    def test_chain_at_the_bound_is_replayed(self, data):
        # the splits' bound indices name no bound on x: replay rejects
        v = C.check(_nested_splits(data, MAX_SPLIT_NESTING))
        assert v.reason.startswith("replay: contradiction witness does not "
                                   "refute the hypothesis cube")
        assert v.path == ("cases", "exec:A_Init", "split 0:0")


# x is kept as it is and y is never written: every case but exec:A is
# closed, and exec:A's hypothesis has one split piece per y clause
_KEEP = ("var x : int16\nvar y : int16\nstep S [initial]\n"
         "action A on S { x := x; }\n")


def _deep_split_certificate(depth: int, broken: bool = False) -> bytes:
    """A hand-made certificate over ``x <= 100`` and *depth* clauses
    ``(!step(S) || y <= i)``: exec:A's node splits on piece 0, its second
    child on piece 1, and so on, *depth* splits deep; every other child
    is a ``cubes 1`` leaf whose witness adds the negated conclusion
    ``post:x >= 101`` (the member past the leaf's cube) to the definition
    ``post:x == x`` (member 4) and ``x <= 100`` (member 3).  With
    *broken*, the deepest leaf's witness drops the definition."""
    from certplc.prooftree import CaseProof, Cubes, Split
    model = parse_model(_KEEP)
    clauses = "".join(f" && (!step(S) || y <= {i})" for i in range(depth))
    inv = P.parse_properties(
        f"invariant deep : always (x <= 100{clauses});", model)[0]
    ob = O.build_obligation(O.DerivationContext(model, inv.formula),
                            next(iter(model.rules)))
    assert ob.rule.label() == "exec:A" and len(ob.splits) == depth

    def leaf(cube, skip=False):
        n = len(cube)
        first = W.Combine(((n, 1),) + ((4, -1),) * (not skip))
        return Cubes((W.Witness((first, W.Combine(((n + 1, 1), (3, 1))))),))

    cubes = [ob.hyp_cubes[0]]
    for k in range(depth):
        cubes.append(O.refine(cubes[-1], ob.splits[k][1]))
    node = leaf(cubes[-1], broken)
    for k in reversed(range(depth)):
        node = Split(k, (leaf(O.refine(cubes[k], ob.splits[k][0])), node))
    return C.emit(model, inv, ProofTree((CaseProof("exec:A", node),)))


class TestDeepSplits:
    """Splits nest as deep as a case has split pieces: printing, parsing
    and checking walk the nodes with their own stacks."""

    def test_1500_nested_splits_are_checked(self):
        data = _deep_split_certificate(1500)
        assert data.count(b"\nsplit ") == 1500
        t0 = time.perf_counter()
        v = C.check(data)
        assert v.accepted, v
        assert time.perf_counter() - t0 < 10

    def test_the_deepest_leaf_is_replayed(self):
        v = C.check(_deep_split_certificate(1500, broken=True))
        assert v.reason == ("replay: witness does not refute the "
                            "counterexample cube")
        assert v.path == ("cases", "exec:A",
                          *(f"split {k}:1" for k in range(1500)), "cube 0")


class TestTimeSliceBound:
    """A diagram runs once per iteration of its time slice in the checker
    too, so a slice past MAX_TIME_SLICE is a model parse error."""

    def test_slice_at_the_bound_certifies_and_past_it_is_rejected(self):
        model = parse_model(
            "var out : int16\nstep S [initial]\naction A on S = fbd F\n"
            "fbd F {\n  block d = delay(a.out)\n"
            "  block a = add(d.out, const 1)\n  block w = write out (a.out)\n"
            f"  timeslice {F.MAX_TIME_SLICE}\n}}\n")
        inv = P.parse_properties("invariant p : always (out <= 1024);",
                                 model)[0]
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        data = C.emit(model, inv, res.tree)
        assert C.check(data).accepted
        v = C.check(data.replace(b"timeslice 1024", b"timeslice 1025"))
        assert v.reason == ("model-parse: fbd 'F': time slice must be "
                            "positive and at most 1024")
        assert v.path == ()


class TestTrustedCore:
    def test_inventory_contents(self):
        inv = C.trusted_core_inventory()
        assert "certplc.lia.witness" in inv
        assert "certplc.model" in inv  # initial configuration, rule table
        assert "certplc.semantics" not in inv  # execution and exploration
        assert "certplc.obligations" in inv  # cube re-derivation
        assert "certplc.lia.solver" not in inv
        assert "certplc.verifier" not in inv

    def test_checker_never_imports_search_code(self):
        reached = _transitive_imports("certplc.certificate")
        assert "certplc.verifier" not in reached
        assert "certplc.lia.solver" not in reached
        assert "certplc.cli" not in reached

    def test_inventory_matches_import_graph(self):
        reached = _transitive_imports("certplc.certificate")
        assert reached == set(C.trusted_core_inventory())

    def test_check_enters_every_trusted_function(self):
        """Every function and method of the trusted core is entered by
        ``check`` on the certificates below, or is on ``TRUSTED_UNRUN``
        with the reason it stays there."""
        defined = {(m, q) for m in C.trusted_core_inventory()
                   for q in _functions_of(m)}
        stale = set(TRUSTED_UNRUN) - defined
        assert not stale, f"allowlisted but not defined: {sorted(stale)}"
        entered = _entered_by_check()
        unrun = sorted(defined - entered - set(TRUSTED_UNRUN))
        assert not unrun, f"trusted but never run by check: {unrun}"
        needless = sorted(set(TRUSTED_UNRUN) & entered)
        assert not needless, f"allowlisted but run by check: {needless}"


# Trusted functions that check never runs, each with who needs it there.
_PRINTER = "printer, kept beside the parser it mirrors; emit calls it"
TRUSTED_UNRUN = {
    ("certplc.certificate", "emit"): "the printer of a certificate",
    ("certplc.certificate", "CheckVerdict.__bool__"):
        "a rejection is falsy for a caller that writes `if check(data):`",
    ("certplc.certificate", "trusted_core_inventory"):
        "public API; the CI line-count step and TestTrustedCore read it",
    ("certplc.prooftree", "proof_lines"): _PRINTER,
    ("certplc.prooftree", "proof_lines.<locals>.block"): _PRINTER,
    ("certplc.lia.witness", "witness_lines"): _PRINTER,
    ("certplc.properties", "invariant_text"): _PRINTER,
    ("certplc.properties", "Active.pretty"): _PRINTER,
    ("certplc.properties", "Within.pretty"): _PRINTER,
    ("certplc.properties", "parse_formula_text"):
        "public API; the CLI's --check and the lemma claims parse with it",
    ("certplc.model", "model_digest"): "public API",
    ("certplc.expr", "IntDomain.mux"):
        "concrete domain: fbd.eval_iterative runs a diagram's mux in it",
    ("certplc.expr", "IntDomain.wrap"):
        "concrete domain: fbd.eval_iterative wraps block values with it",
    ("certplc.fbd", "eval_iterative"):
        "runs diagram actions for semantics; perfbench/tracing.py wraps "
        "it by name",
    ("certplc.model", "SfcState.key"):
        "configuration identity: test_semantics' reference explorer and "
        "TestStateText",
    ("certplc.model", "SfcState.__eq__"): "configuration identity",
    ("certplc.model", "SfcState.__ne__"): "configuration identity",
    ("certplc.model", "SfcState.__hash__"): "configuration identity",
    ("certplc.linear", "LinForm.evaluate"):
        "test oracles: test_agreement evaluates effect summaries with it",
    ("certplc.linear", "LinCon.evaluate"):
        "the solver re-checks a model with it; conftest's cube oracle",
}


def _functions_of(modname: str) -> set[str]:
    """``co_qualname`` of every function and method defined in a module's
    source, nested ones included, lambdas and comprehensions not."""
    path = importlib.import_module(modname).__file__
    todo = [compile(pathlib.Path(path).read_text(), path, "exec")]
    out = set()
    while todo:
        code = todo.pop()
        if code.co_flags & inspect.CO_NEWLOCALS and \
                not code.co_name.startswith("<"):  # not a class body
            out.add(code.co_qualname)
        todo.extend(c for c in code.co_consts
                    if isinstance(c, types.CodeType))
    return out


# a diagram whose mux has no linear form (OPAQUE's comparison fails first)
_MUX = ("var b : bool\nvar y : int16\nstep A [initial]\n"
        "action Amux on A = fbd Mux\n"
        "fbd Mux {\n block r = read b\n"
        " block m = mux(r.out, const 1, const 0)\n"
        " block w = write y (m.out)\n timeslice 1\n}\n")


def _rare_path_certificates() -> list[bytes]:
    """Certificates that take paths no proved claim and no structural
    mutant takes: non-linear guards and diagrams, subset atoms with names
    outside the set, a malformed property.  Each has an empty proof, so
    the checker derives its cases, or fails to, and rejects it."""
    out = []
    for text, prop in (
            (NONLINEAR_GUARD, "!step(T)"),
            (OPAQUE, "y <= 1"),
            (_MUX, "y <= 1"),
            ((FIXTURES / "loop.sfc").read_text(),
             "steps_within {Init} && actions_within {A_Init}")):
        model = parse_model(text)
        inv = P.parse_properties(f"invariant p : always ({prop});", model)[0]
        out.append(C.emit(model, inv, ProofTree(())))
    out.append(out[-1].replace(b"always (", b"always (x <= && ", 1))
    return out


def _entered_by_check() -> set[tuple[str, str]]:
    """(module, co_qualname) of each trusted function entered while
    ``check`` reads every fixture certificate, the target certificates,
    the structural mutants and ``_rare_path_certificates``, and while a
    witness with a range split replays."""
    inputs = [data for *_, data in target_certificates().values()]
    for name in fixture_names():
        model = load_model(name)
        for inv in load_invariants(name, model):
            res = V.verify_invariant(model, inv)
            if isinstance(res, V.Proved):
                inputs.append(C.emit(model, inv, res.tree))

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(_broken_certificates())
    def collect(mutant):
        inputs.append(mutant[1])

    collect()
    inputs += _rare_path_certificates()
    split = decide_sat(_PUGH).witness  # no certificate splits yet

    files = {importlib.import_module(m).__file__: m
             for m in C.trusted_core_inventory()}
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            entered.add((files[frame.f_code.co_filename],
                         frame.f_code.co_qualname))

    # a warm cache would hide a call
    W.decimal.cache_clear()
    _width_bounds.cache_clear()
    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        verdicts = [C.check(data) for data in inputs]
        replayed = W.replay_witness(_PUGH, split)
    finally:
        sys.setprofile(before)
    assert replayed and not any(v.reason.startswith("error:")
                                for v in verdicts)
    return entered
