import ast
import pathlib
import re
import time

import pytest

from certplc import certificate as C
from certplc import fbd as F
from certplc import properties as P
from certplc import verifier as V
from certplc.model import canonical_text, model_digest, parse_model
from certplc.parsing import MAX_NESTING

from conftest import (FANOUT, WRAP_BLOWUP, WRAP_BLOWUP_PROP, load_invariants,
                      load_model)


def proved_certificate(name="loop", index=1):
    model = load_model(name)
    inv = load_invariants(name, model)[index]
    res = V.verify_invariant(model, inv)
    assert isinstance(res, V.Proved)
    return model, inv, C.emit(model, inv, res.tree)


def target_certificates():
    """Certificates with a target, from the two lemma claims: Dead
    unreachable in dead_ctx under the context ``0 < y``, and the loop's
    exit trigger determining Return under the mutex context.  Maps a name
    to (model, invariant, target, certificate bytes)."""
    dead = load_model("dead_ctx")
    loop = load_model("loop")
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

    def test_byte_deterministic(self):
        model, inv, data = proved_certificate()
        res = V.verify_invariant(model, inv)
        assert C.emit(model, inv, res.tree) == data

    def test_refuses_missing_tree(self):
        model = load_model("loop")
        inv = load_invariants("loop", model)[1]
        with pytest.raises(C.EmitError):
            C.emit(model, inv, None)

    def test_refuses_incomplete_case_coverage(self):
        model, inv, _ = proved_certificate()
        res = V.verify_invariant(model, inv)
        from certplc.prooftree import ProofTree
        pruned = ProofTree(res.tree.cases[1:])
        with pytest.raises(C.EmitError):
            C.emit(model, inv, pruned)

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
        _, _, data = proved_certificate()
        bad = data.replace(b"CERTPLC/1", b"CERTPLC/9", 1)
        v = C.check(bad)
        assert not v.accepted and "magic" in v.reason

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

    def test_case_deletion_is_coverage_error(self):
        _, _, data = proved_certificate()
        lines = data.decode().split("\n")
        start = next(i for i, ln in enumerate(lines)
                     if ln.startswith("case react:Return"))
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
        (r"case \S+ hyps", "hyp"),
        (r"hyp \d+ conjuncts", "conjunct"),
        (r"conj \d+ cubes", "cube"),
    ], ids=["hyps", "conjuncts", "cubes"])
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
        # once per connective
        model, inv, data = proved_certificate("loop", 1)
        text = P.formula_text(inv.formula)
        longer = text + "".join(f" && x <= {11 + i}" for i in range(1196))
        bad = data.decode().replace(f"({text});", f"({longer});")
        v = C.check(bad.encode())
        assert v.reason == "coverage: conjunct count mismatch", v

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
        ("case exec:A_Init hyps 16", "case exec:A_Init hyps 0_16"),
        ("combine 4*1 0*-1", "combine \u06604*+1 0*-1"),
        ("combine 4*1 0*-1", "combine 4*1 0*-0_1"),
        ("combine 4*1 0*-1", "combine 4*\uff11 0*-1"),
        ("combine 4*1 0*-1", "combine +4*1 0*-1"),
        ("combine 4*1 0*-1", "combine 4*1 -0*-1"),
        ("hyp 0 conjuncts 4", "hyp 0 conjuncts \uff14"),
        ("conj 0 cubes 1", "conj 0 cubes +1"),
        ("steps 1\n", "steps +1\n"),
        ("steps 1\n", "steps 0_1\n"),
        ("steps 1\n", "steps \uff11\n"),
        ("conj 0 cubes 1", "conj 0 cubes 01"),
        ("combine 4*1 0*-1", "combine 4*1 0*-01"),
    ], ids=["hyps-underscore", "arabic-indic-and-plus", "mult-underscore",
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
        ("combine 4*1 0*-1", "combine 4*1{} 0*-1"),
        ("hyp 0 conjuncts 4", "hyp 0 conjuncts 1{}"),
        ("steps 1\n", "steps 1{}\n"),
    ], ids=["mult", "count", "steps"])
    def test_overlong_number_rejected(self, old, new):
        """More digits than ``int`` reads is a parse rejection too."""
        _, _, data = proved_certificate()
        new = new.format("0" * 5000)
        v = C.check(data.decode().replace(old, new, 1).encode())
        assert not v.accepted
        assert v.reason.startswith("proof-parse: "), v.reason


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


# SHA-256 of the certificate of every fixture invariant that proves.  Any
# change to the derivation of obligations, the proof search or the printers
# shows up here; a refactor that keeps the semantics keeps these bytes.
FIXTURE_CERT_SHA256 = {
    "ambiguous/steps_declared":
        "1dafe505116397fc517bc215c560eac0098238c146a6fe2e5154ec8fa39b5390",
    "ambiguous/no_actions":
        "769e1d38a1e108c23c066704f6715f742dd47f5e2a76dcaa5adf975a5c4b857f",
    "ambiguous/x_in_range":
        "72205ece2689963c983d051add91798fd2fcdb13d372998be59ac6895c46ebf6",
    "dead_ctx/y_positive":
        "6d3fe25efb9316877535f58f2075237c0de5bb39fc4faa6faf0987299cf4012b",
    "dead_ctx/never_dead":
        "bd2e886f59b54e36377c24741ee78a45d3ab62b9649f950dfa9fd815c7b7fc99",
    "dead_ctx/acts_declared":
        "feffcdf10ead4f9f404ae3e847f84fbe169c2b1aaad11b022bb071aebb073584",
    "fbd_counter/out_small":
        "cdb11a939550fb27b0d4807ecba53178aaa952eb2f6f9d1ffebbd028116a4e88",
    "fbd_counter/out_in_range":
        "84c18709d065173589580a941a5cfef29c5be58670ddb7957f2499553fd4c68c",
    "fbd_counter/acts_declared":
        "b2f1753241c32f07511e9c542ed6721136afc90aa6369e26bece6e828a153235",
    "fbd_inc/x_capped_ind":
        "c4c745f00def04b6c429a8df119f318f8b9e88420a81ed8b609ff3904bf64b5f",
    "fbd_inc/in_range":
        "38859251214000ef59b1a9a34fd4d6623238b79743144bad0cd3d8108917c026",
    "fbd_inc/acts_declared":
        "3bcb0bd124e94acf06b3285651c5524df4709b013eed427a27bb3f8b633c4252",
    "flip/tautology":
        "4c146f02181312a5b2ec1caa3f931384775428d5730fd6cfa726956e61a29863",
    "flip/steps_declared":
        "163476c43c3e8373d85559ba00f76d3c54de174f52c2fcd80a32b4c5e5f63250",
    "flip/acts_declared":
        "57202aa380cb88ac73f34452dba1641cc518f33054935fe9d97bf33a28be5d27",
    "hold_positive/y_positive":
        "9bf8caf036ce287055a65acafff5f2c02952f7ce3f29fd8d679c4c5d22bcb4e8",
    "hold_positive/y_low":
        "e3898ad73a629ed461a531f67f0d743dd38c36613c4744bf2c0480328221d4d0",
    "hold_positive/acts_declared":
        "5453b5b9d6b3f86797ceafdf9c1f28c093eb684aa116ffbd25db5c2f3577404e",
    "hold_positive/x_in_range":
        "a446b730487dd6aee82d9bb0fdf032dacf482c6c133373e5945cb52b8ec288c4",
    "init_multi/steps_declared":
        "59219fefa4097c6f2bd383fd77162e47d0e1e921476e2cc7d4ca736d241e0d45",
    "init_multi/no_actions":
        "fd812f66c6842629c89e79e6c3dafa13a82de8613aa141d89fc6b32f76d1460b",
    "init_multi/k_in_range":
        "f8d3400e4bb3a51304085a6ec2e6d6ca13586776259a3bd5e05cb6c4406f4290",
    "loop/x_capped_ind":
        "2fab44961842625028c73a10499ba7d036eaa654bae4b32184749c0ad97610ed",
    "loop/in_range":
        "85daeff7242a10395c2b9bd5faed43f1fe1a333a989b944d54bf4429f8cda833",
    "loop/acts_declared":
        "1170350a5cd3c98b3a20b5ab8f85385f74ce43de54483d7a6470e743a4aab5f2",
    "multi_action/c_small":
        "c7c3f2df68d53f1fc23ec082ad6273a38f8663e1f061d1a2f63a9e9f2546abd0",
    "multi_action/steps_declared":
        "7e77e8310284a7a52f898e3053cc97f7137efe2e04b038099a34cccf7083276a",
    "multi_action/acts_declared":
        "5375f9607ce0c7bb403f9a28bc0b4abe8fb027f3bcef7f09c3006528317dcf24",
    "parallel/steps_declared":
        "84e63492f7f8cb1354d206731f5128713283985fc7d526a2d92e2bdecb3e97e5",
    "parallel/acts_declared":
        "99706def853260af99e172a2b4677704debf93b3e7ee659d788ff3f62c0f4e01",
    "parallel/x_in_range":
        "02c0102abb88dbf5243436df4ce5ed8cb0ca15e9b2b7c62c47a5fb8078eb9bd8",
    "timer/one_tick":
        "b569b0e5d7184a50fe30ea1ad2e8e88b94b586cce1423c5b1b25a42ca700265a",
    "timer/t_in_range":
        "3bebad262dba8047513fdc29e723b196179b332fb4496964986575cd1eb9f237",
    "timer/acts_declared":
        "07b5628ed7c0176edc459246c167c571af59ca9c1ec93fe2781e9787da3ce48b",
    "toggle/mutex":
        "211a1a7e1d6be2d93e7cfc15717ba1b6a4a274ffbc356d5ec7d60faea404c0e8",
    "toggle/n_in_range":
        "96edd6fb5a7fed72a2c8d3406df18de79e634a418ad4df22726c125e52ace571",
    "toggle/acts_declared":
        "fb19de7d2615269b23a6486018190f47b4acc3eac3fd42e4c654114a006154a8",
    "wrap/in_range":
        "92fcd07e8831df446f88d4243a5a8e53d63615e07ad9c262b4383cc195c27d2d",
    "wrap/acts_declared":
        "f957b256b010cfff93944bb1c868ead5bea38d2b5b21af531a169a0d602756bf",
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
            "871f3541dd92dd0aba1d9a79ccd1d68806976891187283729486f2c7e342d210",
        ("int16", 12):
            "f940b62881cc623bf5026ec7d9e67041c5f9d3dda2151747bdbae30521a69721",
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
            "157d3543bca8d8bc886fd1f1e114646be82b05a6b972096396b4134e4a62495c",
        "loop/determined":
            "7a33d38c3e4f9cda1a87656a5ff5f3fb7e69f66c9775e71291f89c4aacc49312",
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
            bad = text[:text.index("case entail hyps ")]
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

    def test_emit_needs_entail_case_exactly_with_target(self):
        model, inv, target, _ = target_certificates()["dead_ctx/unreachable"]
        with_entail = V.verify_invariant(model, inv, target).tree
        without = V.verify_invariant(model, inv).tree
        with pytest.raises(C.EmitError):
            C.emit(model, inv, with_entail)
        with pytest.raises(C.EmitError):
            C.emit(model, inv, without, target)


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


class TestCheckWork:
    def test_each_diagram_validated_once_per_check(self, monkeypatch):
        """The model's own validation compiles each diagram; obligation
        building reuses the compiled program instead of validating again."""
        model = parse_model(FANOUT)
        inv = P.parse_properties("invariant s : always "
                                 "(steps_within {F, B0, B1, B2, J});",
                                 model)[0]
        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        data = C.emit(model, inv, res.tree)
        validated, validate = [], F.validate_fbd

        def counted(f, env):
            validated.append(f.name)
            return validate(f, env)

        monkeypatch.setattr(F, "validate_fbd", counted)
        assert C.check(data).accepted
        assert sorted(validated) == ["Cnt0", "Cnt1", "Cnt2"]


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
        assert re.fullmatch(r"model-parse: line \d+, col 13: time slice must "
                            r"be positive and at most 1024", v.reason)
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
