import ast
import pathlib
import re
import time

import pytest

from certplc import certificate as C
from certplc import properties as P
from certplc import verifier as V
from certplc.model import canonical_text, model_digest, parse_model

from conftest import WRAP_BLOWUP, WRAP_BLOWUP_PROP, load_invariants, load_model


def proved_certificate(name="loop", index=1):
    model = load_model(name)
    inv = load_invariants(name, model)[index]
    res = V.verify_invariant(model, inv)
    assert isinstance(res, V.Proved)
    return model, inv, C.emit(model, inv, res.tree)


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
        "9e1a8e9ac3fa871df95acdceb8227ad99ee34714cae3c93e4ff7f2a21b1f50c4",
    "dead_ctx/y_positive":
        "b2c623fb9931570825499dd394ada8d634a425d33f71c4058bfb45b5832790dd",
    "dead_ctx/never_dead":
        "ce8b4d391bc41ec8b24646c8717e8aa4f649ec7c328431f4bf5f043ac362a657",
    "dead_ctx/acts_declared":
        "feffcdf10ead4f9f404ae3e847f84fbe169c2b1aaad11b022bb071aebb073584",
    "fbd_counter/out_small":
        "3e6a0a04389f285a52bc6b8d1c87f0b68857dfb8a5c03d7f3ae4a442aea448a4",
    "fbd_counter/out_in_range":
        "fac4dfab6fff95f4e69d89f4ca3ad6a0f258796e29f1eb6887321db93da9de38",
    "fbd_counter/acts_declared":
        "b2f1753241c32f07511e9c542ed6721136afc90aa6369e26bece6e828a153235",
    "fbd_inc/x_capped_ind":
        "bd2e0bddb704f1c6e400b10d4a7ac23b9015dcf2c5c430ab3c58ccc876325fbb",
    "fbd_inc/in_range":
        "a4f9eb0f064a524bb32bfd98618df2f2c03e9e8ed1db0a89a959f0d34dc8470b",
    "fbd_inc/acts_declared":
        "c33b5b8b2851dd49bdcf7fa617d46dcb38292f96f94063353630218e568c3efb",
    "flip/tautology":
        "4a4fadd2a926ae45bf8096ae94ddb59e483c7622946ab1f5cc356c768a857f6e",
    "flip/steps_declared":
        "163476c43c3e8373d85559ba00f76d3c54de174f52c2fcd80a32b4c5e5f63250",
    "flip/acts_declared":
        "57202aa380cb88ac73f34452dba1641cc518f33054935fe9d97bf33a28be5d27",
    "hold_positive/y_positive":
        "37b7037db3e7a8109c337ee6a52f28e422140dd01ea9e1ec2b853c7a06a2a444",
    "hold_positive/y_low":
        "6bf14bb23183f9a950ca4bd0cde3fd46d82a1b3ce91fbbd9d98a989303690a9f",
    "hold_positive/acts_declared":
        "5453b5b9d6b3f86797ceafdf9c1f28c093eb684aa116ffbd25db5c2f3577404e",
    "hold_positive/x_in_range":
        "024211dfb73b18990924075223613d84f1cec8e10ac713a8ea1919e5b5352714",
    "init_multi/steps_declared":
        "59219fefa4097c6f2bd383fd77162e47d0e1e921476e2cc7d4ca736d241e0d45",
    "init_multi/no_actions":
        "fd812f66c6842629c89e79e6c3dafa13a82de8613aa141d89fc6b32f76d1460b",
    "init_multi/k_in_range":
        "7250ee04e783a0bc825f7be99e41f2ac4bfdb5a0f5deae2ba79ac2a0cf0c10da",
    "loop/x_capped_ind":
        "0f771e88300a32bda140b4069b3771a70744779c6420cffaf878cf0c9d324b13",
    "loop/in_range":
        "0f777c8fa44233001ff01bec5361064cfc10b70f419c262b15470b49bb3c1145",
    "loop/acts_declared":
        "9e6c7b7261524b58bdeb1b02383d61ad597171688b5eb97bf5b0b2bbb5e95144",
    "multi_action/c_small":
        "7575b19df0df30d709f67b51d98f9dbe3dc0729004efe212b7730aa5038dd97c",
    "multi_action/steps_declared":
        "7e77e8310284a7a52f898e3053cc97f7137efe2e04b038099a34cccf7083276a",
    "multi_action/acts_declared":
        "5375f9607ce0c7bb403f9a28bc0b4abe8fb027f3bcef7f09c3006528317dcf24",
    "parallel/steps_declared":
        "84e63492f7f8cb1354d206731f5128713283985fc7d526a2d92e2bdecb3e97e5",
    "parallel/acts_declared":
        "99706def853260af99e172a2b4677704debf93b3e7ee659d788ff3f62c0f4e01",
    "parallel/x_in_range":
        "07e8ca23cb5ecd32649da6eeade4fdbab23d64736ad775c0324e5a7d45c746d2",
    "timer/one_tick":
        "0a781ba699918a87152c68e5f9b31a8ee5b4fa4ce6b18e8bfb831b6ce42a6248",
    "timer/t_in_range":
        "41fec1aa28a409df1c7fe4be88e9ff7484065a752d1386e15f4c15900f4d8db3",
    "timer/acts_declared":
        "ba90c9256b881d964cf0b95e94de01bfaa9d0f350f5ed6e5eb1683c68275d96d",
    "toggle/mutex":
        "afc67a34f6023151539f4a556a284d6bfe59a63a2865f29fe45afbe66146209d",
    "toggle/n_in_range":
        "2e4101f8a5a009ef797c7e42b56fb7e4e6e6f53510fa2f9c7d77a71fe489b3f0",
    "toggle/acts_declared":
        "fb19de7d2615269b23a6486018190f47b4acc3eac3fd42e4c654114a006154a8",
    "wrap/in_range":
        "1fb59997f502065f1d17c37a49f069c58a4e98611c75111b8b49e7687c2eb8be",
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


class TestTrustedCore:
    def test_inventory_contents(self):
        inv = C.trusted_core_inventory()
        assert "certplc.lia.witness" in inv
        assert "certplc.semantics" in inv  # initial-state re-evaluation
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
