import json

import pytest

from certplc.cli import main

from conftest import (FIXTURES, MIXED_WIDTH, NONLINEAR_ATOM,
                      NONLINEAR_ATOM_PROP, NONLINEAR_GUARD)


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParse:
    def test_prints_canonical_and_digest(self, capsys):
        code, out = run(capsys, "parse", fx("loop.sfc"))
        assert code == 0
        assert "trans {Init} -[ x < 10 ]-> {Step2}" in out
        assert "digest: " in out

    def test_json_report(self, capsys):
        code, out = run(capsys, "parse", fx("loop.sfc"), "--report", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"] == ["Init", "Return", "Step2"]
        assert payload["violations"] == []

    def test_syntax_error_exits_2(self, capsys):
        bad = FIXTURES / "bad.tmp"
        bad.write_text("step 1trouble\n")
        try:
            assert main(["parse", str(bad)]) == 2
        finally:
            bad.unlink()

    def test_width_changing_assignment_exits_2(self, tmp_path):
        bad = tmp_path / "mixed.sfc"
        bad.write_text(MIXED_WIDTH)
        assert main(["parse", str(bad)]) == 2


class TestSimulate:
    def test_reproducible(self, capsys):
        a = run(capsys, "simulate", fx("loop.sfc"), "--seed", "3",
                "--scheduler", "random", "--max-steps", "25")
        b = run(capsys, "simulate", fx("loop.sfc"), "--seed", "3",
                "--scheduler", "random", "--max-steps", "25")
        assert a == b

    def test_priority_reaches_return(self, capsys):
        code, out = run(capsys, "simulate", fx("loop.sfc"),
                        "--max-steps", "40")
        assert code == 0
        assert "steps[Return]" in out


class TestExplore:
    def test_assert_holds(self, capsys):
        code, out = run(capsys, "explore", fx("loop.sfc"), "--depth", "40",
                        "--assert", "x <= 10")
        assert code == 0

    def test_assert_violation_exits_1(self, capsys):
        code, out = run(capsys, "explore", fx("loop.sfc"), "--depth", "40",
                        "--assert", "x <= 9")
        assert code == 1
        assert "violation" in out

    def test_budget_marks_partial(self, capsys):
        code, out = run(capsys, "explore", fx("multi_action.sfc"),
                        "--depth", "50", "--state-budget", "40")
        assert code == 1
        assert "partial" in out


class TestVerifyCertify:
    def test_verify_text_summary(self, capsys):
        code, out = run(capsys, "verify", fx("hold_positive.sfc"),
                        "--prop", fx("hold_positive.inv"))
        assert code == 0
        assert "y_positive: Proved" in out

    def test_verify_refuted_exits_1(self, capsys):
        code, out = run(capsys, "verify", fx("loop.sfc"),
                        "--prop", fx("loop.inv"))
        assert code == 1
        assert "x_capped: Refuted" in out
        assert "x_capped_ind: Proved (7 obligations)" in out

    def test_full_chain(self, tmp_path, capsys):
        cert = tmp_path / "y.cert"
        code, _ = run(capsys, "certify", fx("hold_positive.sfc"),
                      "--prop", fx("hold_positive.inv"),
                      "--name", "y_positive", "--out", str(cert))
        assert code == 0
        code, out = run(capsys, "check-cert", str(cert))
        assert code == 0
        assert out.strip() == "Accepted"

    def test_certify_byte_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.cert", tmp_path / "b.cert"
        for target in (a, b):
            assert main(["certify", fx("hold_positive.sfc"), "--prop",
                         fx("hold_positive.inv"), "--name", "y_positive",
                         "--out", str(target)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_tampered_cert_exits_1(self, tmp_path, capsys):
        cert = tmp_path / "y.cert"
        assert main(["certify", fx("hold_positive.sfc"), "--prop",
                     fx("hold_positive.inv"), "--name", "y_positive",
                     "--out", str(cert)]) == 0
        cert.write_bytes(cert.read_bytes().replace(b"steps 1", b"steps 0"))
        code, out = run(capsys, "check-cert", str(cert))
        assert code == 1
        assert "Rejected" in out

    @pytest.mark.parametrize("model, prop, rule", [
        (NONLINEAR_GUARD, "invariant t : always (x <= 65535);\n", "trans:0"),
        (NONLINEAR_ATOM, NONLINEAR_ATOM_PROP, "exec:A"),
    ], ids=["guard", "atom"])
    def test_nonlinear_is_undecided_not_a_crash(self, tmp_path, capsys,
                                                model, prop, rule):
        (tmp_path / "m.sfc").write_text(model)
        (tmp_path / "m.inv").write_text(prop)
        code = main(["verify", str(tmp_path / "m.sfc"),
                     "--prop", str(tmp_path / "m.inv")])
        out, err = capsys.readouterr()
        assert code == 1
        assert f"Undecided ({rule}: multiplication of two non-constant " \
            "expressions)" in out
        assert "Traceback" not in out + err

    def test_certify_requires_single_invariant(self, capsys):
        code = main(["certify", fx("hold_positive.sfc"), "--prop",
                     fx("hold_positive.inv"), "--out", "/tmp/ignored.cert"])
        capsys.readouterr()
        assert code == 2


class TestEndToEnd:
    def test_verify_certify_check_on_every_proved_invariant(self, tmp_path,
                                                            capsys):
        from certplc import verifier as V
        from conftest import fixture_names, load_invariants, load_model
        chains = 0
        for name in fixture_names():
            model = load_model(name)
            for inv in load_invariants(name, model):
                if not isinstance(V.verify_invariant(model, inv), V.Proved):
                    continue
                cert = tmp_path / f"{name}.{inv.name}.cert"
                assert main(["certify", fx(f"{name}.sfc"), "--prop",
                             fx(f"{name}.inv"), "--name", inv.name,
                             "--out", str(cert)]) == 0
                assert main(["check-cert", str(cert)]) == 0
                chains += 1
        capsys.readouterr()
        assert chains >= 30


class TestUsage:
    def test_missing_file_exits_2(self, capsys):
        assert main(["parse", "/nonexistent/model.sfc"]) == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
