import json

import pytest

from certplc.cli import main
from certplc.parsing import MAX_NESTING

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
        assert set(payload) == {"digest", "steps", "transitions", "actions"}

    def test_syntax_error_exits_2(self, capsys):
        bad = FIXTURES / "bad.tmp"
        bad.write_text("step 1trouble\n")
        try:
            assert main(["parse", str(bad)]) == 2
        finally:
            bad.unlink()

    def test_non_ascii_digit_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "digit.sfc"
        bad.write_text("var x : int16\nstep S [initial]\n"
                       "action A on S { x := x + ²; }\n", encoding="utf-8")
        assert main(["parse", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "parse error: line 3, col 26: unexpected character '²'\n")

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("!", "")])
    def test_deep_nesting_exits_2(self, tmp_path, capsys, opener, closer):
        # 3000 levels used to overflow the interpreter's stack
        head = "trans {S} -[ "
        bad = tmp_path / "deep.sfc"
        bad.write_text("var x : int8\nstep S [initial]\nstep T\n" + head
                       + opener * 3000 + "x < 3" + closer * 3000
                       + " ]-> {T}\n")
        assert main(["parse", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"parse error: line 4, col {len(head) + MAX_NESTING + 1}: "
            f"nesting deeper than {MAX_NESTING}\n")

    def test_time_slice_past_the_bound_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "slice.sfc"
        bad.write_text("var x : int8\nstep S [initial]\n"
                       "action A on S = fbd F\nfbd F {\n  timeslice 1025\n}\n")
        assert main(["parse", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "parse error: fbd 'F': time slice must be positive and at most "
            "1024\n")

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

    def test_long_assertion(self, capsys):
        # one && chain of 5000 operands: no walk recurses per connective
        check = " && ".join(f"x <= {10 + i}" for i in range(5000))
        code, out = run(capsys, "explore", fx("loop.sfc"), "--depth", "20",
                        "--assert", check)
        assert code == 0

    def test_deep_assertion_exits_2(self, capsys):
        check = "(" * 3000 + "x <= 10" + ")" * 3000
        assert main(["explore", fx("loop.sfc"), "--assert", check]) == 2
        assert capsys.readouterr().err == (
            f"parse error: line 1, col {MAX_NESTING + 1}: "
            f"nesting deeper than {MAX_NESTING}\n")

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
        # never_dead's trans:0 case is open, with a one-step witness
        cert = tmp_path / "y.cert"
        assert main(["certify", fx("dead_ctx.sfc"), "--prop",
                     fx("dead_ctx.inv"), "--name", "never_dead",
                     "--out", str(cert)]) == 0
        assert b"steps 1" in cert.read_bytes()
        cert.write_bytes(cert.read_bytes().replace(b"steps 1", b"steps 0"))
        code, out = run(capsys, "check-cert", str(cert))
        assert code == 1
        assert "Rejected" in out

    @pytest.mark.parametrize("model, prop, rule", [
        (NONLINEAR_GUARD, "invariant t : always (!step(T));\n", "trans:0"),
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

    def test_certify_and_check_json_reports(self, tmp_path, capsys):
        cert = tmp_path / "y.cert"
        code, out = run(capsys, "certify", fx("dead_ctx.sfc"),
                        "--prop", fx("dead_ctx.inv"),
                        "--name", "never_dead", "--out", str(cert),
                        "--report", "json")
        assert code == 0
        assert json.loads(out) == {"invariant": "never_dead",
                                   "result": "Proved (5 obligations)",
                                   "certificate": str(cert)}
        code, out = run(capsys, "check-cert", str(cert), "--report", "json")
        assert code == 0
        assert json.loads(out) == {"accepted": True, "reason": "",
                                   "path": []}
        assert b"steps 1" in cert.read_bytes()
        cert.write_bytes(cert.read_bytes().replace(b"steps 1", b"steps 0"))
        code, out = run(capsys, "check-cert", str(cert), "--report", "json")
        assert code == 1
        report = json.loads(out)
        assert report["accepted"] is False and report["reason"]

    def test_certify_json_report_when_not_proved(self, tmp_path, capsys):
        cert = tmp_path / "x.cert"
        code, out = run(capsys, "certify", fx("loop.sfc"),
                        "--prop", fx("loop.inv"), "--name", "x_capped",
                        "--out", str(cert), "--report", "json")
        assert code == 1
        report = json.loads(out)
        assert report["invariant"] == "x_capped"
        assert report["result"].startswith("Refuted")
        assert report["certificate"] is None
        assert not cert.exists()

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

    @pytest.mark.parametrize("command", ["parse", "check-cert"])
    def test_directory_exits_2(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"cannot open {tmp_path}\n"

    @pytest.mark.parametrize("bad", ["model", "prop"])
    def test_file_not_utf8_exits_2(self, tmp_path, capsys, bad):
        paths = {"model": tmp_path / "m.sfc", "prop": tmp_path / "m.inv"}
        paths["model"].write_text(NONLINEAR_ATOM)
        paths["prop"].write_text(NONLINEAR_ATOM_PROP)
        # a Latin-1 e-acute in a comment
        paths[bad].write_bytes(b"# caf\xe9\n" + paths[bad].read_bytes())
        code = main(["verify", str(paths["model"]),
                     "--prop", str(paths["prop"])])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ") and "0xe9" in err

    @pytest.mark.parametrize("command, option", [
        ("explore", "--depth"), ("explore", "--state-budget"),
        ("simulate", "--max-steps")])
    def test_negative_size_exits_2(self, capsys, command, option):
        with pytest.raises(SystemExit) as err:
            main([command, fx("loop.sfc"), option, "-3"])
        assert err.value.code == 2
        out, text = capsys.readouterr()
        assert out == ""
        assert text.endswith(
            f"error: argument {option}: must not be negative, got -3\n")

    def test_non_integer_size_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["explore", fx("loop.sfc"), "--depth", "two"])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --depth: invalid int value: 'two'\n")

    def test_zero_sizes_are_valid(self, capsys):
        assert run(capsys, "explore", fx("loop.sfc"), "--depth", "0") == \
            (0, "states: 1\n")
        code, out = run(capsys, "simulate", fx("loop.sfc"),
                        "--max-steps", "0")
        assert code == 0 and out.startswith("init: ") and "step 1" not in out
        # a budget of 0: the first state past the initial one exceeds it
        assert run(capsys, "explore", fx("loop.sfc"),
                   "--state-budget", "0") == (1, "states: 2 (partial)\n")

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
