"""tools/equiv.py: a record is reproducible, its explorer lines are the
explorer's and the simulator's, an edited record shows in the diff, and
certplc is imported from the named tree only."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import test_certificate as TC
from certplc.semantics import reachable_bounded, run_trace, state_text
from conftest import load_model

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "equiv.py"


def equiv(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, env=env)


def record(tree, out):
    done = equiv("record", "--tree", tree, "--fixtures", "loop", "dead_ctx",
                 "--out", out)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in out.read_text().splitlines()]


def test_records_are_reproducible_and_an_edit_shows(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    recs = record(ROOT, a)
    assert record(ROOT, b) == recs
    same = equiv("diff", a, b)
    assert (same.returncode, same.stdout) == \
        (0, f"0 of {len(recs)} claims differ\n")

    # the target claims are those whose certificates test_certificate pins
    targets = {r["claim"].removeprefix("target/"): r["sha256"]
               for r in recs if r["claim"].startswith("target/")}
    assert targets == TC.TestCertificateBytes.TARGET_CERT_SHA256

    # one explorer line per fixture chart, after the claims
    explored = [r for r in recs if r["claim"].startswith("explore/")]
    assert recs[-2:] == explored
    for rec, name in zip(explored, ("loop", "dead_ctx")):
        model = load_model(name)
        states = reachable_bounded(model, 8)
        assert rec == {
            "claim": f"explore/fixture/{name}", "states": len(states),
            "states_sha256": _sha256(state_text(c) for c in states),
            "traces_sha256": {key: _sha256(
                f"{r.label()} {state_text(c)}"
                for r, c in run_trace(model, sched, 150, seed=seed))
                for key, sched, seed in (
                    ("priority", "priority", 1), ("fixed", "fixed", 1),
                    ("random:1", "random", 1), ("random:2", "random", 2),
                    ("random:3", "random", 3))}}

    for edit, shown in (
            (lambda recs: next(r for r in recs if r.get("verdict")
                               == "Proved"), "sha256"),
            (lambda recs: recs[-1], "states_sha256")):
        recs = [json.loads(line) for line in a.read_text().splitlines()]
        edited = edit(recs)
        edited[shown] = "0" * 64
        b.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                             for r in recs))
        differ = equiv("diff", a, b)
        assert differ.returncode == 1
        assert differ.stdout.splitlines()[0].startswith(
            f"{edited['claim']}: {shown}: ")
        assert differ.stdout.endswith(f"1 of {len(recs)} claims differ\n")


def _sha256(lines):
    return hashlib.sha256("".join(
        line + "\n" for line in lines).encode()).hexdigest()


def test_certplc_from_another_tree_is_refused(tmp_path):
    # tmp_path has no src/certplc, so the import falls through to
    # PYTHONPATH's checkout
    done = equiv("record", "--tree", tmp_path, "--fixtures", "loop",
                 "--out", tmp_path / "r.jsonl")
    assert done.returncode != 0
    assert "certplc was imported from" in done.stderr
