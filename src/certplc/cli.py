"""Command line front end.

Exit status: 0 on success, 1 when verification or checking does not fully
succeed (refuted, undecided, rejected, assertion violated), 2 on usage or
parse errors (a negative ``--depth``, ``--max-steps`` or ``--state-budget``
included) and on files that cannot be opened.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certificate as C
from . import properties as P
from . import semantics as S
from . import verifier as V
from .model import canonical_text, parse_model, text_digest
from .parsing import ParseError


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def _load_properties(path: str, model):
    with open(path, "r", encoding="utf-8") as fh:
        return P.parse_properties(fh.read(), model)


def _emit_report(args, payload: dict, text_lines: list[str]):
    if args.report == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_parse(args) -> int:
    model = _load_model(args.model)  # a model that fails validation raises
    text = canonical_text(model)
    payload = {
        "digest": text_digest(text),
        "steps": list(model.steps),
        "transitions": len(model.transitions),
        "actions": list(model.action_ids()),
    }
    lines = [text.rstrip("\n"), f"digest: {payload['digest']}"]
    _emit_report(args, payload, lines)
    return 0


def _cmd_simulate(args) -> int:
    model = _load_model(args.model)
    trace = S.run_trace(model, scheduler=args.scheduler,
                        max_steps=args.max_steps, seed=args.seed)
    start = S.init_state(model)
    lines = [f"init: {S.state_text(start)}"]
    payload_steps = []
    for i, (rule, state) in enumerate(trace, 1):
        lines.append(f"step {i}: {rule.label()} -> {S.state_text(state)}")
        payload_steps.append({"rule": rule.label(),
                              "state": S.state_text(state)})
    _emit_report(args, {"init": S.state_text(start), "trace": payload_steps},
                 lines)
    return 0


def _cmd_explore(args) -> int:
    model = _load_model(args.model)
    try:
        states = S.reachable_bounded(model, args.depth,
                                     state_budget=args.state_budget)
        partial = False
    except S.BudgetExceeded as err:
        states = err.partial
        partial = True
    violations = []
    if args.check:
        formula = P.parse_formula_text(args.check, model)
        for st in states:
            if not P.holds_on(formula, st):
                violations.append(S.state_text(st))
    payload = {
        "states": len(states),
        "partial": partial,
        "violations": violations[:20],
    }
    lines = [f"states: {len(states)}" + (" (partial)" if partial else "")]
    lines += [f"violation: {v}" for v in violations[:20]]
    _emit_report(args, payload, lines)
    if partial or violations:
        return 1
    return 0


def _describe(res) -> str:
    if isinstance(res, V.Proved):
        return f"Proved ({res.obligations} obligations)"
    if isinstance(res, V.Refuted):
        rule = res.rule.label() if res.rule is not None else "base"
        return f"Refuted at {rule} ({res.note})"
    return f"Undecided ({res.reason})"


def _cmd_verify(args) -> int:
    model = _load_model(args.model)
    invs = _load_properties(args.prop, model)
    lines = []
    payload = {}
    ok = True
    for inv in invs:
        res = V.verify_invariant(model, inv)
        lines.append(f"{inv.name}: {_describe(res)}")
        payload[inv.name] = _describe(res)
        ok = ok and isinstance(res, V.Proved)
    _emit_report(args, payload, lines)
    return 0 if ok else 1


def _cmd_certify(args) -> int:
    model = _load_model(args.model)
    invs = _load_properties(args.prop, model)
    if args.name is not None:
        invs = [inv for inv in invs if inv.name == args.name]
        if not invs:
            print(f"no invariant named {args.name!r}", file=sys.stderr)
            return 2
    if len(invs) != 1:
        print("property file must contain exactly one invariant "
              "(or use --name)", file=sys.stderr)
        return 2
    inv = invs[0]
    res = V.verify_invariant(model, inv)
    payload = {"invariant": inv.name, "result": _describe(res),
               "certificate": None}
    line = f"{inv.name}: {_describe(res)}"
    if not isinstance(res, V.Proved):
        _emit_report(args, payload, [line])
        return 1
    data = C.emit(model, inv, res.tree)
    with open(args.out, "wb") as fh:
        fh.write(data)
    payload["certificate"] = args.out
    _emit_report(args, payload,
                 [f"{line}; certificate written to {args.out}"])
    return 0


def _cmd_check_cert(args) -> int:
    with open(args.cert, "rb") as fh:
        data = fh.read()
    verdict = C.check(data)
    payload = {"accepted": verdict.accepted, "reason": verdict.reason,
               "path": list(verdict.path)}
    if verdict.accepted:
        _emit_report(args, payload, ["Accepted"])
        return 0
    where = "/".join(verdict.path)
    suffix = f" at {where}" if where else ""
    _emit_report(args, payload, [f"Rejected: {verdict.reason}{suffix}"])
    return 1


def _size(text: str) -> int:
    """An option value that counts something: an integer, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certplc",
        description="Model, simulate, verify and certify sequential "
                    "function charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, props=False):
        p.add_argument("model", help="model file")
        p.add_argument("--report", choices=("text", "json"), default="text")
        if props:
            p.add_argument("--prop", required=True,
                           help="invariant properties file")

    p = sub.add_parser("parse", help="parse, validate and print canonically")
    p.add_argument("model")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("simulate", help="run one scheduled trace")
    common(p)
    p.add_argument("--scheduler", choices=("priority", "fixed", "random"),
                   default="priority")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_size, default=100)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("explore", help="bounded reachability exploration")
    common(p)
    p.add_argument("--depth", type=_size, default=20)
    p.add_argument("--state-budget", type=_size, default=100_000)
    p.add_argument("--assert", dest="check", default=None,
                   help="formula every explored state must satisfy")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("verify", help="prove invariants by induction")
    common(p, props=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="verify and write a certificate")
    common(p, props=True)
    p.add_argument("--out", required=True, help="certificate output path")
    p.add_argument("--name", default=None,
                   help="invariant to certify when the file has several")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("check-cert", help="check a certificate")
    p.add_argument("cert")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_check_cert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (ParseError, UnicodeDecodeError) as err:  # undecodable: not UTF-8
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"cannot open {err.filename}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
