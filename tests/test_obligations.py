"""One derivation context per property: shared pieces, same obligations.

The verifier and the checker derive every rule instance's obligation
through one ``DerivationContext``, which computes the symbolic env, the
pre-state DNF and the guard and atom normalizations once.  These tests pin
that sharing changes nothing (obligations, exception types and messages)
and that it really removes the per-rule-instance work.
"""

import pytest

from certplc import certificate as C
from certplc import expr as E
from certplc import obligations as O
from certplc import properties as P
from certplc import semantics as S
from certplc import verifier as V
from certplc.linear import normalize
from certplc.model import parse_model

from conftest import (NONLINEAR_ATOM, NONLINEAR_ATOM_PROP, NONLINEAR_GUARD,
                      fixture_names, load_invariants, load_model)

OPAQUE = ("var x : int16\nvar y : int16\nstep A [initial]\n"
          "action Amux on A = fbd F\n"
          "trans {A} -[ true ]-> {A}\n"
          "fbd F {\n block r = read x\n block c = lt(r.out, const 10)\n"
          " block m = mux(c.out, const 1, const 0)\n"
          " block w = write y (m.out)\n timeslice 1\n}\n")


def _cases():
    for name in fixture_names():
        model = load_model(name)
        for inv in load_invariants(name, model):
            yield name, model, inv.formula
    m = parse_model(OPAQUE)
    yield "opaque", m, P.parse_formula_text("y <= 65535", m)
    m = parse_model(NONLINEAR_GUARD)
    yield "nonlinear_guard", m, P.parse_formula_text("x <= 65535", m)
    m = parse_model(NONLINEAR_ATOM)
    yield "nonlinear_atom", m, P.parse_properties(NONLINEAR_ATOM_PROP,
                                                  m)[0].formula


def _outcome(ctx, rule):
    try:
        return O.build_obligation(ctx, rule)
    except (O.UnsupportedEffect, O.ObligationOverflow) as err:
        return type(err), str(err)


class TestSharedEqualsFresh:
    @pytest.mark.parametrize("cap", [512, 3])
    def test_every_rule_instance(self, cap):
        seen = set()
        for name, model, formula in _cases():
            ctx = O.DerivationContext(model, formula, cap)
            for rule in model.rules:
                shared = _outcome(ctx, rule)
                fresh = _outcome(O.DerivationContext(model, formula, cap),
                                 rule)
                assert shared == fresh, (name, rule.label())
                if isinstance(shared, tuple):
                    seen.add(shared[0])
        # both failure kinds were compared
        want = {O.UnsupportedEffect}
        if cap == 3:
            want.add(O.ObligationOverflow)
        assert want <= seen

    def test_failed_piece_fails_again_with_same_message(self):
        m = parse_model(NONLINEAR_ATOM)
        f = P.parse_properties(NONLINEAR_ATOM_PROP, m)[0].formula
        ctx = O.DerivationContext(m, f)
        rules = list(m.rules)
        assert len(rules) == 4  # exec:A, trans:0, react:S, react:T
        for rule in rules:
            assert _outcome(ctx, rule) == (
                O.UnsupportedEffect,
                f"{rule.label()}: multiplication of two non-constant "
                f"expressions")


def _strip_widths(e):
    if isinstance(e, E.Cmp):
        return E.Cmp(e.op, _strip_widths(e.lhs), _strip_widths(e.rhs))
    if isinstance(e, (E.And, E.Or)):
        return type(e)(_strip_widths(e.lhs), _strip_widths(e.rhs))
    if isinstance(e, E.Not):
        return E.Not(_strip_widths(e.arg))
    return e


def _cmps(e):
    if isinstance(e, E.Cmp):
        yield e
    elif isinstance(e, (E.And, E.Or)):
        yield from _cmps(e.lhs)
        yield from _cmps(e.rhs)
    elif isinstance(e, E.Not):
        yield from _cmps(e.arg)


def _atoms(f):
    if isinstance(f, (E.And, E.Or)):
        yield from _atoms(f.lhs)
        yield from _atoms(f.rhs)
    elif isinstance(f, E.Not):
        yield from _atoms(f.arg)
    elif not isinstance(f, (P.StepActive, P.ActionActive, P.ActionsWithin,
                            P.StepsWithin)):
        yield f


class TestNormalizationKey:
    """The context keys normalizations by expression equality, which
    ignores ``E.Cmp.width``; that is exact because, under one model's
    declarations, equal guards and atoms always carry equal widths."""

    def test_width_matters_to_normalize(self):
        env = {"x": "int8"}
        narrow = E.Cmp("<", E.Add(E.Var("x"), E.IntLit(1)), E.IntLit(3),
                       "int8")
        wide = E.Cmp("<", E.Add(E.Var("x"), E.IntLit(1)), E.IntLit(3),
                     "int16")
        assert narrow == wide and hash(narrow) == hash(wide)
        assert normalize(narrow, env) != normalize(wide, env)

    @pytest.mark.parametrize("name", fixture_names())
    def test_equal_guards_and_atoms_carry_equal_widths(self, name):
        model = load_model(name)
        env = O.symbolic_env(model)
        exprs = [t.guard for t in model.transitions]
        for inv in load_invariants(name, model):
            exprs.extend(_atoms(inv.formula))
        widths = {}
        for e in exprs:
            # the width is the one typecheck gives an unannotated copy
            ann, _ = E.typecheck(_strip_widths(e), env)
            assert [c.width for c in _cmps(e)] == \
                [c.width for c in _cmps(ann)], (name, e)
            for c in _cmps(e):
                assert widths.setdefault(c, c.width) == c.width, (name, c)
            assert normalize(e, env) == normalize(_strip_widths(e), env)


def _ring(n: int) -> str:
    lines = ["var c : int16"]
    lines += [f"step S{k}" + (" [initial]" if k == 0 else "")
              for k in range(n)]
    lines += [f"action A{k} on S{k} {{ c := {k}; }}" for k in range(n)]
    lines += [f"trans {{S{k}}} -[ c <= {n + 8} ]-> {{S{(k + 1) % n}}}"
              for k in range(n)]
    return "\n".join(lines) + "\n"


class TestWorkCount:
    """Deriving a ring's obligations normalizes each distinct guard and
    atom O(1) times, not once per rule instance."""

    N = 32

    def _counting(self, monkeypatch, name):
        calls = []
        original = getattr(O, name)

        def counted(*args, **kwargs):
            calls.append(args[0] if args else None)
            return original(*args, **kwargs)

        monkeypatch.setattr(O, name, counted)
        return calls

    def test_ring_derivation(self, monkeypatch):
        model = parse_model(_ring(self.N))
        inv = P.parse_properties(
            f"invariant p : always (c <= {self.N - 1} && "
            f"(!action(A{self.N // 2}) || step(S{self.N // 2})));\n",
            model)[0]
        rules = list(model.rules)
        assert len(rules) == 3 * self.N
        atoms = list(_atoms(inv.formula))
        guards = {t.guard for t in model.transitions}
        # per polarity one pre-state normalization of each distinct guard
        # and atom, plus one post-state normalization of each atom per
        # action, whose effect substitutes into it
        bound = 2 * (len(guards) + len(atoms)) + self.N * len(atoms)

        normalized = self._counting(monkeypatch, "normalize")
        envs = self._counting(monkeypatch, "symbolic_env")
        obs = list(V.iter_obligations(model, inv.formula))
        assert len(obs) == len(rules)
        assert not any(isinstance(ob, V.Undecided) for _, ob in obs)
        assert len(normalized) <= bound < len(rules)
        assert len(envs) == 1

        res = V.verify_invariant(model, inv)
        assert isinstance(res, V.Proved)
        cert = C.emit(model, inv, res.tree)
        normalized.clear()
        envs.clear()
        assert C.check(cert).accepted
        assert len(normalized) <= bound
        assert len(envs) == 1


class TestStopsAfterRefutation:
    def test_no_derivation_after_the_refuted_case(self, loop_model,
                                                  monkeypatch):
        built = []
        original = O.build_obligation

        def counted(ctx, rule):
            built.append(rule)
            return original(ctx, rule)

        monkeypatch.setattr(O, "build_obligation", counted)
        inv = P.Invariant("cap", P.parse_formula_text("x <= 10", loop_model))
        res = V.verify_invariant(loop_model, inv)
        assert isinstance(res, V.Refuted)
        assert built[-1] == res.rule
        assert len(built) < len(loop_model.rules)
