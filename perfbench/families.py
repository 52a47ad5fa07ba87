"""Seeded generators for the benchmark's chart families.

Each generator returns plain model and property text plus the verdict its
construction fixes for every invariant; certplc only ever sees the text.
Every model uses a single integer width (mixed widths hit a known
unsoundness in the effect summary, see the benchmark README).

The seed changes constants, initial values and the order of the corpus.
Sizes, and the rule instance at which each refuted invariant fails, do not
depend on it, so a workload does the same amount of work whatever its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PROVED = "Proved"
REFUTED = "Refuted"


@dataclass(frozen=True)
class InvCase:
    name: str
    formula: str
    expected: str          # PROVED or REFUTED
    holds: bool            # true in every reachable configuration

    def text(self) -> str:
        return f"invariant {self.name} : always ({self.formula});"


@dataclass
class ModelCase:
    name: str
    text: str
    invariants: list[InvCase]
    depth: int             # explorer depth; also the soundness-check depth
    sim_steps: int         # run_trace length with the random scheduler
    fanout: FanoutShape | None = None

    def props_text(self) -> str:
        return "\n".join(i.text() for i in self.invariants) + "\n"


@dataclass(frozen=True)
class FanoutShape:
    """What the independent enumerator needs to know about a fanout chart."""
    branches: int
    width: int                  # bits
    time_slice: int             # also the join threshold
    inits: tuple[int, ...]      # initial counter values
    steps: tuple[str, ...]      # fork, branches..., join
    actions: tuple[str, ...]    # branch actions..., reset


# --- ring --------------------------------------------------------------------
#
# N steps in a cycle.  Step k runs `c := base + k;` (step 0's action is the
# reset to `base`).  Transition guards bound the wrapped offset `c - base`
# loosely enough that they never block, so reactivation is possible only
# symbolically.  True invariants: the counter window `c - base <= N - 1`
# (inductive because every action writes a constant inside it), one action
# contained in its step, and the declared step and action sets.
# Known-false: a window too small, step and action sets missing one member,
# an action paired with the wrong step.  Obligation building grows with N
# per rule instance while most cubes stay easy for the decider.

RING_SIZES = (4, 6, 8, 10, 12, 14, 16, 20, 24, 32, 64)


def ring_model(rng: random.Random, n: int, tag: str) -> ModelCase:
    base = rng.randrange(1, 65536 - n)
    slack = rng.randrange(n, 2 * n)
    s = [f"{tag}S{k}" for k in range(n)]
    a = [f"{tag}A{k}" for k in range(n)]
    lines = [f"var c : int16 = {base}"]
    lines += [f"step {s[0]} [initial]"] + [f"step {x}" for x in s[1:]]
    for k in range(n):
        lines.append(f"action {a[k]} on {s[k]} {{ c := {base + k}; }}")
    for k in range(n):
        lines.append(f"trans {{{s[k]}}} -[ c - {base} <= {slack} ]-> "
                     f"{{{s[(k + 1) % n]}}}")
    # refuted invariants fail at the first rule instance that violates
    # them, so their positions are fixed by n, not drawn from the seed
    k_in, k_wrong, k_step, k_act = n // 2, n // 2, n // 3, n - 1
    small = n // 2
    invs = [
        InvCase("window", f"c - {base} <= {n - 1}", PROVED, True),
        InvCase("window_wide", f"c - {base} <= {n - 1 + slack}", PROVED, True),
        InvCase("acts_declared", _within("actions", a), PROVED, True),
        InvCase("steps_declared", _within("steps", s), PROVED, True),
        InvCase("contain", f"!action({a[k_in]}) || step({s[k_in]})",
                PROVED, True),
        InvCase("window_small", f"c - {base} <= {small}", REFUTED, False),
        InvCase("steps_missing", _within("steps", s, s[k_step]),
                REFUTED, False),
        InvCase("acts_missing", _within("actions", a, a[k_act]),
                REFUTED, False),
        InvCase("contain_wrong",
                f"!action({a[k_wrong]}) || step({s[(k_wrong + 1) % n]})",
                REFUTED, False),
        InvCase("window_or_start", f"c - {base} <= {max(small - 1, 0)} "
                f"|| step({s[0]})", REFUTED, False),
    ]
    return ModelCase(f"ring{n}", "\n".join(lines) + "\n", invs,
                     depth=2 * n + 2, sim_steps=8 * n)


def _within(kind: str, names, missing: str | None = None) -> str:
    kept = sorted(x for x in names if x != missing)
    return f"{kind}_within {{" + ", ".join(kept) + "}"


# --- arith -------------------------------------------------------------------
#
# Two steps; the first one's action advances a counter pair in lockstep,
# `x := x + 1; y := y + c;`.  `y == c * x` holds modulo 2**w and is
# inductive; proving it makes the decider enumerate the wrap quotients of
# c * x, so the work grows with c.  Known-false: the relation conjoined with
# a bound on x or on y (refuted through the decider's Sat path) and a bare
# bound on x, all passed after a few actions.

ARITH_WIDTHS = ("int8", "int16", "int32")
ARITH_CONSTS = tuple(range(3, 13))


def arith_model(rng: random.Random, width: str, c: int, tag: str) -> ModelCase:
    x0 = rng.randrange(0, 16)
    kx = x0 + rng.randrange(1, 4)
    # c * (x0 + 4) < 256, so no bound below wraps at any width
    lines = [f"var x : {width} = {x0}", f"var y : {width} = {c * x0}",
             f"step {tag}P [initial]", f"step {tag}Q",
             f"action {tag}Inc on {tag}P {{ x := x + 1; y := y + {c}; }}",
             f"trans {{{tag}P}} -[ true ]-> {{{tag}Q}}",
             f"trans {{{tag}Q}} -[ true ]-> {{{tag}P}}"]
    rel = f"y == {c} * x"
    invs = [
        InvCase("rel", rel, PROVED, True),
        InvCase("rel_x_bounded", f"{rel} && x <= {kx}", REFUTED, False),
        InvCase("rel_y_bounded", f"{rel} && y <= {c * kx}", REFUTED, False),
        InvCase("x_small", f"x <= {kx}", REFUTED, False),
    ]
    return ModelCase(f"arith_{width}_c{c}", "\n".join(lines) + "\n", invs,
                     depth=64, sim_steps=400)


# --- fanout ------------------------------------------------------------------
#
# A fork step starts K branches; each branch step runs a dataflow counter
# (`n := n + T` through a delay/add loop over a time slice T).  The join
# waits until every counter has reached T; until then a branch step whose
# counter already ran reactivates and re-enqueues it, so interleavings
# dominate.  Pending actions pile up on reactivation (see the README), so
# exploration is bounded by depth.  After the join a reset zeroes the
# counters and the chart loops.  True invariants are containment lemmas;
# known-false ones are a counter bound and step and action sets missing a
# member.

# (branches, width, time slice, explorer depth)
FANOUT_SHAPES = ((2, "int8", 2, 11), (2, "int16", 3, 11), (2, "int32", 4, 11),
                 (2, "int8", 5, 11), (3, "int8", 5, 8), (3, "int16", 2, 8),
                 (3, "int32", 3, 8), (3, "int16", 4, 8), (4, "int8", 4, 6),
                 (4, "int16", 5, 6), (4, "int32", 2, 6), (5, "int16", 3, 7))


def _counter_fbd(name: str, var: str, t: int) -> list[str]:
    return [f"fbd {name} {{",
            "  block d = delay(a.out)",
            "  block a = add(d.out, const 1)",
            f"  block r = read {var}",
            "  block s = add(r.out, a.out)",
            f"  block w = write {var} (s.out)",
            f"  timeslice {t}",
            "}"]


def fanout_model(rng: random.Random, k: int, width: str, t: int, depth: int,
                 tag: str) -> ModelCase:
    ns = [f"n{i}" for i in range(k)]
    # below t, so every counter must run once before the join
    inits = tuple(rng.randrange(0, t) for _ in range(k))
    fork, join = f"{tag}F", f"{tag}J"
    br = [f"{tag}B{i}" for i in range(k)]
    acts = [f"{tag}C{i}" for i in range(k)]
    reset = f"{tag}R"
    lines = [f"var {v} : {width} = {n}" for v, n in zip(ns, inits)]
    lines += [f"step {fork} [initial]"] + [f"step {b}" for b in br]
    lines.append(f"step {join}")
    for i in range(k):
        lines.append(f"action {acts[i]} on {br[i]} = fbd {tag}Cnt{i}")
    lines.append(f"action {reset} on {join} {{ "
                 + " ".join(f"{v} := 0;" for v in ns) + " }")
    for i in range(k):
        lines += _counter_fbd(f"{tag}Cnt{i}", ns[i], t)
    lines.append(f"trans {{{fork}}} -[ true ]-> {{{', '.join(br)}}}")
    lines.append(f"trans {{{', '.join(br)}}} -[ "
                 + " && ".join(f"{v} >= {t}" for v in ns) + f" ]-> {{{join}}}")
    lines.append(f"trans {{{join}}} -[ true ]-> {{{fork}}}")
    i_in, i_out = k - 1, 0     # fixed, as in ring
    steps = [fork] + br + [join]
    invs = [
        InvCase("acts_declared", _within("actions", acts + [reset]),
                PROVED, True),
        InvCase("steps_declared", _within("steps", steps), PROVED, True),
        InvCase("contain", f"!action({acts[i_in]}) || step({br[i_in]})",
                PROVED, True),
        InvCase("contain_other",
                f"!action({acts[i_out]}) || step({br[i_out]})", PROVED, True),
        InvCase("reset_contain", f"!action({reset}) || step({join})",
                PROVED, True),
        InvCase("counter_small", f"{ns[i_in]} <= {t}", REFUTED, False),
        InvCase("no_join", _within("steps", steps, join), REFUTED, False),
        InvCase("steps_missing", _within("steps", steps, br[i_out]),
                REFUTED, False),
        InvCase("acts_missing", _within("actions", acts + [reset],
                                        acts[i_out]), REFUTED, False),
    ]
    shape = FanoutShape(k, int(width[3:]), t, inits, tuple(steps),
                        tuple(acts + [reset]))
    return ModelCase(f"fanout{k}_{width}_t{t}", "\n".join(lines) + "\n", invs,
                     depth=depth, sim_steps=300, fanout=shape)


def build(workload: str, seed: int) -> list[ModelCase]:
    rng = random.Random(f"{workload}:{seed}")
    cases: list[ModelCase] = []
    if workload == "ring":
        for i, n in enumerate(RING_SIZES):
            cases.append(ring_model(rng, n, f"r{i}"))
    elif workload == "arith":
        for i, (w, c) in enumerate((w, c) for w in ARITH_WIDTHS
                                   for c in ARITH_CONSTS):
            cases.append(arith_model(rng, w, c, f"a{i}"))
    elif workload == "fanout":
        for i, (k, w, t, d) in enumerate(FANOUT_SHAPES):
            cases.append(fanout_model(rng, k, w, t, d, f"f{i}"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases
