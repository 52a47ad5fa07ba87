"""Breadth-first enumeration of fanout charts, written apart from certplc.

It follows the execution rules as the semantics documents them (execute,
transition, reactivate), but it works from the generator's description of
the chart, not from certplc's parser or semantics, so a fault in either
shows as a different state count.  Configurations are identified the way
the semantics identifies them: memory, the active steps as a list, the
pending actions as a multiset.
"""

from __future__ import annotations

from families import FanoutShape


def fanout_state_count(shape: FanoutShape, depth: int) -> int:
    """Distinct configurations within `depth` rule applications."""
    k = shape.branches
    mask = (1 << shape.width) - 1
    fork, branches, join = shape.steps[0], shape.steps[1:-1], shape.steps[-1]
    counter_of = {a: i for i, a in enumerate(shape.actions[:-1])}
    reset = shape.actions[-1]
    acts_of = {b: (a,) for b, a in zip(branches, shape.actions[:-1])}
    acts_of[join] = (reset,)
    acts_of[fork] = ()
    # (sources, targets, guard over the counters)
    trans = [((fork,), tuple(branches), lambda n: True),
             (tuple(branches), (join,),
              lambda n: all(v >= shape.time_slice for v in n)),
             ((join,), (fork,), lambda n: True)]

    def successors(mem, steps, pending):
        for a in dict.fromkeys(pending):
            if a == reset:
                m2 = (0,) * k
            else:
                i = counter_of[a]
                m2 = mem[:i] + ((mem[i] + shape.time_slice) & mask,) \
                    + mem[i + 1:]
            yield m2, steps, tuple(x for x in pending if x != a)
        for src, tgt, guard in trans:
            if (all(s in steps for s in src) and guard(mem)
                    and not any(a in pending for s in src
                                for a in acts_of[s])):
                kept = tuple(s for s in steps if s not in src)
                new = tuple(a for s in tgt for a in acts_of[s])
                yield mem, kept + tgt, new + pending
        for s in steps:
            if not any(s in src and guard(mem) for src, _, guard in trans):
                yield mem, steps, acts_of[s] + pending

    start = (shape.inits, (fork,), ())
    seen = {(start[0], start[1], tuple(sorted(start[2])))}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for state in frontier:
            for mem, steps, pending in successors(*state):
                key = (mem, steps, tuple(sorted(pending)))
                if key not in seen:
                    seen.add(key)
                    nxt.append((mem, steps, pending))
        frontier = nxt
    return len(seen)
