"""Dataflow bodies for action blocks.

A diagram is a set of blocks wired by port references.  Blocks read global
variables, combine values and write results back.  Cycles are legal only
through delay blocks, which emit the value captured in the previous
iteration and start from the type default.  A diagram runs for exactly
``time_slice`` iterations; globals are read at iteration start and written
back from the final iteration only.

Constructing a model validates each diagram; the model compiles it on its
first run and keeps the program (``SfcModel.program``).  ``compile_fbd``
validates, puts the blocks in delay-cut evaluation order and resolves
ports to slots with their wrap types.  ``_run`` is the one interpreter of
compiled diagrams.  It runs the concrete semantics (``eval_iterative``,
over ``expr.IntDomain``) and the symbolic summary (``linear_summary``,
over ``linear.LinDomain``) alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as E
from .linear import LinDomain, LinForm
from .parsing import NAME_RE, TokenStream

ARITH_KINDS = ("add", "sub", "mul")
CMP_KINDS = ("lt", "le", "eq", "ne", "ge", "gt")

# The port rule: what each input port carries, by block kind.  "own" is the
# block's own type and "int" the same, an integer; "operand" is the one
# integer type both operands of a comparison share; "bool" is a mux
# selector; "var" is the written variable's type.  Const and read blocks
# have no input port.  One width along each dataflow path is what lets the
# symbolic summary wrap once, at the end.
PORTS = {**dict.fromkeys(ARITH_KINDS, ("int", "int")),
         **dict.fromkeys(CMP_KINDS, ("operand", "operand")),
         "mux": ("bool", "own", "own"), "delay": ("own",), "write": ("var",),
         "const": (), "read": ()}

_CMP_OPS = {"lt": "<", "le": "<=", "eq": "==", "ne": "!=", "ge": ">=",
            "gt": ">"}

# Longest time slice.  Every run of a diagram, concrete or symbolic, loops
# once per iteration, and the checker runs the symbolic one per execute
# case, so the number bounds the checker's work; charts use a handful.
MAX_TIME_SLICE = 1024


class FbdError(Exception):
    """Structural or type error in a diagram."""


@dataclass(frozen=True)
class PortRef:
    block: str


@dataclass(frozen=True)
class ConstIn:
    value: int | bool


Operand = PortRef | ConstIn


@dataclass(frozen=True)
class Block:
    id: str
    kind: str
    inputs: tuple[Operand, ...] = ()
    var: str | None = None       # read/write target
    value: int | bool | None = None  # const payload


@dataclass(frozen=True)
class Fbd:
    name: str
    blocks: tuple[Block, ...]  # sorted by id
    time_slice: int

    def __post_init__(self):
        """Store the blocks sorted by id, however the diagram is built."""
        object.__setattr__(self, "blocks",
                           tuple(sorted(self.blocks, key=lambda b: b.id)))


def _dependencies(f: Fbd) -> dict[str, list[str]]:
    """Evaluation dependencies with delay outputs cut.

    A block depends on the producers of its input ports, except that a
    delay's output is available at iteration start and induces no edge.
    """
    deps = {b.id: [] for b in f.blocks}
    byid = {b.id: b for b in f.blocks}
    for b in f.blocks:
        for op in b.inputs:
            if isinstance(op, PortRef):
                src = byid.get(op.block)
                if src is None:
                    raise FbdError(f"block {b.id!r} reads unknown block "
                                   f"{op.block!r}")
                if src.kind == "write":
                    raise FbdError(f"block {b.id!r} reads write block "
                                   f"{op.block!r}")
                if src.kind != "delay":
                    deps[b.id].append(src.id)
    return deps


def topo_order(f: Fbd) -> list[str]:
    """Topological order of the delay-cut dependency graph.

    Raises FbdError when a cycle survives the cut, i.e. some cycle has no
    delay block on it.  The depth-first search keeps its own stack, so a
    chain of any length is ordered without recursing per block.
    """
    deps = _dependencies(f)
    order: list[str] = []
    state: dict[str, int] = {}  # 0 visiting, 1 done
    for b in f.blocks:
        if b.id in state:
            continue
        state[b.id] = 0
        path = [b.id]  # the blocks being visited, from b on
        todo = [iter(deps[b.id])]  # the dependencies each has left
        while todo:
            d = next(todo[-1], None)
            if d is None:  # every dependency of path[-1] is ordered
                todo.pop()
                done = path.pop()
                state[done] = 1
                order.append(done)
            elif d not in state:
                state[d] = 0
                path.append(d)
                todo.append(iter(deps[d]))
            elif state[d] == 0:
                raise FbdError("cycle without a delay block: "
                               + " -> ".join(path + [d]))
    return order


def validate_fbd(f: Fbd, env: dict[str, str]):
    """Check structure and type every block output by the port rule.

    The ports that must carry one type (``PORTS``) are merged into classes
    with a union-find over block outputs, plus one node per comparison for
    its operands.  A class takes the first type fixed in it, in block
    order: a read's variable, a boolean literal, a comparison result, a mux
    selector or a write target.  A class with none (const blocks, delays
    and arithmetic over them only) is an island and gets ``E.DEFAULT_INT``.
    Reads and comparisons keep their own type, so a class they disagree
    with fails at the port that joins them.

    Returns the evaluation order (block ids, see ``topo_order``) and the
    port types (block id -> type).
    """
    if not 1 <= f.time_slice <= MAX_TIME_SLICE:
        raise FbdError(f"time slice must be positive and at most "
                       f"{MAX_TIME_SLICE}")

    def fixed_type(b, port):
        return "bool" if port == "bool" else env[b.var]

    seen, written = set(), set()
    own = {}  # the blocks that keep their own type: reads and comparisons
    wires = []  # (block, port, operand, class node or None), in block order
    fixes = []  # (node, type) of every type fixed, in block order
    for b in f.blocks:
        if not NAME_RE.match(b.id):
            raise FbdError(f"bad block id {b.id!r}")
        if b.id in seen:
            raise FbdError(f"duplicate block id {b.id!r}")
        seen.add(b.id)
        if b.kind not in PORTS:
            raise FbdError(f"unknown block kind {b.kind!r}")
        if len(b.inputs) != len(PORTS[b.kind]):
            raise FbdError(f"block {b.id!r}: {b.kind} takes "
                           f"{len(PORTS[b.kind])} inputs")
        if b.kind in ("read", "write") and b.var not in env:
            raise FbdError(f"block {b.id!r} uses undeclared variable "
                           f"{b.var!r}")
        if b.kind == "write":
            if b.var in written:
                raise FbdError(f"variable {b.var!r} written by more than "
                               f"one block")
            written.add(b.var)
        if b.kind == "read" or b.kind in CMP_KINDS:
            own[b.id] = "bool" if b.kind in CMP_KINDS else env[b.var]
            fixes.append((b.id, own[b.id]))
        # a const block's literal is an input of its own type
        for port, op in ((("own", ConstIn(b.value)),) if b.kind == "const"
                         else zip(PORTS[b.kind], b.inputs)):
            if isinstance(op, ConstIn) and not E.printable(op.value):
                raise FbdError(f"block {b.id!r}: number too long")
            if isinstance(op, ConstIn) and (
                    type(op.value) not in (int, bool) or op.value < 0):
                raise FbdError(f"block {b.id!r}: bad constant {op.value!r}")
            n = b.id if port in ("own", "int") else \
                (b.id, port) if port == "operand" else None
            wires.append((b, port, op, n))
            if n is None and isinstance(op, PortRef):
                fixes.append((op.block, fixed_type(b, port)))
            elif n is not None and isinstance(op, ConstIn) \
                    and isinstance(op.value, bool):
                fixes.append((n, "bool"))
    order = topo_order(f)  # rejects undelayed cycles and bad references

    root: dict = {}  # union-find over the nodes

    def find(n):
        root.setdefault(n, n)
        while root[n] != n:
            root[n] = root[root[n]]
            n = root[n]
        return n

    for b, port, op, n in wires:
        if n is not None and isinstance(op, PortRef):
            root[find(op.block)] = find(n)
    fixed: dict = {}  # class root -> its type
    for n, ty in fixes:
        fixed.setdefault(find(n), ty)

    def class_type(n):
        return fixed.get(find(n), E.DEFAULT_INT)

    types = {b.id: own.get(b.id) or class_type(b.id) for b in f.blocks
             if b.kind != "write"}
    for b, port, op, n in wires:
        got = types[op.block] if isinstance(op, PortRef) \
            else "bool" if isinstance(op.value, bool) else None
        want = fixed_type(b, port) if n is None else class_type(n)
        if "bool" in (got, want) and port in ("int", "operand"):
            raise FbdError(f"block {b.id!r}: boolean input to {b.kind}")
        if got is None and want == "bool":
            raise FbdError(f"block {b.id!r}: integer constant in "
                           f"boolean position")
        if got is not None and got != want:
            raise FbdError(f"block {b.id!r}: {got} input to {want} "
                           f"{b.kind}")
    return order, types


# --- compilation and evaluation -------------------------------------------

@dataclass(frozen=True)
class Program:
    """A validated diagram, compiled for ``_run``.

    Every block output and every inline constant owns a slot.  Constants and
    reads are loaded once per run: memory does not change during a run, so a
    read gives the same value in every iteration.  ``body`` lists the
    remaining blocks in delay-cut evaluation order as ``(method, slot,
    input slots, wrap type, comparison)``: *method* names the value-domain
    operation, and *comparison* is ``(operator, operand width)`` for
    comparisons, None otherwise.
    """

    name: str
    time_slice: int
    slots: int
    consts: tuple[tuple[int, int | bool, str | None], ...]  # slot, value, wrap
    reads: tuple[tuple[int, str, str], ...]            # slot, variable, type
    body: tuple[tuple[str, int, tuple[int, ...], str,
                      tuple[str, str] | None], ...]
    delays: tuple[tuple[int, int, str], ...]           # slot, source, type
    writes: tuple[tuple[str, int, str], ...]           # variable, source, type


def compile_fbd(f: Fbd, env: dict[str, str]) -> Program:
    """Validate the diagram once and resolve its dataflow to slots.

    Raises FbdError when ``validate_fbd`` does.
    """
    order, types = validate_fbd(f, env)
    slot = {b.id: i for i, b in enumerate(f.blocks)}
    consts, reads, body, delays, writes = [], [], [], [], []

    def operand(op):
        if isinstance(op, PortRef):
            return slot[op.block]
        consts.append((len(slot) + len(consts), op.value, None))
        return consts[-1][0]

    byid = {b.id: b for b in f.blocks}
    for b in (byid[bid] for bid in order):
        ins = tuple(operand(op) for op in b.inputs)
        out = slot[b.id]
        if b.kind == "read":
            reads.append((out, b.var, types[b.id]))
        elif b.kind == "const":
            consts.append((out, b.value, types[b.id]))
        elif b.kind == "write":
            writes.append((b.var, ins[0], env[b.var]))
        elif b.kind == "delay":
            delays.append((out, ins[0], types[b.id]))
        elif b.kind in CMP_KINDS:
            tys = [types[op.block] for op in b.inputs
                   if isinstance(op, PortRef)]
            width = tys[0] if tys else E.DEFAULT_INT
            body.append(("cmp", out, ins, types[b.id],
                         (_CMP_OPS[b.kind], width)))
        else:
            body.append((b.kind, out, ins, types[b.id], None))
    return Program(f.name, f.time_slice, len(slot) + len(consts),
                   tuple(consts), tuple(reads), tuple(body), tuple(delays),
                   tuple(writes))


def _run(p: Program, dom, read) -> dict:
    """Run a compiled diagram for exactly its time slice in a value domain.

    *dom* is ``expr.IntDomain`` or ``linear.LinDomain``; *read* gives a
    global's value at iteration start.  Block outputs and delays are wrapped
    to their port type, writes to the variable's type.  Returns variable ->
    value written in the final iteration.
    """
    wrap = dom.wrap
    vals = [None] * p.slots
    for i, value, ty in p.consts:
        vals[i] = dom.const(value) if ty is None \
            else wrap(dom.const(value), ty)
    for i, var, ty in p.reads:
        vals[i] = wrap(read(var), ty)
    for i, _, _ in p.delays:
        vals[i] = dom.const(0)
    for n in range(p.time_slice):
        if n:
            # delays capture the previous iteration's inputs, all at once
            new = [wrap(vals[src], ty) for _, src, ty in p.delays]
            for (i, _, _), v in zip(p.delays, new):
                vals[i] = v
        for method, i, ins, ty, cmp in p.body:
            args = [vals[j] for j in ins]
            if cmp is not None:
                op, width = cmp
                args = [op] + [wrap(a, width) for a in args]
            vals[i] = wrap(getattr(dom, method)(*args), ty)
    return {var: wrap(vals[src], ty) for var, src, ty in p.writes}


def eval_iterative(p: Program, m: E.Memory) -> dict:
    """The values the diagram writes back after its time slice, by name."""
    return _run(p, E.IntDomain, m.__getitem__)


def linear_summary(p: Program) -> dict:
    """Exact parallel update computed by the diagram: written variable ->
    raw linear form over the pre-state; FragmentError for a comparison, mux
    or non-constant multiplication.  Raw forms defer wrapping: all block
    arithmetic is congruent mod 2**w, so a single wrap at the end is exact.
    """
    return _run(p, LinDomain, LinForm.of_var)


# --- surface syntax -------------------------------------------------------
#
# fbd NAME {
#   block ID = read VAR
#   block ID = write VAR (PORT)
#   block ID = const LIT
#   block ID = add(PORT, PORT)        # likewise sub/mul/lt/le/eq/ne/ge/gt
#   block ID = mux(PORT, PORT, PORT)
#   block ID = delay(PORT)
#   timeslice N
# }
#
# PORT is either `ID.out` or an inline `const LIT`.

def _parse_operand(ts: TokenStream) -> Operand:
    if ts.accept("const"):
        return ConstIn(_parse_const_lit(ts))
    name = ts.ident()
    ts.expect(".")
    at_port = ts.pos
    port = ts.ident()
    if port != "out":
        ts.error(f"expected port 'out', found {port!r}", at_port)
    return PortRef(name)


def _parse_const_lit(ts: TokenStream):
    if ts.peek().isdigit():
        return ts.integer()
    if ts.accept("true"):
        return True
    if ts.accept("false"):
        return False
    ts.error("expected constant literal")


def parse_fbd(ts: TokenStream, name: str) -> Fbd:
    ts.expect("{")
    blocks = []
    time_slice = None
    while not ts.accept("}"):
        if ts.at("timeslice"):
            if time_slice is not None:
                ts.error("duplicate timeslice")
            ts.next()
            time_slice = ts.integer()
            continue
        ts.expect("block")
        bid = ts.ident()
        ts.expect("=")
        kind = ts.ident()
        if kind == "read":
            blocks.append(Block(bid, kind, var=ts.ident()))
        elif kind == "write":
            var = ts.ident()
            ts.expect("(")
            src = _parse_operand(ts)
            ts.expect(")")
            blocks.append(Block(bid, kind, inputs=(src,), var=var))
        elif kind == "const":
            blocks.append(Block(bid, kind, value=_parse_const_lit(ts)))
        else:
            ts.expect("(")
            ops = [_parse_operand(ts)]
            while ts.accept(","):
                ops.append(_parse_operand(ts))
            ts.expect(")")
            blocks.append(Block(bid, kind, inputs=tuple(ops)))
    return Fbd(name, tuple(blocks),
               time_slice if time_slice is not None else 1)


def _show_operand(op: Operand) -> str:
    if isinstance(op, ConstIn):
        if isinstance(op.value, bool):
            return f"const {'true' if op.value else 'false'}"
        return f"const {op.value}"
    return f"{op.block}.out"


def fbd_lines(f: Fbd) -> list[str]:
    lines = [f"fbd {f.name} {{"]
    for b in f.blocks:
        if b.kind == "read":
            body = f"read {b.var}"
        elif b.kind == "write":
            body = f"write {b.var} ({_show_operand(b.inputs[0])})"
        elif b.kind == "const":
            lit = ("true" if b.value else "false") \
                if isinstance(b.value, bool) else str(b.value)
            body = f"const {lit}"
        else:
            args = ", ".join(_show_operand(op) for op in b.inputs)
            body = f"{b.kind}({args})"
        lines.append(f"  block {b.id} = {body}")
    lines.append(f"  timeslice {f.time_slice}")
    lines.append("}")
    return lines
