"""Dependence DAG construction for block scheduling.

The DAG encodes sequential semantics: the scheduled order must be a
topological order, and the emulator executes the scheduled order
sequentially, so *every* ordering requirement is an edge (latency-0
edges permit same-cycle issue while preserving emission order).

Predicate-aware special cases (paper Sections 2.1/4.2):

* OR-type (and AND-type) predicate defines targeting the same predicate
  register are order-independent (wired-OR): no output or RMW edges
  between them, so they may issue simultaneously;
* a guarded instruction depends on its predicate define with the
  define's full latency (suppression happens at decode/issue, so the
  predicate must be available one cycle ahead);
* pure instructions whose destinations are dead at an exit branch's
  target may cross that branch (speculation); may-except instructions
  that do so must later be marked silent.

Calls and returns are full barriers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.liveness import Liveness
from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import Instruction, PType
from repro.ir.opcodes import OpCategory, Opcode
from repro.ir.operands import PReg
from repro.machine.descriptor import MachineDescription

_PARALLEL_SET = frozenset({PType.OR, PType.OR_BAR})
_PARALLEL_CLEAR = frozenset({PType.AND, PType.AND_BAR})
#: ordered cmov/cmov_com pairs (a tuple: ``in`` compares, never hashes)
_COMPLEMENTARY_CMOVS = ((Opcode.CMOV, Opcode.CMOV_COM),
                        (Opcode.CMOV_COM, Opcode.CMOV),
                        (Opcode.FCMOV, Opcode.FCMOV_COM),
                        (Opcode.FCMOV_COM, Opcode.FCMOV))


@dataclass
class DepGraph:
    """Nodes are instruction indices; ``succs[i]`` holds (j, latency)."""

    insts: list[Instruction]
    succs: list[list[tuple[int, int]]] = field(default_factory=list)
    preds: list[list[tuple[int, int]]] = field(default_factory=list)

    def add_edge(self, i: int, j: int, latency: int) -> None:
        if i == j:
            return
        self.succs[i].append((j, latency))
        self.preds[j].append((i, latency))

    def heights(self, machine: MachineDescription) -> list[int]:
        """Longest-path-to-sink priority for list scheduling."""
        n = len(self.insts)
        height = [0] * n
        for i in range(n - 1, -1, -1):
            best = machine.latency(self.insts[i].op)
            for j, lat in self.succs[i]:
                best = max(best, lat + height[j])
            height[i] = best
        return height


def _parallel_family(inst: Instruction, reg) -> frozenset | None:
    """Ptype family of inst's define of ``reg`` if order-independent."""
    for pd in inst.pdests:
        if pd.reg == reg:
            # Identity tests: the DAG builder runs this per edge, and
            # set membership would hash the enum member.
            ptype = pd.ptype
            if ptype is PType.OR or ptype is PType.OR_BAR:
                return _PARALLEL_SET
            if ptype is PType.AND or ptype is PType.AND_BAR:
                return _PARALLEL_CLEAR
            return None
    return None


def _complementary_cmovs(a: Instruction, b: Instruction) -> bool:
    """cmov/cmov_com on the same dest and condition may issue together
    (paper Section 2.2: at most one of them modifies the register)."""
    if a.cat is not OpCategory.CMOV or b.cat is not OpCategory.CMOV:
        return False
    if (a.op, b.op) not in _COMPLEMENTARY_CMOVS:
        return False
    return a.dest == b.dest and a.srcs[1] == b.srcs[1]


def build_dag(fn: Function, block: BasicBlock, live: Liveness,
              machine: MachineDescription) -> DepGraph:
    insts = block.instructions
    n = len(insts)
    graph = DepGraph(insts, [[] for _ in range(n)], [[] for _ in range(n)])
    # Per-instruction facts the pairwise loops below consult repeatedly;
    # ``live`` must describe the block as it is (its facts are reused).
    lat = [machine.latency(inst.op) for inst in insts]
    used = [inst.used_regs() for inst in insts]
    defined = [inst.defined_regs() for inst in insts]
    facts = live.facts[block.name]
    # Only predicate defines and cmovs can be order-independent pairs.
    special = [bool(inst.pdests) or inst.cat is OpCategory.CMOV
               for inst in insts]
    add_edge = graph.add_edge

    def independent(i: int, j: int, reg) -> bool:
        """Wired-OR/AND defines of ``reg`` and complementary cmovs need
        no ordering between them."""
        a, b = insts[i], insts[j]
        fam = _parallel_family(a, reg)
        if fam is not None and fam is _parallel_family(b, reg):
            return True
        return _complementary_cmovs(a, b)

    # Register dependences.
    last_definite: dict = {}
    pending: dict = {}  # reg -> list of conditional def indices
    readers: dict = {}  # reg -> earlier instructions reading it, in order

    def defs_reaching(reg) -> list[int]:
        out = []
        if reg in last_definite:
            out.append(last_definite[reg])
        out.extend(pending.get(reg, ()))
        return out

    for j, inst in enumerate(insts):
        special_j = special[j]
        # RAW (including guard predicates and cmov implicit dest reads).
        for r in used[j]:
            for i in defs_reaching(r):
                if special_j and special[i] and independent(i, j, r):
                    continue
                add_edge(i, j, lat[i])
        # WAR: writers wait for earlier readers (latency 0 keeps order).
        for r in defined[j]:
            reaching = defs_reaching(r)
            for i in readers.get(r, ()):
                if i in reaching or special_j and special[i] \
                        and independent(i, j, r):
                    continue
                add_edge(i, j, 0)
        # WAW.
        for r in defined[j]:
            for i in defs_reaching(r):
                if special_j and special[i] and independent(i, j, r):
                    continue
                # Predicate WAW must keep a cycle between writes (U-type
                # defines "may not issue simultaneously"); register WAW
                # only needs ordering unless the producer is slow.
                if isinstance(r, PReg):
                    waw_lat = 1
                else:
                    waw_lat = 1 if lat[i] > 1 else 0
                add_edge(i, j, waw_lat)
            # Update def records.  Parallel-type (OR/AND) predicate
            # destinations accumulate rather than overwrite, so they are
            # pending defs like guarded writes — a later reader depends
            # on *all* of them, not just the latest.
            if inst.is_conditional_write \
                    or _parallel_family(inst, r) is not None:
                pending.setdefault(r, []).append(j)
            else:
                last_definite[r] = j
                pending.pop(r, None)
        for r in dict.fromkeys(used[j]):
            readers.setdefault(r, []).append(j)

    # pred_clear / pred_set rewrite the entire predicate file: order them
    # against every instruction touching any predicate register.
    touchers: list[int] = []
    last_predset: int | None = None
    for j, inst in enumerate(insts):
        if inst.cat is OpCategory.PREDSET:
            for i in touchers:
                graph.add_edge(i, j, 0)
            if last_predset is not None:
                graph.add_edge(last_predset, j, 0)
            last_predset = j
            touchers = []
        else:
            # The guard is among the uses.
            if inst.pdests or facts[j].use & live.pred_bits:
                if last_predset is not None:
                    graph.add_edge(last_predset, j, 1)
                touchers.append(j)

    # Memory dependences with symbolic disambiguation: accesses through
    # distinct global objects cannot alias (globals do not overlap);
    # anything with a register base address is treated as "may touch
    # anything" ("*").  Calls behave as opaque stores.
    from repro.ir.operands import GlobalAddr

    def mem_key(inst: Instruction) -> str:
        if inst.mem_hint is not None:
            return inst.mem_hint
        base = inst.srcs[0] if inst.srcs else None
        if isinstance(base, GlobalAddr):
            return base.name
        return "*"

    last_store_at: dict[str, int] = {}
    loads_since: dict[str, list[int]] = {}
    last_mem_write: int | None = None

    def conflicting_stores(key: str) -> list[int]:
        if key == "*":
            return list(last_store_at.values())
        found = []
        if key in last_store_at:
            found.append(last_store_at[key])
        if "*" in last_store_at:
            found.append(last_store_at["*"])
        return found

    def conflicting_loads(key: str) -> list[int]:
        if key == "*":
            return [i for lst in loads_since.values() for i in lst]
        return loads_since.get(key, []) + loads_since.get("*", [])

    for j, inst in enumerate(insts):
        cat = inst.cat
        if cat is OpCategory.LOAD:
            key = mem_key(inst)
            for i in conflicting_stores(key):
                graph.add_edge(i, j, lat[i])
            loads_since.setdefault(key, []).append(j)
        elif cat is OpCategory.STORE or cat is OpCategory.CALL:
            key = "*" if cat is OpCategory.CALL else mem_key(inst)
            for i in conflicting_stores(key):
                graph.add_edge(i, j, 1)
            for i in conflicting_loads(key):
                graph.add_edge(i, j, 0)
            # The dynamic store stream is an architectural observable
            # (the differential oracle compares it across models), so
            # writes keep program order even when disambiguation proves
            # them independent.  Latency 0 lets ready stores share a
            # cycle, but a cheap store can no longer hoist above a
            # slower one's operand chain.
            if last_mem_write is not None:
                graph.add_edge(last_mem_write, j, 0)
            last_mem_write = j
            if key == "*":
                last_store_at.clear()
                loads_since.clear()
            else:
                # Keep "*" loads listed: they must also order before any
                # *later* store to a different global, which has no
                # transitive path through this one.
                loads_since.pop(key, None)
            last_store_at[key] = j

    # Control dependences.  A pure instruction may cross an exit branch
    # (speculation) when it defines nothing live at the branch target.
    is_control = [inst.is_control for inst in insts]
    # Definitions of each instruction that may move at all (None: never).
    movable_defs = [f.defs if inst.is_pure else None
                    for inst, f in zip(insts, facts)]
    for b, binst in enumerate(insts):
        if not is_control[b]:
            continue
        if binst.cat is OpCategory.CALL:
            live_target = None  # a barrier
        elif binst.cat is OpCategory.RET:
            # A return's "target" needs only the returned value: other
            # pure instructions may move across it like any exit branch.
            live_target = facts[b].use
        else:
            live_target = live.live_in.get(binst.target or "", 0)
        for j in range(n):
            if j == b:
                continue
            if is_control[j]:
                if j > b:
                    add_edge(b, j, 0)
                continue
            defs = movable_defs[j]
            if live_target is None or defs is None or defs & live_target:
                if j < b:
                    add_edge(j, b, 0)
                else:
                    add_edge(b, j, 0)
    return graph
