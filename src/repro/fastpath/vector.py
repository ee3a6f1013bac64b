"""Vectorized batch simulation backend (the ``vector`` engine).

The fastpath :class:`~repro.fastpath.simulate.StreamSimulator` already
avoids per-event attribute lookups, but it still decides *everything*
per event in Python: cache tag probes, BTB prediction, branch/memory
classification, effective latency.  This module splits one trace chunk
into two halves:

* a **pre-pass** (:func:`prepass_chunk`) that resolves every decision
  that does not depend on issue timing as NumPy array programs over the
  whole chunk — instruction/data cache hits via set-sorted segmented
  scans, branch outcome streams, executed/control/memory
  classification — and
* a **residual scan** (:func:`_scan_perfect` and friends) that walks
  the chunk once with nothing left to do but register interlocks and
  in-order issue-slot packing, consuming the pre-pass results as
  sorted position lists.

Cache and BTB state depend only on the address/outcome streams, never
on issue timing, so the pre-pass is exact — not a heuristic.  The
pre-pass is also *pure* and picklable, which is what makes
intra-workload sharding possible: :func:`simulate_columns_vector` can
fan ``prepass_chunk`` tasks across the engine's process pool (keyed by
``(task_key, chunk_index)``) and stitch the results back in order.
Chunk-local cache probes that depend on state from earlier chunks (the
per-set access prefix before the first in-chunk fill) are kept
symbolic by the pre-pass and resolved against the carried tag state at
stitch time, so results are byte-identical to the serial engines at
any ``--jobs`` level and any chunk size.

The per-program specialization step (:class:`VectorSimPrep`) lifts the
:class:`~repro.fastpath.simulate.SimPrep` tables into dense NumPy
vectors plus per-static scan row tuples once per ``(schedule_digest,
latency table)``, so each chunk pre-pass is pure ufunc work and the
residual scan iterates a single gathered list.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from repro.fastpath.columns import TraceColumns
from repro.fastpath.decode import DecodedProgram, decode_program
from repro.fastpath.simulate import (F_CONTROL, F_DYNBRANCH, F_JUMP,
                                     F_LOAD, F_STORE, SimPrep,
                                     prepare_sim)
from repro.machine.descriptor import MachineDescription
from repro.robustness.errors import NativeKernelCrash
from repro.sim.pipeline import SimulationStats

if TYPE_CHECKING:
    from repro.emu.trace import ExecutionResult
    from repro.ir.function import Program

_F_MEM = F_LOAD | F_STORE


class VectorSimPrep:
    """Per-program specialization: ``SimPrep`` plus dense NumPy vectors
    and pre-built scan rows.

    Built once per decoded program / latency table; every chunk
    pre-pass then indexes these arrays with the chunk's ``sidx``
    column instead of looping over Python lists.  ``exec_rows[s]`` is
    the residual-scan row ``(used, dests, is_control, latency)`` for an
    *executed* event of static instruction ``s``; ``null_rows[s]`` is
    the row for a *nullified* one (guard read only, no writes).
    """

    __slots__ = ("prep", "pc_addr", "flags", "exec_rows", "null_rows",
                 "_nt")

    def __init__(self, prep: SimPrep):
        self.prep = prep
        self.pc_addr = np.asarray(prep.pc_addr, dtype=np.int64)
        self.flags = np.asarray(prep.flags, dtype=np.int64)
        self.exec_rows = tuple(
            (u, d, 1 if f & F_CONTROL else 0, lv)
            for u, d, f, lv in zip(prep.used, prep.dests, prep.flags,
                                   prep.lat))
        self.null_rows = tuple(
            ((p,) if p >= 0 else (), (), 0, 0) for p in prep.pred)
        self._nt = None

    def native_tables(self):
        """Lazily built CSR tables for the native (C) scan kernel."""
        if self._nt is None:
            from repro.fastpath.native import NativeSimTables
            self._nt = NativeSimTables(self.prep)
        return self._nt

    @classmethod
    def from_prep(cls, prep: "SimPrep | VectorSimPrep"
                  ) -> "VectorSimPrep":
        if isinstance(prep, VectorSimPrep):
            return prep
        return cls(prep)

    # Pool workers only need the derivable tables — ship the SimPrep
    # and rebuild, keeping the pickled payload small.
    def __getstate__(self):
        return self.prep

    def __setstate__(self, prep):
        self.__init__(prep)


def prepare_vector(decoded: DecodedProgram, addresses: dict[int, int],
                   machine: MachineDescription | None = None
                   ) -> VectorSimPrep:
    """Specialize a decoded program for the vector backend."""
    return VectorSimPrep(prepare_sim(decoded, addresses, machine))


# ---------------------------------------------------------------------------
# Direct-mapped cache resolution over one chunk (set-sorted, exact).
# ---------------------------------------------------------------------------

def _dm_chunk(lines: np.ndarray, alloc: np.ndarray, num_lines: int):
    """Resolve one chunk of direct-mapped cache probes without state.

    ``lines``/``alloc`` are the accessed line numbers and whether each
    access fills the line on a miss (loads yes, stores no), in access
    order.  Within a set, the tag before access *k* is the line of the
    last allocating access before *k* — except for the per-set prefix
    with no earlier in-chunk allocation, whose hit/miss depends on the
    carried tag state and stays *unresolved* here.  (An allocating
    access leaves its own line as the tag whether it hit or missed, so
    everything after the first in-chunk fill is chunk-local.)

    Returns ``(miss, unresolved, newtag_set, newtag_line)`` in access
    order; ``miss`` is only meaningful where ``~unresolved``.
    """
    n = lines.size
    empty = np.zeros(0, dtype=np.int64)
    if n == 0:
        return np.zeros(0, bool), np.zeros(0, bool), empty, empty
    sets = lines % num_lines
    order = np.argsort(sets, kind="stable")
    ss = sets[order]
    sl = lines[order]
    sa = alloc[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(ss[1:], ss[:-1], out=starts[1:])
    # Segmented running maximum via per-set monotone bases: within one
    # set the base is constant, across sets it grows by more than any
    # in-chunk position, so a plain accumulate cannot leak backwards.
    pos = np.arange(n, dtype=np.int64)
    base = (np.cumsum(starts) - 1) * (n + 1)
    apos = np.where(sa, pos + base, np.int64(-1))
    excl = np.empty(n, dtype=np.int64)
    excl[0] = -1
    excl[1:] = apos[:-1]
    excl[starts] = -1
    prev = np.maximum.accumulate(excl) - base
    have = prev >= 0
    prev_line = sl[np.clip(prev, 0, n - 1)]
    miss_s = have & (sl != prev_line)
    # Last allocating access per set -> the tag the chunk leaves behind.
    incl = np.maximum.accumulate(apos) - base
    ends = np.flatnonzero(np.concatenate((starts[1:], (True,))))
    end_last = incl[ends]
    filled = end_last >= 0
    newtag_set = ss[ends][filled]
    newtag_line = sl[end_last[filled]]
    miss = np.empty(n, dtype=bool)
    miss[order] = miss_s
    unresolved = np.empty(n, dtype=bool)
    unresolved[order] = ~have
    return miss, unresolved, newtag_set, newtag_line


# ---------------------------------------------------------------------------
# Chunk pre-pass (pure, picklable — the shardable half).
# ---------------------------------------------------------------------------

class ChunkPrepass:
    """Timing-independent resolution of one trace chunk.

    Everything here is derived from the chunk's columns and the static
    tables alone, so instances are order-independent and safe to
    compute on pool workers; only the stitch step consumes them
    serially.
    """

    __slots__ = (
        "n", "si", "null_pos", "executed_n",
        "mem_pos", "b_pos", "b_idx", "b_pc", "b_out",
        "ic_acc", "ic_miss_pos", "ic_unres_pos", "ic_unres_set",
        "ic_unres_line", "ic_newtag_set", "ic_newtag_line",
        "dc_acc", "dc_miss_resolved", "dc_loadmiss_pos",
        "dc_unres_pos", "dc_unres_set", "dc_unres_line",
        "dc_unres_isload", "dc_newtag_set", "dc_newtag_line")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


def prepass_chunk(cols: TraceColumns, vprep: VectorSimPrep,
                  machine: MachineDescription) -> ChunkPrepass:
    """Run the NumPy pre-passes over one chunk (pure function)."""
    n = len(cols)
    si = (np.frombuffer(cols.sidx, dtype=np.int32).astype(np.int64)
          if n else np.zeros(0, dtype=np.int64))
    fl = (np.frombuffer(cols.flags, dtype=np.uint8) if n
          else np.zeros(0, dtype=np.uint8))
    f = vprep.flags[si]
    executed = (fl & 1) != 0
    null_pos = np.flatnonzero(~executed).astype(np.int32)

    # Branch outcome streams (BTB input; the walk itself is stateful
    # and happens at stitch time).
    dyn = (f & F_DYNBRANCH) != 0
    b_pos = np.flatnonzero(dyn).astype(np.int32)
    is_jump = (f[b_pos] & F_JUMP) != 0
    b_exec = executed[b_pos]
    b_out = np.where(is_jump, b_exec, b_exec & ((fl[b_pos] & 2) != 0))
    b_pc = vprep.pc_addr[si[b_pos]]
    b_idx = (b_pc >> 2) % machine.btb.entries

    kw = dict(n=n, si=si.astype(np.int32), null_pos=null_pos,
              executed_n=int(n - null_pos.size),
              b_pos=b_pos, b_idx=b_idx, b_pc=b_pc, b_out=b_out)

    empty32 = np.zeros(0, dtype=np.int32)
    empty64 = np.zeros(0, dtype=np.int64)
    if machine.perfect_caches:
        kw.update(mem_pos=empty32, ic_acc=0, ic_miss_pos=empty32,
                  ic_unres_pos=empty32, ic_unres_set=empty64,
                  ic_unres_line=empty64, ic_newtag_set=empty64,
                  ic_newtag_line=empty64, dc_acc=0, dc_miss_resolved=0,
                  dc_loadmiss_pos=empty32, dc_unres_pos=empty32,
                  dc_unres_set=empty64, dc_unres_line=empty64,
                  dc_unres_isload=np.zeros(0, bool),
                  dc_newtag_set=empty64, dc_newtag_line=empty64)
        return ChunkPrepass(**kw)

    # Instruction cache: every event probes it.
    icc = machine.icache
    pc = vprep.pc_addr[si]
    ilines = pc // icc.line_bytes
    imiss, iunres, int_set, int_line = _dm_chunk(
        ilines, np.ones(n, dtype=bool), icc.num_lines)
    iu = np.flatnonzero(iunres)
    kw.update(ic_acc=n,
              ic_miss_pos=np.flatnonzero(imiss).astype(np.int32),
              ic_unres_pos=iu.astype(np.int32),
              ic_unres_set=(ilines[iu] % icc.num_lines),
              ic_unres_line=ilines[iu],
              ic_newtag_set=int_set, ic_newtag_line=int_line)

    # Data cache: executed loads/stores with a real address probe it;
    # every executed memory op additionally waits out a pending miss.
    dcc = machine.dcache
    addr = np.frombuffer(cols.addr, dtype=np.int64) if n \
        else np.zeros(0, dtype=np.int64)
    em = executed & ((f & _F_MEM) != 0)
    kw["mem_pos"] = np.flatnonzero(em).astype(np.int32)
    acc_pos = np.flatnonzero(em & (addr >= 0))
    dlines = addr[acc_pos] // dcc.line_bytes
    isload = (f[acc_pos] & F_LOAD) != 0
    dmiss, dunres, dnt_set, dnt_line = _dm_chunk(
        dlines, isload, dcc.num_lines)
    du = np.flatnonzero(dunres)
    kw.update(dc_acc=int(acc_pos.size),
              dc_miss_resolved=int(dmiss.sum()),
              dc_loadmiss_pos=acc_pos[dmiss & isload].astype(np.int32),
              dc_unres_pos=acc_pos[du].astype(np.int32),
              dc_unres_set=(dlines[du] % dcc.num_lines),
              dc_unres_line=dlines[du],
              dc_unres_isload=isload[du],
              dc_newtag_set=dnt_set, dc_newtag_line=dnt_line)
    return ChunkPrepass(**kw)


def _vector_prepass_job(cols: TraceColumns, vprep: VectorSimPrep,
                        machine: MachineDescription) -> ChunkPrepass:
    """Module-level pre-pass entry point for the process pool."""
    return prepass_chunk(cols, vprep, machine)


# ---------------------------------------------------------------------------
# Residual scans: interlocks + issue packing only.
# ---------------------------------------------------------------------------
#
# The scans process executed and nullified events uniformly: the
# stitch step rewrites a nullified event's row to its guard singleton
# with no writes, which is exactly the serial simulator's special
# case.  Sparse per-event facts (mispredictions, icache misses, memory
# ops, miss-latency loads) arrive as sorted position lists with an
# ``n`` sentinel, so the common case is one integer compare.

def _scan_perfect(rows, mp_pos, ready,
                  width, blimit, bubble, cur, slots, bslots, fetch):
    mp_i = 0
    mp_next = mp_pos[0]
    j = 0
    for ut, dt, cls, lv in rows:
        e = fetch
        for r in ut:
            t0 = ready[r]
            if t0 > e:
                e = t0
        t = e if e > cur else cur
        if t == cur:
            if slots >= width:
                t += 1
            elif cls and bslots >= blimit:
                t += 1
        if t > cur:
            cur = t
            slots = 0
            bslots = 0
        slots += 1
        if cls:
            bslots += 1
        if j == mp_next:
            mp_i += 1
            mp_next = mp_pos[mp_i]
            st = t + bubble
            if st > fetch:
                fetch = st
        done = t + lv
        for r in dt:
            ready[r] = done
        j += 1
    return cur, slots, bslots, fetch


def _scan_perfect_w1(rows, mp_pos, ready, bubble,
                     cur, slots, bslots, fetch):
    """Single-issue specialization: with one slot per cycle and a
    branch limit of at least one, every event past the first lands at
    ``max(earliest, cur + 1)`` and the slot counters are trivial."""
    mp_i = 0
    mp_next = mp_pos[0]
    j = 0
    it = iter(rows)
    if slots == 0:
        # Only ever the first event of the whole simulation.
        for ut, dt, cls, lv in it:
            e = fetch
            for r in ut:
                t0 = ready[r]
                if t0 > e:
                    e = t0
            if e > cur:
                cur = e
            slots = 1
            bslots = cls
            if j == mp_next:
                mp_i += 1
                mp_next = mp_pos[mp_i]
                st = cur + bubble
                if st > fetch:
                    fetch = st
            done = cur + lv
            for r in dt:
                ready[r] = done
            j += 1
            break
    for ut, dt, cls, lv in it:
        e = fetch
        for r in ut:
            t0 = ready[r]
            if t0 > e:
                e = t0
        cur = e if e > cur else cur + 1
        bslots = cls
        if j == mp_next:
            mp_i += 1
            mp_next = mp_pos[mp_i]
            st = cur + bubble
            if st > fetch:
                fetch = st
        done = cur + lv
        for r in dt:
            ready[r] = done
        j += 1
    return cur, slots, bslots, fetch


def _scan_real(rows, mp_pos, ic_pos, mem_pos, mb_pos,
               ready, width, blimit, bubble, icpen,
               cur, slots, bslots, fetch, membusy):
    mp_i = 0
    mp_next = mp_pos[0]
    ic_i = 0
    ic_next = ic_pos[0]
    mem_i = 0
    mem_next = mem_pos[0]
    mb_i = 0
    mb_next = mb_pos[0]
    j = 0
    for ut, dt, cls, lv in rows:
        e = fetch
        if j == ic_next:
            ic_i += 1
            ic_next = ic_pos[ic_i]
            fill = (cur if cur > e else e) + icpen
            if fill > fetch:
                fetch = fill
            if fill > e:
                e = fill
        for r in ut:
            t0 = ready[r]
            if t0 > e:
                e = t0
        if j == mem_next:
            mem_i += 1
            mem_next = mem_pos[mem_i]
            if membusy > e:
                e = membusy
        t = e if e > cur else cur
        if t == cur:
            if slots >= width:
                t += 1
            elif cls and bslots >= blimit:
                t += 1
        if t > cur:
            cur = t
            slots = 0
            bslots = 0
        slots += 1
        if cls:
            bslots += 1
        if j == mp_next:
            mp_i += 1
            mp_next = mp_pos[mp_i]
            st = t + bubble
            if st > fetch:
                fetch = st
        done = t + lv
        if j == mb_next:
            mb_i += 1
            mb_next = mb_pos[mb_i]
            membusy = done
        for r in dt:
            ready[r] = done
        j += 1
    return cur, slots, bslots, fetch, membusy


# ---------------------------------------------------------------------------
# The incremental simulator: stitch pre-passed chunks in order.
# ---------------------------------------------------------------------------

class VectorSimulator:
    """Vector-backend twin of ``StreamSimulator``: feed chunks, finish.

    ``feed`` pre-passes and stitches inline; ``feed_prepassed``
    consumes a :class:`ChunkPrepass` computed elsewhere (a pool
    worker).  All carried state lives in :meth:`boundary_snapshot`
    form between chunks, which is what makes the sharded path
    byte-identical to the serial engines.
    """

    def __init__(self, prep: "SimPrep | VectorSimPrep",
                 machine: MachineDescription, native: bool = True):
        self.vprep = VectorSimPrep.from_prep(prep)
        self.machine = machine
        nregs = self.vprep.prep.nregs
        self.ready: list[int] = [0] * nregs
        self.cur_cycle = 0
        self.slots = 0
        self.branch_slots = 0
        self.fetch_available = 0
        self.mem_busy_until = 0
        self.dynamic = 0
        self.executed_n = 0
        self.suppressed_n = 0
        self.branches = 0
        self.mispredictions = 0
        self.chunks_fed = 0
        btb = machine.btb
        self.btb_bubble = btb.mispredict_penalty + 1
        self.btb_tags: list[int] = [-1] * btb.entries
        self.btb_counters: list[int] = [1] * btb.entries
        if machine.perfect_caches:
            self.ic_tags = None
            self.dc_tags = None
        else:
            self.ic_tags = np.full(machine.icache.num_lines, -1,
                                   dtype=np.int64)
            self.dc_tags = np.full(machine.dcache.num_lines, -1,
                                   dtype=np.int64)
        self.ic_accesses = 0
        self.ic_misses = 0
        self.dc_accesses = 0
        self.dc_misses = 0

        # Native (C) full-scan mode: all carried state lives in numpy
        # arrays the kernel mutates in place; the Python attributes
        # above are refreshed on demand (snapshot/finish/handoff).
        self._native = False
        if native:
            from repro.fastpath import native as _native_mod
            if _native_mod.available():
                self._native = True
                self._scan = _native_mod.sim_scan_chunk
                self._nt = self.vprep.native_tables()
                self._ready_np = np.zeros(nregs, dtype=np.int64)
                self._btb_tags_np = np.full(btb.entries, -1,
                                            dtype=np.int64)
                self._btb_ctr_np = np.ones(btb.entries, dtype=np.uint8)
                self._st = np.zeros(14, dtype=np.int64)
                dummy = np.zeros(1, dtype=np.int64)
                if machine.perfect_caches:
                    self._cfg = np.array(
                        [0, btb.entries, self.btb_bubble,
                         1, 1, 0, 1, 1, 0, 1,
                         machine.issue_width,
                         machine.branch_issue_limit], dtype=np.int64)
                    self._ic_np = dummy
                    self._dc_np = dummy
                else:
                    icc, dcc = machine.icache, machine.dcache
                    self._cfg = np.array(
                        [0, btb.entries, self.btb_bubble,
                         icc.num_lines, icc.line_bytes,
                         icc.miss_penalty, dcc.num_lines,
                         dcc.line_bytes, dcc.miss_penalty, 0,
                         machine.issue_width,
                         machine.branch_issue_limit], dtype=np.int64)
                    self._ic_np = self.ic_tags
                    self._dc_np = self.dc_tags

    def _sync_from_native(self) -> None:
        """Refresh the Python-side state from the kernel arrays."""
        st = self._st
        self.cur_cycle = int(st[0])
        self.slots = int(st[1])
        self.branch_slots = int(st[2])
        self.fetch_available = int(st[3])
        self.mem_busy_until = int(st[4])
        self.dynamic = int(st[5])
        self.executed_n = int(st[6])
        self.suppressed_n = int(st[7])
        self.branches = int(st[8])
        self.mispredictions = int(st[9])
        self.ic_accesses = int(st[10])
        self.ic_misses = int(st[11])
        self.dc_accesses = int(st[12])
        self.dc_misses = int(st[13])
        self.ready = self._ready_np.tolist()
        self.btb_tags = self._btb_tags_np.tolist()
        self.btb_counters = self._btb_ctr_np.tolist()

    def _disable_native(self) -> None:
        """Hand the carried state to the Python scan path (used when a
        pre-passed chunk arrives, e.g. from the sharded fan-out)."""
        self._sync_from_native()
        self._native = False

    # -- feeding ----------------------------------------------------------

    def feed(self, cols: TraceColumns) -> None:
        if self._native:
            from repro.fastpath import supervisor
            if not supervisor.native_active():
                # The process demoted since this simulator was built
                # (e.g. the emulator side faulted mid-run): hand the
                # carried state to the Python path before the next
                # scan rather than trusting a rung the supervisor
                # already revoked.
                self._disable_native()
                self.feed_prepassed(prepass_chunk(cols, self.vprep,
                                                  self.machine))
                return
            n = len(cols)
            if n == 0:
                self.chunks_fed += 1
                return
            try:
                self._scan(self._nt,
                           np.frombuffer(cols.sidx, dtype=np.int32),
                           np.frombuffer(cols.flags, dtype=np.uint8),
                           np.frombuffer(cols.addr, dtype=np.int64),
                           self._ready_np, self._btb_tags_np,
                           self._btb_ctr_np, self._ic_np, self._dc_np,
                           self._st, self._cfg)
            except NativeKernelCrash as crash:
                # The scan kernel faulted before touching the carried
                # state (it is still at the previous chunk boundary):
                # demote the process, hand the state to the Python
                # path, and reprocess this chunk — mid-workload
                # degradation with byte-identical stitched results.
                from repro.fastpath import supervisor
                supervisor.report_kernel_fault(crash)
                self._disable_native()
                self.feed_prepassed(prepass_chunk(cols, self.vprep,
                                                  self.machine))
                return
            self.chunks_fed += 1
            return
        self.feed_prepassed(prepass_chunk(cols, self.vprep,
                                          self.machine))

    def feed_prepassed(self, cp: ChunkPrepass) -> None:
        if self._native:
            self._disable_native()
        n = cp.n
        self.chunks_fed += 1
        self.dynamic += n
        self.executed_n += cp.executed_n
        self.suppressed_n += n - cp.executed_n
        if n == 0:
            return
        machine = self.machine
        perfect = machine.perfect_caches
        vprep = self.vprep

        # Scan rows: per-event (reads, writes, is_control, latency)
        # tuples via C-level gathers over the per-static tables.
        si_l = cp.si.tolist()
        rows = list(map(vprep.exec_rows.__getitem__, si_l))
        if cp.null_pos.size:
            null_rows = vprep.null_rows
            for p in cp.null_pos.tolist():
                rows[p] = null_rows[si_l[p]]

        if not perfect:
            # Resolve the deferred per-set prefixes against carried
            # tags, then advance the tag state to the chunk's exit.
            mb_pos_np = cp.dc_loadmiss_pos
            ic_miss_pos = cp.ic_miss_pos
            if cp.ic_unres_pos.size:
                im = self.ic_tags[cp.ic_unres_set] != cp.ic_unres_line
                extra = cp.ic_unres_pos[im]
                if extra.size:
                    ic_miss_pos = np.sort(
                        np.concatenate((ic_miss_pos, extra)))
            self.ic_accesses += cp.ic_acc
            self.ic_misses += int(ic_miss_pos.size)
            if cp.ic_newtag_set.size:
                self.ic_tags[cp.ic_newtag_set] = cp.ic_newtag_line
            dc_misses = cp.dc_miss_resolved
            if cp.dc_unres_pos.size:
                dm = self.dc_tags[cp.dc_unres_set] != cp.dc_unres_line
                dc_misses += int(dm.sum())
                extra = cp.dc_unres_pos[dm & cp.dc_unres_isload]
                if extra.size:
                    mb_pos_np = np.sort(
                        np.concatenate((mb_pos_np, extra)))
            self.dc_accesses += cp.dc_acc
            self.dc_misses += dc_misses
            if cp.dc_newtag_set.size:
                self.dc_tags[cp.dc_newtag_set] = cp.dc_newtag_line
            # A missing load's latency grows by the fill penalty.
            pen = machine.dcache.miss_penalty
            for p in mb_pos_np.tolist():
                u, d, c, lv = rows[p]
                rows[p] = (u, d, c, lv + pen)

        # BTB walk over the branch stream (stateful, tiny).
        mp_pos: list[int] = []
        if cp.b_pos.size:
            tags = self.btb_tags
            ctr = self.btb_counters
            mis = mp_pos.append
            for i, a, o, bp in zip(cp.b_idx.tolist(),
                                   cp.b_pc.tolist(),
                                   cp.b_out.tolist(),
                                   cp.b_pos.tolist()):
                if tags[i] == a:
                    c = ctr[i]
                    p = c >= 2
                    if o:
                        if c < 3:
                            ctr[i] = c + 1
                    elif c > 0:
                        ctr[i] = c - 1
                else:
                    p = False
                    if o:
                        tags[i] = a
                        ctr[i] = 2
                if p != o:
                    mis(bp)
            self.branches += cp.b_pos.size
            self.mispredictions += len(mp_pos)
        mp_pos.append(n)

        if perfect:
            if machine.issue_width == 1 \
                    and machine.branch_issue_limit >= 1:
                (self.cur_cycle, self.slots, self.branch_slots,
                 self.fetch_available) = _scan_perfect_w1(
                    rows, mp_pos, self.ready, self.btb_bubble,
                    self.cur_cycle, self.slots, self.branch_slots,
                    self.fetch_available)
            else:
                (self.cur_cycle, self.slots, self.branch_slots,
                 self.fetch_available) = _scan_perfect(
                    rows, mp_pos, self.ready, machine.issue_width,
                    machine.branch_issue_limit, self.btb_bubble,
                    self.cur_cycle, self.slots, self.branch_slots,
                    self.fetch_available)
        else:
            ic_pos = ic_miss_pos.tolist()
            ic_pos.append(n)
            mem_pos = cp.mem_pos.tolist()
            mem_pos.append(n)
            mb_pos = mb_pos_np.tolist()
            mb_pos.append(n)
            (self.cur_cycle, self.slots, self.branch_slots,
             self.fetch_available, self.mem_busy_until) = _scan_real(
                rows, mp_pos, ic_pos, mem_pos, mb_pos, self.ready,
                machine.issue_width, machine.branch_issue_limit,
                self.btb_bubble, machine.icache.miss_penalty,
                self.cur_cycle, self.slots, self.branch_slots,
                self.fetch_available, self.mem_busy_until)

    # -- boundary state ---------------------------------------------------

    def boundary_snapshot(self) -> dict:
        """Canonical inter-chunk state, independent of how the trace
        was chunked.

        Register ready times at or before the current cycle can never
        delay a later event (issue never happens before ``cur``), so
        they are dropped — this is what makes the snapshot identical
        whether the simulator got here in one chunk or many.
        """
        if self._native:
            self._sync_from_native()
        cur = self.cur_cycle
        hot = tuple((r, t) for r, t in enumerate(self.ready) if t > cur)
        return {
            "cur_cycle": cur,
            "slots": self.slots,
            "branch_slots": self.branch_slots,
            "fetch_available": self.fetch_available,
            "mem_busy_until": self.mem_busy_until,
            "ready": hot,
            "btb_tags": tuple(self.btb_tags),
            "btb_counters": tuple(self.btb_counters),
            "ic_tags": None if self.ic_tags is None
            else tuple(self.ic_tags.tolist()),
            "dc_tags": None if self.dc_tags is None
            else tuple(self.dc_tags.tolist()),
            "counters": (self.dynamic, self.executed_n,
                         self.suppressed_n, self.branches,
                         self.mispredictions, self.ic_accesses,
                         self.ic_misses, self.dc_accesses,
                         self.dc_misses),
        }

    def boundary_digest(self) -> str:
        snap = self.boundary_snapshot()
        payload = repr(sorted(snap.items(), key=lambda kv: kv[0]))
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- results ----------------------------------------------------------

    def finish(self) -> SimulationStats:
        if self._native:
            self._sync_from_native()
        stats = SimulationStats(
            cycles=self.cur_cycle + 1,
            dynamic_instructions=self.dynamic,
            executed_instructions=self.executed_n,
            suppressed_instructions=self.suppressed_n,
            branches=self.branches,
            mispredictions=self.mispredictions)
        if not self.machine.perfect_caches:
            stats.icache_accesses = self.ic_accesses
            stats.icache_misses = self.ic_misses
            stats.dcache_accesses = self.dc_accesses
            stats.dcache_misses = self.dc_misses
        return stats


#: Default vector chunk granularity (events per pre-pass task).
DEFAULT_VECTOR_CHUNK = 1 << 16


def simulate_columns_vector(cols: TraceColumns,
                            prep: "SimPrep | VectorSimPrep",
                            machine: MachineDescription,
                            *, chunk_events: int | None = None,
                            jobs: int = 1,
                            task_key: str = "",
                            metrics=None,
                            native: bool | None = None
                            ) -> SimulationStats:
    """Vector-backend equivalent of ``simulate_columns``.

    With ``jobs > 1`` the chunk pre-passes are fanned across the
    engine's process pool (task ids ``vprepass:<task_key>:<index>``)
    and stitched back in order; the result is byte-identical to the
    serial path at any job count or chunk size.  ``native=False``
    (from the :class:`~repro.engine.stages.PipelineContext`'s
    once-per-process resolution) keeps the scan on the Python path.
    """
    size = chunk_events or DEFAULT_VECTOR_CHUNK
    n = len(cols)
    sharded = jobs > 1 and n > size
    sim = VectorSimulator(prep, machine,
                          native=not sharded and native is not False)
    if sharded:
        from repro.engine.scheduler import Job, execute_jobs
        chunks = list(cols.chunks(size))
        job_list = [
            Job(job_id=f"vprepass:{task_key}:{i}",
                fn=_vector_prepass_job,
                args=(chunk, sim.vprep, machine))
            for i, chunk in enumerate(chunks)]
        outcome = execute_jobs(job_list, max_workers=jobs)
        for job in job_list:
            sim.feed_prepassed(outcome.results[job.job_id])
    elif n > size:
        for chunk in cols.chunks(size):
            sim.feed(chunk)
    else:
        sim.feed(cols)
    if metrics is not None:
        metrics.add("vector_chunks_total", sim.chunks_fed)
    return sim.finish()


def emulate_and_simulate_vector(
        program: "Program", addresses: dict[int, int],
        machine: MachineDescription,
        inputs: dict[str, list[int | float] | bytes] | None = None,
        max_steps: int = 50_000_000,
        watchdog=None,
        chunk_events: int | None = None,
        decoded: DecodedProgram | None = None,
        prep: "SimPrep | VectorSimPrep" = None,
        metrics=None,
        native: bool | None = None
) -> "tuple[ExecutionResult, SimulationStats]":
    """Streaming emulate→simulate on the vector backend.

    The emulator side prefers the native (C) kernel, then the
    specialized closure emulator (:mod:`repro.fastpath.jitc`), then
    the flat interpreter (always, when a watchdog is attached); the
    simulator side consumes each chunk through the native full scan
    or the vector pre-pass + residual scan.  Observables are
    byte-identical to the legacy engine on every path — including
    after a mid-stream kernel crash, which demotes the process and
    restarts the fused run from scratch on the pure-Python rungs.

    When a :class:`~repro.engine.metrics.PipelineMetrics` is supplied,
    the fused run times every simulator feed separately, credits the
    emulate/simulate split to the matching stages (one invocation
    each), and bumps ``vector_chunks_total``.
    """
    from time import perf_counter

    from repro.fastpath.interp import DEFAULT_CHUNK_EVENTS
    if decoded is None:
        decoded = decode_program(program)
    if prep is None:
        prep = prepare_vector(decoded, addresses, machine)
    sim_seconds = [0.0]

    def _fresh_sink(use_native: bool):
        sim = VectorSimulator(prep, machine, native=use_native)
        sink = sim.feed
        sim_seconds[0] = 0.0
        if metrics is not None:
            def sink(cols, _feed=sim.feed, _acc=sim_seconds):
                start = perf_counter()
                _feed(cols)
                _acc[0] += perf_counter() - start
        return sim, sink

    from repro.fastpath.native import run_program_native
    sim, sink = _fresh_sink(native is not False)
    begin = perf_counter()
    try:
        execution = run_program_native(
            program, inputs=inputs, max_steps=max_steps,
            watchdog=watchdog, sink=sink,
            chunk_events=chunk_events or DEFAULT_CHUNK_EVENTS,
            decoded=decoded, native=native)
    except NativeKernelCrash:
        # The emulator kernel died after chunks already reached the
        # simulator.  The supervisor demoted the process when the
        # crash was caught; rerun the whole fused stream on the
        # Python engines with a fresh simulator — byte-identical.
        from repro.fastpath.jitc import run_program_jit
        sim, sink = _fresh_sink(False)
        execution = run_program_jit(
            program, inputs=inputs, max_steps=max_steps,
            watchdog=watchdog, sink=sink,
            chunk_events=chunk_events or DEFAULT_CHUNK_EVENTS,
            decoded=decoded)
    mid = perf_counter()
    stats = sim.finish()
    if metrics is not None:
        metrics.add("vector_chunks_total", sim.chunks_fed)
        sim_wall = sim_seconds[0] + (perf_counter() - mid)
        metrics.record_stage("emulate", max(mid - begin - sim_seconds[0],
                                            0.0))
        metrics.record_stage("simulate", sim_wall)
    return execution, stats
