"""Global dead code elimination using liveness.

Hyperblocks contain mid-block exit branches, so the backward in-block
scan revives the exit target's live-in set at every control
instruction: a value needed only on an early-exit path must stay live
at that point even if the straight-line code redefines it later.

Liveness is computed once.  After a sweep removes instructions, only
the edited blocks are re-summarized (:meth:`Liveness.update`), and only
predecessors of blocks whose live-in shrank are swept again.  Removing
a dead pure instruction only ever shrinks liveness, so every order of
removals reaches the same result as re-running whole-function liveness
after every sweep.
"""

from __future__ import annotations

from repro.analysis.liveness import KILL_DEFINITE, Liveness, liveness
from repro.ir.function import BasicBlock, Function


def _sweep(block: BasicBlock, live: Liveness) -> bool:
    """Remove the pure instructions of ``block`` whose results are dead;
    True if any were removed."""
    live_in = live.live_in
    live_now = live.live_out[block.name]
    insts = block.instructions
    facts = live.facts[block.name]
    kept = []
    for i in range(len(insts) - 1, -1, -1):
        inst, f = insts[i], facts[i]
        if f.defs and not (f.defs & live_now) and inst.is_pure:
            continue
        if f.kill == KILL_DEFINITE:
            # Only definite writes kill.
            live_now &= ~f.defs
        live_now |= f.use
        if f.target is not None:
            # Mid-block exit: everything its target needs is live here,
            # even if redefined later in the block.
            live_now |= live_in.get(f.target, 0)
        kept.append(inst)
    if len(kept) == len(insts):
        return False
    kept.reverse()
    block.instructions = kept
    return True


def eliminate_dead_code(fn: Function) -> bool:
    """Remove pure instructions whose results are never used."""
    live = liveness(fn)
    preds = live.predecessors
    changed = False
    pending = list(fn.blocks)
    while pending:
        edited = [b for b in pending if _sweep(b, live)]
        if not edited:
            break
        changed = True
        again = set()
        for name in live.update(edited):
            again.update(preds[name])
        pending = [b for b in fn.blocks if b.name in again]
    return changed
