"""Predicate promotion: speculation by predicate removal (paper Fig. 2).

A predicated instruction whose result can only be observed when its
guard is true may drop the guard and execute unconditionally
(speculatively).  This both shortens the critical dependence from the
predicate define (full predication) and — crucially for partial
predication — removes the need to emit a conditional move for the
instruction during lowering.

Safety conditions for promoting instruction ``I`` (guard ``p``, dest
``d``) inside a linear hyperblock:

* ``I`` is pure (no stores, no control, no predicate defines) and either
  cannot except or has a silent version (loads/divides get the
  ``speculative`` flag);
* ``d`` is not live at any hyperblock exit at or after ``I``'s position
  (a promoted write must not clobber a value the outside world reads);
* every read of ``d`` between ``I`` and the next definite redefinition
  is guarded by a predicate that implies ``p`` (readers that execute
  only when ``p`` is true cannot observe the speculative garbage).
"""

from __future__ import annotations

from repro.analysis.liveness import liveness
from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import Instruction
from repro.ir.opcodes import MAY_EXCEPT, OpCategory
from repro.regions.ifconvert import PredInfo

_PROMOTABLE = (OpCategory.ALU, OpCategory.CMP, OpCategory.FALU,
               OpCategory.FCMP, OpCategory.LOAD, OpCategory.CMOV,
               OpCategory.SELECT)


def _exit_live_sets(fn: Function, block: BasicBlock) -> list[int]:
    """For each instruction index, registers live at exits at-or-after it.

    Returns a list ``after_live`` of masks, parallel to the block plus
    one, where ``after_live[i]`` is the union of live-in sets of every
    exit target of a control instruction at index >= i, plus the
    live-in of the block's implicit fall-through.
    """
    live_in = liveness(fn).live_in
    n = len(block.instructions)
    after = [0] * (n + 1)
    layout_next = fn.layout_next(block)
    last = block.instructions[-1] if block.instructions else None
    falls = not (last is not None and last.is_terminator)
    acc = 0
    if falls and layout_next is not None:
        acc = live_in.get(layout_next, 0)
    after[n] = acc
    for i in range(n - 1, -1, -1):
        inst = block.instructions[i]
        if inst.is_control and inst.target is not None \
                and inst.cat is not OpCategory.CALL:
            acc |= live_in.get(inst.target, 0)
        after[i] = acc
    return after


def promote_predicates(fn: Function, block: BasicBlock,
                       info: PredInfo) -> int:
    """Promote eligible predicated instructions in ``block`` in place.

    Returns the number of promotions performed.
    """
    insts = block.instructions
    n = len(insts)
    promoted = 0
    changed = True
    while changed:
        changed = False
        after_live = _exit_live_sets(fn, block)
        for i, inst in enumerate(insts):
            if inst.pred is None or inst.cat not in _PROMOTABLE:
                continue
            if inst.pdests:
                continue
            dest = inst.dest
            if dest is None:
                continue
            # Conditional moves read their destination implicitly; a
            # promoted cmov would change semantics.  (They only appear
            # after partial lowering, where promotion already ran.)
            if inst.cat in (OpCategory.CMOV, OpCategory.SELECT):
                continue
            if inst.dest in inst.srcs:
                # d = f(d, ...): promoting clobbers the old value that a
                # false guard preserves; only safe if no one reads d
                # afterwards, which DCE would have caught already.
                continue
            p = inst.pred
            if after_live[i + 1] >> dest.bit & 1:
                continue
            safe = True
            for j in range(i + 1, n):
                later = insts[j]
                if dest in later.used_regs():
                    if not info.implies(later.pred, p):
                        safe = False
                        break
                if not later.is_conditional_write \
                        and dest in later.defined_regs():
                    break  # definite redefinition: later reads see that
            if not safe:
                continue
            new = inst.copy(pred=None)
            if new.op in MAY_EXCEPT:
                new.speculative = True
            insts[i] = new
            promoted += 1
            changed = True
    return promoted


def promote_all(fn: Function,
                formed: list[tuple[str, PredInfo]]) -> int:
    """Run promotion over every formed hyperblock of ``fn``."""
    total = 0
    by_label = {label: info for label, info in formed}
    for block in fn.blocks:
        info = by_label.get(block.name)
        if info is not None:
            total += promote_predicates(fn, block, info)
    return total
