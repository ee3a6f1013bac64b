"""Loop unrolling for single-block loops (superblocks and hyperblocks).

Superblock ILP compilation (the paper's baseline, Hwu et al. 1993)
includes superblock loop unrolling, and hyperblock loops unroll the same
way: the loop body is replicated, intermediate backedges fall through
into the next copy, and per-copy temporaries are renamed so copies can
overlap in the schedule.  Loop-carried and live-out registers keep their
names — the renaming only touches values produced and consumed within
one iteration.

A block qualifies when its final instruction is an unpredicated jump to
the block itself; early (predicated or conditional) exits inside each
copy keep working because every copy re-tests its exit conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.liveness import liveness
from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import Instruction, PredDest
from repro.ir.opcodes import Opcode
from repro.ir.operands import PReg, VReg


@dataclass(frozen=True)
class UnrollParams:
    """Unroll factor selection heuristics."""

    max_factor: int = 4
    #: do not let the unrolled body exceed this many instructions
    max_instructions: int = 260
    #: loops already longer than this are left alone
    max_body_size: int = 110


def choose_factor(body_size: int, params: UnrollParams) -> int:
    if body_size == 0 or body_size > params.max_body_size:
        return 1
    factor = min(params.max_factor,
                 params.max_instructions // max(body_size, 1))
    return max(factor, 1)


def _is_self_loop(block: BasicBlock) -> bool:
    if not block.instructions:
        return False
    last = block.instructions[-1]
    return (last.op is Opcode.JUMP and last.pred is None
            and last.target == block.name)


def _renamable_regs(fn: Function, block: BasicBlock) -> list:
    """Registers private to one iteration: defined in the block and not
    live into or out of it, in first-definition order.

    The order picks which fresh register each one is renamed to, so it
    comes from the instruction stream, never from set iteration.
    """
    live = liveness(fn)
    keep = live.live_in.get(block.name, 0) | live.live_out.get(block.name, 0)
    defined = dict.fromkeys(reg for inst in block.instructions
                            for reg in inst.defined_regs())
    return [r for r in defined if not keep >> r.bit & 1]


def unroll_self_loop(fn: Function, block: BasicBlock,
                     params: UnrollParams | None = None) -> int:
    """Unroll ``block`` in place if it is a self-loop; returns the
    factor used (1 means unchanged)."""
    if params is None:
        params = UnrollParams()
    if not _is_self_loop(block):
        return 1
    body = block.instructions[:-1]
    backedge = block.instructions[-1]
    factor = choose_factor(len(body), params)
    if factor <= 1:
        return 1

    renamable = _renamable_regs(fn, block)
    out: list[Instruction] = list(body)
    for _copy in range(1, factor):
        mapping: dict = {}
        for reg in renamable:
            if isinstance(reg, PReg):
                mapping[reg] = fn.new_preg()
            elif isinstance(reg, VReg):
                mapping[reg] = fn.new_vreg(reg.rclass)
        for inst in body:
            new = inst.fresh_copy()
            new.srcs = tuple(mapping.get(s, s) for s in new.srcs)
            if new.pred is not None:
                new.pred = mapping.get(new.pred, new.pred)
            if new.dest is not None:
                new.dest = mapping.get(new.dest, new.dest)
            if new.pdests:
                new.pdests = tuple(
                    PredDest(mapping.get(pd.reg, pd.reg), pd.ptype)
                    for pd in new.pdests)
            out.append(new)
    out.append(backedge)
    block.instructions = out
    return factor


def unroll_function_loops(fn: Function,
                          params: UnrollParams | None = None) -> int:
    """Unroll every self-loop block of ``fn``; returns loops unrolled."""
    count = 0
    for block in fn.blocks:
        if unroll_self_loop(fn, block, params) > 1:
            count += 1
    return count
