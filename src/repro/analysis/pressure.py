"""Register pressure statistics.

The paper assumes an infinite register file but notes that partial
predication "requires a larger number of registers to hold intermediate
values" (Section 1): every basic conversion manufactures a temporary.
This analysis makes that cost visible: maximum and average number of
simultaneously live virtual registers, plus predicate register counts,
so the Table-2-style comparison can be extended with pressure data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.liveness import (class_masks, live_before_each,
                                     liveness)
from repro.ir.function import Function, Program
from repro.ir.operands import PReg, VReg


@dataclass(frozen=True)
class PressureStats:
    """Register pressure of one function (or whole program maxima)."""

    max_live_int: int
    max_live_float: int
    max_live_pred: int
    avg_live: float
    total_vregs: int
    total_pregs: int

    def __str__(self) -> str:
        return (f"max live int={self.max_live_int} "
                f"float={self.max_live_float} pred={self.max_live_pred} "
                f"(avg {self.avg_live:.1f}); "
                f"{self.total_vregs} vregs, {self.total_pregs} pregs")


def function_pressure(fn: Function) -> PressureStats:
    """Liveness-based pressure over every program point of ``fn``."""
    live = liveness(fn)
    floats, preds = class_masks(fn)
    max_int = max_float = max_pred = 0
    total = 0
    points = 0
    used_vregs: set[VReg] = set()
    used_pregs: set[PReg] = set()
    for block in fn.blocks:
        for inst in block.instructions:
            for r in (*inst.used_regs(), *inst.defined_regs()):
                if isinstance(r, VReg):
                    used_vregs.add(r)
                elif isinstance(r, PReg):
                    used_pregs.add(r)
        for regs in live_before_each(block, live.live_out[block.name],
                                     live=live):
            n_float = (regs & floats).bit_count()
            n_pred = (regs & preds).bit_count()
            n_int = regs.bit_count() - n_float - n_pred
            max_int = max(max_int, n_int)
            max_float = max(max_float, n_float)
            max_pred = max(max_pred, n_pred)
            total += n_int + n_float + n_pred
            points += 1
    return PressureStats(
        max_live_int=max_int,
        max_live_float=max_float,
        max_live_pred=max_pred,
        avg_live=total / points if points else 0.0,
        total_vregs=len(used_vregs),
        total_pregs=len(used_pregs),
    )


def program_pressure(program: Program) -> PressureStats:
    """Component-wise maxima over all functions of the program."""
    stats = [function_pressure(fn) for fn in program.functions.values()]
    if not stats:
        return PressureStats(0, 0, 0, 0.0, 0, 0)
    return PressureStats(
        max_live_int=max(s.max_live_int for s in stats),
        max_live_float=max(s.max_live_float for s in stats),
        max_live_pred=max(s.max_live_pred for s in stats),
        avg_live=sum(s.avg_live for s in stats) / len(stats),
        total_vregs=sum(s.total_vregs for s in stats),
        total_pregs=sum(s.total_pregs for s in stats),
    )
