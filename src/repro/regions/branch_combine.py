"""Branch combining: merge unlikely hyperblock exits into one branch.

The paper (Section 4.2, Table 3 discussion of grep) describes a
transformation that combines unlikely-taken exit branches of a
hyperblock into a single exit: each original exit condition contributes
to one OR-type predicate, and a single predicated jump transfers to a
recovery block that re-executes the original (predicated) branches to
dispatch to the correct target.  This reduces dynamic branch count —
often dramatically, as in grep — at the cost of making the combined
branch harder to predict (the paper's misprediction anomaly).

Safety: moving exit branch ``E_i`` down to the combine point makes the
instructions between ``E_i`` and the combine point execute even when
``E_i`` would have been taken.  The group is therefore grown only while
the intervening instructions contain no stores or calls, do not redefine
any combined branch's operands or guard, and do not write a register
that is live-in at any combined branch's target; potentially excepting
intervening instructions are made speculative (silent).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.liveness import liveness, reg_mask
from repro.analysis.profile import Profile
from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import Instruction, PredDest, PType
from repro.ir.opcodes import MAY_EXCEPT, OpCategory, Opcode
from repro.ir.operands import Imm, PReg, VReg
from repro.regions.ifconvert import _PRED_FOR_BRANCH


@dataclass(frozen=True)
class BranchCombineParams:
    #: maximum taken probability for an exit branch to be combined
    max_taken_probability: float = 0.04
    #: minimum number of branches worth combining
    min_group: int = 2


def _group_safe(insts: list[Instruction], start: int, end: int,
                forbidden: int, skip: set[int]) -> bool:
    """Check instructions in (start, end) against the motion rules.

    ``forbidden`` is the register mask no intervening instruction may
    write: the branch's operands and its target's live-in.  Positions in
    ``skip`` are group members already accepted (they will become
    OR-type predicate defines, which write only the combined predicate).
    """
    for k in range(start + 1, end):
        if k in skip:
            continue
        inst = insts[k]
        cat = inst.cat
        if cat is OpCategory.STORE or cat is OpCategory.CALL:
            return False
        if inst.is_control:
            return False
        if reg_mask(inst.defined_regs()) & forbidden:
            return False
    return True


def combine_branches(fn: Function, block: BasicBlock, profile: Profile,
                     params: BranchCombineParams | None = None) -> int:
    """Combine unlikely conditional exits of one hyperblock in place.

    Returns the number of branches combined (0 if no group was found).
    """
    if params is None:
        params = BranchCombineParams()
    live = liveness(fn)
    insts = block.instructions

    # Candidate exits: predicated-or-not conditional branches with low
    # taken probability.  Group = maximal run of candidates such that the
    # span between each member and the group's last member is safe.
    candidates: list[int] = []
    for i, inst in enumerate(insts):
        if inst.cat is not OpCategory.BRANCH:
            continue
        if profile.taken_probability(inst.uid) \
                <= params.max_taken_probability:
            candidates.append(i)
    if len(candidates) < params.min_group:
        return 0

    # Grow the group ending at the last candidate backwards.
    end = candidates[-1]
    group = [end]
    for i in reversed(candidates[:-1]):
        inst = insts[i]
        forbidden = reg_mask(inst.used_regs()) \
            | live.live_in.get(inst.target, 0)
        if _group_safe(insts, i, end, forbidden, set(group)):
            group.insert(0, i)
        else:
            break
    if len(group) < params.min_group:
        return 0

    p_combined = fn.new_preg()
    recovery_name = f"{block.name}.recover"
    counter = 0
    while any(b.name == recovery_name for b in fn.blocks):
        counter += 1
        recovery_name = f"{block.name}.recover{counter}"

    recovery = BasicBlock(recovery_name)
    new_insts: list[Instruction] = []
    group_set = set(group)
    for i, inst in enumerate(insts):
        if i in group_set:
            # Contribute guard ∧ condition to the combined predicate.
            op = _PRED_FOR_BRANCH[inst.op]
            new_insts.append(Instruction(
                op, srcs=inst.srcs,
                pdests=(PredDest(p_combined, PType.OR),),
                pred=inst.pred))
            # Recovery re-executes the original branch (rare path).
            recovery.append(inst.fresh_copy())
            if i == group[-1]:
                new_insts.append(Instruction(Opcode.JUMP,
                                             target=recovery_name,
                                             pred=p_combined))
        else:
            if group[0] < i < group[-1] and inst.op in MAY_EXCEPT \
                    and not inst.speculative:
                inst = inst.copy(speculative=True)
            new_insts.append(inst)

    # Initialize the combined predicate: reuse the hyperblock's
    # pred_clear if present, otherwise clear explicitly via a U-type
    # define of a false comparison.
    has_clear = any(inst.op is Opcode.PRED_CLEAR for inst in new_insts)
    if not has_clear:
        new_insts.insert(0, Instruction(
            Opcode.PRED_NE, srcs=(Imm(0), Imm(0)),
            pdests=(PredDest(p_combined, PType.U),)))

    # Recovery must never fall through: the combined predicate is only
    # true when one of the re-executed branches fires, but terminate
    # defensively by jumping to the first branch's target.
    first_target = insts[group[0]].target
    assert first_target is not None
    recovery.append(Instruction(Opcode.JUMP, target=first_target))

    block.instructions = new_insts
    fn.blocks.append(recovery)
    return len(group)
