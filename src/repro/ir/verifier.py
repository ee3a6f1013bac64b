"""Structural verification of IR programs.

The verifier enforces both generic well-formedness (branch targets exist,
register classes match operand positions) and the *ISA subset* rules of
each processor model: baseline/superblock code must contain no predicate
machinery at all, conditional-move code may use cmov/select but no
predicate registers, and only full-predication code may use guards and
predicate defines (paper Section 4.1's three processor models).
"""

from __future__ import annotations

import enum

from repro.ir.function import Function, IRError, Program
from repro.ir.instruction import Instruction
from repro.ir.opcodes import OpCategory, Opcode
from repro.ir.operands import GlobalAddr, Imm, PReg, RegClass, VReg


class ISALevel(enum.Enum):
    """Architectural predication support levels (the three models)."""

    BASELINE = "superblock"
    PARTIAL = "cmov"
    FULL = "fullpred"


class VerificationError(IRError):
    """The IR violates a structural or ISA-subset rule."""


_SRC_COUNTS: dict[OpCategory, tuple[int, ...]] = {
    OpCategory.ALU: (1, 2),
    OpCategory.CMP: (2,),
    OpCategory.FALU: (1, 2),
    OpCategory.FCMP: (2,),
    OpCategory.LOAD: (2,),
    OpCategory.STORE: (3,),
    OpCategory.BRANCH: (2,),
    OpCategory.JUMP: (0,),
    OpCategory.RET: (0, 1),
    OpCategory.PREDDEF: (2,),
    OpCategory.PREDSET: (0,),
    OpCategory.CMOV: (2,),
    OpCategory.SELECT: (3,),
    OpCategory.NOP: (0,),
}


def _check_instruction(inst: Instruction, fn: Function,
                       labels: set[str], level: ISALevel) -> None:
    cat = inst.cat
    if cat is not OpCategory.CALL:
        allowed = _SRC_COUNTS[cat]
        if len(inst.srcs) not in allowed:
            raise VerificationError(
                f"{fn.name}: {inst!r}: expected {allowed} sources, "
                f"got {len(inst.srcs)}")
    if cat in (OpCategory.BRANCH, OpCategory.JUMP):
        if inst.target not in labels:
            raise VerificationError(
                f"{fn.name}: {inst!r}: unknown target {inst.target!r}")
    if cat is OpCategory.CALL and inst.target is None:
        raise VerificationError(f"{fn.name}: {inst!r}: call without callee")
    # ISA subset rules.
    if level is not ISALevel.FULL:
        if inst.pred is not None:
            raise VerificationError(
                f"{fn.name}: {inst!r}: guard predicate not available at "
                f"ISA level {level.value}")
        if cat in (OpCategory.PREDDEF, OpCategory.PREDSET):
            raise VerificationError(
                f"{fn.name}: {inst!r}: predicate defines not available at "
                f"ISA level {level.value}")
        if any(isinstance(s, PReg) for s in inst.srcs):
            raise VerificationError(
                f"{fn.name}: {inst!r}: predicate register operand not "
                f"available at ISA level {level.value}")
    if level is ISALevel.BASELINE:
        if cat in (OpCategory.CMOV, OpCategory.SELECT):
            raise VerificationError(
                f"{fn.name}: {inst!r}: conditional moves not available at "
                f"ISA level {level.value}")
    # Predicate defines must have 1..2 distinct typed destinations.
    if cat is OpCategory.PREDDEF:
        if not 1 <= len(inst.pdests) <= 2:
            raise VerificationError(
                f"{fn.name}: {inst!r}: predicate define needs 1-2 pdests")
        if len({pd.reg for pd in inst.pdests}) != len(inst.pdests):
            raise VerificationError(
                f"{fn.name}: {inst!r}: predicate define writes the same "
                f"predicate register twice")
    elif cat is not OpCategory.PREDSET and inst.pdests:
        raise VerificationError(
            f"{fn.name}: {inst!r}: only predicate defines take pdests")
    # Stores are irreversible side effects: never speculative.
    if cat is OpCategory.STORE and inst.speculative:
        raise VerificationError(
            f"{fn.name}: {inst!r}: stores cannot be speculative")


def _check_register_ids(fn: Function) -> None:
    """Every register was allocated by ``fn``: indices below
    ``next_vreg``/``next_preg``, and one class per virtual index.

    This is what makes a register's bit id (``VReg(i)`` -> ``2*i``,
    ``PReg(i)`` -> ``2*i+1``) unique within the function.
    """
    classes: dict[int, RegClass] = {}

    def check(reg, inst: Instruction | None) -> None:
        if isinstance(reg, PReg):
            if 0 <= reg.index < fn.next_preg:
                return
            problem = f"{reg!r} was not allocated (next_preg " \
                f"{fn.next_preg})"
        elif not 0 <= reg.index < fn.next_vreg:
            problem = f"{reg!r} was not allocated (next_vreg " \
                f"{fn.next_vreg})"
        else:
            seen = classes.setdefault(reg.index, reg.rclass)
            if seen is reg.rclass:
                return
            problem = f"register index {reg.index} used as both " \
                f"{seen.name} and {reg.rclass.name}"
        where = "parameter" if inst is None else repr(inst)
        raise VerificationError(f"{fn.name}: {where}: {problem}")

    for reg in fn.params:
        check(reg, None)
    for block in fn.blocks:
        for inst in block.instructions:
            for reg in inst.defined_regs():
                check(reg, inst)
            for reg in inst.used_regs():
                check(reg, inst)


def verify_function(fn: Function, program: Program,
                    level: ISALevel = ISALevel.FULL) -> None:
    if not fn.blocks:
        raise VerificationError(f"function {fn.name} has no blocks")
    labels = {b.name for b in fn.blocks}
    if len(labels) != len(fn.blocks):
        raise VerificationError(f"duplicate block labels in {fn.name}")
    for block in fn.blocks:
        seen_control = False
        for inst in block.instructions:
            _check_instruction(inst, fn, labels, level)
            if inst.op is Opcode.JSR:
                if inst.target not in program.functions:
                    raise VerificationError(
                        f"{fn.name}: call to unknown function "
                        f"{inst.target!r}")
                callee = program.functions[inst.target]
                if len(inst.srcs) != len(callee.params):
                    raise VerificationError(
                        f"{fn.name}: call to {inst.target} with "
                        f"{len(inst.srcs)} args, expected "
                        f"{len(callee.params)}")
            for src in inst.srcs:
                if not isinstance(src, (VReg, PReg, Imm, GlobalAddr)):
                    raise VerificationError(
                        f"{fn.name}: {inst!r}: bad operand {src!r}")
            if inst.is_terminator:
                seen_control = True
            elif seen_control:
                raise VerificationError(
                    f"{fn.name}/{block.name}: instruction {inst!r} after "
                    f"an unconditional terminator")
    # The last block must not fall off the end of the function.
    last = fn.blocks[-1]
    if last.terminator is None or not last.instructions[-1].is_terminator:
        raise VerificationError(
            f"{fn.name}: control falls off the end of block {last.name}")
    _check_register_ids(fn)


def verify_program(program: Program,
                   level: ISALevel = ISALevel.FULL) -> None:
    """Verify every function; raise :class:`VerificationError` on failure."""
    if program.entry not in program.functions:
        raise VerificationError(f"no entry function {program.entry!r}")
    for fn in program.functions.values():
        verify_function(fn, program, level)
