"""Adversarial IR: every ISA-subset rule must actually reject violators."""

import pytest

from repro.ir import (Function, ISALevel, Imm, Instruction, Opcode, PReg,
                      Program, VReg, VerificationError, verify_program)
from repro.ir.instruction import PredDest, PType


def _program(*insts: Instruction) -> Program:
    prog = Program()
    fn = Function("main")
    # The instructions below use r0, r1 and p1.
    fn.next_vreg, fn.next_preg = 2, 2
    prog.add_function(fn)
    block = fn.new_block("entry")
    for inst in insts:
        block.append(inst)
    block.append(Instruction(Opcode.RET, srcs=(Imm(0),)))
    return prog


def _preddef(**kwargs) -> Instruction:
    return Instruction(Opcode.PRED_LT, srcs=(Imm(1), Imm(2)),
                       pdests=(PredDest(PReg(1), PType.U),), **kwargs)


def test_guarded_instruction_only_at_full():
    prog = _program(Instruction(Opcode.ADD, dest=VReg(0),
                                srcs=(Imm(1), Imm(2)), pred=PReg(1)))
    verify_program(prog, ISALevel.FULL)
    for level in (ISALevel.BASELINE, ISALevel.PARTIAL):
        with pytest.raises(VerificationError):
            verify_program(prog, level)


def test_predicate_define_only_at_full():
    prog = _program(_preddef())
    verify_program(prog, ISALevel.FULL)
    for level in (ISALevel.BASELINE, ISALevel.PARTIAL):
        with pytest.raises(VerificationError):
            verify_program(prog, level)


def test_predicate_register_operand_only_at_full():
    prog = _program(Instruction(Opcode.ADD, dest=VReg(0),
                                srcs=(PReg(1), Imm(1))))
    verify_program(prog, ISALevel.FULL)
    with pytest.raises(VerificationError):
        verify_program(prog, ISALevel.PARTIAL)


def test_cmov_rejected_at_baseline_allowed_at_partial():
    prog = _program(Instruction(Opcode.CMOV, dest=VReg(0),
                                srcs=(VReg(1), Imm(7))))
    verify_program(prog, ISALevel.PARTIAL)
    verify_program(prog, ISALevel.FULL)
    with pytest.raises(VerificationError):
        verify_program(prog, ISALevel.BASELINE)


def test_preddef_needs_one_or_two_pdests():
    pd = PredDest(PReg(1), PType.U)
    prog = _program(Instruction(Opcode.PRED_LT, srcs=(Imm(1), Imm(2)),
                                pdests=(pd,) * 3))
    with pytest.raises(VerificationError):
        verify_program(prog, ISALevel.FULL)


def test_preddef_rejects_duplicate_destination_register():
    pdests = (PredDest(PReg(1), PType.U), PredDest(PReg(1), PType.U_BAR))
    prog = _program(Instruction(Opcode.PRED_LT, srcs=(Imm(1), Imm(2)),
                                pdests=pdests))
    with pytest.raises(VerificationError):
        verify_program(prog, ISALevel.FULL)


def test_pdests_on_non_define_rejected():
    prog = _program(Instruction(Opcode.ADD, dest=VReg(0),
                                srcs=(Imm(1), Imm(2)),
                                pdests=(PredDest(PReg(1), PType.U),)))
    with pytest.raises(VerificationError):
        verify_program(prog, ISALevel.FULL)


def test_speculative_store_rejected():
    prog = _program(Instruction(Opcode.STORE,
                                srcs=(Imm(0), Imm(0), Imm(1)),
                                speculative=True))
    with pytest.raises(VerificationError):
        verify_program(prog, ISALevel.FULL)


def test_garbage_operand_rejected():
    inst = Instruction(Opcode.ADD, dest=VReg(0), srcs=(Imm(1), Imm(2)))
    inst.srcs = ("garbage", Imm(2))
    with pytest.raises(VerificationError):
        verify_program(_program(inst), ISALevel.FULL)


def test_compiled_models_respect_their_own_subsets(campaign):
    """Each real compiled program verifies at its level — and full
    predication output genuinely exercises the machinery the lower
    levels forbid."""
    from repro.toolchain import Model

    for model, comp in campaign.compiled.items():
        verify_program(comp.program, model.isa_level)
    with pytest.raises(VerificationError):
        verify_program(campaign.compiled[Model.FULLPRED].program,
                       ISALevel.PARTIAL)
    with pytest.raises(VerificationError):
        verify_program(campaign.compiled[Model.CMOV].program,
                       ISALevel.BASELINE)
