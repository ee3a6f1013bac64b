"""Function/CFG structure and the ISA-level verifier."""

import pytest

from repro.ir import (BasicBlock, Function, GlobalVar, IRBuilder, IRError,
                      ISALevel, Imm, Instruction, Opcode, PReg, Program,
                      RegClass, VReg, VerificationError, verify_program)
from repro.ir.instruction import PredDest, PType


def _simple_program() -> Program:
    prog = Program()
    fn = Function("main")
    prog.add_function(fn)
    b = IRBuilder(fn, fn.new_block("entry"))
    t = b.add(Imm(1), Imm(2))
    b.ret(t)
    # Reserve the registers the tests below insert by hand (r5, r9, p1).
    fn.next_vreg, fn.next_preg = 10, 2
    return prog


def test_builder_creates_fresh_registers():
    fn = Function("f")
    assert fn.new_vreg() == VReg(0)
    assert fn.new_vreg(RegClass.FLOAT) == VReg(1, RegClass.FLOAT)
    assert fn.new_preg() == PReg(1)
    assert fn.new_preg() == PReg(2)


def test_duplicate_block_name_rejected():
    fn = Function("f")
    fn.new_block("entry")
    with pytest.raises(IRError):
        fn.new_block("entry")


def test_successor_labels_fallthrough():
    fn = Function("f")
    a = fn.new_block("a")
    fn.new_block("b")
    builder = IRBuilder(fn, a)
    builder.beq(VReg(0), Imm(0), "b")
    assert a.successor_labels("b") == ["b"]
    builder.jump("a")
    assert a.successor_labels("b") == ["b", "a"]


def test_successors_through_predicated_jump():
    fn = Function("f")
    a = fn.new_block("a")
    fn.new_block("b")
    fn.new_block("c")
    a.append(Instruction(Opcode.JUMP, target="c", pred=PReg(1)))
    # predicated jump falls through when suppressed
    assert a.successor_labels("b") == ["c", "b"]


def test_predecessors_map():
    prog = _simple_program()
    fn = prog.main
    preds = fn.predecessors_map()
    assert preds == {"entry": []}


def test_verify_accepts_simple_program():
    verify_program(_simple_program(), ISALevel.BASELINE)


def test_verify_rejects_unknown_branch_target():
    prog = _simple_program()
    entry = prog.main.entry
    entry.instructions.insert(
        0, Instruction(Opcode.BEQ, srcs=(Imm(0), Imm(0)), target="nope"))
    with pytest.raises(VerificationError):
        verify_program(prog, ISALevel.BASELINE)


def test_verify_rejects_fallthrough_off_end():
    prog = Program()
    fn = Function("main")
    prog.add_function(fn)
    block = fn.new_block("entry")
    block.append(Instruction(Opcode.ADD, dest=VReg(0),
                             srcs=(Imm(1), Imm(2))))
    with pytest.raises(VerificationError):
        verify_program(prog)


def test_verify_rejects_predication_at_baseline():
    prog = _simple_program()
    entry = prog.main.entry
    entry.instructions.insert(
        0, Instruction(Opcode.ADD, dest=VReg(5), srcs=(Imm(1), Imm(1)),
                       pred=PReg(1)))
    with pytest.raises(VerificationError):
        verify_program(prog, ISALevel.BASELINE)
    # Full predication accepts it.
    verify_program(prog, ISALevel.FULL)


def test_verify_rejects_cmov_at_baseline_but_not_partial():
    prog = _simple_program()
    entry = prog.main.entry
    entry.instructions.insert(
        0, Instruction(Opcode.CMOV, dest=VReg(5),
                       srcs=(Imm(1), VReg(0))))
    with pytest.raises(VerificationError):
        verify_program(prog, ISALevel.BASELINE)
    verify_program(prog, ISALevel.PARTIAL)


def test_verify_rejects_pred_define_at_partial():
    prog = _simple_program()
    entry = prog.main.entry
    entry.instructions.insert(
        0, Instruction(Opcode.PRED_EQ, srcs=(Imm(0), Imm(0)),
                       pdests=(PredDest(PReg(1), PType.U),)))
    with pytest.raises(VerificationError):
        verify_program(prog, ISALevel.PARTIAL)
    verify_program(prog, ISALevel.FULL)


def test_verify_rejects_wrong_arity():
    prog = _simple_program()
    prog.main.entry.instructions.insert(
        0, Instruction(Opcode.ADD, dest=VReg(5),
                       srcs=(Imm(1), Imm(2), Imm(3))))
    with pytest.raises(VerificationError):
        verify_program(prog)


def test_verify_call_arity():
    prog = _simple_program()
    callee = Function("callee", params=[VReg(0), VReg(1)])
    prog.add_function(callee)
    b = IRBuilder(callee, callee.new_block("entry"))
    b.ret(Imm(0))
    prog.main.entry.instructions.insert(
        0, Instruction(Opcode.JSR, dest=VReg(9), srcs=(Imm(1),),
                       target="callee"))
    with pytest.raises(VerificationError):
        verify_program(prog)


def test_verify_rejects_missing_entry():
    prog = Program()
    fn = Function("helper")
    prog.add_function(fn)
    b = IRBuilder(fn, fn.new_block("entry"))
    b.ret(Imm(0))
    with pytest.raises(VerificationError):
        verify_program(prog)


def test_program_static_size():
    prog = _simple_program()
    assert prog.static_size() == 2


def test_global_var_sizes():
    g = GlobalVar("tab", 4, 10)
    assert g.byte_size == 40
    assert GlobalVar("f", 8, 3, is_float=True).byte_size == 24


def test_verify_rejects_unallocated_virtual_register():
    prog = _simple_program()
    prog.main.entry.instructions.insert(
        0, Instruction(Opcode.ADD, dest=VReg(10), srcs=(Imm(1), Imm(2))))
    with pytest.raises(VerificationError, match="r10 was not allocated"):
        verify_program(prog)


def test_verify_rejects_unallocated_predicate_register():
    prog = _simple_program()
    prog.main.entry.instructions.insert(
        0, Instruction(Opcode.ADD, dest=VReg(5), srcs=(Imm(1), Imm(2)),
                       pred=PReg(2)))
    with pytest.raises(VerificationError, match="p2 was not allocated"):
        verify_program(prog)


def test_verify_rejects_one_index_in_two_register_classes():
    # r5 and f5 would share bit 10 in liveness masks.
    prog = _simple_program()
    entry = prog.main.entry
    entry.instructions.insert(
        0, Instruction(Opcode.MOV, dest=VReg(5), srcs=(Imm(1),)))
    entry.instructions.insert(
        1, Instruction(Opcode.CVT_IF, dest=VReg(5, RegClass.FLOAT),
                       srcs=(VReg(5),)))
    with pytest.raises(VerificationError, match="both INT and FLOAT"):
        verify_program(prog)


def test_verify_rejects_unallocated_parameter():
    prog = _simple_program()
    prog.main.params = [VReg(12)]
    with pytest.raises(VerificationError, match="parameter"):
        verify_program(prog)
