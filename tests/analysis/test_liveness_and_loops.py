"""Liveness (including predication subtleties) and loop detection."""

from repro.analysis.liveness import (block_use_def, live_before_each,
                                     liveness, reg_mask)
from repro.analysis.loops import find_loops, innermost_loops
from tests.analysis.reference_liveness import round_robin_liveness, to_mask
from repro.ir import (BasicBlock, Function, IRBuilder, Imm, Instruction,
                      Opcode, PReg, PredDest, PType, VReg)


def _has(mask: int, reg) -> bool:
    return bool(mask >> reg.bit & 1)


def test_block_use_def_simple():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.ADD, dest=VReg(0),
                             srcs=(VReg(1), VReg(2))))
    block.append(Instruction(Opcode.MOV, dest=VReg(3), srcs=(VReg(0),)))
    uses, defs = block_use_def(block)
    assert uses == reg_mask([VReg(1), VReg(2)])
    assert defs == reg_mask([VReg(0), VReg(3)])


def test_guarded_def_is_not_definite_kill():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.MOV, dest=VReg(0), srcs=(Imm(1),),
                             pred=PReg(1)))
    uses, defs = block_use_def(block)
    assert not _has(defs, VReg(0))
    assert _has(uses, PReg(1))


def test_same_guard_use_not_upward_exposed():
    """The Fig. 2 pattern: def and use under the same guard."""
    block = BasicBlock("b")
    p = PReg(1)
    block.append(Instruction(Opcode.LOAD, dest=VReg(0),
                             srcs=(VReg(9), Imm(0)), pred=p))
    block.append(Instruction(Opcode.ADD, dest=VReg(2),
                             srcs=(VReg(0), Imm(1)), pred=p))
    uses, _defs = block_use_def(block)
    assert not _has(uses, VReg(0))
    assert _has(uses, VReg(9))


def test_different_guard_use_is_exposed():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.MOV, dest=VReg(0), srcs=(Imm(1),),
                             pred=PReg(1)))
    block.append(Instruction(Opcode.ADD, dest=VReg(2),
                             srcs=(VReg(0), Imm(1)), pred=PReg(2)))
    uses, _defs = block_use_def(block)
    assert _has(uses, VReg(0))


def test_guard_redefinition_invalidates_kill():
    """Redefining the guard between def and use re-exposes the use."""
    block = BasicBlock("b")
    p = PReg(1)
    block.append(Instruction(Opcode.MOV, dest=VReg(0), srcs=(Imm(1),),
                             pred=p))
    block.append(Instruction(Opcode.PRED_EQ, srcs=(Imm(0), Imm(0)),
                             pdests=(PredDest(p, PType.U),)))
    block.append(Instruction(Opcode.ADD, dest=VReg(2),
                             srcs=(VReg(0), Imm(1)), pred=p))
    uses, _defs = block_use_def(block)
    assert _has(uses, VReg(0))


def test_cmov_dest_not_killed():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.CMOV, dest=VReg(0),
                             srcs=(VReg(1), VReg(2))))
    uses, defs = block_use_def(block)
    assert not _has(defs, VReg(0))
    assert _has(uses, VReg(0))


def _loop_function():
    fn = Function("f")
    entry = fn.new_block("entry")
    head = fn.new_block("head")
    body = fn.new_block("body")
    exit_ = fn.new_block("exit")
    b = IRBuilder(fn, entry)
    i = fn.new_vreg()
    s = fn.new_vreg()
    b.mov_to(i, Imm(0))
    b.mov_to(s, Imm(0))
    b.jump("head")
    b.set_block(head)
    b.bge(i, Imm(10), "exit")
    b.jump("body")
    b.set_block(body)
    ns = b.add(s, i)
    b.mov_to(s, ns)
    ni = b.add(i, Imm(1))
    b.mov_to(i, ni)
    b.jump("head")
    b.set_block(exit_)
    b.ret(s)
    return fn, i, s


def test_liveness_around_loop():
    fn, i, s = _loop_function()
    live = liveness(fn)
    assert _has(live.live_in["head"], i)
    assert _has(live.live_in["head"], s)
    assert _has(live.live_in["exit"], s)
    assert not _has(live.live_in["exit"], i)
    assert not _has(live.live_in["entry"], i)


def test_live_before_each_positions():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.ADD, dest=VReg(0),
                             srcs=(VReg(1), Imm(1))))
    block.append(Instruction(Opcode.MUL, dest=VReg(2),
                             srcs=(VReg(0), VReg(0))))
    result = live_before_each(block, reg_mask([VReg(2)]))
    assert _has(result[0], VReg(1))
    assert not _has(result[0], VReg(0))
    assert _has(result[1], VReg(0))


def test_live_before_each_revives_exit_targets():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.BEQ, srcs=(VReg(5), Imm(0)),
                             target="cold"))
    block.append(Instruction(Opcode.MOV, dest=VReg(7), srcs=(Imm(0),)))
    live_in_map = {"cold": reg_mask([VReg(7)])}
    result = live_before_each(block, 0, live_in_map)
    # r7 is needed if the exit is taken, even though the straight-line
    # code redefines it afterwards.
    assert _has(result[0], VReg(7))


def test_find_loops():
    fn, _i, _s = _loop_function()
    loops = find_loops(fn)
    assert len(loops) == 1
    assert loops[0].header == "head"
    assert loops[0].body == {"head", "body"}
    assert loops[0].is_innermost


def test_nested_loops():
    fn = Function("f")
    for name in ("entry", "oh", "ob", "ih", "ib", "exit"):
        fn.new_block(name)
    b = IRBuilder(fn, fn.block("entry"))
    b.jump("oh")
    b.set_block(fn.block("oh"))
    b.bge(VReg(0), Imm(10), "exit")
    b.jump("ob")
    b.set_block(fn.block("ob"))
    b.jump("ih")
    b.set_block(fn.block("ih"))
    b.bge(VReg(1), Imm(5), "oh")
    b.jump("ib")
    b.set_block(fn.block("ib"))
    b.jump("ih")
    b.set_block(fn.block("exit"))
    b.ret(Imm(0))
    loops = find_loops(fn)
    headers = {l.header for l in loops}
    assert headers == {"oh", "ih"}
    inner = [l for l in loops if l.header == "ih"][0]
    outer = [l for l in loops if l.header == "oh"][0]
    assert inner.is_innermost
    assert not outer.is_innermost
    assert inner.body < outer.body
    assert innermost_loops(fn) == [inner]


def test_worklist_liveness_matches_round_robin_on_real_code():
    # Regression for the worklist rewrite: the fixpoint must be
    # identical to the old whole-function sweep on real compiled code,
    # including predicated hyperblocks.
    from repro.analysis.profile import Profile
    from repro.fuzz.generator import generate_case
    from repro.machine.descriptor import MachineDescription
    from repro.toolchain import (Model, compile_for_model, frontend,
                                 schedule_for_machine)

    case = generate_case(0x11e, 2)
    machine = MachineDescription(issue_width=8, branch_issue_limit=1,
                                 name="8-issue,1-branch")
    base = frontend(case.source)
    profile = Profile.collect(base, inputs=case.inputs,
                              max_steps=300_000)
    for model in (Model.SUPERBLOCK, Model.FULLPRED):
        compiled = schedule_for_machine(
            compile_for_model(base, model, profile), machine)
        for fn in compiled.program.functions.values():
            got = liveness(fn)
            want_in, want_out = round_robin_liveness(fn)
            assert got.live_in == {k: to_mask(v)
                                   for k, v in want_in.items()}, \
                (model, fn.name)
            assert got.live_out == {k: to_mask(v)
                                    for k, v in want_out.items()}, \
                (model, fn.name)
