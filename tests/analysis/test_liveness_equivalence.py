"""The bitset liveness equals the set-based oracle everywhere it is used.

Checked at block boundaries and before every instruction, on the paper
workloads before and after lowering, on every corpus reproducer, and on
random predicated functions.  Worklist dead code elimination is checked
against whole-function rounds on the same random functions.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.liveness import liveness
from repro.analysis.profile import Profile
from repro.fuzz.corpus import list_entries
from repro.ir import (Function, GlobalAddr, Imm, Instruction, Opcode, PReg,
                      PredDest, PType, VReg)
from repro.ir.printer import format_function
from repro.opt.dce import eliminate_dead_code
from repro.toolchain import Model, compile_for_model, frontend
from repro.workloads import all_workloads
from tests.analysis.reference_liveness import assert_matches, reference_dce

SCALE = 0.2
MAX_STEPS = 2_000_000


def _assert_program(program, label) -> None:
    for fn in program.functions.values():
        assert_matches(fn, liveness(fn), f"{label}/{fn.name}")


def _check_source(source, inputs, label) -> None:
    base = frontend(source)
    _assert_program(base, f"{label}/base")
    profile = Profile.collect(base, inputs=inputs, max_steps=MAX_STEPS)
    for model in Model:
        lowered = compile_for_model(base, model, profile)
        _assert_program(lowered.program, f"{label}/{model.name}")


@pytest.mark.parametrize("workload", all_workloads(),
                         ids=lambda w: w.name)
def test_matches_oracle_on_workloads(workload):
    _check_source(workload.source, workload.inputs(SCALE), workload.name)


@pytest.mark.parametrize("entry", list_entries(), ids=lambda e: e.entry_id)
def test_matches_oracle_on_corpus(entry):
    _check_source(entry.source, entry.inputs, entry.entry_id)


def test_guard_redefinition_reexposes_guarded_use():
    """A guarded def under the *old* value of p does not satisfy a use
    under the redefined p: the need becomes unconditional at the
    redefinition, so r0 is live into the block."""
    fn = Function("f")
    fn.next_vreg, fn.next_preg = 2, 2
    p = PReg(1)
    block = fn.new_block("b")
    block.instructions = [
        Instruction(Opcode.MOV, dest=VReg(0), srcs=(Imm(1),), pred=p),
        Instruction(Opcode.PRED_EQ, srcs=(VReg(1), Imm(0)),
                    pdests=(PredDest(p, PType.U),)),
        Instruction(Opcode.ADD, dest=VReg(1), srcs=(VReg(0), Imm(1)),
                    pred=p),
        Instruction(Opcode.RET, srcs=(VReg(1),)),
    ]
    live = liveness(fn)
    assert live.live_in["b"] >> VReg(0).bit & 1
    assert_matches(fn, live)


# ----- random predicated functions ---------------------------------------

N_BLOCKS = 5
VREGS = [VReg(i) for i in range(4)]
PREGS = [PReg(i) for i in range(1, 3)]
LABELS = [f"b{i}" for i in range(N_BLOCKS)]

vregs = st.sampled_from(VREGS)
pregs = st.sampled_from(PREGS)
guards = st.one_of(st.none(), pregs, pregs)
operands = vregs | st.integers(-2, 2).map(Imm)


@st.composite
def instructions(draw):
    kind = draw(st.sampled_from(
        ["alu", "mov", "cmov", "pdef", "pset", "exit", "gjump", "store",
         "select"]))
    if kind == "alu":
        return Instruction(Opcode.ADD, dest=draw(vregs),
                           srcs=(draw(operands), draw(operands)),
                           pred=draw(guards))
    if kind == "mov":
        return Instruction(Opcode.MOV, dest=draw(vregs),
                           srcs=(draw(operands),), pred=draw(guards))
    if kind == "cmov":
        return Instruction(draw(st.sampled_from([Opcode.CMOV,
                                                 Opcode.CMOV_COM])),
                           dest=draw(vregs),
                           srcs=(draw(operands), draw(vregs)),
                           pred=draw(guards))
    if kind == "select":
        return Instruction(Opcode.SELECT, dest=draw(vregs),
                           srcs=(draw(operands), draw(operands),
                                 draw(vregs)))
    if kind == "pdef":
        regs = draw(st.lists(pregs, min_size=1, max_size=2, unique=True))
        return Instruction(
            Opcode.PRED_LT, srcs=(draw(operands), draw(operands)),
            pdests=tuple(PredDest(r, draw(st.sampled_from(list(PType))))
                         for r in regs),
            pred=draw(guards))
    if kind == "pset":
        return Instruction(draw(st.sampled_from([Opcode.PRED_CLEAR,
                                                 Opcode.PRED_SET])))
    if kind == "exit":
        return Instruction(Opcode.BEQ, srcs=(draw(vregs), Imm(0)),
                           target=draw(st.sampled_from(LABELS)),
                           pred=draw(guards))
    if kind == "gjump":
        return Instruction(Opcode.JUMP, target=draw(st.sampled_from(LABELS)),
                           pred=draw(pregs))
    return Instruction(Opcode.STORE, srcs=(GlobalAddr("g"), Imm(0),
                                           draw(operands)),
                       pred=draw(guards))


@st.composite
def functions(draw):
    fn = Function("f")
    fn.next_vreg = len(VREGS)
    fn.next_preg = len(PREGS) + 1
    for index, label in enumerate(LABELS):
        block = fn.new_block(label)
        block.instructions = draw(st.lists(instructions(), max_size=10))
        last = index == len(LABELS) - 1
        end = draw(st.sampled_from(["ret", "jump"] if last
                                   else ["ret", "jump", "fall"]))
        if end == "ret":
            block.append(Instruction(Opcode.RET, srcs=(draw(operands),)))
        elif end == "jump":
            block.append(Instruction(Opcode.JUMP,
                                     target=draw(st.sampled_from(LABELS))))
    return fn


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fn=functions())
def test_matches_oracle_on_random_predicated_functions(fn):
    assert_matches(fn, liveness(fn))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fn=functions())
def test_worklist_dce_matches_whole_function_rounds(fn):
    clone = Function(fn.name, list(fn.params),
                     [type(b)(b.name, [i.copy() for i in b.instructions])
                      for b in fn.blocks], fn.next_vreg, fn.next_preg)
    assert eliminate_dead_code(fn) == reference_dce(clone)
    assert format_function(fn) == format_function(clone)
