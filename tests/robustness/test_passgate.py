"""Pass gates: paranoid verification, IR artifacts, rollback."""

import copy
import os

import pytest

from repro.ir import Imm, Instruction, Opcode, VReg
from repro.ir.verifier import ISALevel, verify_function
from repro.robustness.errors import CompileError, PassVerificationError
from repro.robustness.passgate import PassGate
from repro.toolchain import (Model, ToolchainOptions, compile_for_model,
                             schedule_for_machine)


def _append_after_terminator(fn) -> None:
    # The last block ends with ret; anything after it is invalid IR.
    fn.blocks[-1].append(Instruction(Opcode.MOV, dest=fn.new_vreg(),
                                     srcs=(Imm(1),)))


def test_paranoid_names_the_pass_and_dumps_ir(campaign, tmp_path):
    program = copy.deepcopy(campaign.compiled[Model.FULLPRED].program)
    gate = PassGate(program, paranoid=True, artifact_dir=str(tmp_path),
                    model="fullpred")
    fn = program.main
    with pytest.raises(PassVerificationError) as exc:
        gate.run(fn, "evil-pass", lambda: _append_after_terminator(fn))
    err = exc.value
    assert err.pass_name == "evil-pass"
    assert err.function == fn.name
    assert err.artifact_path and os.path.exists(err.artifact_path)
    snapshot = open(err.artifact_path).read()
    assert "evil-pass" in snapshot
    assert fn.name in snapshot


def test_unparanoid_gate_lets_bad_ir_through(campaign):
    program = copy.deepcopy(campaign.compiled[Model.FULLPRED].program)
    gate = PassGate(program, paranoid=False)
    fn = program.main
    gate.run(fn, "evil-pass", lambda: _append_after_terminator(fn))
    assert not gate.degradations  # nothing checked, nothing caught


def test_rollback_restores_the_function(campaign, tmp_path):
    program = copy.deepcopy(campaign.compiled[Model.FULLPRED].program)
    gate = PassGate(program, paranoid=True, rollback=True,
                    artifact_dir=str(tmp_path), model="fullpred")
    fn = program.main
    before = sum(len(b.instructions) for b in fn.blocks)
    result = gate.run(fn, "evil-pass",
                      lambda: _append_after_terminator(fn))
    assert result is None
    assert sum(len(b.instructions) for b in fn.blocks) == before
    verify_function(fn, program, ISALevel.FULL)
    (deg,) = gate.degradations
    assert deg.pass_name == "evil-pass"
    assert deg.function == fn.name


def test_crash_inside_a_pass_becomes_compile_error(campaign, tmp_path):
    program = copy.deepcopy(campaign.compiled[Model.FULLPRED].program)
    gate = PassGate(program, artifact_dir=str(tmp_path))
    fn = program.main

    def explode():
        raise RuntimeError("boom")

    with pytest.raises(CompileError) as exc:
        gate.run(fn, "exploding-pass", explode)
    assert exc.value.pass_name == "exploding-pass"
    assert not isinstance(exc.value, PassVerificationError)


def test_crash_with_rollback_degrades(campaign, tmp_path):
    program = copy.deepcopy(campaign.compiled[Model.FULLPRED].program)
    gate = PassGate(program, rollback=True, artifact_dir=str(tmp_path))
    fn = program.main

    def explode():
        raise RuntimeError("boom")

    assert gate.run(fn, "exploding-pass", explode) is None
    (deg,) = gate.degradations
    assert "boom" in deg.error


def test_paranoid_toolchain_compiles_cleanly(campaign, tmp_path):
    options = ToolchainOptions(paranoid=True, rollback=True,
                               artifact_dir=str(tmp_path))
    compiled = schedule_for_machine(
        compile_for_model(campaign.base, Model.FULLPRED, campaign.profile,
                          options), campaign.machine)
    assert not compiled.degradations
    assert not list(tmp_path.iterdir())


def test_artifact_names_are_uniquified(campaign, tmp_path):
    program = copy.deepcopy(campaign.compiled[Model.FULLPRED].program)
    gate = PassGate(program, paranoid=True, rollback=True,
                    artifact_dir=str(tmp_path), model="fullpred")
    fn = program.main
    for _ in range(2):
        gate.run(fn, "evil-pass", lambda: _append_after_terminator(fn))
    paths = {d.artifact_path for d in gate.degradations}
    assert len(paths) == 2 and None not in paths
