"""Lower once per model, schedule per machine.

A program scheduled from the pipeline's memoized lowering must equal a
fresh lower+schedule of the same (workload, model, machine) triple, and
scheduling must never change the lowering it starts from.
"""

import pytest

from repro.engine.stages import PipelineContext
from repro.ir.printer import format_program
from repro.machine.descriptor import (fig8_machine, fig9_machine,
                                      fig10_machine, scalar_machine)
from repro.toolchain import Model, compile_for_model, schedule_for_machine
from repro.workloads import all_workloads

MACHINES = (scalar_machine(), fig8_machine(), fig9_machine(),
            fig10_machine())


def _snapshot(compiled) -> tuple:
    """Printed IR, then issue cycle and address by instruction position
    (uids differ between lowerings), then the schedule counters."""
    insts = [inst for fn in compiled.program.functions.values()
             for inst in fn.all_instructions()]
    assert set(compiled.addresses) == {inst.uid for inst in insts}
    return (format_program(compiled.program),
            [compiled.schedule.cycles[inst.uid] for inst in insts],
            [compiled.addresses[inst.uid] for inst in insts],
            compiled.schedule.length, compiled.schedule.speculated)


@pytest.fixture(scope="module")
def ctx():
    return PipelineContext(scale=0.2, store=None)


@pytest.mark.parametrize("workload", all_workloads(),
                         ids=lambda w: w.name)
def test_memoized_lowering_matches_fresh_compile(ctx, workload):
    base = ctx.frontend_program(workload)
    profile = ctx.profile(workload)
    for model in Model:
        lowered = ctx.lowered(workload, model)
        assert ctx.lowered(workload, model) is lowered
        for machine in MACHINES:
            fresh = schedule_for_machine(
                compile_for_model(base, model, profile, ctx.options),
                machine)
            assert _snapshot(schedule_for_machine(lowered, machine)) \
                == _snapshot(fresh), (model, machine.name)


def test_scheduling_never_mutates_the_lowering(ctx):
    workload = next(w for w in all_workloads() if w.name == "wc")
    lowered = ctx.lowered(workload, Model.FULLPRED)
    before = format_program(lowered.program)
    first = _snapshot(schedule_for_machine(lowered, fig8_machine()))
    schedule_for_machine(lowered, fig10_machine())
    assert _snapshot(schedule_for_machine(lowered, fig8_machine())) \
        == first
    assert format_program(lowered.program) == before
