"""Shared fixtures: the fault campaign's kernel, compiled and emulated.

Compiling the campaign kernel for all three models and recording traces
is the expensive part of every robustness test, so it is done once per
session and the artifacts shared read-only (tests that corrupt anything
must deepcopy first).
"""

from types import SimpleNamespace

import pytest

from repro.analysis.profile import Profile
from repro.emu.interpreter import run_program
from repro.machine.descriptor import scalar_machine
from repro.robustness.faults import CAMPAIGN_INPUTS, CAMPAIGN_SOURCE
from repro.toolchain import (Model, compile_for_model, frontend,
                             schedule_for_machine)


@pytest.fixture(scope="session")
def campaign():
    base = frontend(CAMPAIGN_SOURCE)
    profile = Profile.collect(base, inputs=CAMPAIGN_INPUTS)
    machine = scalar_machine()
    compiled = {model: schedule_for_machine(
                    compile_for_model(base, model, profile), machine)
                for model in Model}
    executions = {model: run_program(compiled[model].program,
                                     inputs=CAMPAIGN_INPUTS,
                                     collect_trace=True)
                  for model in Model}
    return SimpleNamespace(base=base, profile=profile, machine=machine,
                           compiled=compiled, executions=executions)
