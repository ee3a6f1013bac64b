"""Reducer: region detection, ddmin, and the injected-miscompile gate.

The last test is the PR's acceptance criterion: a synthetic miscompile
injected into the CMOV pipeline must shrink by at least 80% of its
lines, to a reproducer of at most 20 lines, while preserving the
original crash signature at every step.
"""

from __future__ import annotations

import pytest

from repro.analysis.profile import Profile
from repro.emu.interpreter import run_program
from repro.fuzz.generator import generate_case
from repro.fuzz.reduce import _brace_regions, reduce_source
from repro.fuzz.triage import signature_of
from repro.machine.descriptor import MachineDescription
from repro.robustness.differential import assert_equivalent
from repro.toolchain import (Model, compile_for_model, frontend,
                             schedule_for_machine)

from tests.fuzz.conftest import sabotaged_compile


def test_brace_regions_span_if_else_chains():
    source = "\n".join([
        "int main() {",          # 0
        "  if (1) {",            # 1
        "    x = 1;",            # 2
        "  } else {",            # 3
        "    x = 2;",            # 4
        "  }",                   # 5
        "  while (0) {",         # 6
        "    y = 3;",            # 7
        "  }",                   # 8
        "}",                     # 9
    ])
    regions = _brace_regions(source.splitlines())
    assert (0, 9) in regions       # whole function
    assert (1, 5) in regions       # if/else as ONE region
    assert (6, 8) in regions       # the loop
    assert regions[0] == (0, 9)    # largest first


def test_reduce_plain_text_predicate():
    # No compiler involved: keep shrinking while both markers survive.
    lines = [f"filler_{i};" for i in range(40)]
    lines[7] = "KEEP_A;"
    lines[23] = "KEEP_B;"
    source = "\n".join(lines) + "\n"

    def interesting(candidate: str) -> bool:
        return "KEEP_A;" in candidate and "KEEP_B;" in candidate

    reduced, stats = reduce_source(source, interesting)
    assert "KEEP_A;" in reduced and "KEEP_B;" in reduced
    assert stats.reduced_lines == 2
    assert stats.shrink_ratio >= 0.9


def test_reduce_refuses_flaky_witness():
    with pytest.raises(ValueError):
        reduce_source("a;\nb;\n", lambda _s: False)


def _divergence_signature(source: str, inputs: dict, max_steps: int):
    """Signature of the sabotage-injected CMOV divergence, or None.

    A trimmed-down differential check (legacy engine only, two models)
    so reduction probes stay fast; the full nine-run executor is
    exercised by the campaign tests.
    """
    machine = MachineDescription(issue_width=8, branch_issue_limit=1,
                                 name="8-issue,1-branch")
    try:
        base = frontend(source)
        profile = Profile.collect(base, inputs=inputs,
                                  max_steps=max_steps)
        reference = run_program(
            schedule_for_machine(
                compile_for_model(base, Model.SUPERBLOCK, profile),
                machine).program,
            inputs=inputs, max_steps=max_steps)
        candidate = run_program(
            schedule_for_machine(
                sabotaged_compile(base, Model.CMOV, profile),
                machine).program,
            inputs=inputs, max_steps=max_steps)
        assert_equivalent(candidate, reference, workload="inject",
                          model=Model.CMOV.value)
    except Exception as exc:  # noqa: BLE001 - folded into a signature
        return signature_of(exc)
    return None


def test_injected_miscompile_reduces_to_minimal_repro():
    case = generate_case(0xbadc0de, 1)  # deep-nest: a big witness
    max_steps = 300_000
    original = _divergence_signature(case.source, case.inputs, max_steps)
    assert original is not None, "sabotage produced no divergence"
    assert original.kind == "divergence"

    probes = {"n": 0}

    def interesting(candidate: str) -> bool:
        probes["n"] += 1
        sig = _divergence_signature(candidate, case.inputs, max_steps)
        return sig is not None and sig.key == original.key

    reduced, stats = reduce_source(case.source, interesting)
    assert stats.shrink_ratio >= 0.8, \
        f"only {stats.shrink_ratio:.0%} shrink over {probes['n']} probes"
    assert stats.reduced_lines <= 20
    # The reduced witness still reproduces the same signature.
    final = _divergence_signature(reduced, case.inputs, max_steps)
    assert final is not None and final.key == original.key
