"""Property-based fastpath equivalence on random MiniC programs.

Hypothesis generates small structured programs (loops, nested
conditionals, array traffic — the same shape as the integration-level
miscompilation net) and every one must produce identical
``ExecutionResult`` observables and identical ``SimulationStats`` under
the legacy loops and the fastpath, across all three processor models.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.profile import Profile
from repro.emu import run_program
from repro.fastpath.decode import decode_program
from repro.fastpath.interp import run_program_fast
from repro.fastpath.simulate import prepare_sim, simulate_columns
from repro.machine.descriptor import fig8_machine
from repro.sim.pipeline import simulate_trace
from repro.toolchain import (Model, compile_for_model, frontend,
                             schedule_for_machine)

_VARS = ["v0", "v1", "v2"]


@st.composite
def expressions(draw, depth=2):
    if depth == 0:
        return draw(st.sampled_from(
            _VARS + [str(draw(st.integers(0, 9)))]))
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return draw(st.sampled_from(
            _VARS + [str(draw(st.integers(0, 9)))]))
    left = draw(expressions(depth=depth - 1))
    right = draw(expressions(depth=depth - 1))
    if choice == 1:
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        return f"({left} {op} {right})"
    if choice == 2:
        op = draw(st.sampled_from(["<", "<=", "==", "!="]))
        return f"({left} {op} {right})"
    if choice == 3:
        idx = draw(expressions(depth=0))
        return f"arr[({idx}) % 8]"
    return f"(({left}) % 5 + 5) % 5"


@st.composite
def statements(draw, depth=2):
    kind = draw(st.integers(0, 3 if depth > 0 else 1))
    if kind == 0:
        var = draw(st.sampled_from(_VARS))
        return f"{var} = {draw(expressions(depth=2))};"
    if kind == 1:
        idx = draw(expressions(depth=0))
        return f"arr[({idx}) % 8] = {draw(expressions(depth=1))};"
    if kind == 2:
        cond = (f"{draw(expressions(depth=1))} "
                f"{draw(st.sampled_from(['<', '==', '!=', '>=']))} "
                f"{draw(expressions(depth=1))}")
        then = draw(statements(depth=depth - 1))
        if draw(st.booleans()):
            other = draw(statements(depth=depth - 1))
            return f"if ({cond}) {{ {then} }} else {{ {other} }}"
        return f"if ({cond}) {{ {then} }}"
    body = draw(statements(depth=depth - 1))
    return (f"for (it = 0; it < 5; it = it + 1) "
            f"{{ {body} v0 = v0 + 1; }}")


@st.composite
def programs(draw):
    body = " ".join(draw(st.lists(statements(), min_size=1, max_size=4)))
    decls = " ".join(f"int {v};" for v in _VARS) + " int it;"
    inits = " ".join(f"{v} = {draw(st.integers(0, 9))};" for v in _VARS)
    checks = " + ".join(f"{v} * {k + 2}" for k, v in enumerate(_VARS))
    return (f"int arr[8];\n"
            f"int main() {{ {decls} {inits} {body} "
            f"for (it = 0; it < 8; it = it + 1) "
            f"v0 = (v0 + arr[it]) % 65521; "
            f"return ({checks}) % 1000003; }}")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(source=programs(),
       seeds=st.lists(st.integers(0, 99), min_size=8, max_size=8))
def test_fastpath_matches_legacy_on_random_programs(source, seeds):
    inputs = {"arr": seeds}
    base = frontend(source)
    profile = Profile.collect(base, inputs=inputs, max_steps=300_000)
    machine = fig8_machine()
    for model in Model:
        compiled = schedule_for_machine(
            compile_for_model(base, model, profile), machine)
        legacy = run_program(compiled.program, inputs=inputs,
                             collect_trace=True, max_steps=600_000)
        decoded = decode_program(compiled.program)
        fast = run_program_fast(compiled.program, inputs=inputs,
                                collect_trace=True, max_steps=600_000,
                                decoded=decoded)
        assert fast.output_signature == legacy.output_signature, \
            (model, source)
        assert fast.return_value == legacy.return_value, (model, source)
        assert fast.memory_digest == legacy.memory_digest, (model, source)
        legacy_stats = simulate_trace(legacy.trace, compiled.addresses,
                                      machine)
        fast_stats = simulate_columns(
            fast.trace, prepare_sim(decoded, compiled.addresses), machine)
        for field in dataclasses.fields(legacy_stats):
            assert getattr(fast_stats, field.name) == \
                getattr(legacy_stats, field.name), (field.name, model,
                                                    source)
