"""Property-based differential testing with randomly generated MiniC.

Hypothesis builds small structured MiniC programs (bounded loops,
nested conditionals, short-circuit conditions, array traffic), and every
program must produce identical results under the interpreter before and
after each compilation pipeline — across all three processor models.
This is the widest net for miscompilation bugs in the repository.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.profile import Profile
from repro.emu import run_program
from repro.ir import verify_program
from repro.machine.descriptor import fig8_machine
from repro.toolchain import (Model, compile_for_model, frontend,
                             schedule_for_machine)

_VARS = ["v0", "v1", "v2", "v3"]
_ARR = "arr"


@st.composite
def expressions(draw, depth=2):
    if depth == 0:
        return draw(st.sampled_from(
            _VARS + [str(draw(st.integers(0, 9)))]))
    choice = draw(st.integers(0, 5))
    if choice <= 1:
        return draw(st.sampled_from(
            _VARS + [str(draw(st.integers(0, 9)))]))
    left = draw(expressions(depth=depth - 1))
    right = draw(expressions(depth=depth - 1))
    if choice == 2:
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        return f"({left} {op} {right})"
    if choice == 3:
        op = draw(st.sampled_from(["<", "<=", "==", "!=", ">", ">="]))
        return f"({left} {op} {right})"
    if choice == 4:
        idx = draw(expressions(depth=0))
        # MiniC `%` truncates like C, so a bare `idx % 16` can go
        # negative; the double-mod keeps the index in bounds.
        return f"{_ARR}[(({idx}) % 16 + 16) % 16]"
    return f"(({left}) % 7 + 7) % 7"


@st.composite
def conditions(draw):
    kind = draw(st.integers(0, 2))
    a = draw(expressions(depth=1))
    b = draw(expressions(depth=1))
    op = draw(st.sampled_from(["<", "==", "!=", ">="]))
    if kind == 0:
        return f"{a} {op} {b}"
    c = draw(expressions(depth=1))
    joiner = draw(st.sampled_from(["&&", "||"]))
    return f"({a} {op} {b}) {joiner} ({c} != 0)"


@st.composite
def statements(draw, depth=2):
    kind = draw(st.integers(0, 4 if depth > 0 else 1))
    if kind == 0:
        var = draw(st.sampled_from(_VARS))
        expr = draw(expressions(depth=2))
        return f"{var} = {expr};"
    if kind == 1:
        idx = draw(expressions(depth=0))
        expr = draw(expressions(depth=1))
        return f"{_ARR}[(({idx}) % 16 + 16) % 16] = {expr};"
    if kind == 2:
        cond = draw(conditions())
        then = draw(statements(depth=depth - 1))
        if draw(st.booleans()):
            other = draw(statements(depth=depth - 1))
            return f"if ({cond}) {{ {then} }} else {{ {other} }}"
        return f"if ({cond}) {{ {then} }}"
    if kind == 3:
        body = draw(statements(depth=depth - 1))
        var = draw(st.sampled_from(_VARS))
        return (f"for (it = 0; it < 6; it = it + 1) "
                f"{{ {body} {var} = {var} + 1; }}")
    first = draw(statements(depth=depth - 1))
    second = draw(statements(depth=depth - 1))
    return f"{first} {second}"


@st.composite
def programs(draw):
    body = " ".join(draw(st.lists(statements(), min_size=2, max_size=5)))
    decls = " ".join(f"int {v};" for v in _VARS) + " int it;"
    inits = " ".join(f"{v} = {draw(st.integers(0, 9))};" for v in _VARS)
    checks = " + ".join(f"{v} * {k + 2}" for k, v in enumerate(_VARS))
    array_sum = ("for (it = 0; it < 16; it = it + 1) "
                 "v0 = (v0 + arr[it]) % 100003;")
    return (f"int arr[16];\n"
            f"int main() {{ {decls} {inits} {body} {array_sum} "
            f"return ({checks}) % 1000003; }}")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(source=programs(),
       seeds=st.lists(st.integers(0, 99), min_size=16, max_size=16))
def test_all_models_compute_identical_results(source, seeds):
    inputs = {"arr": seeds}
    base = frontend(source)
    golden = run_program(base, inputs=inputs,
                         max_steps=300_000).return_value
    profile = Profile.collect(base, inputs=inputs, max_steps=300_000)
    machine = fig8_machine()
    for model in Model:
        compiled = schedule_for_machine(
            compile_for_model(base, model, profile), machine)
        verify_program(compiled.program, model.isa_level)
        got = run_program(compiled.program, inputs=inputs,
                          max_steps=600_000).return_value
        assert got == golden, (model, source)
