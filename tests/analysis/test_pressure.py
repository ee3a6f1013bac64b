"""Register pressure statistics tests."""

from repro.analysis.pressure import function_pressure, program_pressure
from repro.analysis.profile import Profile
from repro.lang import compile_minic
from repro.machine.descriptor import fig8_machine
from repro.toolchain import (Model, compile_for_model, frontend,
                             schedule_for_machine)

SRC = """
int a[64];
int n;
int out;
int main() {
  int i; int t;
  for (i = 0; i < n; i = i + 1) {
    if (a[i] > 4) { t = a[i] * 3 + 1; out = out + t; }
  }
  return out;
}
"""

INPUTS = {"a": [(k * 5) % 11 for k in range(60)], "n": [60]}


def test_straightline_pressure():
    prog = compile_minic("int main() { int a; int b; a = 1; b = 2; "
                         "return a + b; }")
    stats = function_pressure(prog.functions["main"])
    assert stats.max_live_int >= 2
    assert stats.max_live_pred == 0
    assert stats.total_pregs == 0


def test_float_pressure_tracked_separately():
    prog = compile_minic("""
    float x; float y;
    int main() { x = 1.5; y = x * 2.0; return y; }
    """)
    stats = function_pressure(prog.functions["main"])
    assert stats.max_live_float >= 1


def test_partial_predication_raises_pressure():
    """The paper's Section 1 claim: partial predication needs more
    registers for intermediate values."""
    base = frontend(SRC)
    profile = Profile.collect(base, inputs=INPUTS)
    machine = fig8_machine()
    by_model = {
        model: program_pressure(
            schedule_for_machine(
                compile_for_model(base, model, profile), machine).program)
        for model in Model
    }
    assert by_model[Model.CMOV].total_vregs >= \
        by_model[Model.FULLPRED].total_vregs
    # Full predication uses predicate registers; cmov uses none.
    assert by_model[Model.FULLPRED].total_pregs > 0
    assert by_model[Model.CMOV].total_pregs == 0


def test_program_pressure_aggregates():
    prog = compile_minic("""
    int f(int x) { return x + 1; }
    int main() { return f(1) + f(2); }
    """)
    whole = program_pressure(prog)
    assert whole.total_vregs >= \
        function_pressure(prog.functions["f"]).total_vregs
