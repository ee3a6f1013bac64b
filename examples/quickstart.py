#!/usr/bin/env python3
"""Quickstart: compile one kernel under all three predication models.

Compiles the paper's Figure 1 code shape (a nested if with a
short-circuit condition) from MiniC source, shows the code each
architectural model runs, and simulates all three on the paper's 8-issue
1-branch machine.

Run:  python examples/quickstart.py
"""

from repro.analysis.profile import Profile
from repro.ir import format_function
from repro.machine.descriptor import fig8_machine, scalar_machine
from repro.toolchain import (Model, compile_for_model, frontend,
                             run_compiled, schedule_for_machine)

SOURCE = """
int a[512];
int b[512];
int c[512];
int n;
int i_total;
int j_total;
int k_total;

int main() {
  int idx;
  int j; int k; int i;
  j = 0; k = 0; i = 0;
  for (idx = 0; idx < n; idx = idx + 1) {
    // The paper's Figure 1 kernel:
    if (a[idx] == 0 || b[idx] == 0) j = j + 1;
    else if (c[idx] != 0) k = k + 1;
    else k = k - 1;
    i = i + 1;
  }
  return j * 1000000 + k * 1000 + i;
}
"""


def make_inputs(n: int = 500) -> dict:
    # A deterministic mix so every path of the conditional executes.
    a = [(7 * i) % 3 for i in range(n)]
    b = [(5 * i) % 4 for i in range(n)]
    c = [(3 * i) % 2 for i in range(n)]
    return {"a": a, "b": b, "c": c, "n": [n]}


def main() -> None:
    inputs = make_inputs()
    base = frontend(SOURCE)
    profile = Profile.collect(base, inputs=inputs)
    machine = fig8_machine()

    print("=" * 72)
    print("Compiling the Figure 1 kernel for each predication model")
    print("=" * 72)

    baseline = None
    for model in Model:
        compiled = schedule_for_machine(
            compile_for_model(base, model, profile), machine)
        result = run_compiled(compiled, inputs=inputs)
        if model is Model.SUPERBLOCK:
            scalar = schedule_for_machine(
                compile_for_model(base, model, profile), scalar_machine())
            baseline = run_compiled(scalar, inputs=inputs).cycles
        stats = result.stats
        print(f"\n--- {model.value} ---")
        print(f"result            : {result.return_value}")
        print(f"cycles (8-issue)  : {stats.cycles}")
        print(f"dynamic instrs    : {stats.dynamic_instructions} "
              f"({stats.suppressed_instructions} nullified)")
        print(f"branches          : {stats.branches} "
              f"({stats.mispredictions} mispredicted)")
        assert baseline is not None
        print(f"speedup vs 1-issue: {baseline / stats.cycles:.2f}")
        if model is Model.FULLPRED:
            print("\nfully predicated main():")
            print(format_function(compiled.program.functions["main"]))


if __name__ == "__main__":
    main()
