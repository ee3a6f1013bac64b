"""Cross-process compile determinism.

A resumed (or merely repeated) figure run executes in a fresh process
with a fresh random ``PYTHONHASHSEED``; byte-identical resume therefore
requires that compilation decisions never depend on set iteration
order.  The ``sc`` workload at scale 0.2 ties two blocks on the
hyperblock resource heuristic, which historically made its CMOV and
FULLPRED cycle counts a per-process coin flip.  Loop unrolling renamed
registers in set order, which made the printed IR of most workloads
differ between processes even where the cycle counts agreed.
"""

import os
import subprocess
import sys

_PROBE = """
from repro.toolchain import Model
from repro.machine.descriptor import fig8_machine
from repro.workloads.base import all_workloads
from repro.engine.stages import PipelineContext

w = [x for x in all_workloads() if x.name == "sc"][0]
ctx = PipelineContext(scale=0.2, store=None)
for model in (Model.SUPERBLOCK, Model.CMOV, Model.FULLPRED):
    s = ctx.run_summary(w, model, fig8_machine())
    print(model.name, s.stats.cycles)
"""


_IR_PROBE = """
from repro.analysis.profile import Profile
from repro.ir.printer import format_program
from repro.toolchain import Model, compile_for_model, frontend
from repro.workloads import get_workload

for name in ("wc", "compress"):
    w = get_workload(name)
    base = frontend(w.source)
    profile = Profile.collect(base, inputs=w.inputs(0.1))
    for model in Model:
        print(format_program(compile_for_model(base, model, profile).program))
"""


def _run_under_seed(probe: str, seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p) or "src"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_compiled_cycles_identical_across_hash_seeds():
    assert _run_under_seed(_PROBE, "1") == _run_under_seed(_PROBE, "2")


def test_compiled_ir_identical_across_hash_seeds():
    first = _run_under_seed(_IR_PROBE, "1")
    assert "function main" in first
    assert _run_under_seed(_IR_PROBE, "2") == first
