"""Output oracle over the store one timed pass left behind.

Usage::

    python perfbench/oracle.py CONFIG_JSON RESULT_JSON

CONFIG_JSON names the store (``cache_dir``), the command's scale, its
machines (``"report"`` for the paper report's five, or the sweep spec
file) and the seed of the sample.  Two checks run:

* ``sample`` result triples (workload, model, machine), drawn with
  ``random.Random(seed)``, are compiled again and re-run with
  ``run_compiled(..., engine="legacy")``: the readable interpreter and
  trace simulator, which share no code with the vector and native
  engines the pass used.  Every ``SimulationStats`` field must equal
  the one the pass stored.
* ``ExperimentSuite.validate_models`` compares the three models'
  observables (return value, store stream, final memory) on the store.

RESULT_JSON receives ``{"triples", "attempted", "failed", "problems"}``:
the number of result triples one pass produces, and the checks' own
count of triples attempted and failed.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys

from repro.analysis.profile import Profile
from repro.experiments.runner import ExperimentSuite, scaled_fig11_machine
from repro.machine.descriptor import (fig8_machine, fig9_machine,
                                      fig10_machine, scalar_machine)
from repro.robustness.errors import ReproError
from repro.sweep import SweepSpec
from repro.toolchain import (Model, compile_for_model, frontend,
                             run_compiled)
from repro.workloads import all_workloads, get_workload


def _triples(config):
    """Every (workload, model, machine) the pass produced."""
    if config["machines"] == "report":
        workloads = [w.name for w in all_workloads()]
        machines = [fig8_machine(), fig9_machine(), fig10_machine(),
                    scaled_fig11_machine()]
        models = list(Model)
    else:
        spec = SweepSpec.from_file(config["machines"])
        workloads = list(spec.workloads) or [w.name
                                             for w in all_workloads()]
        machines = [p.machine for p in spec.expand()]
        models = [Model[name.upper()] for name in spec.models]
    triples = [(w, m, mach) for mach in machines for w in workloads
               for m in models]
    triples += [(w, Model.SUPERBLOCK, scalar_machine()) for w in workloads]
    return workloads, machines, triples


def main(config_path: str, result_path: str) -> int:
    with open(config_path) as handle:
        config = json.load(handle)
    scale, max_steps = config["scale"], config["max_steps"]
    workloads, machines, triples = _triples(config)
    suite = ExperimentSuite(workloads=[get_workload(w) for w in workloads],
                            scale=scale, max_steps=max_steps,
                            cache_dir=config["cache_dir"], engine="vector",
                            mode="degrade")
    store = suite.ctx.store
    problems = []
    failed = 0
    rng = random.Random(config["seed"])
    sample = rng.sample(triples, min(config["sample"], len(triples)))
    for name, model, machine in sample:
        label = f"{name}/{model.value}/{machine.name}"
        w = get_workload(name)
        if not store.contains("stats", suite.ctx.stats_key(w, model,
                                                           machine)):
            failed += 1
            problems.append(f"{label}: the pass stored no result")
            continue
        stored = suite.run(name, model, machine).stats
        base = frontend(w.source)
        profile = Profile.collect(base, inputs=w.inputs(scale),
                                  max_steps=max_steps)
        compiled = compile_for_model(base, model, profile, machine,
                                     suite.options)
        legacy = run_compiled(compiled, inputs=w.inputs(scale),
                              machine=machine, max_steps=max_steps,
                              engine="legacy").stats
        if dataclasses.asdict(legacy) != dataclasses.asdict(stored):
            failed += 1
            problems.append(f"{label}: legacy {legacy} != stored {stored}")
    failed += _validate(suite, machines[0], problems) * len(Model)
    suite.close_journal(ok=True)
    with open(result_path, "w") as handle:
        json.dump({"triples": len(triples),
                   "attempted": len(sample) + len(workloads) * len(Model),
                   "failed": failed, "problems": problems}, handle)
    return 0


def _validate(suite, machine, problems) -> int:
    """Divergent workload count under the differential oracle."""
    try:
        outcome = suite.validate_models(machine)
    except ReproError as exc:
        problems.append(f"validate_models: {type(exc).__name__}: {exc}")
        return len(suite.workloads)
    bad = [name for name, ok in outcome.items() if not ok]
    problems.extend(f"{name}: models disagree" for name in bad)
    return len(bad) + len(suite.workloads) - len(outcome)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
