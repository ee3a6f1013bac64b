"""Sweep execution: a lattice of needs for the suite's one planner.

``run_sweep`` expands a :class:`SweepSpec` into its machine lattice and
hands :meth:`ExperimentSuite.execute_plan` one need per lattice point,
``sweep:{sweep_digest}:{index}`` (plus ``sweep:{digest}:baseline``, the
scalar superblock point), each simulating every (workload, model) pair
under that point's full machine description.  The planner adds the
layers feeding them: ``prepare:{workload}`` once per workload and
``compile:{workload}:{model}:{key}`` once per distinct *schedule
digest* — every lattice point differing only in caches/BTB shares one
compile and one trace (the paper's amortization of one emulation across
machine configurations).  The same DAG runs serially in-process or
across the pool.

Point task ids are derived from ``(sweep_digest, index)`` — the fuzz
runner's deterministic work-partitioning template — so the same spec
produces the same task set in every process at any ``--jobs`` level,
the run journal makes a SIGKILLed sweep resumable with zero recompute
of completed points, and a warm store turns the whole plan into a
no-op (every artifact present, nothing scheduled).  Aggregation reads
artifacts back in lattice order, so the resulting
:class:`SweepResult` bytes never depend on execution interleaving.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine.metrics import PipelineMetrics
from repro.engine.recovery.retry import RetryPolicy
from repro.experiments.runner import ExperimentSuite, Need
from repro.machine.descriptor import scalar_machine
from repro.sweep.result import SweepResult, build_point_entry
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.toolchain import Model
from repro.workloads.base import Workload, all_workloads, get_workload


def point_task_id(sweep_digest: str, index: int) -> str:
    """Journal/task identity of lattice point ``index``."""
    return f"sweep:{sweep_digest[:12]}:{index:05d}"


def baseline_task_id(sweep_digest: str) -> str:
    return f"sweep:{sweep_digest[:12]}:baseline"


def sweep_workloads(spec: SweepSpec) -> list[Workload]:
    """The workloads a sweep runs over (all registered when unnamed)."""
    return [get_workload(name) for name in spec.workloads] \
        if spec.workloads else all_workloads()


def sweep_models(spec: SweepSpec) -> tuple[Model, ...]:
    return tuple(Model[name.upper()] for name in spec.models)


@dataclass
class SweepOutcome:
    """What ``run_sweep`` hands back to the CLI/service layer."""

    result: SweepResult
    metrics: PipelineMetrics
    run_id: str | None
    points_total: int
    #: points whose artifacts were all warm before the run (zero jobs)
    points_cached: int
    #: journal-verified point tasks skipped on resume
    resumed_tasks: int


def run_sweep(spec: SweepSpec, cache_dir: str | None = None,
              jobs: int = 1, run_id: str | None = None,
              resume: bool = False, retry: RetryPolicy | None = None,
              wall_clock_budget: float | None = None,
              metrics: PipelineMetrics | None = None,
              engine: str = "vector") -> SweepOutcome:
    """Run one sweep campaign to a :class:`SweepResult`.

    ``cache_dir``/``jobs``/``run_id``/``resume``/``retry`` have the
    same semantics as every other suite entry point: store-backed runs
    are journaled and resumable, ``jobs > 1`` fans points across the
    process pool, and a warm rerun performs zero compiles, emulations
    or simulations.
    """
    start = time.monotonic()
    points = spec.expand()
    digest = spec.sweep_digest()
    suite = ExperimentSuite(
        workloads=sweep_workloads(spec), scale=spec.scale,
        max_steps=spec.max_steps, cache_dir=cache_dir, jobs=jobs,
        engine=engine, run_id=run_id, resume=resume, retry=retry,
        wall_clock_budget=wall_clock_budget,
        journal_meta={"kind": "sweep", "sweep": spec.name,
                      "sweep_digest": digest,
                      "tasks_total": len(points) + 1})
    if metrics is not None:
        suite.ctx.metrics = metrics
        if suite.ctx.store is not None:
            suite.ctx.store.metrics = metrics
    try:
        warm = suite.execute_plan(_needs(suite, spec, points, digest))
        cached = sum(1 for point in points
                     if point_task_id(digest, point.index) in warm)
        result = _aggregate(suite, spec, points, digest)
    except BaseException:
        suite.close_journal(ok=False)
        raise
    suite.close_journal(ok=True)
    suite.metrics.add("sweep_points_total", len(points))
    suite.metrics.add("sweep_points_cached", cached)
    suite.metrics.add("sweep_seconds", time.monotonic() - start)
    return SweepOutcome(result=result, metrics=suite.metrics,
                        run_id=suite.run_id, points_total=len(points),
                        points_cached=cached,
                        resumed_tasks=suite.resumed_progress())


def _needs(suite: ExperimentSuite, spec: SweepSpec,
           points: list[SweepPoint], digest: str) -> list[Need]:
    workloads, models = tuple(suite.workloads), sweep_models(spec)
    return [Need(baseline_task_id(digest), scalar_machine(), workloads,
                 (Model.SUPERBLOCK,))] + [
        Need(point_task_id(digest, point.index), point.machine,
             workloads, models) for point in points]


def _aggregate(suite: ExperimentSuite, spec: SweepSpec,
               points: list[SweepPoint], digest: str) -> SweepResult:
    """Read every point's stats back in lattice order.

    After the plan ran the store holds every artifact, so this is pure
    cache reads; without a store it is where the (serial) compute
    actually happens.
    """
    baseline: dict[str, int] = {}
    for workload in suite.workloads:
        baseline[workload.name] = suite.ctx.run_summary(
            workload, Model.SUPERBLOCK, scalar_machine()).stats.cycles
    entries: list[dict] = []
    for point in points:
        measurements: dict[str, dict] = {}
        for workload in suite.workloads:
            row: dict[str, dict] = {}
            for name in spec.models:
                summary = suite.ctx.run_summary(
                    workload, Model[name.upper()], point.machine)
                cycles = summary.stats.cycles
                row[name] = {
                    "cycles": cycles,
                    "speedup": round(
                        baseline[workload.name] / cycles, 6),
                    "instructions":
                        summary.stats.executed_instructions,
                }
            measurements[workload.name] = row
        entries.append(build_point_entry(point, measurements))
    return SweepResult(spec=spec.to_dict(), sweep_digest=digest,
                       baseline_cycles=baseline, points=entries)
