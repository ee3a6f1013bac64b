"""Job functions of the planned DAG, and the context they share.

:meth:`~repro.experiments.runner.ExperimentSuite.plan` emits three job
layers — :func:`prepare_workload`, :func:`compile_emulate`,
:func:`simulate_point` — run in-process by the serial scheduler or
pickled by reference into pool workers; cluster shards call
:func:`simulate_point` directly.  A job returns only its metrics
counters: artifacts stay in the store, so nothing large crosses a
process boundary.  Each thread keeps one :class:`PipelineContext` for
the configuration it last ran (the suite adopts its own for in-process
jobs), so jobs share its machine-independent memos; each job counts
into fresh metrics and releases traces and summaries when it ends.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

from repro.engine.metrics import PipelineMetrics
from repro.engine.stages import PipelineContext
from repro.engine.store import ArtifactStore
from repro.machine.descriptor import MachineDescription
from repro.toolchain import Model, ToolchainOptions
from repro.workloads.base import (SOURCE_PREFIX, Workload, get_workload,
                                  source_workload)


@dataclass(frozen=True)
class JobSpec:
    """One configuration, bound by :meth:`bind` to one job's work.

    Picklable: workloads travel by name (input builders are closures),
    unregistered source workloads by their MiniC text.  The unbound
    spec is the key a thread keeps its :class:`PipelineContext` under.
    """

    cache_dir: str | None
    scale: float
    max_steps: int
    options: ToolchainOptions = field(default_factory=ToolchainOptions)
    paranoid: bool = False
    wall_clock_budget: float | None = None
    #: execution backend ("vector" or "legacy")
    engine: str = "vector"
    workloads: tuple[str, ...] = ()
    sources: tuple[str, ...] = ()
    models: tuple[Model, ...] = ()
    machine: MachineDescription | None = None

    def bind(self, workloads: Sequence[Workload],
             models: Sequence[Model],
             machine: MachineDescription | None) -> "JobSpec":
        """This configuration applied to one job's work."""
        return replace(
            self, workloads=tuple(w.name for w in workloads),
            sources=tuple(w.source for w in workloads
                          if w.name.startswith(SOURCE_PREFIX)),
            models=tuple(models), machine=machine)

    def config(self) -> "JobSpec":
        return replace(self, workloads=(), sources=(), models=(),
                       machine=None)

    def resolve_workloads(self) -> list[Workload]:
        adhoc = {w.name: w for w in map(source_workload, self.sources)}
        return [adhoc.get(name) or get_workload(name)
                for name in self.workloads]


_local = threading.local()


def adopt(config: JobSpec, ctx: PipelineContext) -> None:
    """Serve this thread's jobs of ``config`` from ``ctx``."""
    _local.slot = (os.getpid(), config, ctx)


def _context(spec: JobSpec) -> PipelineContext:
    config = spec.config()
    slot = getattr(_local, "slot", None)
    # The pid check keeps a forked pool worker off its parent's context.
    if slot is None or slot[0] != os.getpid() or slot[1] != config:
        adopt(config, PipelineContext(
            scale=spec.scale, options=spec.options,
            max_steps=spec.max_steps, paranoid=spec.paranoid,
            wall_clock_budget=spec.wall_clock_budget,
            store=ArtifactStore(spec.cache_dir), engine=spec.engine))
    return _local.slot[2]


@contextmanager
def _job(spec: JobSpec) -> Iterator[PipelineContext]:
    """The shared context with fresh counters; released afterwards."""
    ctx = _context(spec)
    saved = ctx.metrics
    ctx.metrics = ctx.store.metrics = PipelineMetrics(
        profiler=saved.profiler)
    try:
        yield ctx
    finally:
        ctx.metrics = ctx.store.metrics = saved
        ctx.release()


def _finish(ctx: PipelineContext) -> dict:
    """A job's counters for the parent's merge, native-engine demotions
    included (they reach ``BENCH_pipeline.json`` and the breaker)."""
    from repro.fastpath import supervisor
    supervisor.drain_into(ctx.metrics)
    return ctx.metrics.to_dict()


def prepare_workload(spec: JobSpec) -> dict:
    """Frontend + profile for each workload (model-agnostic)."""
    with _job(spec) as ctx:
        for workload in spec.resolve_workloads():
            ctx.frontend_program(workload)
            ctx.profile(workload)
        return _finish(ctx)


def compile_emulate(spec: JobSpec) -> dict:
    """Compile for each model on the machine and emulate to a trace."""
    with _job(spec) as ctx:
        for workload in spec.resolve_workloads():
            for model in spec.models:
                ctx.compiled(workload, model, spec.machine)
                ctx.execution(workload, model, spec.machine)
        return _finish(ctx)


def simulate_point(spec: JobSpec) -> dict:
    """Every (workload, model) summary under the spec's full machine
    (compiling and emulating here only what the store lacks)."""
    with _job(spec) as ctx:
        for workload in spec.resolve_workloads():
            for model in spec.models:
                ctx.run_summary(workload, model, spec.machine)
        return _finish(ctx)
