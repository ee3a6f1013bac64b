"""Experiment harness: regenerates every table and figure of the paper.

The :class:`ExperimentSuite` compiles each workload once per (model,
issue configuration), emulates it once per compiled binary, and then
simulates the recorded trace under as many machine configurations as
needed — exactly the paper's emulation-driven-simulation methodology,
with the emulation cost amortized across processor models.

The pipeline itself lives in :class:`repro.engine.stages.PipelineContext`:
stages are memoized under stable content digests and, when ``cache_dir``
is set, persisted to a content-addressed artifact store so a repeated
figure run performs zero compilations and emulations.

The suite owns the one job planner: figures, sweeps and service jobs
state their work as :class:`Need` objects, :meth:`ExperimentSuite.plan`
builds the prepare -> compile+emulate -> simulate DAG minus its stored
nodes, and :meth:`ExperimentSuite.execute_plan` runs it at any ``jobs``
(in-process when serial), feeding failures to the ``degrade``
quarantine.  Queries then only read; without a store they compute.

Speedups divide the 1-issue baseline (superblock) cycle count by the
evaluated configuration's cycle count, as in Section 4.1.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from repro.emu.memory import EmulationFault
from repro.emu.trace import ExecutionResult
from repro.engine import workers
from repro.engine.metrics import PipelineMetrics
from repro.engine.recovery.journal import RunJournal, verify_completed
from repro.engine.recovery.retry import RetryPolicy
from repro.engine.scheduler import Job, JobFailure, execute_jobs
from repro.engine.stages import PipelineContext
from repro.engine.store import ArtifactStore
from repro.engine.workers import JobSpec
from repro.ir.function import IRError
from repro.machine.descriptor import (CacheConfig, MachineDescription,
                                      fig8_machine, fig9_machine,
                                      fig10_machine, scalar_machine)
from repro.robustness.differential import assert_equivalent
from repro.robustness.errors import ReproError
from repro.robustness.report import WorkloadFailure, format_failures
from repro.sim.pipeline import SimulationStats
from repro.toolchain import Model, ToolchainOptions
from repro.workloads.base import Workload, all_workloads

_T = TypeVar("_T")


def scaled_fig11_machine() -> MachineDescription:
    """Figure 11 machine with caches scaled to the kernel workloads.

    The paper uses 64K caches against full SPEC footprints; our scaled
    kernels (KBs of code and data) fit entirely in 64K, so the real-cache
    experiment uses proportionally scaled caches (1K instruction / 2K
    data, same 64-byte lines and 12-cycle miss penalty).  EXPERIMENTS.md
    records this substitution.
    """
    m = MachineDescription(name="8-issue,1-branch,scaled-caches",
                           issue_width=8, branch_issue_limit=1)
    return m.with_real_caches(CacheConfig(size_bytes=1024),
                              CacheConfig(size_bytes=2048))


#: task ids of needs (figure triples, sweep points): what ``tasks_total``
#: and ``repro watch`` count, unlike the prepare/compile tasks
PROGRESS_PREFIXES = ("simulate:", "sweep:")


@dataclass(frozen=True)
class Need:
    """One journaled unit of planned work: simulate every (workload,
    model) pair under ``machine``."""

    task_id: str
    machine: MachineDescription
    workloads: tuple[Workload, ...]
    models: tuple[Model, ...]


@dataclass
class WorkloadRun:
    """Everything measured for one (workload, model, machine) triple."""

    workload: str
    model: Model
    machine: MachineDescription
    stats: SimulationStats
    return_value: int | float
    static_size: int

    @property
    def cycles(self) -> int:
        return self.stats.cycles


@dataclass
class ExperimentSuite:
    """Caches compilations/emulations across experiment queries.

    ``mode`` selects the failure policy: ``strict`` (default) propagates
    the first typed error; ``degrade`` quarantines the failing workload,
    records a :class:`WorkloadFailure` in :attr:`failures` and completes
    the remaining workloads.  ``paranoid`` additionally verifies every
    recorded trace's integrity, and ``wall_clock_budget`` (seconds, per
    emulation) arms the watchdog on top of ``max_steps``.

    ``cache_dir`` attaches the content-addressed artifact store (None
    keeps everything in-memory, as hermetic tests expect); ``jobs``
    selects the process-pool width for the job DAG (1 = serial,
    in-process).  Parallel execution communicates through the store, so
    ``jobs > 1`` without a ``cache_dir`` gets a throwaway temp store.

    Every store-backed run is journaled: a ``run_id`` (generated unless
    given) names an fsync'd JSONL journal under ``<cache_dir>/runs/``
    recording each task's start/finish/failure and artifact digests.
    ``resume=True`` replays an earlier run's journal, re-verifies every
    recorded artifact against the store (quarantining digest
    mismatches), and re-executes only the unfinished frontier — a
    SIGKILLed figure run resumes to byte-identical output with zero
    recompute of completed tasks.  ``retry`` bounds transient-failure
    retries in the scheduler (None: the default policy).
    """

    workloads: list[Workload] = field(default_factory=all_workloads)
    scale: float = 1.0
    options: ToolchainOptions | None = None
    max_steps: int = 20_000_000
    mode: str = "strict"
    paranoid: bool = False
    wall_clock_budget: float | None = None
    cache_dir: str | None = None
    jobs: int = 1
    #: execution backend for emulate/simulate ("vector" or "legacy");
    #: artifacts are engine-free, so mixing engines over one store is
    #: safe and byte-identical
    engine: str = "vector"
    run_id: str | None = None
    resume: bool = False
    retry: RetryPolicy | None = None
    #: extra keys merged into the journal's run-start meta (e.g. the
    #: sweep digest and task total that ``repro watch`` streams)
    journal_meta: dict | None = None

    def __post_init__(self):
        if self.mode not in ("strict", "degrade"):
            raise ValueError(f"unknown suite mode {self.mode!r} "
                             f"(expected 'strict' or 'degrade')")
        if self.options is None:
            self.options = ToolchainOptions()
        if self.jobs > 1 and self.cache_dir is None:
            self.cache_dir = tempfile.mkdtemp(prefix="repro-cache-")
        store = ArtifactStore(self.cache_dir) \
            if self.cache_dir is not None else None
        self.ctx = PipelineContext(
            scale=self.scale, options=self.options,
            max_steps=self.max_steps, paranoid=self.paranoid,
            wall_clock_budget=self.wall_clock_budget, store=store,
            engine=self.engine, jobs=self.jobs)
        #: the configuration every planned job runs under
        self._spec = JobSpec(
            cache_dir=self.cache_dir, scale=self.scale,
            max_steps=self.max_steps, options=self.options,
            paranoid=self.paranoid,
            wall_clock_budget=self.wall_clock_budget, engine=self.engine)
        self._by_name = {w.name: w for w in self.workloads}
        self.failures: list[WorkloadFailure] = []
        self._failed: set[str] = set()
        self.journal: RunJournal | None = None
        #: tasks the resumed journal proved complete (artifacts verified)
        self.resumed_verified: set[str] = set()
        #: task -> reason a journal completion claim failed verification
        self.resumed_invalid: dict[str, str] = {}
        self._journaled: set[str] = set()
        if store is not None:
            self._open_journal(store)

    # ----- run journal ----------------------------------------------------

    def _open_journal(self, store: ArtifactStore) -> None:
        runs_dir = Path(self.cache_dir) / "runs"
        if self.resume:
            if self.run_id is None:
                raise ValueError("resume=True requires a run_id")
            self.journal, state = RunJournal.resume(runs_dir, self.run_id)
            self.resumed_verified, self.resumed_invalid = \
                verify_completed(state, store)
            self._journaled |= self.resumed_verified
        else:
            meta = {"scale": self.scale, "mode": self.mode,
                    "jobs": self.jobs, "max_steps": self.max_steps,
                    "workloads": [w.name for w in self.workloads]}
            if self.journal_meta:
                meta.update(self.journal_meta)
            self.journal = RunJournal.create(runs_dir, self.run_id,
                                             meta=meta)
            self.run_id = self.journal.run_id

    def close_journal(self, ok: bool | None = None) -> None:
        """Append the run-finish record and release the file handle."""
        if self.journal is None:
            return
        self.journal.run_finish(not self.failures if ok is None else ok)
        self.journal.close()
        self.journal = None

    def journal_summary(self) -> str:
        """One-line resume/progress description for the CLI."""
        if self.run_id is None:
            return "journaling disabled (no cache dir)"
        done = len(self._journaled - self.resumed_verified)
        parts = [f"run {self.run_id}: {done} tasks completed"]
        if self.resume:
            parts.append(f"{len(self.resumed_verified)} resumed "
                         f"(journal-verified, zero recompute)")
            if self.resumed_invalid:
                parts.append(f"{len(self.resumed_invalid)} failed "
                             f"verification (recomputed)")
        return ", ".join(parts)

    def resumed_progress(self) -> int:
        """Journal-verified tasks of the kinds ``tasks_total`` counts."""
        return sum(1 for task in self.resumed_verified
                   if task.startswith(PROGRESS_PREFIXES))

    def _on_job_complete(self, job: Job, _result) -> None:
        """Scheduler callback: make each job's completion durable."""
        self._journaled.add(job.job_id)
        if self.journal is not None:
            store = self.ctx.store
            self.journal.task_finish(job.job_id, [
                (kind, key, store.digest_of(kind, key) or "")
                for kind, key in job.artifacts])

    @property
    def metrics(self) -> PipelineMetrics:
        """Per-stage wall time and cache hit/miss counters."""
        return self.ctx.metrics

    # ----- pipeline stages (delegated to the engine) ----------------------

    def _workload(self, name: str) -> Workload:
        return self._by_name[name]

    def _frontend(self, name: str):
        return self.ctx.frontend_program(self._workload(name))

    def _compile(self, name: str, model: Model,
                 machine: MachineDescription):
        return self.ctx.compiled(self._workload(name), model, machine)

    def _emulate(self, name: str, model: Model,
                 machine: MachineDescription) -> ExecutionResult:
        return self.ctx.execution(self._workload(name), model, machine)

    # ----- failure policy -------------------------------------------------

    def _guard(self, name: str, stage: str,
               thunk: Callable[[], _T]) -> _T | None:
        """Run one workload stage under the suite's failure policy.

        Returns None (and records the failure) in ``degrade`` mode;
        re-raises in ``strict`` mode.
        """
        try:
            return thunk()
        except (ReproError, EmulationFault, IRError) as exc:
            if self.mode != "degrade":
                raise
            self._failed.add(name)
            self.failures.append(WorkloadFailure(
                workload=name, stage=stage,
                error_type=type(exc).__name__, message=str(exc),
                artifact_path=getattr(exc, "artifact_path", None)))
            return None

    def failure_report(self) -> str:
        """Human-readable block describing degraded workloads."""
        return format_failures(self.failures)

    # ----- planning ---------------------------------------------------------

    def need(self, workload: Workload, model: Model,
             machine: MachineDescription) -> Need:
        """One figure triple (its own task, so ``degrade`` mode
        quarantines only the workload whose job failed)."""
        skey = self.ctx.stats_key(workload, model, machine)
        return Need(f"simulate:{workload.name}:{model.name}:{skey[:12]}",
                    machine, (workload,), (model,))

    def figure_needs(self, machine: MachineDescription,
                     models: tuple[Model, ...] = tuple(Model)
                     ) -> list[Need]:
        """Every workload under ``models`` on ``machine``."""
        return [self.need(w, model, machine)
                for w in self.workloads for model in models]

    def speedup_needs(self, machine: MachineDescription,
                      models: tuple[Model, ...] = tuple(Model)
                      ) -> list[Need]:
        """A speedup query: ``models`` on ``machine`` plus the scalar
        superblock baseline (the denominator)."""
        return self.figure_needs(machine, models) + self.figure_needs(
            scalar_machine(), (Model.SUPERBLOCK,))

    def plan(self, needs: Iterable[Need]) -> tuple[list[Job], set[str]]:
        """The CAS-keyed job DAG for ``needs``; returns (jobs, warm ids).

        Layers: ``prepare:{w}`` (frontend + profile), then
        ``compile:{w}:{model}:{key12}`` (compile + emulate, once per
        compile key, so machines sharing a schedule digest share one
        trace), then one simulate job per need.  A node whose artifacts
        are stored is warm and gets no job.  Prepare nodes are checked
        even for warm needs, so resume recomputes a corrupted profile.
        Workloads quarantined by ``degrade`` mode are left out.
        """
        ctx, store = self.ctx, self.ctx.store
        jobs: dict[str, Job] = {}
        warm: set[str] = set()

        def node(job_id: str, fn, workloads, models, machine,
                 deps: tuple[str, ...], stage: str,
                 artifacts) -> tuple[str, ...]:
            """Plan one node unless planned or warm; its id as a dep."""
            if job_id not in jobs and job_id not in warm:
                if all(store.contains(kind, key)
                       for kind, key in artifacts):
                    warm.add(job_id)
                else:
                    jobs[job_id] = Job(
                        job_id=job_id, fn=fn,
                        args=(self._spec.bind(workloads, models, machine),),
                        deps=deps, stage=stage, artifacts=tuple(artifacts),
                        workload=workloads[0].name if len(workloads) == 1
                        else None)
            return (job_id,) if job_id in jobs else ()

        def prepare(w: Workload) -> tuple[str, ...]:
            return node(f"prepare:{w.name}", workers.prepare_workload,
                        (w,), (), None, (), "prepare",
                        (("frontend", ctx.frontend_key(w)),
                         ("profile", ctx.profile_key(w))))

        def compile_emulate(w: Workload, model: Model,
                            machine: MachineDescription) -> tuple[str, ...]:
            key = ctx.compile_key(w, model, machine)
            return node(f"compile:{w.name}:{model.name}:{key[:12]}",
                        workers.compile_emulate, (w,), (model,), machine,
                        prepare(w), "compile+emulate",
                        (("compiled", key),
                         ("execution",
                          ctx.execution_key(w, model, machine))))

        for need in needs:
            if need.task_id in jobs or need.task_id in warm \
                    or any(w.name in self._failed for w in need.workloads):
                continue
            deps: dict[str, None] = {}
            stats = []
            for w in need.workloads:
                prepare(w)
                for model in need.models:
                    skey = ctx.stats_key(w, model, need.machine)
                    stats.append(("stats", skey))
                    if not store.contains("stats", skey):
                        deps.update(dict.fromkeys(
                            compile_emulate(w, model, need.machine)))
            node(need.task_id, workers.simulate_point, need.workloads,
                 need.models, need.machine, tuple(deps), "simulate", stats)
        return list(jobs.values()), warm

    def execute_plan(self, needs: Iterable[Need]) -> set[str]:
        """Plan ``needs``, then journal and execute the DAG (serially on
        this suite's own context); returns the warm ids.  Job counters
        merge into :attr:`metrics`, failures feed the failure policy.
        A no-op without a store: there is nothing to skip or journal."""
        if self.ctx.store is None:
            return set()
        jobs, warm = self.plan(needs)
        if not jobs:
            return warm
        self.metrics.add("jobs_dispatched", len(jobs))
        if self.journal is not None:
            self.journal.task_starts([job.job_id for job in jobs])
        workers.adopt(self._spec, self.ctx)
        outcome = execute_jobs(jobs, max_workers=self.jobs,
                               retry=self.retry, metrics=self.metrics,
                               on_complete=self._on_job_complete,
                               fail_fast=self.mode != "degrade")
        for counters in outcome.results.values():
            self.metrics.merge_dict(counters)
        self._absorb_job_failures(outcome.failures)
        return warm

    def _absorb_job_failures(self, failures: list[JobFailure]) -> None:
        """Map scheduler failures onto the suite's failure policy."""
        for failure in failures:
            if failure.crashed:
                self.metrics.add("worker_crashes")
            if self.journal is not None:
                self.journal.task_fail(
                    failure.job_id, failure.error_type, failure.message,
                    transient=failure.transient, attempt=failure.attempts)
            if self.mode != "degrade":
                if failure.exception is not None:
                    raise failure.exception
                raise ReproError(
                    f"worker crashed during {failure.stage} of "
                    f"{failure.workload}: {failure.message}")
            if failure.workload is not None:
                self._failed.add(failure.workload)
            self.failures.append(WorkloadFailure(
                workload=failure.workload or "?", stage=failure.stage,
                error_type=failure.error_type, message=failure.message))

    # ----- public queries ----------------------------------------------------

    def run(self, name: str, model: Model,
            machine: MachineDescription) -> WorkloadRun:
        """Read one (workload, model, machine) triple, planning it first
        unless stored: a warm store serves it with no compilation,
        emulation or simulation."""
        w = self._workload(name)
        store = self.ctx.store
        if store is not None and not store.contains(
                "stats", self.ctx.stats_key(w, model, machine)):
            self.execute_plan([self.need(w, model, machine)])
        summary = self.ctx.run_summary(w, model, machine)
        return WorkloadRun(workload=name, model=model, machine=machine,
                           stats=summary.stats,
                           return_value=summary.return_value,
                           static_size=summary.static_size)

    def baseline_cycles(self, name: str) -> int:
        """1-issue superblock cycles — the speedup denominator."""
        return self.run(name, Model.SUPERBLOCK, scalar_machine()).cycles

    def check_model_agreement(self, name: str,
                              machine: MachineDescription) -> None:
        """All three models must compute observably identical programs.

        Beyond the scalar return value, the differential oracle compares
        the dynamic output (store) stream and the final global memory
        state; raises :class:`ModelDivergenceError` naming the divergent
        model and observable.
        """
        reference = self._emulate(name, Model.SUPERBLOCK, machine)
        for model in (Model.CMOV, Model.FULLPRED):
            candidate = self._emulate(name, model, machine)
            assert_equivalent(candidate, reference, workload=name,
                              model=model.value,
                              reference_model=Model.SUPERBLOCK.value)

    def validate_models(self, machine: MachineDescription
                        ) -> dict[str, bool]:
        """Run the differential oracle over every workload.

        In ``degrade`` mode divergent workloads are recorded in
        :attr:`failures` and marked False; ``strict`` mode raises on the
        first divergence.
        """
        outcome: dict[str, bool] = {}
        for w in self.workloads:
            if w.name in self._failed:
                continue
            ok = self._guard(
                w.name, "differential",
                lambda w=w: (self.check_model_agreement(w.name, machine),
                             True)[1])
            outcome[w.name] = bool(ok)
        return outcome

    # ----- figure/table data ----------------------------------------------------

    def speedups(self, machine: MachineDescription
                 ) -> dict[str, dict[Model, float]]:
        """Per-benchmark speedups vs the 1-issue baseline (Figs 8-11)."""
        self.execute_plan(self.speedup_needs(machine))
        table: dict[str, dict[Model, float]] = {}
        for w in self.workloads:
            if w.name in self._failed:
                continue
            row = self._guard(w.name, "speedup", lambda w=w: {
                model: self.baseline_cycles(w.name)
                / self.run(w.name, model, machine).cycles
                for model in Model})
            if row is not None:
                table[w.name] = row
        return table

    def dynamic_counts(self) -> dict[str, dict[Model, int]]:
        """Executed dynamic instruction counts (Table 2 data)."""
        machine = fig8_machine()
        self.execute_plan(self.figure_needs(machine))
        table: dict[str, dict[Model, int]] = {}
        for w in self.workloads:
            if w.name in self._failed:
                continue
            row = self._guard(w.name, "dynamic-counts", lambda w=w: {
                model: self.run(w.name, model,
                                machine).stats.executed_instructions
                for model in Model})
            if row is not None:
                table[w.name] = row
        return table

    def branch_stats(self, machine: MachineDescription | None = None
                     ) -> dict[str, dict[Model, tuple[int, int, float]]]:
        """(branches, mispredictions, rate) per model (Table 3 data)."""
        if machine is None:
            machine = fig8_machine()
        self.execute_plan(self.figure_needs(machine))

        def row_for(w: Workload) -> dict[Model, tuple[int, int, float]]:
            row = {}
            for model in Model:
                stats = self.run(w.name, model, machine).stats
                row[model] = (stats.branches, stats.mispredictions,
                              stats.misprediction_rate)
            return row

        table: dict[str, dict[Model, tuple[int, int, float]]] = {}
        for w in self.workloads:
            if w.name in self._failed:
                continue
            row = self._guard(w.name, "branch-stats",
                              lambda w=w: row_for(w))
            if row is not None:
                table[w.name] = row
        return table

    # ----- the paper's experiments by number ------------------------------------

    def figure8(self):
        return self.speedups(fig8_machine())

    def figure9(self):
        return self.speedups(fig9_machine())

    def figure10(self):
        return self.speedups(fig10_machine())

    def figure11(self):
        return self.speedups(scaled_fig11_machine())


def mean_speedups(table: dict[str, dict[Model, float]]
                  ) -> dict[Model, float]:
    """Arithmetic mean across benchmarks (the paper's averages)."""
    out: dict[Model, float] = {}
    for model in Model:
        values = [row[model] for row in table.values()]
        out[model] = sum(values) / len(values) if values else 0.0
    return out
