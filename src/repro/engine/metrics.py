"""Per-stage observability for the experiment pipeline.

A :class:`PipelineMetrics` instance rides along the pipeline (suite,
store, pool workers) and accumulates wall time per stage, cache hit/miss
counters per artifact kind, and a registry of scalar counters.  Workers
serialize their counters with :meth:`PipelineMetrics.to_dict` and the
parent folds them back in with :meth:`PipelineMetrics.merge_dict`, so
one object always holds the whole run's totals — the source of both the
report summary block and ``BENCH_pipeline.json``.

Every scalar counter is named once, in :data:`COUNTERS`: code bumps it
with ``metrics.add(name, n)`` and reads ``metrics.counts[name]``, and
serialization and merging loop over the table.  A new counter is one
:data:`COUNTERS` entry, plus a :data:`_RENDER` group to show it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.engine.keys import KINDS, SCHEMA_VERSION
from repro.robustness.errors import BaselineMismatchError

#: pipeline stages with timed compute: ``lower`` runs the model's passes
#: once per (workload, model), ``compile`` schedules that IR per machine
STAGES = ("frontend", "profile", "lower", "compile", "emulate",
          "simulate")

#: every scalar counter, in serialization order.  Names ending in
#: ``_seconds`` are float wall times (rounded to 6 places on output);
#: all others are integer counts.
COUNTERS = (
    "total_cycles_simulated",
    # process pool: jobs handed out, jobs lost to a crashed worker
    "jobs_dispatched", "worker_crashes",
    # recovery: scheduler retries and backoff, quarantines, pool rebuilds
    "task_retries", "retry_backoff_seconds", "quarantined_artifacts",
    "pool_rebuilds",
    # differential fuzzing: cases, findings before/after dedupe, time
    "fuzz_cases", "fuzz_findings", "fuzz_unique_findings", "fuzz_seconds",
    # service: submissions admitted, shed, single-flight deduped; breaker
    # trips (a gauge the server assigns); terminal jobs and their time
    "jobs_admitted", "jobs_shed", "jobs_deduped", "breaker_trips",
    "service_jobs_done", "service_seconds",
    # trace chunks consumed by the vector backend (0 on legacy)
    "vector_chunks_total",
    # sweeps: points evaluated, points served whole from the store, time
    "sweep_points_total", "sweep_points_cached", "sweep_seconds",
    # cluster: broken leases re-issued, zombies fenced, hedges, dead workers
    "shards_reassigned", "leases_fenced", "hedged_shards", "workers_lost",
    # native supervisor: demotions, parity failures, crashes, quarantines
    "engine_demotions", "native_parity_failures", "native_kernel_crashes",
    "kernel_cache_quarantined",
)

#: derived rates: (name, numerator, denominator, digits, value at a zero
#: denominator); a stage-name denominator means that stage's wall time.
#: A rate serializes after the last counter of its family (first word).
RATES = (
    ("fuzz_cases_per_second", "fuzz_cases", "fuzz_seconds", 3, 0.0),
    ("fuzz_dedupe_ratio", "fuzz_unique_findings", "fuzz_findings", 4, 1.0),
    ("service_jobs_per_second", "service_jobs_done", "service_seconds", 3,
     0.0),
    ("vector_chunks_per_second", "vector_chunks_total", "simulate", 3, 0.0),
    ("sweep_points_per_second", "sweep_points_total", "sweep_seconds", 3,
     0.0),
)

#: summary lines after the stage and cache lines: (label, the counters
#: that make it print — none: always — and a format over counts + rates)
_RENDER = (
    ("simulated", (), "{total_cycles_simulated} cycles"),
    ("jobs", ("jobs_dispatched",),
     "{jobs_dispatched} dispatched, {worker_crashes} worker crashes"),
    ("recovery", ("task_retries", "quarantined_artifacts", "pool_rebuilds"),
     "{task_retries} retries ({retry_backoff_seconds:.2f}s backoff), "
     "{quarantined_artifacts} quarantined, {pool_rebuilds} pool rebuilds"),
    ("fuzz", ("fuzz_cases",),
     "{fuzz_cases} cases in {fuzz_seconds:.2f}s "
     "({fuzz_cases_per_second:.1f}/s), {fuzz_findings} findings "
     "({fuzz_unique_findings} unique, dedupe ratio "
     "{fuzz_dedupe_ratio:.2f})"),
    ("service", ("jobs_admitted", "jobs_shed", "jobs_deduped"),
     "{jobs_admitted} admitted, {jobs_shed} shed, {jobs_deduped} "
     "deduped, {breaker_trips} breaker trips, {service_jobs_done} done "
     "in {service_seconds:.2f}s ({service_jobs_per_second:.2f}/s)"),
    ("vector", ("vector_chunks_total",),
     "{vector_chunks_total} chunks ({vector_chunks_per_second:.1f}/s "
     "over simulate time)"),
    ("sweep", ("sweep_points_total",),
     "{sweep_points_total} points ({sweep_points_cached} warm) in "
     "{sweep_seconds:.2f}s ({sweep_points_per_second:.2f}/s)"),
    ("cluster", ("shards_reassigned", "leases_fenced", "hedged_shards",
                 "workers_lost"),
     "{workers_lost} workers lost, {shards_reassigned} shards "
     "reassigned, {hedged_shards} hedged, {leases_fenced} leases fenced"),
    ("native", ("engine_demotions", "native_parity_failures",
                "native_kernel_crashes", "kernel_cache_quarantined"),
     "{engine_demotions} demotions, {native_kernel_crashes} kernel "
     "crashes, {native_parity_failures} parity failures, "
     "{kernel_cache_quarantined} kernel artifacts quarantined"),
)


#: counter name -> the rates serialized right after it
_LAST_OF_FAMILY = {name.split("_")[0]: name for name in COUNTERS}
_RATES_AFTER = {name: [r for r in RATES if name == _LAST_OF_FAMILY[
    r[0].split("_")[0]]] for name in COUNTERS}


@dataclass
class StageMetrics:
    """Compute work actually performed for one stage (misses only)."""

    invocations: int = 0
    wall_seconds: float = 0.0


@dataclass
class CacheMetrics:
    """Store traffic for one artifact kind."""

    hits: int = 0
    misses: int = 0
    #: artifact bytes served from the store (envelope included)
    bytes_read: int = 0
    #: artifact bytes persisted to the store (envelope included)
    bytes_written: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class PipelineMetrics:
    """Wall time, cache traffic and scalar counters for one run."""

    stages: dict[str, StageMetrics] = field(
        default_factory=lambda: {s: StageMetrics() for s in STAGES})
    cache: dict[str, CacheMetrics] = field(
        default_factory=lambda: {k: CacheMetrics() for k in KINDS})
    #: every :data:`COUNTERS` entry, bumped through :meth:`add`
    counts: dict[str, int | float] = field(default_factory=lambda: {
        n: 0.0 if n.endswith("_seconds") else 0 for n in COUNTERS})
    #: optional per-stage cProfile collector (see
    #: :mod:`repro.engine.profiling`); attached by the CLI's
    #: ``--profile`` flag, never serialized
    profiler: object | None = field(default=None, repr=False, compare=False)

    # ----- recording ----------------------------------------------------

    def add(self, name: str, n: int | float = 1) -> None:
        """Bump a registered counter; an unknown name raises KeyError."""
        self.counts[name] += n

    @contextmanager
    def timer(self, stage: str):
        start = time.perf_counter()
        try:
            with nullcontext() if self.profiler is None \
                    else self.profiler.record(stage):
                yield
        finally:
            m = self.stages[stage]
            m.invocations += 1
            m.wall_seconds += time.perf_counter() - start

    def record_hit(self, kind: str, nbytes: int = 0) -> None:
        c = self.cache[kind]
        c.hits += 1
        c.bytes_read += nbytes

    def record_miss(self, kind: str) -> None:
        self.cache[kind].misses += 1

    def record_write(self, kind: str, nbytes: int) -> None:
        self.cache[kind].bytes_written += nbytes

    def record_stage(self, stage: str, seconds: float,
                     invocations: int = 1) -> None:
        """Credit pre-measured wall time to a stage: the vector engine
        interleaves emulation and simulation in one call, so it times
        the simulator feeds itself instead of using :meth:`timer`."""
        m = self.stages.setdefault(stage, StageMetrics())
        m.invocations += invocations
        m.wall_seconds += seconds

    # ----- aggregation --------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return sum(c.hits for c in self.cache.values())

    @property
    def cache_misses(self) -> int:
        return sum(c.misses for c in self.cache.values())

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def rate(self, name: str) -> float:
        """The :data:`RATES` entry ``name``, unrounded."""
        _, num, den, _, empty = next(r for r in RATES if r[0] == name)
        divisor = self.counts[den] if den in self.counts \
            else getattr(self.stages.get(den), "wall_seconds", 0.0)
        return self.counts[num] / divisor if divisor > 0 else empty

    def merge_dict(self, data: dict) -> None:
        """Fold a worker's :meth:`to_dict` counters into this object."""
        for name, stage in data.get("stages", {}).items():
            m = self.stages.setdefault(name, StageMetrics())
            m.invocations += stage.get("invocations", 0)
            m.wall_seconds += stage.get("wall_seconds", 0.0)
        for kind, traffic in data.get("cache", {}).items():
            c = self.cache.setdefault(kind, CacheMetrics())
            for f in ("hits", "misses", "bytes_read", "bytes_written"):
                setattr(c, f, getattr(c, f) + traffic.get(f, 0))
        for name in COUNTERS:
            self.counts[name] += data.get(name, 0)

    # ----- output -------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "schema": SCHEMA_VERSION,
            "stages": {name: {"invocations": m.invocations,
                              "wall_seconds": round(m.wall_seconds, 6)}
                       for name, m in self.stages.items()},
            "cache": {kind: {"hits": c.hits, "misses": c.misses,
                             "hit_rate": round(c.hit_rate, 4),
                             "bytes_read": c.bytes_read,
                             "bytes_written": c.bytes_written}
                      for kind, c in self.cache.items()},
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.hit_rate, 4),
        }
        for name in COUNTERS:
            value = self.counts[name]
            data[name] = round(value, 6) if isinstance(value, float) \
                else value
            for rate, _, _, digits, _ in _RATES_AFTER[name]:
                data[rate] = round(self.rate(rate), digits)
        return data

    def write_json(self, path: str, run: dict | None = None) -> None:
        """Dump the counters as ``BENCH_pipeline.json``-style JSON.

        ``run`` is the identity of the run that produced them (see
        :func:`compare_stage_walltimes`); a bench file already at
        ``path`` keeps its identity when ``run`` is not given.  The file
        also keeps its timing trajectory: every write appends one dated
        entry (stage wall times + cycle volume) to a bounded ``history``
        list.
        """
        data = self.to_dict()
        existing = _read_json(path)
        run = run if run is not None else existing.get("run")
        if run is not None:
            data["run"] = run
        history = list(existing.get("history", []))
        history.append({
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "schema": data["schema"],
            "stages": {name: stage["wall_seconds"]
                       for name, stage in data["stages"].items()},
            "total_cycles_simulated": data["total_cycles_simulated"],
        })
        data["history"] = history[-_HISTORY_LIMIT:]
        with open(path, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def accumulate_json(self, path: str) -> None:
        """Fold the bench file at ``path`` (if any) into these counters,
        then :meth:`write_json` it back: fuzz campaigns and the service
        add their counters to a baseline instead of replacing it.
        """
        self.merge_dict(_read_json(path))
        self.write_json(path)

    def render(self) -> str:
        """Human-readable pipeline summary block."""
        lines = ["pipeline metrics", "----------------"]
        for name in STAGES:
            m = self.stages[name]
            lines.append(f"  {name:<9s} {m.invocations:>5d} computed "
                         f"in {m.wall_seconds:8.2f}s")
        total = self.cache_hits + self.cache_misses
        if total:
            lines.append(f"  cache     {self.cache_hits}/{total} hits "
                         f"({self.hit_rate * 100:.1f}%)")
            read = sum(c.bytes_read for c in self.cache.values())
            written = sum(c.bytes_written for c in self.cache.values())
            if read or written:
                lines.append(f"  bytes     {read / 1024:.1f} KiB read, "
                             f"{written / 1024:.1f} KiB written")
        else:
            lines.append("  cache     (disabled)")
        values = dict(self.counts)
        values.update((r[0], self.rate(r[0])) for r in RATES)
        for label, when, fmt in _RENDER:
            if not when or any(self.counts[n] for n in when):
                lines.append(f"  {label:<9s} " + fmt.format(**values))
        return "\n".join(lines)


#: bound on the trajectory carried inside a bench JSON file
_HISTORY_LIMIT = 50


def _read_json(path: str) -> dict:
    """An existing bench file's contents; empty when absent or corrupt."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def compare_stage_walltimes(current: dict, baseline: dict,
                            threshold: float = 0.25,
                            min_seconds: float = 0.05) -> list[str]:
    """Compare two bench-JSON dicts; return one line per regression.

    Both must carry the same ``run`` identity (subcommand, workloads,
    scale, engine); otherwise :class:`BaselineMismatchError` names the
    two.  A stage regresses when its per-invocation wall time exceeds the
    baseline's by more than ``threshold`` (fraction).  Stages cheaper
    than ``min_seconds`` total in the baseline are ignored — their
    timings are dominated by noise, not by the code under test.  An
    empty return value means no stage regressed.
    """
    current_run, baseline_run = current.get("run"), baseline.get("run")
    if baseline_run is None or current_run != baseline_run:
        raise BaselineMismatchError(
            f"baseline is a different run: this run is "
            f"{_describe_run(current_run)}, the baseline is "
            f"{_describe_run(baseline_run)}",
            current=current_run, baseline=baseline_run)
    regressions: list[str] = []
    for name, base in baseline.get("stages", {}).items():
        cur = current.get("stages", {}).get(name) or {}
        base_wall = base.get("wall_seconds", 0.0)
        base_inv = base.get("invocations", 0)
        cur_inv = cur.get("invocations", 0)
        if base_wall < min_seconds or not base_inv or not cur_inv:
            continue
        base_per = base_wall / base_inv
        cur_per = cur.get("wall_seconds", 0.0) / cur_inv
        if cur_per > base_per * (1.0 + threshold):
            regressions.append(
                f"{name}: {cur_per * 1000:.2f} ms/invocation vs baseline "
                f"{base_per * 1000:.2f} ms "
                f"(+{(cur_per / base_per - 1.0) * 100:.0f}%, threshold "
                f"+{threshold * 100:.0f}%)")
    return regressions


def _describe_run(run: dict | None) -> str:
    if run is None:
        return "unrecorded (no 'run' identity in the file)"
    workloads = run.get("workloads", [])
    named = ",".join(workloads) if len(workloads) <= 3 \
        else f"{len(workloads)} workloads"
    return (f"'{run.get('command')}' over {named} at scale "
            f"{run.get('scale')} with engine {run.get('engine')}")
