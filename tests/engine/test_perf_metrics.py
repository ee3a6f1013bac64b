"""Performance observability: byte accounting, regression comparison,
timing trajectories, per-stage profiling."""

import json

import pytest

from repro.engine.keys import KINDS, stable_digest
from repro.engine.metrics import (COUNTERS, STAGES, PipelineMetrics,
                                  compare_stage_walltimes)
from repro.engine.profiling import StageProfiler
from repro.engine.store import ArtifactStore

KEY = stable_digest("perf", "inputs")


# ----- byte accounting -----------------------------------------------------

def test_store_counts_bytes_written_and_read(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("stats", KEY, {"cycles": 42})
    written = store.metrics.cache["stats"].bytes_written
    assert written > 0
    store.get("stats", KEY)
    assert store.metrics.cache["stats"].bytes_read == written


def test_store_stats_reports_bytes_per_kind(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("stats", KEY, {"cycles": 42})
    store.put("execution", KEY, list(range(500)))
    stats = store.stats()
    assert stats.bytes_by_kind["stats"] > 0
    assert stats.bytes_by_kind["execution"] > stats.bytes_by_kind["stats"]
    assert stats.total_bytes == sum(stats.bytes_by_kind.values())
    assert "KiB" in stats.render()


def test_metrics_merge_and_json_carry_byte_counters(tmp_path):
    parent = PipelineMetrics()
    worker = PipelineMetrics()
    worker.record_hit("stats", 100)
    worker.record_write("stats", 250)
    parent.merge_dict(worker.to_dict())
    assert parent.cache["stats"].bytes_read == 100
    assert parent.cache["stats"].bytes_written == 250
    assert parent.to_dict()["cache"]["stats"]["bytes_written"] == 250


# ----- counter registry contract -----------------------------------------

#: ``to_dict()`` keys in order.  CI's service-smoke and cluster-smoke jobs
#: read jobs_admitted, jobs_deduped, jobs_shed, service_jobs_done,
#: breaker_trips, shards_reassigned, leases_fenced, hedged_shards and
#: workers_lost by name from ``--bench-json`` files.
PINNED_KEYS = [
    "schema", "stages", "cache", "cache_hits", "cache_misses",
    "cache_hit_rate", "total_cycles_simulated", "jobs_dispatched",
    "worker_crashes", "task_retries", "retry_backoff_seconds",
    "quarantined_artifacts", "pool_rebuilds", "fuzz_cases",
    "fuzz_findings", "fuzz_unique_findings", "fuzz_seconds",
    "fuzz_cases_per_second", "fuzz_dedupe_ratio", "jobs_admitted",
    "jobs_shed", "jobs_deduped", "breaker_trips", "service_jobs_done",
    "service_seconds", "service_jobs_per_second", "vector_chunks_total",
    "vector_chunks_per_second", "sweep_points_total",
    "sweep_points_cached", "sweep_seconds", "sweep_points_per_second",
    "shards_reassigned", "leases_fenced", "hedged_shards", "workers_lost",
    "engine_demotions", "native_parity_failures", "native_kernel_crashes",
    "kernel_cache_quarantined",
]

#: ``render()`` of :func:`_populated`, as the hand-written renderer
#: that preceded the registry printed it
GOLDEN_RENDER = """\
pipeline metrics
----------------
  frontend      1 computed in     0.50s
  profile       2 computed in     1.50s
  lower         3 computed in     2.50s
  compile       4 computed in     3.50s
  emulate       5 computed in     4.50s
  simulate      6 computed in     5.50s
  cache     15/35 hits (42.9%)
  bytes     15.0 KiB read, 12.5 KiB written
  simulated 1 cycles
  jobs      2 dispatched, 3 worker crashes
  recovery  4 retries (5.25s backoff), 6 quarantined, 7 pool rebuilds
  fuzz      8 cases in 11.25s (0.7/s), 9 findings (10 unique, dedupe \
ratio 1.11)
  service   12 admitted, 13 shed, 14 deduped, 15 breaker trips, 16 done \
in 17.25s (0.93/s)
  vector    18 chunks (3.3/s over simulate time)
  sweep     19 points (20 warm) in 21.25s (0.89/s)
  cluster   25 workers lost, 22 shards reassigned, 24 hedged, 23 leases \
fenced
  native    26 demotions, 28 kernel crashes, 27 parity failures, 29 \
kernel artifacts quarantined"""


def _populated() -> PipelineMetrics:
    """Every stage, cache kind and counter at a distinct non-zero value
    (``*_seconds`` counters as floats)."""
    metrics = PipelineMetrics()
    for i, stage in enumerate(STAGES):
        metrics.record_stage(stage, i + 0.5, invocations=i + 1)
    for i, kind in enumerate(KINDS):
        for _ in range(i + 1):
            metrics.record_hit(kind, 1024)
        for _ in range(i + 2):
            metrics.record_miss(kind)
        metrics.record_write(kind, 512 * (i + 3))
    for i, name in enumerate(COUNTERS):
        metrics.add(name, i + 1.25 if name.endswith("_seconds") else i + 1)
    return metrics


def test_to_dict_keys_are_pinned():
    assert list(PipelineMetrics().to_dict()) == PINNED_KEYS
    assert list(_populated().to_dict()) == PINNED_KEYS


def test_every_counter_survives_a_merge_round_trip():
    original = _populated()
    merged = PipelineMetrics()
    merged.merge_dict(json.loads(json.dumps(original.to_dict())))
    assert merged.counts == original.counts
    for name, value in merged.counts.items():
        assert value, name
        assert type(value) is type(original.counts[name]), name
        assert isinstance(value, float) == name.endswith("_seconds"), name
    assert merged.to_dict() == original.to_dict()


def test_render_of_every_counter_matches_golden():
    assert _populated().render() == GOLDEN_RENDER


def test_unknown_counter_raises():
    with pytest.raises(KeyError):
        PipelineMetrics().add("no_such_counter")


def test_accumulate_json_folds_the_existing_file(tmp_path):
    path = tmp_path / "bench.json"
    first = PipelineMetrics()
    first.add("fuzz_cases", 3)
    first.accumulate_json(str(path))
    second = PipelineMetrics()
    second.add("fuzz_cases", 4)
    second.accumulate_json(str(path))
    data = json.loads(path.read_text())
    assert data["fuzz_cases"] == 7
    assert len(data["history"]) == 2


# ----- regression comparison ----------------------------------------------

def _bench(walls: dict[str, float], invocations: int = 10) -> dict:
    return {"stages": {name: {"wall_seconds": wall,
                              "invocations": invocations}
                       for name, wall in walls.items()}}


def test_compare_flags_only_regressed_stages():
    baseline = _bench({"emulate": 1.0, "simulate": 1.0})
    current = _bench({"emulate": 1.5, "simulate": 1.1})
    regressions = compare_stage_walltimes(current, baseline)
    assert len(regressions) == 1
    assert regressions[0].startswith("emulate:")


def test_compare_normalizes_per_invocation():
    # Twice the wall time for twice the work is not a regression.
    baseline = _bench({"emulate": 1.0}, invocations=10)
    current = _bench({"emulate": 2.0}, invocations=20)
    assert compare_stage_walltimes(current, baseline) == []


def test_compare_ignores_noise_floor_stages():
    baseline = _bench({"frontend": 0.001})
    current = _bench({"frontend": 0.010})
    assert compare_stage_walltimes(current, baseline) == []


def test_compare_tolerates_missing_stages():
    baseline = _bench({"emulate": 1.0, "bespoke": 1.0})
    assert compare_stage_walltimes(_bench({"emulate": 1.0}),
                                   baseline) == []


def test_compare_skips_stages_the_baseline_lacks():
    # A baseline written before the ``lower`` stage existed gates only
    # the stages it records, however slow the new one is.
    baseline = _bench({"compile": 1.0})
    current = _bench({"lower": 50.0, "compile": 1.0})
    assert compare_stage_walltimes(current, baseline) == []
    assert compare_stage_walltimes(current, current) == []


def test_committed_baseline_replayed_against_itself_passes(capsys):
    """A vector run at exactly baseline speed passes ``--compare``: the
    gate is the 25% per-stage regression check and nothing else."""
    import argparse
    from pathlib import Path

    from repro.cli import _print_metrics

    baseline = Path(__file__).resolve().parents[2] / "BENCH_pipeline.json"
    metrics = PipelineMetrics()
    metrics.merge_dict(json.loads(baseline.read_text()))
    args = argparse.Namespace(engine="vector", compare=str(baseline))
    assert _print_metrics(metrics, args) == 0
    assert "no stage regressions" in capsys.readouterr().err


# ----- timing trajectory ---------------------------------------------------

def test_write_json_appends_dated_history(tmp_path):
    path = tmp_path / "bench.json"
    metrics = PipelineMetrics()
    with metrics.timer("emulate"):
        pass
    metrics.write_json(str(path))
    metrics.write_json(str(path))
    data = json.loads(path.read_text())
    assert len(data["history"]) == 2
    for entry in data["history"]:
        assert "date" in entry
        assert "emulate" in entry["stages"]


def test_write_json_survives_pre_history_baseline(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"stages": {}}))
    metrics = PipelineMetrics()
    metrics.write_json(str(path))
    assert len(json.loads(path.read_text())["history"]) == 1


# ----- per-stage profiling -------------------------------------------------

def test_stage_profiler_writes_pstats_and_summary(tmp_path):
    metrics = PipelineMetrics()
    metrics.profiler = StageProfiler(top=5)
    with metrics.timer("emulate"):
        stable_digest("some", "work")
    with metrics.timer("simulate"):
        stable_digest("other", "work")
    written = metrics.profiler.write(tmp_path)
    names = {p.rsplit("/", 1)[-1] for p in written}
    assert names == {"profile_emulate.pstats", "profile_simulate.pstats",
                     "profile_summary.txt"}
    summary = (tmp_path / "profile_summary.txt").read_text()
    assert "stage: emulate" in summary and "stage: simulate" in summary
    assert "stable_digest" in summary


def test_profiler_accumulates_across_invocations(tmp_path):
    metrics = PipelineMetrics()
    metrics.profiler = StageProfiler()
    for _ in range(3):
        with metrics.timer("emulate"):
            stable_digest("x")
    assert metrics.profiler.stages == ["emulate"]
    assert metrics.stages["emulate"].invocations == 3
