"""Campaign runner: determinism, triage integration, corpus output."""

from __future__ import annotations

import pytest

import repro.fuzz.executor as executor_mod
from repro.engine.metrics import PipelineMetrics
from repro.fuzz.runner import FuzzChunkSpec, fuzz_chunk, run_campaign

from tests.fuzz.conftest import sabotaged_compile


def test_chunk_worker_is_self_contained(fast_config):
    spec = FuzzChunkSpec(master_seed=0xfeed, start_index=0, count=2,
                         config=fast_config)
    reports = fuzz_chunk(spec)
    assert [r["case_id"] for r in reports] == \
        ["case-feed-00000", "case-feed-00001"]
    assert all(r["verdict"] == "ok" for r in reports)


def test_campaign_is_deterministic(fast_config, tmp_path):
    kwargs = dict(config=fast_config, corpus_dir=tmp_path,
                  save_findings=False, reduce_findings=False)
    a = run_campaign(0xfeed, 3, **kwargs)
    b = run_campaign(0xfeed, 3, **kwargs)
    assert [r.to_dict() for r in a.reports] != []
    strip = lambda rs: [{k: v for k, v in r.to_dict().items()
                         if k != "wall_seconds"} for r in rs]
    assert strip(a.reports) == strip(b.reports)


def test_campaign_records_metrics(fast_config, tmp_path):
    metrics = PipelineMetrics()
    result = run_campaign(0xfeed, 2, config=fast_config,
                          corpus_dir=tmp_path, save_findings=False,
                          metrics=metrics)
    assert metrics.counts["fuzz_cases"] == 2
    assert metrics.counts["fuzz_findings"] == result.finding_count == 0
    assert metrics.counts["fuzz_seconds"] > 0
    assert metrics.rate("fuzz_cases_per_second") > 0
    data = metrics.to_dict()
    assert data["fuzz_cases"] == 2
    assert data["fuzz_dedupe_ratio"] == 1.0
    merged = PipelineMetrics()
    merged.merge_dict(data)
    assert merged.counts["fuzz_cases"] == 2


def test_injected_findings_are_deduped_reduced_and_saved(
        fast_config, tmp_path, monkeypatch):
    # Serial campaign (jobs=1) runs chunks in-process, so the
    # monkeypatched compiler sabotage applies to every case.
    monkeypatch.setattr(executor_mod, "compile_for_model",
                        sabotaged_compile)
    result = run_campaign(0xbadc0de, 4, jobs=1, config=fast_config,
                          corpus_dir=tmp_path)
    assert result.finding_count >= 2
    assert result.unique_findings <= result.finding_count
    assert len(result.saved_entries) == result.unique_findings
    for key, bucket in result.buckets.items():
        entry_dir = tmp_path / f"finding-{key}"
        assert (entry_dir / "case.c").is_file()
        assert (entry_dir / "meta.json").is_file()
        reduced_source, stats = result.reductions[key]
        assert stats.reduced_lines <= stats.original_lines
        assert bucket.signature.kind == "divergence"


def test_progress_callback_sees_every_case(fast_config, tmp_path):
    seen = []
    run_campaign(0xfeed, 3, config=fast_config, corpus_dir=tmp_path,
                 save_findings=False, progress=seen.append)
    assert sum(seen) == 3
