"""Real-pipeline service execution: determinism, resume, deadlines."""

import json

import pytest

from repro.robustness.errors import DeadlineExceededError
from repro.service.client import ServiceClient
from repro.service.executor import execute_job
from repro.service.quota import QuotaConfig
from repro.service.server import ServiceConfig, ServiceRunner
from repro.service.singleflight import run_id_for
from repro.service.spec import ServiceJobSpec

SPEC = ServiceJobSpec(kind="bench", workload="wc", scale=0.25,
                      max_steps=2_000_000)


def test_execution_is_byte_deterministic_across_stores(tmp_path):
    a = execute_job(SPEC, str(tmp_path / "a"), "RUN-A")
    b = execute_job(SPEC, str(tmp_path / "b"), "RUN-B")
    assert a.result_json == b.result_json
    result = json.loads(a.result_json)
    assert result["kind"] == "bench"
    assert set(result["workloads"]["wc"]["models"]) == \
        {"superblock", "cmov", "fullpred"}
    speedup = result["workloads"]["wc"]["models"]["fullpred"]["speedup"]
    assert speedup > 0


def test_second_execution_resumes_with_zero_recompute(tmp_path):
    run_id = run_id_for(SPEC.request_digest())
    first = execute_job(SPEC, str(tmp_path), run_id)
    again = execute_job(SPEC, str(tmp_path), run_id)
    assert again.result_json == first.result_json
    # 3 models + the 1-issue baseline: all four journal-verified.
    assert again.resumed_tasks == 4
    assert again.counters["stages"].get(
        "simulate", {}).get("invocations", 0) == 0


def test_expired_deadline_fails_typed_before_execution(tmp_path):
    hurried = ServiceJobSpec(kind="bench", workload="wc", scale=0.25,
                             max_steps=2_000_000, deadline=10.0)
    with pytest.raises(DeadlineExceededError) as exc:
        execute_job(hurried, str(tmp_path), "RUN-X",
                    deadline_remaining=-1.0)
    assert exc.value.exit_code == 21


def test_service_end_to_end_with_real_pipeline(tmp_path):
    """Two identical submissions against a live server running the
    real pipeline: one execution, byte-identical canonical results."""
    config = ServiceConfig(
        cache_dir=str(tmp_path), workers=1,
        quota=QuotaConfig(rate=100, burst=100, max_concurrent=100))
    with ServiceRunner(config) as runner:
        client = ServiceClient("127.0.0.1", runner.port)
        first = client.submit(SPEC, tenant="alice")
        second = client.submit(SPEC, tenant="bob")
        assert second["deduped"] is True
        assert second["job"]["job_id"] == first["job"]["job_id"]
        result = client.result(first["job"]["job_id"], timeout=120)
        assert result == client.result(second["job"]["job_id"])
        metrics = client.stats()["metrics"]
        assert metrics["jobs_admitted"] == 1
        assert metrics["jobs_deduped"] == 1
        assert metrics["service_jobs_done"] == 1
        assert json.loads(result)["workloads"]["wc"]["baseline_cycles"] \
            > 0


_SOURCE = """
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 300; i = i + 1) {
    if (i % 3 == 0) s = s + i;
    else s = s - 1;
  }
  return s;
}
"""


@pytest.mark.parametrize("spec", [
    SPEC,
    ServiceJobSpec(kind="source", source=_SOURCE, max_steps=2_000_000),
], ids=["bench", "source"])
def test_bench_and_source_jobs_plan_at_any_jobs(tmp_path, monkeypatch,
                                                spec):
    """Bench and source jobs go through the planned DAG: identical
    results serially and across the pool, and ``jobs=2`` really
    dispatches the plan to pool workers (source workloads included,
    which the registry cannot rebuild by name)."""
    from repro.engine import scheduler
    pooled_jobs = []
    real_pool = scheduler._execute_pool

    def spy(order, *args):
        pooled_jobs.extend(job.job_id for job in order)
        return real_pool(order, *args)

    monkeypatch.setattr(scheduler, "_execute_pool", spy)
    serial = execute_job(spec, str(tmp_path / "serial"), "RUN-1", jobs=1)
    assert not pooled_jobs
    assert serial.counters["jobs_dispatched"] > 0
    pooled = execute_job(spec, str(tmp_path / "pooled"), "RUN-2", jobs=2)
    assert pooled.result_json == serial.result_json
    assert any(job.startswith("simulate:") for job in pooled_jobs)
    assert pooled.counters["jobs_dispatched"] == \
        serial.counters["jobs_dispatched"]
