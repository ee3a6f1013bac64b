"""Acceptance: a warm artifact store serves figure runs compute-free.

The ISSUE's criterion: the second consecutive figure run against a warm
cache performs ZERO compilations and emulations — verified through the
hit/miss counters — and produces identical cycle counts, both serially
and through the process pool.
"""

import pytest

from repro.engine.metrics import STAGES
from repro.experiments.runner import ExperimentSuite
from repro.machine.descriptor import fig8_machine
from repro.toolchain import Model
from repro.workloads import get_workload

SCALE = 0.2


def _suite(cache_dir, jobs=1):
    return ExperimentSuite(workloads=[get_workload("wc"),
                                      get_workload("cmp")],
                           scale=SCALE, cache_dir=str(cache_dir),
                           jobs=jobs)


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One cold serial figure-8 run; returns (cache_dir, table)."""
    cache_dir = tmp_path_factory.mktemp("artifact-cache")
    suite = _suite(cache_dir)
    table = suite.figure8()
    assert suite.metrics.cache_misses > 0, "cold run must miss"
    assert suite.metrics.stages["compile"].invocations > 0
    return cache_dir, table


def _assert_compute_free(suite):
    assert suite.metrics.cache_misses == 0
    assert suite.metrics.hit_rate == 1.0
    for stage in STAGES:
        assert suite.metrics.stages[stage].invocations == 0, \
            f"warm run recomputed stage {stage}"


def test_warm_serial_run_is_compute_free_and_identical(cold_run):
    cache_dir, table = cold_run
    warm = _suite(cache_dir)
    assert warm.figure8() == table
    _assert_compute_free(warm)


def test_warm_parallel_run_is_compute_free_and_identical(cold_run):
    cache_dir, table = cold_run
    warm = _suite(cache_dir, jobs=4)
    assert warm.figure8() == table
    _assert_compute_free(warm)
    # Every DAG node was store-resident: nothing was even dispatched.
    assert warm.metrics.counts["jobs_dispatched"] == 0


def test_single_run_is_served_from_store(cold_run):
    cache_dir, _table = cold_run
    warm = _suite(cache_dir)
    run = warm.run("wc", Model.CMOV, fig8_machine())
    assert run.cycles > 0
    _assert_compute_free(warm)
    # Exactly one artifact load: the RunSummary itself.
    assert warm.metrics.cache_hits == 1


def test_cold_parallel_run_matches_serial(cold_run, tmp_path):
    _cache_dir, table = cold_run
    parallel = ExperimentSuite(workloads=[get_workload("wc")],
                               scale=SCALE, cache_dir=str(tmp_path),
                               jobs=2)
    parallel_table = parallel.figure8()
    assert parallel_table["wc"] == table["wc"]
    assert parallel.metrics.counts["jobs_dispatched"] > 0


def test_scale_change_cold_starts_the_cache(cold_run):
    cache_dir, _table = cold_run
    other = ExperimentSuite(workloads=[get_workload("wc")], scale=0.1,
                            cache_dir=str(cache_dir))
    other.run("wc", Model.SUPERBLOCK, fig8_machine())
    assert other.metrics.cache_misses > 0
