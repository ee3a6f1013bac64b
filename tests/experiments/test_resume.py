"""Journaled suite runs: resume skips verified work, recomputes the rest."""

import pytest

from repro.engine.recovery.journal import journal_path, replay_journal
from repro.machine.descriptor import fig8_machine
from repro.robustness.errors import ReproError
from repro.toolchain import Model
from repro.workloads import get_workload

from repro.experiments.runner import ExperimentSuite

SCALE = 0.25
#: 3 models on the evaluated machine + the scalar baseline
TASKS_PER_WORKLOAD = 4


def _suite(cache_dir, **kwargs):
    return ExperimentSuite(workloads=[get_workload("wc")], scale=SCALE,
                           cache_dir=str(cache_dir), **kwargs)


def _simulations(tasks):
    """The simulate tasks among journaled ones (the journal also holds
    the prepare and compile+emulate tasks feeding them)."""
    return {task for task in tasks if task.startswith("simulate:")}


def test_no_cache_means_no_journal():
    suite = ExperimentSuite(workloads=[get_workload("wc")], scale=SCALE)
    assert suite.journal is None and suite.run_id is None
    assert "disabled" in suite.journal_summary()


def test_run_writes_journal_records(tmp_path):
    suite = _suite(tmp_path)
    run_id = suite.run_id
    assert run_id is not None
    suite.speedups(fig8_machine())
    suite.close_journal()
    state = replay_journal(journal_path(tmp_path / "runs", run_id))
    simulations = _simulations(state.completed)
    assert len(simulations) == TASKS_PER_WORKLOAD
    assert all(task.startswith("simulate:wc:") for task in simulations)
    assert state.finished
    for task, artifacts in state.completed.items():
        assert task.startswith(("prepare:wc", "compile:wc:",
                                "simulate:wc:"))
        assert artifacts
        assert all(len(sha) == 64 for _, _, sha in artifacts)


def test_resume_full_run_recomputes_nothing(tmp_path):
    first = _suite(tmp_path)
    table = first.speedups(fig8_machine())
    run_id = first.run_id
    first.close_journal()

    resumed = _suite(tmp_path, run_id=run_id, resume=True)
    assert len(_simulations(resumed.resumed_verified)) == \
        TASKS_PER_WORKLOAD
    assert not resumed.resumed_invalid
    again = resumed.speedups(fig8_machine())
    resumed.close_journal()
    # Byte-identical figures, zero recompute of any stage.
    assert repr(again) == repr(table)
    for stage in ("compile", "emulate", "simulate"):
        assert resumed.metrics.stages[stage].invocations == 0
    assert "zero recompute" in resumed.journal_summary()


def test_resume_partial_run_executes_only_the_frontier(tmp_path):
    # A run that only got as far as the baseline before "dying".
    partial = _suite(tmp_path)
    run_id = partial.run_id
    partial.baseline_cycles("wc")
    partial.journal.close()  # no run-finish: the crash analogue

    resumed = _suite(tmp_path, run_id=run_id, resume=True)
    assert len(_simulations(resumed.resumed_verified)) == 1
    table = resumed.speedups(fig8_machine())
    resumed.close_journal()
    assert resumed.metrics.stages["simulate"].invocations == \
        TASKS_PER_WORKLOAD - 1
    assert set(table["wc"]) == set(Model)

    reference = _suite(tmp_path / "ref")
    assert repr(reference.speedups(fig8_machine())) == repr(table)
    reference.close_journal()


def test_resume_reverifies_artifacts_and_recomputes_corruption(tmp_path):
    first = _suite(tmp_path)
    run_id = first.run_id
    first.speedups(fig8_machine())
    first.close_journal()
    # Corrupt one completed stats artifact behind the journal's back.
    state = replay_journal(journal_path(tmp_path / "runs", run_id))
    task = next(iter(sorted(_simulations(state.completed))))
    kind, key, _sha = state.completed[task][0]
    assert kind == "stats"
    path = first.ctx.store._path(kind, key)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x10
    path.write_bytes(bytes(blob))

    resumed = _suite(tmp_path, run_id=run_id, resume=True)
    assert len(resumed.resumed_invalid) == 1
    assert task in resumed.resumed_invalid
    assert len(_simulations(resumed.resumed_verified)) == \
        TASKS_PER_WORKLOAD - 1
    table = resumed.speedups(fig8_machine())
    resumed.close_journal()
    assert resumed.metrics.stages["simulate"].invocations == 1
    assert set(table["wc"]) == set(Model)
    assert "1 failed verification" in resumed.journal_summary()


def test_resume_recomputes_a_corrupted_prepare_artifact(tmp_path):
    first = _suite(tmp_path)
    run_id = first.run_id
    table = first.speedups(fig8_machine())
    first.close_journal()
    # Prepare tasks declare their frontend + profile artifacts, so
    # resume re-verifies them like any other task's.
    state = replay_journal(journal_path(tmp_path / "runs", run_id))
    declared = {kind: key for kind, key, _sha
                in state.completed["prepare:wc"]}
    assert set(declared) == {"frontend", "profile"}
    path = first.ctx.store._path("profile", declared["profile"])
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x10
    path.write_bytes(bytes(blob))

    resumed = _suite(tmp_path, run_id=run_id, resume=True)
    assert set(resumed.resumed_invalid) == {"prepare:wc"}
    again = resumed.speedups(fig8_machine())
    resumed.close_journal()
    assert repr(again) == repr(table)
    # Only the invalid task ran again: one profile, nothing downstream.
    assert resumed.metrics.stages["profile"].invocations == 1
    for stage in ("compile", "emulate", "simulate"):
        assert resumed.metrics.stages[stage].invocations == 0
    assert resumed.ctx.store.contains("profile", declared["profile"])
    assert "1 failed verification" in resumed.journal_summary()


def test_serial_and_parallel_runs_journal_identical_task_sets(tmp_path):
    completed = []
    for jobs in (1, 2):
        cache_dir = tmp_path / f"jobs{jobs}"
        suite = _suite(cache_dir, jobs=jobs)
        suite.speedups(fig8_machine())
        suite.close_journal()
        completed.append(set(replay_journal(journal_path(
            cache_dir / "runs", suite.run_id)).completed))
    assert completed[0] == completed[1]
    # 1 prepare + 4 compile+emulate (3 models + the scalar baseline's)
    # + 4 simulate tasks.
    assert len(completed[0]) == 1 + 2 * TASKS_PER_WORKLOAD


def test_resume_unknown_run_id_raises_typed(tmp_path):
    with pytest.raises(ReproError, match="unknown run id"):
        _suite(tmp_path, run_id="R00000000-000000-dead", resume=True)


def test_resume_without_run_id_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="requires a run_id"):
        _suite(tmp_path, resume=True)


def test_failed_task_is_journaled(tmp_path):
    from repro.emu.memory import EmulationFault
    suite = _suite(tmp_path, max_steps=10)  # guaranteed step overrun
    run_id = suite.run_id
    with pytest.raises(EmulationFault):
        suite.baseline_cycles("wc")
    suite.close_journal(ok=False)
    state = replay_journal(journal_path(tmp_path / "runs", run_id))
    assert not state.completed
    assert len(state.failed) == 1
