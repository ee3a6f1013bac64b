"""Vector backend: equivalence, chunk invariance, sharding, metrics.

The vector engine (native C kernels with a pure-NumPy fallback) must be
byte-identical to the legacy engine on every observable, at every chunk
size, and at every ``jobs`` level.  The property test
reuses the differential fuzz generator's stress profiles, so the same
program shapes that hunt miscompiles also hunt engine drift.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.profile import Profile
from repro.emu import run_program
from repro.emu.memory import EmulationFault
from repro.engine.stages import PipelineContext
from repro.fastpath.decode import decode_program
from repro.fastpath.interp import run_program_fast
from repro.fastpath.simulate import (StreamSimulator, prepare_sim,
                                     simulate_columns)
from repro.fastpath.vector import (VectorSimPrep, VectorSimulator,
                                   emulate_and_simulate_vector,
                                   simulate_columns_vector)
from repro.fuzz.generator import PROFILE_ORDER, generate_case
from repro.machine.descriptor import MachineDescription, fig8_machine
from repro.sim.pipeline import simulate_trace
from repro.toolchain import (Model, compile_for_model, frontend,
                             run_compiled, schedule_for_machine)
from repro.workloads import get_workload

#: ExecutionResult fields every engine must reproduce exactly
_EXACT = ("return_value", "dynamic_count", "suppressed_count",
          "branch_outcomes", "block_counts", "output_signature",
          "output_count", "memory_digest")

_KERNEL = """
int data[32];
int main() {
    int i; int j; int acc;
    acc = 0;
    for (i = 0; i < 40; i = i + 1) {
        for (j = 0; j < (i % 7) + 2; j = j + 1) {
            if (data[(i + j) % 32] > j) {
                acc = acc + data[j % 32];
            } else {
                acc = acc - j;
            }
            data[(i * 3 + j) % 32] = acc % 251;
        }
    }
    return acc % 100003;
}
"""


@pytest.fixture(scope="module")
def kernel():
    """Compiled kernel + reference trace/stats, shared by this module."""
    base = frontend(_KERNEL)
    profile = Profile.collect(base)
    machine = fig8_machine()
    compiled = schedule_for_machine(
        compile_for_model(base, Model.FULLPRED, profile), machine)
    decoded = decode_program(compiled.program)
    execution = run_program_fast(compiled.program, collect_trace=True,
                                 decoded=decoded)
    prep = prepare_sim(decoded, compiled.addresses, machine)
    stats = simulate_columns(execution.trace, prep, machine)
    return compiled, decoded, execution, prep, machine, stats


def _assert_stats_equal(a, b, context=""):
    for field in dataclasses.fields(b):
        assert getattr(a, field.name) == getattr(b, field.name), \
            (field.name, context)


# ----- chunk-size invariance ------------------------------------------------

@pytest.mark.parametrize("chunk_events", [1, 7, 4096])
def test_chunk_size_invariance_native(kernel, chunk_events):
    compiled, _, execution, prep, machine, ref = kernel
    stats = simulate_columns_vector(execution.trace,
                                    VectorSimPrep(prep), machine,
                                    chunk_events=chunk_events)
    _assert_stats_equal(stats, ref, f"chunk={chunk_events}")


@pytest.mark.parametrize("chunk_events", [7, 4096])
def test_chunk_size_invariance_python_fallback(kernel, chunk_events):
    """The pure-NumPy path (no native kernel) is also chunk-invariant."""
    _, _, execution, prep, machine, ref = kernel
    sim = VectorSimulator(VectorSimPrep(prep), machine, native=False)
    for chunk in execution.trace.chunks(chunk_events):
        sim.feed(chunk)
    _assert_stats_equal(sim.finish(), ref, f"fallback chunk={chunk_events}")


def test_boundary_digest_chunk_invariant(kernel):
    """Carried simulator state is identical however the trace is cut."""
    _, _, execution, prep, machine, _ = kernel
    cut = len(execution.trace) // 2
    digests = []
    for sizes in ((cut,), (97,), (13,)):
        sim = VectorSimulator(VectorSimPrep(prep), machine)
        fed = 0
        for chunk in execution.trace.chunks(sizes[0]):
            if fed >= cut:
                break
            sim.feed(chunk)
            fed += len(chunk)
        if fed == cut:
            digests.append(sim.boundary_digest())
    assert len(set(digests)) <= 1


# ----- sharding -------------------------------------------------------------

def test_sharded_jobs_byte_identical(kernel):
    compiled, _, execution, prep, machine, ref = kernel
    for jobs in (2, 4):
        stats = simulate_columns_vector(
            execution.trace, VectorSimPrep(prep), machine,
            chunk_events=512, jobs=jobs, task_key="test")
        _assert_stats_equal(stats, ref, f"jobs={jobs}")


# ----- engine selection end-to-end ------------------------------------------

def test_run_compiled_engine_matrix(kernel):
    compiled, _, _, _, machine, _ = kernel
    results = {engine: run_compiled(compiled, machine=machine,
                                    engine=engine)
               for engine in ("legacy", "vector")}
    ref = results["legacy"]
    vec = results["vector"]
    assert vec.return_value == ref.return_value
    for field in _EXACT:
        assert getattr(vec.execution, field) == \
            getattr(ref.execution, field), field
    _assert_stats_equal(vec.stats, ref.stats, "vector")
    # the fused engine never materializes the trace; the oracle does
    assert vec.execution.trace is None
    assert ref.execution.trace is not None
    with pytest.raises(ValueError):
        run_compiled(compiled, machine=machine, engine="warp")


def test_pipeline_context_engines_agree():
    workload = get_workload("wc")
    machine = MachineDescription(issue_width=4)
    summaries = {}
    contexts = {}
    for engine in ("legacy", "vector"):
        ctx = PipelineContext(engine=engine, scale=0.3)
        summaries[engine] = ctx.run_summary(workload, Model.FULLPRED,
                                            machine)
        contexts[engine] = ctx
    ref = summaries["legacy"]
    summary = summaries["vector"]
    assert summary.return_value == ref.return_value
    assert summary.static_size == ref.static_size
    _assert_stats_equal(summary.stats, ref.stats, "vector")
    # both engines split emulate vs simulate wall time
    for ctx in contexts.values():
        assert ctx.metrics.stages["emulate"].invocations == 1
        assert ctx.metrics.stages["simulate"].invocations == 1
    assert contexts["legacy"].metrics.counts["vector_chunks_total"] == 0
    assert contexts["vector"].metrics.counts["vector_chunks_total"] >= 1
    data = contexts["vector"].metrics.to_dict()
    assert data["vector_chunks_total"] >= 1
    assert "vector_chunks_per_second" in data


def test_pipeline_context_vector_sharded_matches_serial():
    workload = get_workload("wc")
    machine = MachineDescription(issue_width=4)
    serial = PipelineContext(engine="vector", scale=0.3).run_summary(
        workload, Model.FULLPRED, machine)
    sharded = PipelineContext(engine="vector", scale=0.3,
                              jobs=2).run_summary(
        workload, Model.FULLPRED, machine)
    assert sharded.return_value == serial.return_value
    _assert_stats_equal(sharded.stats, serial.stats, "jobs=2")


def test_pipeline_context_rejects_unknown_engine():
    for engine in ("warp", "fastpath", "stream"):
        with pytest.raises(ValueError):
            PipelineContext(engine=engine)


def test_vector_is_the_default_engine(kernel):
    """Every entry point defaults to vector; only legacy/vector exist."""
    import inspect

    from repro.cli import build_parser
    from repro.experiments.runner import ExperimentSuite

    assert PipelineContext().engine == "vector"
    assert ExperimentSuite(workloads=[]).engine == "vector"
    assert inspect.signature(run_compiled).parameters["engine"].default \
        == "vector"
    assert set(inspect.signature(run_compiled).parameters) == {
        "compiled", "inputs", "machine", "max_steps", "watchdog", "engine"}
    compiled, _, _, _, machine, _ = kernel
    assert run_compiled(compiled, machine=machine).execution.trace is None

    parser = build_parser()
    for argv in (["run", "k.c"], ["bench", "wc"], ["report"],
                 ["figures"], ["sweep", "run", "grid.toml"]):
        assert parser.parse_args(argv).engine == "vector", argv
    for argv in (["run", "k.c", "--engine", "fastpath"],
                 ["run", "k.c", "--engine", "stream"],
                 ["run", "k.c", "--stream"],
                 ["report", "--engine", "fastpath"],
                 ["report", "--engine", "stream"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2, argv


# ----- fused emulate→simulate ----------------------------------------------

def test_fused_vector_matches_stream_sim(kernel):
    compiled, decoded, execution, prep, machine, ref = kernel
    vec, vstats = emulate_and_simulate_vector(
        compiled.program, compiled.addresses, machine, decoded=decoded)
    _assert_stats_equal(vstats, ref, "fused")
    for field in _EXACT:
        assert getattr(vec, field) == getattr(execution, field), field
    assert vec.trace is None


def test_python_fallback_simulator_matches_stream(kernel):
    _, _, execution, prep, machine, _ = kernel
    stream = StreamSimulator(prep, machine)
    vector = VectorSimulator(VectorSimPrep(prep), machine, native=False)
    for chunk in execution.trace.chunks(999):
        stream.feed(chunk)
        vector.feed(chunk)
    _assert_stats_equal(vector.finish(), stream.finish(), "fallback")


def test_native_emulator_fault_parity():
    source = "int main() { int a; a = 0; return 5 / a; }"
    base = frontend(source)
    empty = Profile(block_counts={}, branch_outcomes={})
    compiled = schedule_for_machine(
        compile_for_model(base, Model.SUPERBLOCK, empty), fig8_machine())
    with pytest.raises(EmulationFault) as fast_exc:
        run_program_fast(compiled.program, collect_trace=True)
    from repro.fastpath.native import run_program_native
    with pytest.raises(EmulationFault) as native_exc:
        run_program_native(compiled.program, collect_trace=True)
    assert str(native_exc.value) == str(fast_exc.value)


# ----- property test over the fuzz generator's stress profiles --------------

@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
@given(seed=st.integers(0, 2**31 - 1),
       index=st.integers(0, len(PROFILE_ORDER) - 1))
def test_vector_matches_legacy_on_fuzz_profiles(seed, index):
    """Legacy, fastpath and vector agree on cycle counts, stall
    breakdowns and store streams for every fuzz-profile program."""
    case = generate_case(seed, index)
    machine = fig8_machine()
    try:
        base = frontend(case.source)
        profile = Profile.collect(base, inputs=case.inputs,
                                  max_steps=300_000)
    except EmulationFault:
        return  # a legitimately faulting case proves nothing here
    for model in (Model.SUPERBLOCK, Model.FULLPRED):
        compiled = schedule_for_machine(
            compile_for_model(base, model, profile), machine)
        try:
            legacy = run_program(compiled.program, inputs=case.inputs,
                                 collect_trace=True, max_steps=600_000)
        except EmulationFault as exc:
            # fault parity: the vector engine must fault identically
            with pytest.raises(EmulationFault) as vexc:
                emulate_and_simulate_vector(
                    compiled.program, compiled.addresses, machine,
                    inputs=case.inputs, max_steps=600_000)
            assert str(vexc.value) == str(exc), (model, case.case_id)
            continue
        decoded = decode_program(compiled.program)
        fast = run_program_fast(compiled.program, inputs=case.inputs,
                                collect_trace=True, max_steps=600_000,
                                decoded=decoded)
        vec, vstats = emulate_and_simulate_vector(
            compiled.program, compiled.addresses, machine,
            inputs=case.inputs, max_steps=600_000, decoded=decoded)
        for field in _EXACT:
            assert getattr(fast, field) == getattr(legacy, field), \
                (field, model, case.case_id)
            assert getattr(vec, field) == getattr(legacy, field), \
                (field, model, case.case_id)
        legacy_stats = simulate_trace(legacy.trace, compiled.addresses,
                                      machine)
        _assert_stats_equal(vstats, legacy_stats,
                            (model, case.case_id))
        # chunk-size invariance on the recorded columnar trace
        prep = VectorSimPrep(prepare_sim(decoded, compiled.addresses,
                                         machine))
        for chunk_events in (7, 4096):
            chunked = simulate_columns_vector(
                fast.trace, prep, machine, chunk_events=chunk_events)
            _assert_stats_equal(chunked, legacy_stats,
                                (model, chunk_events, case.case_id))
