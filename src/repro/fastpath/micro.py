"""Timeit microbenchmarks for the hot loops (``repro bench --micro``).

Six benchmarks, each pitting a baseline against its faster replacement
on identical work:

* **dispatch** — full interpreter run of a small predicated kernel
  (:func:`~repro.emu.interpreter.run_program` vs
  :func:`~repro.fastpath.interp.run_program_fast`), normalized per
  dynamic instruction;
* **trace-append** — recording one dynamic event
  (``list.append(TraceEvent(...))`` vs :meth:`TraceColumns.append`);
* **issue-loop** — cycle simulation of a recorded trace
  (:func:`~repro.sim.pipeline.simulate_trace` vs
  :func:`~repro.fastpath.simulate.simulate_columns`), normalized per
  trace event;
* **chunk-sim** — chunked cycle simulation of the same trace
  (:class:`~repro.fastpath.simulate.StreamSimulator` vs
  :class:`~repro.fastpath.vector.VectorSimulator`), normalized per
  trace event;
* **stitch** — the same comparison on deliberately tiny chunks, so
  chunk-boundary state stitching dominates, normalized per chunk;
* **specialize** — vector-backend specialization (tables rebuilt every
  run) amortized over a short vs a long trace: the speedup is the
  amortization factor trace length buys, not an engine comparison.

Everything runs on :mod:`timeit` from the standard library; the
``benchmarks/perf/`` scripts are thin wrappers over this module so the
numbers are reproducible from either entry point.
"""

from __future__ import annotations

import timeit
from dataclasses import dataclass

#: MiniC kernel with branchy, predicatable control flow and array
#: traffic — small enough for a sub-second legacy run, hot enough that
#: per-instruction dispatch cost dominates.
_KERNEL = """
int data[64];
int main() {
    int i; int j; int acc; int lim;
    acc = 0;
    for (i = 0; i < 200; i = i + 1) {
        lim = (i % 13) + 3;
        for (j = 0; j < lim; j = j + 1) {
            if (data[(i + j) % 64] > j) {
                acc = acc + data[j % 64];
            } else {
                acc = acc - j;
            }
            data[(i * 3 + j) % 64] = acc % 251;
        }
    }
    return acc % 100003;
}
"""


@dataclass
class MicroResult:
    """One legacy-vs-fastpath comparison."""

    name: str
    unit: str
    legacy_ns: float
    fast_ns: float

    @property
    def speedup(self) -> float:
        return self.legacy_ns / self.fast_ns if self.fast_ns else 0.0


def _time_per_unit(fn, units: int, repeat: int) -> float:
    """Best-of-``repeat`` nanoseconds per unit of work for ``fn()``."""
    best = min(timeit.repeat(fn, number=1, repeat=repeat))
    return best * 1e9 / max(units, 1)


def _compiled_kernel():
    from repro.analysis.profile import Profile
    from repro.machine.descriptor import fig8_machine
    from repro.toolchain import (Model, compile_for_model, frontend,
                                 schedule_for_machine)

    base = frontend(_KERNEL)
    profile = Profile.collect(base, max_steps=5_000_000)
    machine = fig8_machine()
    compiled = schedule_for_machine(
        compile_for_model(base, Model.FULLPRED, profile), machine)
    return compiled, machine


def bench_dispatch(repeat: int = 3) -> MicroResult:
    """Interpreter dispatch: legacy loop vs pre-decoded micro-ops."""
    from repro.emu.interpreter import run_program
    from repro.fastpath.decode import decode_program
    from repro.fastpath.interp import run_program_fast

    compiled, _ = _compiled_kernel()
    program = compiled.program
    decoded = decode_program(program)
    dyn = run_program_fast(program, decoded=decoded).dynamic_count
    legacy = _time_per_unit(lambda: run_program(program), dyn, repeat)
    fast = _time_per_unit(
        lambda: run_program_fast(program, decoded=decoded), dyn, repeat)
    return MicroResult("dispatch", "dynamic instr", legacy, fast)


def bench_trace_append(repeat: int = 3, events: int = 50_000) -> MicroResult:
    """Recording one dynamic event: TraceEvent list vs columnar arrays."""
    from repro.emu.trace import TraceEvent
    from repro.fastpath.columns import TraceColumns
    from repro.ir.instruction import Instruction
    from repro.ir.opcodes import Opcode

    inst = Instruction(Opcode.ADD, dest=None, srcs=())

    def legacy():
        out = []
        append = out.append
        for i in range(events):
            append(TraceEvent(inst, True, False, -1, None))

    def fast():
        cols = TraceColumns()
        append = cols.append
        for i in range(events):
            append(7, 1, -1, None)

    legacy_ns = _time_per_unit(legacy, events, repeat)
    fast_ns = _time_per_unit(fast, events, repeat)
    return MicroResult("trace-append", "event", legacy_ns, fast_ns)


def bench_issue_loop(repeat: int = 3) -> MicroResult:
    """Simulator issue loop: object trace vs columnar stream."""
    from repro.emu.interpreter import run_program
    from repro.fastpath.decode import decode_program
    from repro.fastpath.interp import run_program_fast
    from repro.fastpath.simulate import prepare_sim, simulate_columns
    from repro.sim.pipeline import simulate_trace

    compiled, machine = _compiled_kernel()
    program = compiled.program
    decoded = decode_program(program)
    events = run_program(program, collect_trace=True).trace
    cols = run_program_fast(program, collect_trace=True,
                            decoded=decoded).trace
    prep = prepare_sim(decoded, compiled.addresses)
    n = len(events)
    legacy = _time_per_unit(
        lambda: simulate_trace(events, compiled.addresses, machine),
        n, repeat)
    fast = _time_per_unit(
        lambda: simulate_columns(cols, prep, machine), n, repeat)
    return MicroResult("issue-loop", "trace event", legacy, fast)


def _vector_fixture():
    """Shared fixture for the vector benches: trace + sim tables."""
    from repro.fastpath.decode import decode_program
    from repro.fastpath.interp import run_program_fast
    from repro.fastpath.simulate import prepare_sim
    from repro.fastpath.vector import VectorSimPrep

    compiled, machine = _compiled_kernel()
    decoded = decode_program(compiled.program)
    cols = run_program_fast(compiled.program, collect_trace=True,
                            decoded=decoded).trace
    prep = prepare_sim(decoded, compiled.addresses, machine)
    return cols, prep, VectorSimPrep(prep), machine


def _feed_chunked(sim, cols, chunk_events: int) -> None:
    for chunk in cols.chunks(chunk_events):
        sim.feed(chunk)
    sim.finish()


def bench_chunk_simulate(repeat: int = 3) -> MicroResult:
    """Chunked cycle simulation: stream scalar loop vs vector backend."""
    from repro.fastpath.simulate import StreamSimulator
    from repro.fastpath.vector import VectorSimulator

    cols, prep, vprep, machine = _vector_fixture()
    vprep.native_tables()  # specialize once; chunk-sim measures feeds
    size = 1 << 14
    legacy = _time_per_unit(
        lambda: _feed_chunked(StreamSimulator(prep, machine), cols, size),
        len(cols), repeat)
    fast = _time_per_unit(
        lambda: _feed_chunked(VectorSimulator(vprep, machine), cols,
                              size),
        len(cols), repeat)
    return MicroResult("chunk-sim", "trace event", legacy, fast)


def bench_boundary_stitch(repeat: int = 3,
                          chunk_events: int = 256) -> MicroResult:
    """Tiny chunks, so per-boundary state stitching dominates."""
    from repro.fastpath.simulate import StreamSimulator
    from repro.fastpath.vector import VectorSimulator

    cols, prep, vprep, machine = _vector_fixture()
    vprep.native_tables()
    boundaries = max(1, -(-len(cols) // chunk_events))
    legacy = _time_per_unit(
        lambda: _feed_chunked(StreamSimulator(prep, machine), cols,
                              chunk_events),
        boundaries, repeat)
    fast = _time_per_unit(
        lambda: _feed_chunked(VectorSimulator(vprep, machine), cols,
                              chunk_events),
        boundaries, repeat)
    return MicroResult("stitch", "chunk", legacy, fast)


def bench_specialize(repeat: int = 3,
                     short_events: int = 2048) -> MicroResult:
    """Specialization cost vs trace length.

    Both sides rebuild the vector tables from the bare ``SimPrep``
    every run; the "legacy" side then simulates only a short prefix
    while the "fast" side simulates the whole trace.  The speedup is
    how much the per-event specialization premium shrinks as the trace
    grows — an amortization factor, not an engine-vs-engine number.
    """
    from repro.fastpath.vector import VectorSimPrep, VectorSimulator

    cols, prep, _, machine = _vector_fixture()
    short = next(cols.chunks(short_events))

    def run(trace):
        sim = VectorSimulator(VectorSimPrep(prep), machine)
        sim.feed(trace)
        sim.finish()

    legacy = _time_per_unit(lambda: run(short), len(short), repeat)
    fast = _time_per_unit(lambda: run(cols), len(cols), repeat)
    return MicroResult("specialize", "trace event", legacy, fast)


def run_all(repeat: int = 3) -> list[MicroResult]:
    return [bench_dispatch(repeat), bench_trace_append(repeat),
            bench_issue_loop(repeat), bench_chunk_simulate(repeat),
            bench_boundary_stitch(repeat), bench_specialize(repeat)]


def render(results: list[MicroResult]) -> str:
    lines = [f"{'benchmark':<14s}{'legacy':>12s}{'fastpath':>12s}"
             f"{'speedup':>9s}  unit",
             "-" * 55]
    for r in results:
        lines.append(f"{r.name:<14s}{r.legacy_ns:>10.0f}ns"
                     f"{r.fast_ns:>10.0f}ns{r.speedup:>8.2f}x"
                     f"  per {r.unit}")
    return "\n".join(lines)
