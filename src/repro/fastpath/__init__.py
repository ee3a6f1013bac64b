"""Fastpath: pre-decoded micro-ops, columnar traces, and the vector engine.

The legacy object-graph interpreter (``repro.emu.interpreter``) and trace
simulator (``repro.sim.pipeline``) pay per-dynamic-instruction Python
overhead: attribute chasing on ``Instruction`` dataclasses, a
``TraceEvent`` NamedTuple allocated per fetch, and a fully materialized
``list[TraceEvent]`` handed between stages.  This package lowers a
compiled :class:`~repro.ir.function.Program` into flat, integer-indexed
structures once (:mod:`repro.fastpath.decode`), executes it with an
int-dispatched interpreter emitting a columnar trace
(:mod:`repro.fastpath.interp`, :mod:`repro.fastpath.columns`), and
simulates straight off the columns (:mod:`repro.fastpath.simulate`).

The ``vector`` engine (:mod:`repro.fastpath.vector`) streams those
columns chunk by chunk from native or specialized-Python emulation into
a batched simulator.  The legacy path stays untouched as the
differential oracle; see
``repro.robustness.differential.assert_fastpath_equivalent``.
"""

from repro.fastpath.columns import (FLAG_EXECUTED, FLAG_TAKEN,
                                    TraceColumns)
from repro.fastpath.decode import DecodedFunction, DecodedProgram, \
    decode_program
from repro.fastpath.interp import run_program_fast
from repro.fastpath.simulate import (SimPrep, StreamSimulator,
                                     prepare_sim, simulate_columns)

__all__ = [
    "FLAG_EXECUTED", "FLAG_TAKEN", "TraceColumns",
    "DecodedFunction", "DecodedProgram", "decode_program",
    "run_program_fast",
    "SimPrep", "StreamSimulator", "prepare_sim", "simulate_columns",
]
