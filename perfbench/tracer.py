"""Traced pass: run one ``repro`` command with every layer wrapped in spans.

Usage::

    python perfbench/tracer.py SPANS_JSON -- report --scale 0.2 ...

The arguments after ``--`` go to ``repro.cli.main`` unchanged.  Before
calling it, this script wraps the public entry point of each layer (see
``TARGETS``) in a recorder that keeps one span per call in memory:
``[name, start, end, parent_index, extra]``, times from
``time.perf_counter``.  At exit the spans are written to SPANS_JSON with
a few per-process notes; ``run.py`` turns them into self times and
counts.  Nothing under ``src/`` is changed: the wrappers replace module
and class attributes in this process only.

Spans nest by call stack.  A call made while a span of the same name is
already the innermost one (a layer calling itself) is folded into that
span, so each name counts outermost calls only.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

_now = time.perf_counter

#: every span recorded, in start order
SPANS: list[list] = []
#: indices of the spans currently open, innermost last
_STACK: list[int] = []
#: caller context the compile and prepare wrappers read
_CURRENT = {"lowering": None, "program": None}
#: (workload, model) per compile call; compile key per prepare call
NOTES = {"lowerings": [], "prepared": []}


def _open(name: str) -> list | None:
    if _STACK and SPANS[_STACK[-1]][0] == name:
        return None
    rec = [name, _now(), 0.0, _STACK[-1] if _STACK else -1, None]
    _STACK.append(len(SPANS))
    SPANS.append(rec)
    return rec


def _close(rec: list) -> None:
    rec[2] = _now()
    _STACK.pop()


def spanned(name, fn, extra=None):
    """``fn`` wrapped in a span named ``name``, or ``name(args)`` when
    ``name`` is callable.  ``extra(args, kwargs, result)`` runs after the
    span closes and its value is stored with the span."""
    def wrapper(*args, **kwargs):
        rec = _open(name(args) if callable(name) else name)
        if rec is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(rec)
        if extra is not None:
            rec[4] = extra(args, kwargs, result)
        return result
    return wrapper


def noting(slot, key_of, fn):
    """No span: ``fn`` wrapped to remember ``key_of(args)`` as the caller
    context while it runs, for the compile and prepare wrappers below."""
    def wrapper(*args, **kwargs):
        saved = _CURRENT[slot]
        _CURRENT[slot] = key_of(args)
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT[slot] = saved
    return wrapper


# ----- what each span records besides its times ---------------------------

def _store_bytes(args, _kwargs, result):
    if result is None:
        return 0
    store, kind, key = args[:3]
    return os.path.getsize(store._path(kind, key))


def _compiled(_args, _kwargs, result):
    NOTES["lowerings"].append(_CURRENT["lowering"])
    return result.static_size


def _prepared(_args, _kwargs, _result):
    NOTES["prepared"].append(_CURRENT["program"])


def _emulated(_args, _kwargs, result):
    return result.dynamic_count


def _simulated(_args, _kwargs, result):
    return [result.cycles, result.dynamic_instructions]


#: (span name, module, attribute, extra, modules left unpatched).  The
#: attribute is replaced in its defining module and in every loaded
#: ``repro`` module that imported it by value (for ``liveness``:
#: opt.dce, regions.promotion, regions.unroll, regions.branch_combine,
#: schedule.list_scheduler, analysis.pressure).
TARGETS = (
    ("frontend", "repro.toolchain", "frontend", None, ()),
    ("toolchain.compile", "repro.toolchain", "compile_for_model",
     _compiled, ()),
    ("analysis.liveness", "repro.analysis.liveness", "liveness", None, ()),
    ("ir.verify", "repro.ir.verifier", "verify_program", None, ()),
    ("schedule", "repro.schedule.list_scheduler", "schedule_program",
     None, ()),
    ("fastpath.decode", "repro.fastpath.decode", "decode_program", None,
     ()),
    ("fastpath.prepare_sim", "repro.fastpath.simulate", "prepare_sim",
     _prepared, ()),
    # Pipeline emulations only: the training run inside Profile.collect
    # reads the interp module's own binding and stays profile time.
    ("fastpath.emulate", "repro.fastpath.interp", "run_program_fast",
     _emulated, ("repro.fastpath.interp",)),
    ("fastpath.emulate", "repro.fastpath.native", "run_program_native",
     _emulated, ()),
    ("fastpath.emulate", "repro.emu.interpreter", "run_program",
     _emulated, ()),
    ("fastpath.simulate", "repro.fastpath.vector",
     "simulate_columns_vector", _simulated, ()),
    ("fastpath.simulate", "repro.fastpath.simulate", "simulate_columns",
     _simulated, ()),
    ("fastpath.simulate", "repro.sim.pipeline", "simulate_trace",
     _simulated, ()),
    ("engine.keys", "repro.engine.keys", "stable_digest", None, ()),
    ("experiments.render", "repro.experiments.render", "render_all", None,
     ()),
    ("sweep", "repro.sweep.runner", "run_sweep", None, ()),
)

#: modules imported up front so every target exists before patching
MODULES = ("repro.cli", "repro.engine.stages", "repro.fastpath.native",
           "repro.fastpath.vector", "repro.sweep", "repro.sweep.runner",
           "repro.analysis.pressure")


def _patch_everywhere(original, wrapper, skip) -> None:
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) \
                or name in skip or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install() -> None:
    """Wrap every layer's entry points; call after importing MODULES."""
    for span_name, module_name, attr, extra, skip in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        _patch_everywhere(original, spanned(span_name, original, extra),
                          skip)

    from repro.analysis.profile import Profile
    from repro.engine.recovery.journal import RunJournal
    from repro.engine.stages import PipelineContext
    from repro.engine.store import ArtifactStore
    from repro.fastpath.vector import VectorSimPrep
    from repro.robustness.passgate import PassGate

    collect = Profile.__dict__["collect"].__func__
    Profile.collect = classmethod(spanned("analysis.profile", collect))
    ArtifactStore.get = spanned("engine.store_get", ArtifactStore.get,
                                _store_bytes)
    ArtifactStore.put = spanned(
        "engine.store_put", ArtifactStore.put,
        lambda args, kw, _r: _store_bytes(args, kw, True))
    RunJournal.append = spanned("engine.journal", RunJournal.append)
    VectorSimPrep.__init__ = spanned("fastpath.prepare_vector",
                                     VectorSimPrep.__init__)
    # keyed by the pass-name argument: run(self, fn, pass_name, thunk)
    PassGate.run = spanned(lambda args: "pass:" + args[2], PassGate.run)
    # compiled(self, workload, model, machine) and
    # _prep_for(self, compile_key, compiled, machine)
    PipelineContext.compiled = noting(
        "lowering", lambda a: (a[1].name, a[2].value),
        PipelineContext.compiled)
    PipelineContext._prep_for = noting("program", lambda a: a[1],
                                       PipelineContext._prep_for)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- REPRO_ARGS...",
              file=sys.stderr)
        return 2
    out_path, repro_args = argv[0], argv[2:]
    rec = _open("cli.import")
    for name in MODULES:
        importlib.import_module(name)
    _close(rec)
    install()
    from repro.cli import main as repro_main
    from repro.fastpath import supervisor
    rec = _open("cli.main")
    try:
        code = repro_main(repro_args)
    finally:
        _close(rec)
    with open(out_path, "w") as handle:
        json.dump({"spans": SPANS, "notes": NOTES,
                   "supervisor": supervisor.counters_snapshot()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
