"""Command-line interface: compile, run, and report from the shell.

Subcommands:

* ``compile``  — compile a MiniC file for one model and dump the code;
* ``run``      — compile + emulate + simulate one file and print stats;
* ``bench``    — run one registered workload under all three models;
* ``report``   — regenerate every figure/table (the paper's evaluation);
* ``figures``  — alias of ``report`` (the paper's figures);
* ``sweep``    — design-space exploration: ``sweep run`` expands a
  declarative TOML/JSON grid (issue widths x branch limits x cache
  geometries x BTBs x latency tables x models) into a deduplicated
  machine lattice and measures every point (deterministic at any
  ``--jobs``, resumable, warm points are zero-compute), ``sweep
  report`` renders speedup surfaces and Pareto frontiers from a
  stored result, ``sweep diff`` compares two results point-for-point;
* ``cache``    — inspect, verify (``fsck``) or clear the artifact store;
* ``selftest`` — fault-injection campaign proving the checkers work
  (``--chaos`` adds the engine chaos campaign — crash/corruption/
  resume — the service chaos campaign: queue saturation, quota
  exhaustion, breaker trips, kill+resume, dedup storms — and the
  native chaos campaign: corrupted ``.so`` caches, vanishing
  compilers, kernel segfaults, stale caches across a simulated cc
  upgrade and parity mismatches — and the cluster chaos campaign:
  SIGKILLed workers mid-shard, zombie fencing, hedge commit races,
  each ending in a byte-identical degraded run or a typed failure);
* ``native``   — probe the native kernel path (build, sandbox-canary,
  parity-check) and print the engine-ladder state;
* ``serve``    — long-lived multi-tenant experiment service: bounded
  admission with load shedding, per-tenant quotas, single-flight
  dedup, a circuit breaker over the worker pool and graceful SIGTERM
  drain (interrupted jobs resume on restart);
* ``submit``   — submit a MiniC file, a workload or the figure suite
  to a running service; ``--wait`` blocks for the canonical result;
* ``status``   — one job's record from the service;
* ``watch``    — stream a job's journal progress until it finishes;
  a dropped connection reconnects with capped backoff and resumes
  from the last event seen;
* ``worker``   — join a distributed sweep campaign over a shared
  cache dir (or via ``--endpoint`` through a running service): claims
  shard leases with fencing tokens, heartbeats while executing,
  commits results into the store; a SIGKILLed worker's shards are
  reassigned by the coordinator and a fenced zombie cannot commit;
* ``fuzz``     — differential fuzzing: ``fuzz run`` executes a seeded
  campaign over all three models, ``fuzz replay`` re-checks corpus
  reproducers, ``fuzz corpus`` lists them, ``fuzz seed`` populates the
  corpus from the workload suite and examples;
* ``list``     — list the registered workloads.

``bench`` and ``report`` cache every compiled program, emulation trace
and simulation result in a content-addressed store (``--cache-dir``,
default ``.repro-cache`` or ``$REPRO_CACHE_DIR``), so a repeated run is
served entirely from artifacts; ``--jobs N`` fans the pipeline's job
DAG across a process pool (``--jobs 1`` runs the same DAG in-process).
Every store-backed suite run writes an fsync'd JSONL
journal under ``<cache-dir>/runs/<RUN_ID>.jsonl``; a killed run resumes
with ``--resume RUN_ID`` (journal-verified completed tasks are never
recomputed).

Examples::

    python -m repro compile kernel.c --model fullpred
    python -m repro run kernel.c --model cmov --width 8 --branches 1
    python -m repro run kernel.c --paranoid --time-budget 30
    python -m repro bench wc --scale 0.5
    python -m repro report --scale 0.5 --mode degrade -o RESULTS.txt
    python -m repro report --jobs 4 --bench-json BENCH_pipeline.json
    python -m repro figures --resume R20260805-120000-abcd1234
    python -m repro cache stats
    python -m repro cache fsck --repair
    python -m repro cache clear
    python -m repro selftest
    python -m repro selftest --chaos --jobs 2
    python -m repro native --fresh
    python -m repro sweep run examples/paper_sweep.toml --jobs 4 -o sweep.json
    python -m repro sweep run grid.json --report --resume R20260807-...
    python -m repro worker --cache-dir /shared/cache &
    python -m repro sweep run grid.toml --cluster --expect-workers 3
    python -m repro sweep report sweep.json
    python -m repro sweep diff old.json new.json
    python -m repro serve --workers 2 --queue-depth 16
    python -m repro submit --workload wc --wait -o wc.json
    python -m repro submit --sweep examples/paper_sweep.toml --wait
    python -m repro submit kernel.c --deadline 120 --tenant alice
    python -m repro watch J0123456789abcdef
    python -m repro fuzz run --budget 500 --seed 0xfeed --jobs 4
    python -m repro fuzz replay --all
    python -m repro fuzz replay finding-0123456789ab
    python -m repro fuzz seed && python -m repro fuzz corpus

Failures exit with the typed taxonomy's codes (one-line diagnostics,
no tracebacks): 10 generic pipeline error, 11 compile or invalid
spec (bad sweep grid, unknown latency op-class name), 12 pass
verification, 13 emulation timeout, 14 trace integrity, 15 model
divergence, 16 emulation fault, 17 artifact lock timeout, 18 open
fuzz findings, 19 service overloaded (load shed), 20 tenant quota
exceeded, 21 job deadline exceeded, 22 native kernel build failure,
23 C toolchain missing, 24 native kernel parity mismatch, 25 native
kernel crash, 26 cluster worker lost mid-shard, 27 shard lease fenced
(a newer lease superseded this worker's claim), 28 ``--compare``
baseline recorded for a different run.  Codes 13, 14, 17,
19, 20, 23, 25 and 26 are transient (retry, honouring any Retry-After
hint — the native-engine supervisor demotes before raising, so a
retry lands on the Python engines); the rest are permanent — in
particular 27 means another worker owns the shard now, so the right
response is to claim new work, not to retry the old lease.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.profile import Profile
from repro.emu.memory import EmulationFault
from repro.engine.store import ArtifactStore
from repro.experiments.render import render_all
from repro.experiments.runner import ExperimentSuite
from repro.ir.function import IRError
from repro.ir.printer import format_program
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError
from repro.lang.sema import SemaError
from repro.machine.descriptor import MachineDescription, scalar_machine
from repro.robustness.errors import BaselineMismatchError, ReproError
from repro.robustness.watchdog import EmulationWatchdog
from repro.toolchain import (Model, ToolchainOptions, compile_for_model,
                             frontend, run_compiled, schedule_for_machine)
from repro.workloads import all_workloads, get_workload

_MODELS = {"superblock": Model.SUPERBLOCK, "cmov": Model.CMOV,
           "fullpred": Model.FULLPRED}

#: exit code for emulation faults outside the typed taxonomy
_EMULATION_FAULT_EXIT = 16
#: exit code for IR errors escaping the compile pipeline
_IR_ERROR_EXIT = 11


def _machine(args) -> MachineDescription:
    machine = MachineDescription(issue_width=args.width,
                                 branch_issue_limit=args.branches,
                                 name=f"{args.width}-issue,"
                                      f"{args.branches}-branch")
    if getattr(args, "real_caches", False):
        machine = machine.with_real_caches()
    return machine


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=8,
                        help="issue width (default 8)")
    parser.add_argument("--branches", type=int, default=1,
                        help="branch issue limit (default 1)")
    parser.add_argument("--real-caches", action="store_true",
                        help="64K direct-mapped I/D caches instead of "
                             "perfect memory")


def _add_robustness_args(parser: argparse.ArgumentParser,
                         watchdog: bool = True) -> None:
    parser.add_argument("--paranoid", action="store_true",
                        help="verify the IR after every compiler pass; "
                             "failures name the pass and dump an IR "
                             "snapshot")
    parser.add_argument("--rollback", action="store_true",
                        help="skip (instead of abort on) a failing pass; "
                             "degradations are reported")
    parser.add_argument("--artifact-dir", default=None,
                        help="directory for failure IR snapshots "
                             "(default: system temp)")
    if watchdog:
        parser.add_argument("--time-budget", type=float, default=None,
                            metavar="SECONDS",
                            help="wall-clock budget for each emulation")


def _default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


#: execution backends: the readable oracle and the fast product engine
_ENGINES = ("legacy", "vector")


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=_ENGINES, default="vector",
                        help="execution backend (default vector, which "
                             "shards its trace across --jobs workers; "
                             "legacy is the byte-identical readable "
                             "oracle)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan the pipeline's job DAG across N pool "
                             "processes (default 1: the same DAG, "
                             "in-process)")
    parser.add_argument("--cache-dir", default=_default_cache_dir(),
                        metavar="DIR",
                        help="artifact store directory (default "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk artifact store")
    parser.add_argument("--run-id", default=None, metavar="RUN_ID",
                        help="name this run's journal (default: "
                             "generated; printed to stderr)")
    parser.add_argument("--resume", default=None, metavar="RUN_ID",
                        help="resume an interrupted run from its "
                             "journal: completed tasks are verified "
                             "against the store and never recomputed")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="max attempts per task for transient "
                             "failures (default 3)")


def _add_perf_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bench-json", metavar="PATH",
                        help="dump pipeline metrics (wall time, cache "
                             "hit/miss, byte volume, cycles) as JSON "
                             "with a dated timing trajectory, e.g. "
                             "BENCH_pipeline.json")
    parser.add_argument("--compare", metavar="BASELINE_JSON",
                        help="compare stage wall times against a "
                             "baseline bench JSON of the same run "
                             "(subcommand, workloads, scale, engine); "
                             f"exit {_BENCH_REGRESSION_EXIT} if any "
                             "stage regresses by more than 25%%, "
                             f"{BaselineMismatchError.exit_code} if the "
                             "baseline is of another run")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each pipeline stage; write "
                             "per-stage .pstats and a top-20 cumulative "
                             "summary next to --bench-json (or CWD)")


def _cache_dir(args) -> str | None:
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None)


#: exit code for a >threshold stage-walltime regression (--compare)
_BENCH_REGRESSION_EXIT = 3


def _attach_profiler(suite, args):
    """Hook a per-stage cProfile collector into the suite's metrics."""
    if not getattr(args, "profile", False):
        return None
    from repro.engine.profiling import StageProfiler
    profiler = StageProfiler()
    suite.metrics.profiler = profiler
    if getattr(args, "jobs", 1) > 1:
        print("note: --profile captures in-process work only; pool "
              "workers (--jobs) are not profiled", file=sys.stderr)
    return profiler


def _print_metrics(metrics, args, workloads, scale: float,
                   profiler=None) -> int:
    """Pipeline summary to stderr; counters to --bench-json; profiles
    next to it; baseline comparison last.  Returns the exit code the
    comparison demands (0 when clean or not requested).

    The bench JSON records the run's identity (subcommand, workloads,
    scale, engine), and the comparison raises
    :class:`BaselineMismatchError` for a baseline of another run:
    per-invocation times of a one-workload ``bench`` and a
    fifteen-workload ``report`` differ by design, not by regression."""
    run = {"command": {"figures": "report", "sweep": "sweep run"}.get(
               args.command, args.command),
           "workloads": sorted(workloads), "scale": scale,
           "engine": args.engine}
    print(metrics.render(), file=sys.stderr)
    bench_json = getattr(args, "bench_json", None)
    if bench_json:
        metrics.write_json(bench_json, run=run)
        print(f"wrote {bench_json}", file=sys.stderr)
    if profiler is not None:
        out_dir = os.path.dirname(bench_json) or "." if bench_json else "."
        for path in profiler.write(out_dir):
            print(f"wrote {path}", file=sys.stderr)
    baseline_path = getattr(args, "compare", None)
    if baseline_path:
        from repro.engine.metrics import compare_stage_walltimes
        import json as _json
        with open(baseline_path) as handle:
            baseline = _json.load(handle)
        regressions = compare_stage_walltimes(
            {**metrics.to_dict(), "run": run}, baseline)
        if regressions:
            print(f"stage regressions vs {baseline_path}:",
                  file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return _BENCH_REGRESSION_EXIT
        print(f"no stage regressions vs {baseline_path}",
              file=sys.stderr)
    return 0


def _suite_recovery_kwargs(args) -> dict:
    """Map --run-id/--resume/--retries onto ExperimentSuite fields."""
    kwargs: dict = {}
    resume = getattr(args, "resume", None)
    if resume:
        kwargs["run_id"] = resume
        kwargs["resume"] = True
    elif getattr(args, "run_id", None):
        kwargs["run_id"] = args.run_id
    retries = getattr(args, "retries", None)
    if retries is not None:
        from repro.engine.recovery.retry import RetryPolicy
        kwargs["retry"] = RetryPolicy(max_attempts=max(1, retries))
    return kwargs


def _announce_run(suite) -> None:
    if suite.run_id is not None:
        print(f"run id: {suite.run_id} (resume with --resume "
              f"{suite.run_id})", file=sys.stderr)


def _finish_run(suite) -> None:
    if suite.run_id is not None:
        print(suite.journal_summary(), file=sys.stderr)
    suite.close_journal()


def _options(args) -> ToolchainOptions:
    return ToolchainOptions(paranoid=getattr(args, "paranoid", False),
                            rollback=getattr(args, "rollback", False),
                            artifact_dir=getattr(args, "artifact_dir",
                                                 None))


def _watchdog(args) -> EmulationWatchdog | None:
    budget = getattr(args, "time_budget", None)
    if budget is None:
        return None
    return EmulationWatchdog(wall_clock_budget=budget)


def _print_degradations(compiled) -> None:
    for d in compiled.degradations:
        line = (f"degraded: skipped pass {d.pass_name!r} on "
                f"{d.function} ({d.error})")
        if d.artifact_path:
            line += f" [artifact: {d.artifact_path}]"
        print(line, file=sys.stderr)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _cmd_compile(args) -> int:
    source = _read_source(args.file)
    base = frontend(source)
    profile = Profile.collect(base, inputs=None)
    compiled = schedule_for_machine(
        compile_for_model(base, _MODELS[args.model], profile,
                          _options(args)), _machine(args))
    _print_degradations(compiled)
    print(format_program(compiled.program))
    return 0


def _cmd_run(args) -> int:
    source = _read_source(args.file)
    base = frontend(source)
    profile = Profile.collect(base, inputs=None)
    machine = _machine(args)
    model = _MODELS[args.model]
    options = _options(args)
    compiled = schedule_for_machine(
        compile_for_model(base, model, profile, options), machine)
    _print_degradations(compiled)
    result = run_compiled(compiled, inputs=None, watchdog=_watchdog(args),
                          engine=args.engine)
    scalar = run_compiled(
        schedule_for_machine(
            compile_for_model(base, Model.SUPERBLOCK, profile, options),
            scalar_machine()),
        watchdog=_watchdog(args))
    stats = result.stats
    print(f"model              : {model.value}")
    print(f"machine            : {machine.name}")
    print(f"result             : {result.return_value}")
    print(f"cycles             : {stats.cycles}")
    print(f"dynamic instrs     : {stats.dynamic_instructions} "
          f"({stats.suppressed_instructions} nullified)")
    print(f"branches           : {stats.branches} "
          f"({stats.mispredictions} mispredicted, "
          f"{stats.misprediction_rate * 100:.2f}%)")
    print(f"speedup vs 1-issue : "
          f"{scalar.stats.cycles / stats.cycles:.2f}")
    return 0


def _cmd_bench(args) -> int:
    if args.micro:
        from repro.fastpath import micro
        print(micro.render(micro.run_all(repeat=args.repeat)))
        return 0
    if args.name is None:
        print("error: a workload name is required unless --micro is "
              "given (see `repro list`)", file=sys.stderr)
        return 2
    workload = get_workload(args.name)
    suite = ExperimentSuite(workloads=[workload], scale=args.scale,
                            options=_options(args),
                            paranoid=args.paranoid,
                            wall_clock_budget=args.time_budget,
                            cache_dir=_cache_dir(args), jobs=args.jobs,
                            engine=args.engine,
                            **_suite_recovery_kwargs(args))
    _announce_run(suite)
    profiler = _attach_profiler(suite, args)
    machine = _machine(args)
    try:
        suite.execute_plan(suite.speedup_needs(machine))
        base = suite.baseline_cycles(workload.name)
        print(f"{workload.name} ({workload.stands_for}), "
              f"scale {args.scale}")
        print(f"{'model':<20s}{'cycles':>9s}{'speedup':>9s}{'instrs':>9s}"
              f"{'BR':>8s}{'MP':>7s}")
        for model in Model:
            run = suite.run(workload.name, model, machine)
            stats = run.stats
            print(f"{model.value:<20s}{stats.cycles:>9d}"
                  f"{base / stats.cycles:>9.2f}"
                  f"{stats.executed_instructions:>9d}"
                  f"{stats.branches:>8d}{stats.mispredictions:>7d}")
        if args.differential:
            _run_differential(workload, machine, args)
    except BaseException:
        suite.close_journal(ok=False)
        raise
    try:
        return _print_metrics(suite.metrics, args, [workload.name],
                              args.scale, profiler)
    finally:
        _finish_run(suite)


def _run_differential(workload, machine, args) -> None:
    """Prove the legacy, columnar and vector engines agree on every
    observable.

    Raises :class:`~repro.robustness.errors.ModelDivergenceError` (CLI
    exit code 15) on the first divergence.
    """
    from repro.robustness.differential import assert_fastpath_equivalent
    base = frontend(workload.source)
    inputs = workload.inputs(args.scale)
    profile = Profile.collect(base, inputs=inputs)
    options = _options(args)
    for model in Model:
        compiled = schedule_for_machine(
            compile_for_model(base, model, profile, options), machine)
        assert_fastpath_equivalent(compiled, inputs=inputs,
                                   machine=machine,
                                   workload=workload.name)
        print(f"differential {workload.name}/{model.value}: legacy, "
              f"columnar and vector agree", file=sys.stderr)


def _cmd_report(args) -> int:
    suite = ExperimentSuite(scale=args.scale, mode=args.mode,
                            options=_options(args),
                            paranoid=args.paranoid,
                            wall_clock_budget=args.time_budget,
                            cache_dir=_cache_dir(args), jobs=args.jobs,
                            engine=args.engine,
                            **_suite_recovery_kwargs(args))
    _announce_run(suite)
    profiler = _attach_profiler(suite, args)
    try:
        text = render_all(suite)
    except BaseException:
        suite.close_journal(ok=False)
        raise
    if suite.failures:
        text += "\n\n" + suite.failure_report()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    try:
        compare_exit = _print_metrics(
            suite.metrics, args, [w.name for w in suite.workloads],
            args.scale, profiler)
    finally:
        _finish_run(suite)
    if suite.failures:
        return 1
    return compare_exit


def _cmd_cache(args) -> int:
    cache_dir = args.cache_dir
    if args.action in ("stats", "clear") and not os.path.isdir(cache_dir):
        print(f"no artifact store at {cache_dir} (nothing cached yet — "
              f"run `repro report` or `repro bench` to populate it)")
        return 0
    store = ArtifactStore(cache_dir)
    if args.action == "stats":
        inventory = store.stats()
        if inventory.entries == 0:
            print(f"artifact store at {cache_dir} is empty (run "
                  f"`repro report` or `repro bench` to populate it)")
            return 0
        print(inventory.render())
        return 0
    if args.action == "fsck":
        from repro.engine.recovery.fsck import fsck_store
        report = fsck_store(store, repair=args.repair,
                            include_kernels=True)
        print(report.render())
        return 0 if report.clean or args.repair else 1
    removed = store.clear()
    print(f"removed {removed} artifacts from {cache_dir}")
    return 0


def _cmd_selftest(args) -> int:
    from repro.robustness.faults import (format_fault_reports,
                                         run_fault_campaign)
    reports = run_fault_campaign()
    print(format_fault_reports(reports))
    ok = all(r.ok for r in reports)
    if getattr(args, "chaos", False):
        from repro.robustness.chaos import (format_chaos_reports,
                                            run_chaos_campaign)
        chaos = run_chaos_campaign(jobs=args.jobs)
        print(format_chaos_reports(chaos))
        ok = ok and all(r.ok for r in chaos)
        from repro.service.chaos import run_service_chaos_campaign
        service = run_service_chaos_campaign()
        print(format_chaos_reports(service)
              .replace("engine chaos campaign",
                       "service chaos campaign"))
        ok = ok and all(r.ok for r in service)
        from repro.robustness.chaos import run_native_chaos_campaign
        native = run_native_chaos_campaign(jobs=args.jobs)
        print(format_chaos_reports(native)
              .replace("engine chaos campaign",
                       "native chaos campaign"))
        ok = ok and all(r.ok for r in native)
        from repro.service.chaos import run_cluster_chaos_campaign
        cluster = run_cluster_chaos_campaign()
        print(format_chaos_reports(cluster)
              .replace("engine chaos campaign",
                       "cluster chaos campaign"))
        ok = ok and all(r.ok for r in cluster)
    return 0 if ok else 1


def _cmd_native(args) -> int:
    """Probe, report and (optionally) rebuild the native kernel path."""
    from repro.fastpath import native, supervisor
    if getattr(args, "fresh", False):
        supervisor.reset_for_testing()
    available = native.available()
    for line in supervisor.status_lines():
        print(line)
    if available:
        return 0
    error = supervisor.last_error()
    if error is not None:
        print(f"last failure: {error}")
        return error.exit_code
    return 0


def _cmd_list(_args) -> int:
    for w in all_workloads():
        print(f"{w.name:<10s} {w.category:<8s} {w.stands_for}")
    return 0


# ----- experiment service ---------------------------------------------------


def _cmd_serve(args) -> int:
    from repro.service.breaker import BreakerConfig
    from repro.service.quota import QuotaConfig
    from repro.service.server import ServiceConfig, serve_forever
    try:
        config = ServiceConfig(
            cache_dir=args.cache_dir, host=args.host, port=args.port,
            jobs=args.jobs, workers=args.workers,
            queue_depth=args.queue_depth,
            quota=QuotaConfig(rate=args.quota_rate,
                              burst=args.quota_burst,
                              max_concurrent=args.quota_concurrent),
            breaker=BreakerConfig(),
            drain_grace=args.drain_grace,
            bench_json=args.bench_json)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    return serve_forever(config)


def _service_client(args):
    from repro.service.client import ServiceClient
    return ServiceClient(host=args.host, port=args.port,
                         cache_dir=args.cache_dir)


def _submit_spec(args):
    from repro.service.spec import ServiceJobSpec
    targets = [bool(args.file), bool(args.workload), args.figures,
               bool(args.sweep)]
    if sum(targets) != 1:
        raise ReproError("submit needs exactly one of: a MiniC FILE, "
                         "--workload NAME, --figures, or --sweep SPEC")
    if args.sweep:
        from repro.sweep import SweepSpec
        return ServiceJobSpec(
            kind="sweep", sweep=SweepSpec.from_file(args.sweep).to_dict(),
            deadline=args.deadline)
    kind = "figures" if args.figures \
        else ("bench" if args.workload else "source")
    models = tuple(m.strip() for m in args.models.split(",")) \
        if args.models else ("superblock", "cmov", "fullpred")
    return ServiceJobSpec(
        kind=kind,
        source=_read_source(args.file) if kind == "source" else None,
        workload=args.workload if kind == "bench" else None,
        models=models, width=args.width, branches=args.branches,
        real_caches=args.real_caches, scale=args.scale,
        max_steps=args.max_steps, deadline=args.deadline)


def _emit_result(result_json: str, args) -> None:
    """Write the canonical result bytes verbatim (plus one newline)."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result_json + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(result_json)


def _cmd_submit(args) -> int:
    client = _service_client(args)
    response = client.submit(_submit_spec(args), tenant=args.tenant)
    job = response["job"]
    if response.get("deduped"):
        print(f"coalesced with in-flight job {job['job_id']} "
              f"(single-flight dedup)", file=sys.stderr)
    print(f"job {job['job_id']} {job['state']} "
          f"(run {job['run_id']})", file=sys.stderr)
    if not args.wait:
        print(job["job_id"])
        return 0
    _emit_result(client.result(job["job_id"], timeout=args.timeout),
                 args)
    return 0


def _cmd_status(args) -> int:
    import json as _json
    job = _service_client(args).status(args.job_id)
    if args.json:
        print(_json.dumps(job, indent=2, sort_keys=True))
        return 0
    line = f"job {job['job_id']}: {job['state']}"
    if job.get("error"):
        line += (f" ({job['error']['type']}: "
                 f"{job['error']['message']})")
    print(line + f" [tenant {job['tenant']}, mode {job['mode']}, "
                 f"observers {job['observers']}]")
    return 0


def _cmd_worker(args) -> int:
    from repro.service.cluster import run_worker
    outcome = run_worker(args.cache_dir, endpoint=args.endpoint,
                         once=args.once,
                         idle_timeout=args.idle_timeout,
                         max_shards=args.max_shards)
    print(f"worker {outcome.worker_id}: "
          f"{outcome.shards_completed} shard(s) completed, "
          f"{outcome.hedges_lost} hedge(s) lost, "
          f"{outcome.shards_failed} failed", file=sys.stderr)
    return 0


def _cmd_watch(args) -> int:
    client = _service_client(args)
    final = None
    for event in client.watch(args.job_id):
        if event.get("event") == "journal":
            record = event["record"]
            label = record.get("task") or record.get("run_id", "")
            print(f"{record['type']:<13s} {label}")
        elif event.get("event") == "progress":
            total = event.get("tasks_total")
            done = event.get("tasks_done", 0)
            bar = f"{done}/{total}" if total else str(done)
            print(f"{'progress':<13s} {bar} [{event.get('task', '')}]")
        elif event.get("event") == "end":
            final = event["job"]
    if final is None:
        raise ReproError("watch stream ended without a final state")
    print(f"job {final['job_id']}: {final['state']}", file=sys.stderr)
    if final["state"] == "failed":
        error = final.get("error") or {}
        print(f"error[{error.get('type', 'ReproError')}]: "
              f"{error.get('message', '')}", file=sys.stderr)
        return int(error.get("exit_code", ReproError.exit_code))
    return 0


# ----- sweep ----------------------------------------------------------------


def _cmd_sweep_run(args) -> int:
    from repro.engine.metrics import PipelineMetrics
    from repro.sweep import SweepSpec, run_sweep
    from repro.sweep.report import render
    spec = SweepSpec.from_file(args.spec)
    metrics = PipelineMetrics()
    profiler = None
    if args.profile:
        from repro.engine.profiling import StageProfiler
        profiler = StageProfiler()
        metrics.profiler = profiler
        if args.jobs > 1:
            print("note: --profile captures in-process work only; pool "
                  "workers (--jobs) are not profiled", file=sys.stderr)
    if getattr(args, "cluster", False):
        from repro.service.cluster import (ClusterConfig,
                                           run_cluster_sweep)
        cache_dir = _cache_dir(args)
        if cache_dir is None:
            raise ReproError("--cluster needs a cache dir (the shared "
                             "store is the coordination substrate)")
        config = ClusterConfig(
            shard_size=args.shard_size,
            expect_workers=args.expect_workers,
            worker_grace=args.worker_grace,
            lease_timeout=args.lease_timeout,
            require_workers=args.require_workers)
        outcome = run_cluster_sweep(spec, cache_dir, config,
                                    jobs=args.jobs, metrics=metrics,
                                    engine=args.engine,
                                    **_suite_recovery_kwargs(args))
    else:
        outcome = run_sweep(spec, cache_dir=_cache_dir(args),
                            jobs=args.jobs, metrics=metrics,
                            engine=args.engine,
                            **_suite_recovery_kwargs(args))
    if outcome.run_id is not None:
        print(f"run id: {outcome.run_id} (resume with --resume "
              f"{outcome.run_id})", file=sys.stderr)
    print(f"sweep {spec.name}: {outcome.points_total} points "
          f"({outcome.points_cached} warm, {outcome.resumed_tasks} "
          f"journal-resumed)", file=sys.stderr)
    result_json = outcome.result.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result_json + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if args.report_text:
        print(render(outcome.result.to_dict()), end="")
    elif not args.output:
        print(result_json)
    return _print_metrics(
        metrics, args,
        spec.workloads or [w.name for w in all_workloads()], spec.scale,
        profiler)


def _cmd_sweep_report(args) -> int:
    from repro.sweep import SweepResult
    from repro.sweep.report import render
    print(render(SweepResult.from_file(args.result).to_dict()), end="")
    return 0


def _cmd_sweep_diff(args) -> int:
    from repro.sweep import SweepResult
    from repro.sweep.report import diff
    print(diff(SweepResult.from_file(args.old).to_dict(),
               SweepResult.from_file(args.new).to_dict()), end="")
    return 0


# ----- fuzz -----------------------------------------------------------------


def _fuzz_config(args):
    from repro.fuzz.executor import ExecutorConfig
    return ExecutorConfig(max_steps=args.max_steps,
                          wall_budget=args.time_budget,
                          issue_width=args.width,
                          branch_issue_limit=args.branches)


def _write_fuzz_log(path: str, reports) -> None:
    """One JSON line per case, wall time excluded: two campaigns with
    the same seed/budget must produce byte-identical logs (CI diffs
    them to prove reproducibility)."""
    import json
    with open(path, "w") as handle:
        for report in reports:
            entry = report.to_dict()
            entry.pop("wall_seconds", None)
            handle.write(json.dumps(entry, sort_keys=True) + "\n")


def _cmd_fuzz_run(args) -> int:
    from repro.engine.metrics import PipelineMetrics
    from repro.fuzz.runner import run_campaign
    from repro.robustness.errors import FuzzFindingsError

    seed = int(args.seed, 0)
    metrics = PipelineMetrics()
    result = run_campaign(seed, args.budget, jobs=args.jobs,
                          config=_fuzz_config(args),
                          corpus_dir=args.corpus_dir,
                          save_findings=not args.no_save,
                          reduce_findings=not args.no_reduce,
                          metrics=metrics)
    if args.log:
        _write_fuzz_log(args.log, result.reports)
    print(f"fuzz campaign seed={seed:#x} budget={args.budget} "
          f"jobs={args.jobs}")
    print(f"  {result.case_count} cases in {result.wall_seconds:.1f}s "
          f"({result.cases_per_second:.2f}/s)")
    print(f"  {result.finding_count} findings, "
          f"{result.unique_findings} unique signatures")
    for key, bucket in result.buckets.items():
        print(f"  [{key}] {bucket.signature.describe()} "
              f"({bucket.count} witness(es), first {bucket.case_ids[0]})")
        reduction = result.reductions.get(key)
        if reduction is not None:
            _, stats = reduction
            print(f"    reduced {stats.original_lines} -> "
                  f"{stats.reduced_lines} lines "
                  f"({stats.shrink_ratio * 100:.0f}% shrink, "
                  f"{stats.tests_run} probes)")
    for entry_id in result.saved_entries:
        print(f"    saved corpus/{entry_id}")
    if args.bench_json:
        # Fold any existing bench baseline forward so a fuzz campaign
        # adds its throughput without clobbering the committed
        # per-stage timings that `report --compare` checks against.
        metrics.accumulate_json(args.bench_json)
    if result.finding_count:
        raise FuzzFindingsError(
            f"{result.finding_count} finding(s), "
            f"{result.unique_findings} unique — reproducers saved under "
            f"corpus/", count=result.finding_count,
            unique=result.unique_findings)
    print("  no divergence, no crashes, no hangs")
    return 0


def _cmd_fuzz_replay(args) -> int:
    from repro.fuzz.corpus import list_entries, load_entry
    from repro.fuzz.executor import run_case
    from repro.fuzz.generator import FuzzCase
    from repro.robustness.errors import FuzzFindingsError

    if args.case is None and not args.all:
        print("error: give a corpus entry id or --all", file=sys.stderr)
        return 2
    entries = list_entries(args.corpus_dir) if args.all \
        else [load_entry(args.case, args.corpus_dir)]
    if not entries:
        print("corpus is empty (run `repro fuzz seed` first)")
        return 0
    config = _fuzz_config(args)
    failures = 0
    for entry in entries:
        case = FuzzCase(case_id=entry.entry_id, seed=0,
                        profile="corpus", source=entry.source,
                        inputs=entry.inputs)
        report = run_case(case, config)
        ok = report.verdict == entry.expect
        failures += 0 if ok else 1
        status = "ok" if ok else f"FAIL ({report.verdict})"
        print(f"  {entry.entry_id:<28s} expect={entry.expect:<8s} "
              f"{status}")
        if not ok and report.message:
            print(f"    {report.message}")
    print(f"replayed {len(entries)} corpus entries, "
          f"{failures} failure(s)")
    if failures:
        raise FuzzFindingsError(
            f"{failures} corpus entr(ies) no longer match their "
            f"expected verdict", count=failures, unique=failures)
    return 0


def _cmd_fuzz_corpus(args) -> int:
    from repro.fuzz.corpus import list_entries

    entries = list_entries(args.corpus_dir)
    if not entries:
        print("corpus is empty (run `repro fuzz seed` first)")
        return 0
    for entry in entries:
        lines = len(entry.source.splitlines())
        sig = ""
        if entry.signature:
            sig = (f"  sig={entry.signature.get('kind')}/"
                   f"{entry.signature.get('key')}")
        print(f"  {entry.entry_id:<28s} expect={entry.expect:<8s} "
              f"{lines:>4d} lines  {entry.provenance}{sig}")
    print(f"{len(entries)} corpus entries")
    return 0


def _cmd_fuzz_seed(args) -> int:
    from repro.fuzz.corpus import CorpusEntry, save_entry

    saved = 0
    for w in all_workloads():
        inputs = {name: list(values) if isinstance(values, bytes)
                  else values
                  for name, values in w.inputs(args.scale).items()}
        entry = CorpusEntry(entry_id=f"seed-{w.name}", source=w.source,
                            inputs=inputs, expect="ok",
                            provenance=f"seed:{w.name}",
                            notes=f"workload suite @ scale {args.scale}")
        save_entry(entry, args.corpus_dir)
        saved += 1
    quickstart = _load_quickstart_module()
    if quickstart is not None:
        entry = CorpusEntry(entry_id="seed-quickstart",
                            source=quickstart.SOURCE,
                            inputs=quickstart.make_inputs(n=200),
                            expect="ok",
                            provenance="seed:examples/quickstart.py",
                            notes="Figure 1 kernel from the quickstart")
        save_entry(entry, args.corpus_dir)
        saved += 1
    print(f"seeded {saved} corpus entries")
    return 0


def _load_quickstart_module():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[2] / "examples" \
        / "quickstart.py"
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("_quickstart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Comparison of Full and Partial "
                    "Predicated Execution Support for ILP Processors' "
                    "(ISCA 1995)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a MiniC file and dump IR")
    p.add_argument("file", help="MiniC source file, or - for stdin")
    p.add_argument("--model", choices=sorted(_MODELS), default="fullpred")
    _add_machine_args(p)
    _add_robustness_args(p, watchdog=False)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("run", help="compile, emulate and simulate a file")
    p.add_argument("file", help="MiniC source file, or - for stdin")
    p.add_argument("--model", choices=sorted(_MODELS), default="fullpred")
    p.add_argument("--engine", choices=_ENGINES, default="vector",
                   help="execution backend (default vector; legacy is "
                        "the byte-identical readable oracle)")
    _add_machine_args(p)
    _add_robustness_args(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="run one workload, all models")
    p.add_argument("name", nargs="?", default=None,
                   help="workload name (see `list`); optional with "
                        "--micro")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--micro", action="store_true",
                   help="run the hot-loop timeit microbenchmarks "
                        "(benchmarks/perf/) instead of a workload")
    p.add_argument("--repeat", type=int, default=3,
                   help="timeit repetitions for --micro (default 3)")
    p.add_argument("--differential", action="store_true",
                   help="after benchmarking, prove the legacy, "
                        "columnar and vector engines agree on every "
                        "observable")
    _add_machine_args(p)
    _add_robustness_args(p)
    _add_engine_args(p)
    _add_perf_args(p)
    p.set_defaults(func=_cmd_bench)

    for name, help_text in (
            ("report", "regenerate all figures/tables"),
            ("figures", "regenerate all figures/tables "
                        "(alias of report)")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scale", type=float, default=0.5)
        p.add_argument("-o", "--output", help="write to file")
        p.add_argument("--mode", choices=("strict", "degrade"),
                       default="strict",
                       help="strict: abort on the first failing "
                            "workload; degrade: quarantine it and "
                            "report at the end")
        _add_robustness_args(p)
        _add_engine_args(p)
        _add_perf_args(p)
        p.set_defaults(func=_cmd_report)

    p = sub.add_parser("cache",
                       help="inspect, verify or clear the artifact "
                            "store")
    p.add_argument("action", choices=("stats", "fsck", "clear"))
    p.add_argument("--cache-dir", default=_default_cache_dir(),
                   metavar="DIR",
                   help="artifact store directory (default "
                        "$REPRO_CACHE_DIR or .repro-cache)")
    p.add_argument("--repair", action="store_true",
                   help="with fsck: quarantine corrupt artifacts and "
                        "remove stale tmp files / expired locks")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("selftest",
                       help="fault-injection campaign: prove every "
                            "corruption class is caught")
    p.add_argument("--chaos", action="store_true",
                   help="add the engine, service and native chaos "
                        "campaigns: worker crashes, torn/corrupt "
                        "artifacts, timeouts, disk-full writes, "
                        "SIGKILL+resume, kernel segfaults, corrupted "
                        ".so caches and parity mismatches must all "
                        "recover or fail typed")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="pool width for the chaos campaign (default 2)")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("native",
                       help="probe the native kernel path: build, "
                            "sandbox-canary and parity-check the C "
                            "engine, then report the ladder state")
    p.add_argument("--fresh", action="store_true",
                   help="drop this process's cached supervisor state "
                        "first (forces a re-probe; the on-disk .so "
                        "cache still applies)")
    p.set_defaults(func=_cmd_native)

    p = sub.add_parser("fuzz",
                       help="differential fuzzing: campaign, corpus "
                            "replay, corpus management")
    fuzz_sub = p.add_subparsers(dest="fuzz_command", required=True)

    def _add_fuzz_exec_args(fp: argparse.ArgumentParser) -> None:
        fp.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="corpus root (default: ./corpus)")
        fp.add_argument("--max-steps", type=int, default=400_000,
                        help="emulation step budget per run "
                             "(default 400000)")
        fp.add_argument("--time-budget", type=float, default=10.0,
                        metavar="SECONDS",
                        help="wall-clock watchdog per engine run "
                             "(default 10)")
        fp.add_argument("--width", type=int, default=8,
                        help="issue width (default 8)")
        fp.add_argument("--branches", type=int, default=1,
                        help="branch issue limit (default 1)")

    fp = fuzz_sub.add_parser("run",
                             help="run a seeded differential campaign")
    fp.add_argument("--budget", type=int, default=100, metavar="N",
                    help="number of cases (default 100)")
    fp.add_argument("--seed", default="0xfeed", metavar="S",
                    help="master seed, any int literal "
                         "(default 0xfeed)")
    fp.add_argument("--jobs", type=int, default=1, metavar="J",
                    help="parallel scheduler workers (default 1)")
    fp.add_argument("--log", default=None, metavar="FILE",
                    help="write one JSON line per case (wall time "
                         "excluded, so equal-seed runs diff clean)")
    fp.add_argument("--no-reduce", action="store_true",
                    help="skip delta-debugging of findings")
    fp.add_argument("--no-save", action="store_true",
                    help="do not write findings to the corpus")
    fp.add_argument("--bench-json", default=None, metavar="FILE",
                    help="append fuzz throughput to a bench JSON file")
    _add_fuzz_exec_args(fp)
    fp.set_defaults(func=_cmd_fuzz_run)

    fp = fuzz_sub.add_parser("replay",
                             help="re-run corpus reproducers through "
                                  "the full differential check")
    fp.add_argument("case", nargs="?", default=None,
                    help="corpus entry id or directory")
    fp.add_argument("--all", action="store_true",
                    help="replay every corpus entry")
    _add_fuzz_exec_args(fp)
    fp.set_defaults(func=_cmd_fuzz_replay)

    fp = fuzz_sub.add_parser("corpus", help="list corpus entries")
    fp.add_argument("--corpus-dir", default=None, metavar="DIR")
    fp.set_defaults(func=_cmd_fuzz_corpus)

    fp = fuzz_sub.add_parser("seed",
                             help="seed the corpus from the workload "
                                  "suite and examples")
    fp.add_argument("--corpus-dir", default=None, metavar="DIR")
    fp.add_argument("--scale", type=float, default=0.1,
                    help="workload input scale for seeded entries "
                         "(default 0.1: replay must stay fast)")
    fp.set_defaults(func=_cmd_fuzz_seed)

    def _add_service_conn_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--cache-dir", default=_default_cache_dir(),
                        metavar="DIR",
                        help="service cache dir; its "
                             "service/service.json names the endpoint "
                             "(default $REPRO_CACHE_DIR or "
                             ".repro-cache)")
        sp.add_argument("--host", default=None,
                        help="server host (overrides discovery)")
        sp.add_argument("--port", type=int, default=None,
                        help="server port (overrides discovery)")

    p = sub.add_parser("sweep",
                       help="design-space sweeps: grid run, report, "
                            "diff")
    sweep_sub = p.add_subparsers(dest="sweep_cmd", required=True)

    sp = sweep_sub.add_parser(
        "run", help="expand a sweep spec into its machine lattice and "
                    "measure every point")
    sp.add_argument("spec", metavar="SPEC",
                    help="sweep spec file (.toml on Python 3.11+, or "
                         ".json)")
    sp.add_argument("-o", "--output", default=None, metavar="PATH",
                    help="write the canonical SweepResult JSON here "
                         "(default: stdout unless --report)")
    sp.add_argument("--report", action="store_true", dest="report_text",
                    help="print the rendered surface/Pareto report "
                         "instead of raw JSON")
    sp.add_argument("--cluster", action="store_true",
                    help="coordinate the campaign over registered "
                         "`repro worker` processes sharing the cache "
                         "dir (lease-based shards, orphan recovery, "
                         "byte-identical result)")
    sp.add_argument("--expect-workers", type=int, default=0,
                    metavar="N",
                    help="with --cluster: wait for N live workers "
                         "before falling back (default 0: any)")
    sp.add_argument("--worker-grace", type=float, default=5.0,
                    metavar="SECONDS",
                    help="with --cluster: how long to wait for workers "
                         "to register before degrading to the "
                         "in-process pool (default 5)")
    sp.add_argument("--shard-size", type=int, default=2, metavar="N",
                    help="with --cluster: lattice points per shard "
                         "(default 2)")
    sp.add_argument("--lease-timeout", type=float, default=6.0,
                    metavar="SECONDS",
                    help="with --cluster: a shard lease whose "
                         "heartbeat stalls this long is reassigned "
                         "(default 6)")
    sp.add_argument("--require-workers", action="store_true",
                    help="with --cluster: fail instead of degrading "
                         "to the in-process pool when no workers "
                         "register")
    _add_engine_args(sp)
    _add_perf_args(sp)
    sp.set_defaults(func=_cmd_sweep_run)

    sp = sweep_sub.add_parser("report",
                              help="render a stored SweepResult JSON")
    sp.add_argument("result", metavar="RESULT_JSON")
    sp.set_defaults(func=_cmd_sweep_report)

    sp = sweep_sub.add_parser(
        "diff", help="compare two SweepResult files point-for-point")
    sp.add_argument("old", metavar="OLD_JSON")
    sp.add_argument("new", metavar="NEW_JSON")
    sp.set_defaults(func=_cmd_sweep_diff)

    p = sub.add_parser("serve",
                       help="run the multi-tenant experiment service")
    p.add_argument("--cache-dir", default=_default_cache_dir(),
                   metavar="DIR",
                   help="shared artifact store + service state "
                        "(default $REPRO_CACHE_DIR or .repro-cache)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0: OS-assigned, recorded "
                        "in <cache-dir>/service/service.json)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="process-pool width per job execution "
                        "(default 1)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="concurrent job executions (default 2)")
    p.add_argument("--queue-depth", type=int, default=16, metavar="N",
                   help="admission queue bound; submissions past it "
                        "are shed with exit 19 (default 16)")
    p.add_argument("--quota-rate", type=float, default=2.0,
                   metavar="R", help="per-tenant submissions/second "
                                     "refill (default 2)")
    p.add_argument("--quota-burst", type=int, default=8, metavar="N",
                   help="per-tenant submission burst (default 8)")
    p.add_argument("--quota-concurrent", type=int, default=4,
                   metavar="N", help="per-tenant concurrent jobs "
                                     "(default 4)")
    p.add_argument("--drain-grace", type=float, default=30.0,
                   metavar="SECONDS",
                   help="SIGTERM drain grace before handing unfinished "
                        "jobs to the next instance (default 30)")
    p.add_argument("--bench-json", metavar="PATH",
                   help="merge + write service pipeline metrics here "
                        "on drain")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit",
                       help="submit a job to a running service")
    p.add_argument("file", nargs="?", default=None, metavar="FILE",
                   help="MiniC source file ('-' for stdin)")
    p.add_argument("--workload", default=None, metavar="NAME",
                   help="submit a registered workload instead")
    p.add_argument("--figures", action="store_true",
                   help="submit the whole figure suite")
    p.add_argument("--sweep", default=None, metavar="SPEC",
                   help="submit a design-space sweep spec file "
                        "(.toml/.json, see EXPERIMENTS.md)")
    _add_machine_args(p)
    p.add_argument("--models", default=None, metavar="A,B",
                   help="comma-separated subset of "
                        "superblock,cmov,fullpred (default all)")
    p.add_argument("--scale", type=float, default=0.5,
                   help="workload scale factor (default 0.5)")
    p.add_argument("--max-steps", type=int, default=20_000_000,
                   help="emulation step budget (default 20M)")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock deadline from admission; expiry "
                        "fails the job with exit 21")
    p.add_argument("--tenant", default="default",
                   help="tenant the job is charged to")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes and print its "
                        "canonical result JSON")
    p.add_argument("--timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="stop waiting after this long (job keeps "
                        "running)")
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="with --wait: write the result JSON here "
                        "verbatim")
    _add_service_conn_args(p)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("status", help="show one service job's record")
    p.add_argument("job_id", metavar="JOB_ID")
    p.add_argument("--json", action="store_true",
                   help="print the full record as JSON")
    _add_service_conn_args(p)
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("watch",
                       help="stream a service job's journal progress")
    p.add_argument("job_id", metavar="JOB_ID")
    _add_service_conn_args(p)
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser("worker",
                       help="join a distributed sweep campaign: claim "
                            "shard leases, heartbeat, commit results")
    p.add_argument("--cache-dir", default=_default_cache_dir(),
                   metavar="DIR",
                   help="shared store the campaign coordinates "
                        "through (default $REPRO_CACHE_DIR or "
                        ".repro-cache)")
    p.add_argument("--endpoint", default=None, metavar="HOST:PORT",
                   help="claim shards via a running `repro serve` "
                        "instead of direct store access")
    p.add_argument("--once", action="store_true",
                   help="exit after the first idle claim instead of "
                        "polling for new campaigns")
    p.add_argument("--idle-timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="exit after this long with nothing to claim "
                        "(default 60)")
    p.add_argument("--max-shards", type=int, default=0, metavar="N",
                   help="exit after completing N shards (default 0: "
                        "unlimited)")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("list", help="list registered workloads")
    p.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except EmulationFault as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return _EMULATION_FAULT_EXIT
    except (IRError, LexError, ParseError, SemaError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return _IR_ERROR_EXIT
    except OSError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return ReproError.exit_code


if __name__ == "__main__":
    sys.exit(main())
