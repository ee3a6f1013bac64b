"""Benchmark of the repro pipeline, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-cold --seed 1 \
        --seconds 16 --trace 0

Each pass is one ``python -m repro ... --engine vector --jobs 1`` child
process, timed from outside.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run (see
``tracer.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  README.md in this
directory maps every metric to the workload it should move.

All scratch files live under ``.perfbench-work/`` in the repository
root and are removed at exit; the repo's ``.repro-cache``,
``$REPRO_CACHE_DIR`` and ``BENCH_pipeline.json`` are never touched.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PY = sys.executable

#: a run must end within 180 s; stop starting work well before that
DEADLINE_S = 165.0
#: kernel builds per run; set-up time is their median
SETUP_REPEATS = 3
#: ``import repro.cli`` children per traced run
IMPORT_REPEATS = 5
#: the paper report's scale: the smallest at which hyperblocks still form
REPORT_SCALE = 0.2
MAX_STEPS = 20_000_000

#: sweep axis values the seed draws from
ICACHE_BYTES = (256, 512, 1024, 2048, 4096)
DCACHE_BYTES = (512, 1024, 2048, 4096, 8192)
BTB_ENTRIES = (64, 128, 256, 512, 1024, 2048)
#: ``sweep-python``'s fixed workloads: the paper's two case-study loops
#: (Figures 5 and 6) plus one integer and one float SPEC stand-in.  A
#: seeded subset would change the work per pass by a third or more.
PYTHON_WORKLOADS = ("wc", "grep", "compress", "alvinn")

WORKLOADS = {
    "report-cold": dict(kind="report", native=True, sample=6),
    "sweep-cache": dict(kind="sweep", native=True, sample=4),
    "sweep-python": dict(kind="sweep", native=False, sample=4),
}


def sweep_spec(workload: str, seed: int) -> dict:
    """The seeded 8-issue real-cache grid of a sweep workload, at scale 1.0.

    ``sweep-cache`` draws 3 icache x 3 dcache x 2 BTB sizes (18 points)
    over all fifteen workloads.  ``sweep-python`` draws 2 icache sizes
    (2 points) over ``PYTHON_WORKLOADS``: the pure-Python rung is about
    four times slower.  Every draw has the same points and workloads per
    pass, so the work per pass hardly depends on the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    spec = {"name": f"perfbench-{workload}-{seed}", "scale": 1.0,
            "issue_widths": [8], "caches": ["real"]}
    if workload == "sweep-cache":
        return {**spec, "icache_bytes": sorted(rng.sample(ICACHE_BYTES, 3)),
                "dcache_bytes": sorted(rng.sample(DCACHE_BYTES, 3)),
                "btb_entries": sorted(rng.sample(BTB_ENTRIES, 2))}
    return {**spec, "workloads": list(PYTHON_WORKLOADS),
            "icache_bytes": sorted(rng.sample(ICACHE_BYTES, 2)),
            "dcache_bytes": [rng.choice(DCACHE_BYTES)],
            "btb_entries": [rng.choice(BTB_ENTRIES)]}


# ----- child processes --------------------------------------------------

class _Alarm(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _Alarm


class BenchError(Exception):
    """The benchmark could not run (as opposed to wrong output)."""


def run_child(argv, cwd, env, log_path, deadline):
    """Run ``argv`` to completion; returns (exit code, wall s, cpu s,
    peak RSS MB), with CPU and RSS from the child's own rusage."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before the next child")
    # Flush what earlier steps wrote or deleted (the last pass's store),
    # so the child's own fsyncs do not pay for it.
    os.sync()
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        old = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            if isinstance(exc, _Alarm):
                raise BenchError(f"{' '.join(argv[1:6])} exceeded the "
                                 f"time budget") from None
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def log_tail(path: str, lines: int = 15) -> str:
    with open(path, "rb") as handle:
        return b"\n".join(handle.read().splitlines()[-lines:]).decode(
            "utf-8", "replace")


class Bench:
    """One benchmark run of one workload, in a private work directory."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.name = workload
        self.cfg = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = os.path.join(ROOT, ".perfbench-work",
                                 f"{workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "tmp"))
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env.update(PYTHONPATH=SRC, TMPDIR=os.path.join(self.work, "tmp"),
                        REPRO_KERNEL_CACHE=os.path.join(self.work, "kernels"))
        self.pass_env = dict(self.env)
        if not self.cfg["native"]:
            self.pass_env["REPRO_NATIVE"] = "0"
        self.spec_path = None
        if self.cfg["kind"] == "sweep":
            self.spec_path = os.path.join(self.work, "spec.json")
            with open(self.spec_path, "w") as handle:
                json.dump(sweep_spec(workload, seed), handle)
        self.reference = None
        self.last_store = None
        self.passes_run = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    def child(self, argv, env=None, cwd=None, tag="child"):
        log = os.path.join(self.work, f"{tag}.log")
        code, wall, cpu, rss = run_child(argv, cwd or self.work,
                                         env or self.env, log,
                                         self.deadline)
        if code != 0:
            raise BenchError(f"{' '.join(argv[1:6])} exited {code}:\n"
                             + log_tail(log))
        return wall, cpu, rss

    def command(self, cache: str, out: str) -> list[str]:
        common = ["--engine", "vector", "--jobs", "1", "--cache-dir", cache,
                  "-o", out]
        if self.cfg["kind"] == "report":
            return ["report", "--scale", str(REPORT_SCALE), *common]
        return ["sweep", "run", self.spec_path, *common]

    # ----- set-up ------------------------------------------------------

    def setup(self) -> float:
        """Build the native kernels; returns the median build seconds."""
        subprocess.run([PY, "-m", "compileall", "-q", SRC], check=True,
                       stdout=subprocess.DEVNULL, env=self.env)
        builds = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(os.path.join(self.work, "kernels"),
                          ignore_errors=True)
            builds.append(self.child([PY, "-m", "repro", "native"],
                                     tag="setup")[0])
        return statistics.median(builds)

    # ----- passes ------------------------------------------------------

    def one_pass(self, spans_path: str | None = None) -> dict:
        """One pass in a fresh directory with an empty store; the previous
        pass's directory goes."""
        index = self.passes_run
        self.passes_run += 1
        pdir = os.path.join(self.work, f"pass-{index}")
        os.makedirs(pdir)
        cache = os.path.join(pdir, "cache")
        out = os.path.join(pdir, "out")
        args = self.command(cache, out)
        if spans_path is None:
            argv = [PY, "-m", "repro", *args]
        else:
            argv = [PY, os.path.join(HERE, "tracer.py"), spans_path, "--",
                    *args]
        wall, cpu, rss = self.child(argv, env=self.pass_env, cwd=pdir,
                                    tag=f"pass-{index}")
        with open(out, "rb") as handle:
            output = handle.read()
        if self.reference is None:
            self.reference = output
        if self.last_store is not None:
            shutil.rmtree(os.path.dirname(self.last_store))
        self.last_store = cache
        return {"wall": wall, "cpu": cpu, "rss": rss,
                "store_mb": tree_bytes(cache) / 1e6,
                "same_output": output == self.reference}

    def timed_passes(self) -> list[dict]:
        """Untraced passes until ``seconds`` have gone (at least one)."""
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < self.seconds:
            passes.append(self.one_pass())
        return passes

    def oracle(self) -> dict:
        """Legacy-engine sample and cross-model check on the last store."""
        config = os.path.join(self.work, "oracle.json")
        result = os.path.join(self.work, "oracle.out.json")
        with open(config, "w") as handle:
            json.dump({"cache_dir": self.last_store, "seed": self.seed,
                       "scale": REPORT_SCALE
                       if self.cfg["kind"] == "report" else 1.0,
                       "max_steps": MAX_STEPS,
                       "machines": self.spec_path or "report",
                       "sample": self.cfg["sample"]}, handle)
        self.child([PY, os.path.join(HERE, "oracle.py"), config, result],
                   tag="oracle")
        with open(result) as handle:
            return json.load(handle)

    def import_seconds(self) -> float:
        code = ("import time; t = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - t)")
        log = os.path.join(self.work, "import.log")
        times = []
        for _ in range(IMPORT_REPEATS):
            open(log, "w").close()
            self.child([PY, "-c", code], tag="import")
            with open(log) as handle:
                times.append(float(handle.read().split()[-1]))
        return statistics.median(times)


# ----- per-layer metrics from spans --------------------------------------

#: ``PassGate.run`` pass name -> metric
PASS_METRICS = {
    "superblock-formation": "regions.superblock_s",
    "hyperblock-formation": "regions.hyperblock_s",
    "predicate-optimization": "regions.predopt_s",
    "predicate-promotion": "regions.promotion_s",
    "branch-combine": "regions.branch_combine_s",
    "loop-unroll": "regions.unroll_s",
    "partial-conversion": "partial.conversion_s",
    "or-tree-reduction": "partial.or_tree_s",
    "peephole": "opt.peephole_s",
}

#: span name -> self-time metric.  These metrics, the pass metrics and
#: ``unaccounted_s`` partition the traced pass's wall time.
SELF_METRICS = {
    "cli.import": "cli.pass_import_s",
    "cli.main": "cli.main_self_s",
    "frontend": "frontend.s",
    "analysis.profile": "analysis.profile_s",
    "analysis.liveness": "analysis.liveness_s",
    "toolchain.compile": "toolchain.compile_self_s",
    "ir.verify": "ir.verify_s",
    "schedule": "schedule.s",
    "fastpath.decode": "fastpath.decode_s",
    "fastpath.prepare_sim": "fastpath.prepare_sim_s",
    "fastpath.prepare_vector": "fastpath.prepare_sim_s",
    "fastpath.emulate": "fastpath.emulate_s",
    "fastpath.simulate": "fastpath.simulate_s",
    "engine.store_get": "engine.store_get_s",
    "engine.store_put": "engine.store_put_s",
    "engine.keys": "engine.keys_s",
    "engine.journal": "engine.journal_s",
    "experiments.render": "experiments.render_self_s",
    "sweep": "sweep.self_s",
}

#: span name -> call-count metric
CALL_METRICS = {
    "frontend": "frontend.calls",
    "analysis.profile": "analysis.profile_calls",
    "analysis.liveness": "analysis.liveness_calls",
    "toolchain.compile": "toolchain.compile_calls",
    "schedule": "schedule.calls",
    "fastpath.decode": "fastpath.decode_calls",
    "fastpath.prepare_sim": "fastpath.prepare_sim_calls",
    "fastpath.emulate": "fastpath.emulate_calls",
    "fastpath.simulate": "fastpath.simulate_calls",
    "engine.store_get": "engine.store_get_calls",
    "engine.keys": "engine.keys_calls",
    "engine.journal": "engine.journal_calls",
}

#: counts two passes in separate processes must repeat exactly
DETERMINISTIC = ("sim.cycles", "sim.dyn_instrs", "toolchain.static_instrs",
                 "toolchain.compile_calls", "fastpath.prepare_sim_calls",
                 "engine.store_write_mb")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: dict, wall: float) -> dict[str, float]:
    """Self times, counts and ratios of one traced pass."""
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _extra in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = Counter()
    extras = defaultdict(list)
    roots = 0.0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        self_s[name] += end - start - covered[i]
        total_s[name] += end - start
        calls[name] += 1
        if extra is not None:
            extras[name].append(extra)
        if parent < 0:
            roots += end - start
    m = {metric: 0.0 for metric in set(SELF_METRICS.values())}
    m.update({metric: 0.0 for metric in PASS_METRICS.values()})
    m["passes.other_s"] = 0.0
    for name, seconds in self_s.items():
        if name.startswith("pass:"):
            m[PASS_METRICS.get(name[5:], "passes.other_s")] += seconds
        else:
            m[SELF_METRICS[name]] += seconds
    m["unaccounted_s"] = wall - roots
    accounted = sum(m.values())
    if abs(accounted - wall) > 1e-6:
        raise BenchError(f"self times sum to {accounted}, wall is {wall}")
    for name, metric in CALL_METRICS.items():
        m[metric] = calls[name]
    m["toolchain.compile_s"] = total_s["toolchain.compile"]
    # Pipeline calls only: the native supervisor's own canary program
    # is compiled and prepared outside any PipelineContext.
    lowerings = [tuple(x) for x in doc["notes"]["lowerings"] if x]
    m["toolchain.compiles_per_lowering"] = _ratio(len(lowerings),
                                                  len(set(lowerings)))
    m["toolchain.static_instrs"] = sum(extras["toolchain.compile"])
    prepared = [key for key in doc["notes"]["prepared"] if key]
    m["fastpath.preps_per_program"] = _ratio(len(prepared),
                                             len(set(prepared)))
    emulated = sum(extras["fastpath.emulate"])
    m["fastpath.emulate_minstr_per_s"] = _ratio(
        emulated / 1e6, self_s["fastpath.emulate"])
    simulated = extras["fastpath.simulate"]
    m["sim.cycles"] = sum(c for c, _ in simulated)
    m["sim.dyn_instrs"] = sum(n for _, n in simulated)
    m["fastpath.simulate_minstr_per_s"] = _ratio(
        m["sim.dyn_instrs"] / 1e6, self_s["fastpath.simulate"])
    m["fastpath.native_demotions"] = sum(doc["supervisor"].values())
    read = extras["engine.store_get"]
    m["engine.store_read_mb"] = sum(read) / 1e6
    m["engine.store_hit_ratio"] = _ratio(sum(1 for b in read if b),
                                         len(read))
    m["engine.store_write_mb"] = sum(extras["engine.store_put"]) / 1e6
    return m


# ----- the run -----------------------------------------------------------

def load_metric_units() -> dict[str, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return {key: {m["name"]: m["unit"] for m in bench[key]}
            for key in ("end_to_end", "per_layer")}


def _phase(label: str, since: float) -> float:
    now = time.monotonic()
    print(f"{label}: {now - since:.2f} s", file=sys.stderr, flush=True)
    return now


def measure(bench: Bench, trace: bool) -> tuple[dict, int, int, list]:
    """Returns (metrics, attempted, failed, problems)."""
    nondeterministic = []
    mark = time.monotonic()
    setup_s = bench.setup()
    mark = _phase("set-up", mark)
    if not trace:
        passes = bench.timed_passes()
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "peak_rss_mb": statistics.median(p["rss"] for p in passes),
            "store_mb": statistics.median(p["store_mb"] for p in passes),
        }
        print(f"{bench.name}: wall_s is the median of {len(passes)} "
              f"passes", flush=True)
    else:
        import_s = bench.import_seconds()
        plain = bench.one_pass()
        passes = [plain]
        layers = []
        for k in range(2):
            spans_path = os.path.join(bench.work, f"spans-{k}.json")
            traced = bench.one_pass(spans_path)
            passes.append(traced)
            with open(spans_path) as handle:
                layers.append(layer_metrics(json.load(handle),
                                            traced["wall"]))
        for key in DETERMINISTIC:
            if layers[0][key] != layers[1][key]:
                nondeterministic.append(
                    f"{key} differs between traced passes: "
                    f"{layers[0][key]} != {layers[1][key]}")
        metrics = {key: a if a == layers[1][key]
                   else (a + layers[1][key]) / 2
                   for key, a in layers[0].items()}
        metrics["cli.import_s"] = import_s
        metrics["tracing_overhead_s"] = statistics.median(
            p["wall"] for p in passes[1:]) - plain["wall"]
    mark = _phase("passes", mark)
    oracle = bench.oracle()
    _phase("oracle", mark)
    problems = list(oracle["problems"])
    per_pass = oracle["triples"]
    bad_passes = [i for i, p in enumerate(passes) if not p["same_output"]]
    problems += [f"pass {i} output differs from the reference"
                 for i in bad_passes]
    attempted = per_pass * len(passes) + oracle["attempted"]
    failed = per_pass * len(bad_passes) + oracle["failed"]
    if nondeterministic:
        problems += nondeterministic
        failed += per_pass
    if not trace:
        metrics["ok_ratio"] = 1.0 - failed / attempted
    return metrics, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    units = load_metric_units()["per_layer" if args.trace
                                else "end_to_end"]
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        metrics, attempted, failed, problems = measure(bench,
                                                       bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 1
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
