"""Typed error taxonomy for the hardened experiment pipeline.

Every failure mode of the verify/emulate/simulate loop maps to one
exception class so callers (the CLI, the experiment suite's ``degrade``
mode, CI) can react structurally instead of pattern-matching message
strings or — worse — catching bare ``Exception``.  Each class carries a
distinct ``exit_code`` that ``python -m repro`` propagates to the shell.
"""

from __future__ import annotations

from repro.emu.memory import EmulationFault


class ReproError(Exception):
    """Base of the reproduction pipeline's failure taxonomy."""

    exit_code = 10


class CompileError(ReproError):
    """A compilation stage crashed or produced no usable program."""

    exit_code = 11

    def __init__(self, message: str, *, pass_name: str | None = None,
                 function: str | None = None):
        super().__init__(message)
        self.pass_name = pass_name
        self.function = function


class SpecError(ReproError):
    """A user-supplied specification is invalid.

    Covers malformed sweep specs (unknown axes, empty grids, bad
    ranges) and machine descriptions with unknown latency-table keys —
    rejected *before* any digest is computed, so a typo can never be
    silently hashed into a never-matching cache key.  Shares exit code
    11 with :class:`CompileError`: both mean "your input, not the
    pipeline, is broken".
    """

    exit_code = 11

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field


class PassVerificationError(CompileError):
    """A compiler pass left the IR structurally invalid.

    Raised by the pass gate (``robustness.passgate``) when the verifier
    rejects a function right after a pass ran; ``artifact_path`` points
    at the dumped IR snapshot for post-mortem debugging.
    """

    exit_code = 12

    def __init__(self, message: str, *, pass_name: str | None = None,
                 function: str | None = None,
                 artifact_path: str | None = None):
        super().__init__(message, pass_name=pass_name, function=function)
        self.artifact_path = artifact_path


class EmulationTimeout(ReproError, EmulationFault):
    """The emulation watchdog's wall-clock budget expired.

    Also an :class:`EmulationFault` so existing fault handlers around
    ``run_program`` keep working.
    """

    exit_code = 13

    def __init__(self, message: str, *, steps: int = 0,
                 elapsed: float = 0.0, budget: float = 0.0):
        super().__init__(message)
        self.steps = steps
        self.elapsed = elapsed
        self.budget = budget


class TraceIntegrityError(ReproError):
    """A dynamic trace violates an invariant of emulation.

    Covers missing traces, event/step count mismatches, nullified
    instructions without a guard, and control transfers inconsistent
    with the recorded branch directions.
    """

    exit_code = 14


class ArtifactLockTimeout(ReproError):
    """The store's advisory write lock could not be acquired in time.

    Transient by classification (:mod:`repro.engine.recovery.retry`):
    the holder is usually another live writer about to finish, and a
    crashed holder's lease expires on its own.
    """

    exit_code = 17

    def __init__(self, message: str, *, lock_path: str | None = None,
                 waited: float = 0.0):
        super().__init__(message)
        self.lock_path = lock_path
        self.waited = waited


class ModelDivergenceError(ReproError):
    """Two processor models disagreed on observable program behavior.

    ``kind`` names the observable: ``return-value``, ``output-stream``
    (the dynamic store stream) or ``memory-state`` (final global data).
    """

    exit_code = 15

    def __init__(self, message: str, *, workload: str | None = None,
                 model: str | None = None, kind: str | None = None):
        super().__init__(message)
        self.workload = workload
        self.model = model
        self.kind = kind
        #: for store-stream divergences, the first divergent store
        #: ("store#3 @0x1a0 7 vs 9"), attached by the fuzz executor
        self.first_event: str | None = None


class FuzzFindingsError(ReproError):
    """A fuzzing campaign or corpus replay ended with open findings.

    Raised by ``repro fuzz run`` / ``repro fuzz replay`` after triage:
    ``count`` raw findings collapsed to ``unique`` signatures, each with
    a reproducer saved under ``corpus/``.
    """

    exit_code = 18

    def __init__(self, message: str, *, count: int = 0, unique: int = 0):
        super().__init__(message)
        self.count = count
        self.unique = unique


class ServiceOverloadedError(ReproError):
    """The experiment service shed this submission under load.

    The admission queue was full (or the server is draining), so the
    request was rejected *before* consuming memory or compute —
    explicit load-shedding instead of unbounded queue growth.
    ``retry_after`` (seconds) is the server's hint for when capacity
    should free up; transient by classification.
    """

    exit_code = 19

    def __init__(self, message: str, *, retry_after: float = 1.0,
                 queue_depth: int | None = None):
        super().__init__(message)
        self.retry_after = retry_after
        self.queue_depth = queue_depth


class QuotaExceededError(ReproError):
    """A tenant exhausted its token-bucket rate or concurrency quota.

    ``retry_after`` is the time until the bucket refills one token (0
    when the *concurrency* limit, not the rate, was hit — retry when
    one of the tenant's jobs finishes).  Transient by classification.
    """

    exit_code = 20

    def __init__(self, message: str, *, tenant: str | None = None,
                 retry_after: float = 0.0, kind: str = "rate"):
        super().__init__(message)
        self.tenant = tenant
        self.retry_after = retry_after
        self.kind = kind


class NativeEngineError(ReproError):
    """Base of the native (C) kernel engine's failure taxonomy.

    Everything the native-engine supervisor can report — build
    failures, missing toolchains, parity mismatches, kernel crashes —
    derives from this class, so callers that only care about "the
    native rung is gone" can catch one type while the CLI still maps
    each subclass to a distinct exit code.
    """

    def __init__(self, message: str, *, so_path: str | None = None):
        super().__init__(message)
        self.so_path = so_path


class NativeBuildError(NativeEngineError):
    """The C compiler ran but failed to produce a loadable kernel.

    Permanent: the same source fed to the same compiler fails the same
    way on every retry.  ``cc`` names the compiler, ``stderr`` carries
    its (truncated) diagnostics for the demotion event.
    """

    exit_code = 22

    def __init__(self, message: str, *, cc: str | None = None,
                 stderr: str = "", so_path: str | None = None):
        super().__init__(message, so_path=so_path)
        self.cc = cc
        self.stderr = stderr


class NativeToolchainMissing(NativeEngineError):
    """No usable C compiler was found on this host.

    Transient by classification: the toolchain can reappear (PATH
    fixed, container layer mounted) and a retry lands harmlessly on
    the demoted pure-Python engines either way.  ``searched`` lists
    the compiler names that were tried.
    """

    exit_code = 23

    def __init__(self, message: str,
                 *, searched: tuple[str, ...] = ()):
        super().__init__(message)
        self.searched = searched


class NativeParityError(NativeEngineError):
    """A native kernel's golden-trace observables diverged from the
    interpreter's.

    Permanent: rebuilding the same source with the same compiler
    reproduces the same object, so the supervisor quarantines the
    ``.so`` and demotes the process instead of retrying.  ``expected``
    and ``actual`` are the golden observable digests.
    """

    exit_code = 24

    def __init__(self, message: str, *, so_path: str | None = None,
                 expected: str | None = None, actual: str | None = None):
        super().__init__(message, so_path=so_path)
        self.expected = expected
        self.actual = actual


class NativeKernelCrash(NativeEngineError):
    """A native kernel died hard (SIGSEGV/SIGBUS) or faulted mid-run.

    Raised by the sacrificial-subprocess canary when the child exits
    on a signal, and by the in-process fault hooks when a kernel scan
    is aborted mid-chunk.  Transient by classification: the supervisor
    demotes the process first, so the retry runs on a pure-Python
    engine and succeeds byte-identically.  ``signal`` is the POSIX
    signal number when one is known, ``stage`` names the kernel
    (``emu`` / ``sim-scan`` / ``canary``).
    """

    exit_code = 25

    def __init__(self, message: str, *, so_path: str | None = None,
                 signal: int | None = None, stage: str | None = None):
        super().__init__(message, so_path=so_path)
        self.signal = signal
        self.stage = stage


class DeadlineExceededError(ReproError):
    """A job's wall-clock deadline expired before it completed.

    Raised either before execution starts (the job aged out in the
    admission queue) or from the emulation watchdog the remaining
    budget was propagated into.  Permanent: retrying the same deadline
    would expire again.
    """

    exit_code = 21

    def __init__(self, message: str, *, deadline: float = 0.0,
                 elapsed: float = 0.0):
        super().__init__(message)
        self.deadline = deadline
        self.elapsed = elapsed


class WorkerLostError(ReproError):
    """A campaign worker stopped heartbeating and its shard lease was
    broken.

    Raised (and journaled) by the cluster coordinator when it reassigns
    an orphaned shard.  Transient by classification: the shard is
    deterministic ``(campaign_digest, shard_index)`` work, so any other
    worker — or the coordinator itself — re-executes it to the same
    bytes.
    """

    exit_code = 26

    def __init__(self, message: str, *, worker_id: str | None = None,
                 shard: int | None = None, epoch: int | None = None):
        super().__init__(message)
        self.worker_id = worker_id
        self.shard = shard
        self.epoch = epoch


class LeaseFencedError(ReproError):
    """A worker's shard lease was superseded by a higher fencing epoch.

    Raised when a paused-then-resumed (zombie) worker tries to
    heartbeat or commit a shard whose lease was already broken and
    re-issued.  Permanent *for the fenced worker*: its view of the
    shard is stale by definition, so it must abandon the shard (and the
    typed CLI exit makes a fenced ``repro worker`` process stop rather
    than fight the successor).  The campaign itself is unharmed — the
    successor's lease carries a strictly greater epoch and its commit
    wins.
    """

    exit_code = 27

    def __init__(self, message: str, *, shard: int | None = None,
                 epoch: int | None = None,
                 holder_epoch: int | None = None):
        super().__init__(message)
        self.shard = shard
        self.epoch = epoch
        self.holder_epoch = holder_epoch


class BaselineMismatchError(ReproError):
    """``--compare`` was given a baseline of a different run.

    Per-invocation stage times are comparable only between runs of the
    same subcommand over the same workloads, scale and engine; a
    baseline recorded for another run (or recorded before bench files
    named their run) would report spurious regressions or hide real
    ones.  Neither a pass nor a regression: its own exit code.
    """

    exit_code = 28

    def __init__(self, message: str, *, current: dict | None = None,
                 baseline: dict | None = None):
        super().__init__(message)
        self.current = current
        self.baseline = baseline


# ----- classification -------------------------------------------------------

def _classified_bases() -> tuple[type[BaseException], ...]:
    """Exception bases the pipeline recognizes as already classified.

    Imported lazily: the language frontend does not depend on the
    robustness package, and keeping it that way at module-import time
    avoids any chance of a cycle.
    """
    from concurrent.futures.process import BrokenProcessPool
    from repro.ir.function import IRError
    from repro.lang.lexer import LexError
    from repro.lang.parser import ParseError
    from repro.lang.sema import SemaError
    return (ReproError, EmulationFault, IRError, LexError, ParseError,
            SemaError, BrokenProcessPool, OSError, TimeoutError,
            ConnectionError, KeyboardInterrupt, SystemExit)


def classify_exception(exc: BaseException) -> BaseException:
    """Normalize ``exc`` into the typed taxonomy.

    Exceptions the pipeline already maps to exit codes (the taxonomy,
    emulation faults, frontend errors, OS-level transients) pass
    through unchanged; anything else — a stray ``KeyError`` deep in a
    pass, an ``AssertionError`` in a worker — is wrapped in a generic
    :class:`ReproError` that names the original type, so downstream
    consumers (the scheduler's failure records, the experiment
    service's error mapping) never see an unclassified exception.
    """
    if isinstance(exc, _classified_bases()):
        return exc
    wrapped = ReproError(
        f"unclassified {type(exc).__name__}: {exc}")
    wrapped.__cause__ = exc
    return wrapped
