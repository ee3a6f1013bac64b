"""Circuit breaker around the worker pool: degrade, don't die.

The DAG scheduler already contains individual worker crashes (pool
rebuild, crash-suspect quarantine, per-job blame).  A *storm* of them —
every pooled job rebuilding the pool — is a sign the pool itself is
sick (fork bomb protection, cgroup OOM, a poisoned import), and the
service must not keep feeding it.  This breaker watches crash evidence
per executed job and switches execution mode:

* **closed** — healthy; jobs run with the configured process pool;
* **open** — ``threshold`` crash-evidence jobs inside ``window``
  seconds tripped it (counted in the ``breaker_trips`` metrics counter);
  jobs run *serially in-process* instead — degraded throughput, but
  the service keeps answering;
* **half-open** — after ``cooldown`` seconds open, exactly one trial
  job is given the pool again.  A clean trial closes the breaker; more
  crash evidence reopens it and restarts the cooldown.

The clock is injectable so tests drive the cooldown deterministically.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

logger = logging.getLogger("repro.service.breaker")

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    threshold: int = 3      # crash-evidence jobs within window to trip
    window: float = 60.0    # seconds the evidence counts for
    cooldown: float = 30.0  # open duration before the half-open trial

    def __post_init__(self):
        if self.threshold < 1 or self.window <= 0 or self.cooldown <= 0:
            raise ValueError(f"invalid breaker config {self!r}")


@dataclass
class CircuitBreaker:
    """Tracks pool health; hands out the execution mode per job."""

    config: BreakerConfig = field(default_factory=BreakerConfig)
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self):
        self.state = CLOSED
        self.trips = 0
        self._evidence: list[float] = []
        self._opened_at = 0.0
        self._trial_out = False

    # ----- decisions ----------------------------------------------------

    def acquire_mode(self) -> str:
        """Execution mode for the next job: ``"pool"`` or ``"serial"``.

        Must be paired with exactly one :meth:`record` call carrying
        the same mode once the job finishes.
        """
        if self.state == CLOSED:
            return "pool"
        now = self.clock()
        if self.state == OPEN \
                and now - self._opened_at >= self.config.cooldown:
            self.state = HALF_OPEN
            self._trial_out = False
        if self.state == HALF_OPEN and not self._trial_out:
            self._trial_out = True
            logger.info("breaker half-open: issuing one pooled trial")
            return "pool"
        return "serial"

    # ----- outcomes -----------------------------------------------------

    def record(self, mode: str, crash_evidence: bool) -> None:
        """Feed one finished job's outcome back into the breaker."""
        if mode != "pool":
            return  # serial jobs never exercise the pool
        now = self.clock()
        if not crash_evidence:
            if self.state == HALF_OPEN:
                logger.warning("breaker closed: pooled trial ran clean")
                self.state = CLOSED
                self._evidence.clear()
                self._trial_out = False
            return
        if self.state == HALF_OPEN:
            logger.warning("breaker reopened: trial job showed crash "
                           "evidence")
            self.state = OPEN
            self._opened_at = now
            self._trial_out = False
            return
        self._evidence = [t for t in self._evidence
                          if now - t < self.config.window]
        self._evidence.append(now)
        if self.state == CLOSED \
                and len(self._evidence) >= self.config.threshold:
            self.state = OPEN
            self._opened_at = now
            self.trips += 1
            logger.warning(
                "breaker tripped after %d crash-evidence jobs in "
                "%.0fs: degrading to serial execution",
                len(self._evidence), self.config.window)
