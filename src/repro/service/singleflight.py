"""Single-flight job records: one execution per request digest.

Every submission resolves to a :class:`JobRecord` keyed by its spec's
CAS request digest.  The registry guarantees at most one *live*
execution per digest: concurrent identical submissions attach to the
existing record as observers (counted in the ``jobs_deduped`` metrics
counter) and all read the same byte-identical
``result_json`` when it completes.  Completed records stay in a
bounded done-cache so an identical submission arriving later is served
with zero compute; a *failed* record is retried by the next
submission instead of poisoning the digest forever.

Records are persisted as JSON files under
``<cache-dir>/service/jobs/`` at every state transition (atomic
tmp+rename), which is what lets a restarted server re-admit jobs that
were queued or running when it died — their run journals then resume
the actual pipeline work with zero recompute.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.service.spec import ServiceJobSpec

#: JobRecord.state values; "done" and "failed" are terminal
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
TERMINAL = (DONE, FAILED)


def job_id_for(digest: str) -> str:
    return "J" + digest[:16]


def run_id_for(digest: str) -> str:
    """Deterministic run id: a restarted server resumes the same
    journal for the same request."""
    return "S" + digest[:16]


@dataclass
class JobRecord:
    """One request digest's lifecycle through the service."""

    job_id: str
    digest: str
    tenant: str
    spec: ServiceJobSpec
    state: str = QUEUED
    run_id: str = ""
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: canonical JSON string — byte-identical for every observer
    result_json: str | None = None
    #: {"type", "message", "exit_code"} of a typed failure
    error: dict | None = None
    #: total submissions that resolved to this record
    observers: int = 1
    #: execution mode the breaker granted ("pool" | "serial")
    mode: str = "pool"
    #: signals observers when the record reaches a terminal state
    done_event: asyncio.Event = field(default_factory=asyncio.Event,
                                      repr=False, compare=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    def remaining_deadline(self) -> float | None:
        """Seconds of deadline left, measured from submission."""
        if self.spec.deadline is None:
            return None
        return self.spec.deadline - (time.time() - self.submitted_at)

    def to_dict(self) -> dict:
        data = {
            "job_id": self.job_id, "digest": self.digest,
            "tenant": self.tenant, "spec": self.spec.to_dict(),
            "state": self.state, "run_id": self.run_id,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "observers": self.observers, "mode": self.mode,
        }
        if self.result_json is not None:
            data["result_json"] = self.result_json
        if self.error is not None:
            data["error"] = self.error
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        return cls(job_id=data["job_id"], digest=data["digest"],
                   tenant=data.get("tenant", "default"),
                   spec=ServiceJobSpec.from_dict(data["spec"]),
                   state=data.get("state", QUEUED),
                   run_id=data.get("run_id", ""),
                   submitted_at=data.get("submitted_at", 0.0),
                   started_at=data.get("started_at"),
                   finished_at=data.get("finished_at"),
                   result_json=data.get("result_json"),
                   error=data.get("error"),
                   observers=data.get("observers", 1),
                   mode=data.get("mode", "pool"))


# ----- persistence ----------------------------------------------------------

def jobs_dir(cache_dir: str | os.PathLike) -> Path:
    return Path(cache_dir) / "service" / "jobs"


def save_record(cache_dir: str | os.PathLike, record: JobRecord) -> None:
    """Durable state transition: atomic tmp+rename, like the store."""
    directory = jobs_dir(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{record.job_id}.json"
    tmp = path.with_suffix(f".tmp-{os.getpid()}")
    tmp.write_text(json.dumps(record.to_dict(), sort_keys=True,
                              indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def load_records(cache_dir: str | os.PathLike) -> list[JobRecord]:
    """Every persisted job record, unparsable files skipped."""
    directory = jobs_dir(cache_dir)
    records: list[JobRecord] = []
    if not directory.is_dir():
        return records
    for path in sorted(directory.glob("J*.json")):
        try:
            records.append(JobRecord.from_dict(
                json.loads(path.read_text(encoding="utf-8"))))
        except (OSError, ValueError, KeyError):
            continue
    return records


# ----- registry -------------------------------------------------------------

class SingleFlight:
    """Digest -> record registry enforcing one live execution each."""

    def __init__(self, done_limit: int = 256):
        self.done_limit = done_limit
        self._active: dict[str, JobRecord] = {}
        self._done: "OrderedDict[str, JobRecord]" = OrderedDict()

    # Lookup order matters: a live execution always wins, then the
    # done-cache.  Only successful cached records satisfy a *new*
    # submission — a failed one is evicted so the submission retries.

    def lookup(self, digest: str) -> JobRecord | None:
        record = self._active.get(digest)
        if record is not None:
            return record
        return self._done.get(digest)

    def coalesce(self, digest: str) -> JobRecord | None:
        """Record a new submission may attach to, or None to execute.

        Attachable: a queued/running record (shares the execution) or
        a successfully completed one (shares the cached result).  A
        failed cached record is evicted and None returned — the new
        submission gets a fresh attempt.
        """
        record = self._active.get(digest)
        if record is not None:
            return record
        record = self._done.get(digest)
        if record is None:
            return None
        if record.state == DONE:
            return record
        del self._done[digest]
        return None

    def admit(self, record: JobRecord) -> None:
        self._active[record.digest] = record

    def finish(self, record: JobRecord) -> None:
        """Move a terminal record into the bounded done-cache."""
        self._active.pop(record.digest, None)
        self._done[record.digest] = record
        self._done.move_to_end(record.digest)
        while len(self._done) > self.done_limit:
            self._done.popitem(last=False)

    def by_job_id(self, job_id: str) -> JobRecord | None:
        for record in self._active.values():
            if record.job_id == job_id:
                return record
        for record in self._done.values():
            if record.job_id == job_id:
                return record
        return None

    @property
    def active_count(self) -> int:
        return len(self._active)
