"""Durable sweep-job records: states, journal, crash-safe replay.

A sweep request becomes a :class:`Job` the moment it is submitted, and
every state change afterwards is one fsync'd line in an append-only
JSONL journal — the same write-ahead idiom as the campaign runner's
result checkpoint.  The journal is the *only* source of truth: service
restarts (including after ``kill -9``) rebuild the complete job table
by replaying it with :func:`replay`.

Journal events::

    {"event": "submit", "job": {...}, "time": ...}
    {"event": "state", "job_id": "...", "state": "running", "time": ...}
    {"event": "batch", "job_id": "...", "batch": 2, "executed": 16, ...}

Replay is torn-tail tolerant (a crash mid-append loses at most the
final, partial line) but strict everywhere else: an unparsable line
*before* the tail, or a state event for a job never submitted, raises
:class:`~repro.errors.StoreCorruptError` /
:class:`~repro.errors.JobStateError` — silent repair would hide real
corruption.  Terminal states win: once a job is done / failed /
cancelled, later state events for it are ignored, which is exactly the
race a ``cancel`` during a crash-orphaned ``serve`` produces.

Wall-clock timestamps live *only* here (operator forensics); they never
flow into the result store or campaign artifacts, which must stay
byte-identical across interrupted and uninterrupted runs.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaign.checkpoint import ResultLog, load_results
from repro.errors import ConfigError, JobStateError, StoreCorruptError

# -- job states -------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every legal state, in lifecycle order.
STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a drain loop must (re-)execute: ``running`` means a previous
#: server died mid-job and the work resumes from journal + store.
RUNNABLE = (QUEUED, RUNNING)

#: States no event may move a job out of.
TERMINAL = (DONE, FAILED, CANCELLED)


@dataclasses.dataclass
class Job:
    """One durable sweep request.

    ``stats`` carries the hit/miss accounting the final state event
    reported (empty until the job reaches a terminal state).
    """

    job_id: str
    matrix: str
    campaign_seed: int = 0
    sim_mode: Optional[str] = None
    workers: int = 1
    batch_size: int = 16
    state: str = QUEUED
    stats: Dict[str, int] = dataclasses.field(default_factory=dict)

    def spec(self) -> Dict[str, object]:
        """The submission record (identity + knobs, no runtime state)."""
        return {
            "job_id": self.job_id,
            "matrix": self.matrix,
            "campaign_seed": self.campaign_seed,
            "sim_mode": self.sim_mode,
            "workers": self.workers,
            "batch_size": self.batch_size,
        }

    def describe(self) -> Dict[str, object]:
        """JSON-ready snapshot for ``status --json`` and the dashboard."""
        record = self.spec()
        record["state"] = self.state
        record["stats"] = dict(self.stats)
        return record


class JobJournal:
    """Append-only, fsync'd JSONL journal of job events, written and
    read with the campaign checkpoint's :class:`ResultLog` and
    :func:`load_results`."""

    def __init__(self, path):
        self.path = Path(path)

    def append(self, event: Dict[str, object]) -> None:
        """Durably append one event (creates the journal on first use)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with ResultLog(str(self.path), append=True) as log:
            log.append(event)

    def submit(self, job: Job) -> None:
        self.append({"event": "submit", "job": job.spec(),
                     "time": round(time.time(), 3)})

    def transition(self, job_id: str, state: str,
                   **extras: object) -> None:
        if state not in STATES:
            raise JobStateError(job_id, requested=state,
                                message=f"unknown job state {state!r}")
        event: Dict[str, object] = {"event": "state", "job_id": job_id,
                                    "state": state,
                                    "time": round(time.time(), 3)}
        event.update(extras)
        self.append(event)

    def batch(self, job_id: str, index: int, executed: int) -> None:
        """Progress marker: batch ``index`` of ``job_id`` fully stored."""
        self.append({"event": "batch", "job_id": job_id, "batch": index,
                     "executed": executed, "time": round(time.time(), 3)})

    # -- replay -----------------------------------------------------------

    def events(self) -> List[Dict[str, object]]:
        """Every parsed journal event, tolerating a torn final line
        (the crash interrupted that append, so as far as replay is
        concerned the event never happened)."""
        try:
            return load_results(str(self.path))
        except ConfigError as exc:
            raise StoreCorruptError(str(self.path), str(exc)) from exc

    def replay(self) -> Dict[str, Job]:
        """Rebuild the job table (submission order preserved)."""
        jobs: Dict[str, Job] = {}
        for event in self.events():
            kind = event.get("event")
            if kind == "submit":
                spec = event.get("job") or {}
                job = Job(
                    job_id=str(spec.get("job_id")),
                    matrix=str(spec.get("matrix")),
                    campaign_seed=int(spec.get("campaign_seed", 0)),
                    sim_mode=spec.get("sim_mode"),
                    workers=int(spec.get("workers", 1)),
                    batch_size=int(spec.get("batch_size", 16)),
                )
                jobs[job.job_id] = job
            elif kind == "state":
                job_id = str(event.get("job_id"))
                job = jobs.get(job_id)
                if job is None:
                    raise JobStateError(job_id)
                if job.state in TERMINAL:
                    # Terminal wins: e.g. a cancel recorded while a
                    # crashed server's job sat "running" must not be
                    # undone by that server's stale completion event.
                    continue
                job.state = str(event.get("state"))
                job.stats = {
                    key: value for key, value in event.items()
                    if key not in ("event", "job_id", "state", "time")
                }
            elif kind == "batch":
                continue  # progress markers; results live in the store
        return jobs

    def submit_count(self) -> int:
        """Number of submissions ever journaled (job-id allocation)."""
        return sum(1 for e in self.events() if e.get("event") == "submit")
