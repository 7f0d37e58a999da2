"""Job records: the fold of each job's run ledger.

A job is one submitted request working through the scheduler's lifecycle
``queued -> running -> done | failed``. It has one durable form, its run
ledger ``ledger/<job_id>.ndjson`` (:mod:`repro.obs.ledger`): the
scheduler changes a job only by appending an event there and folding
that same event into the in-memory :class:`JobRecord`, and a restarted
service rebuilds every record by replaying the ledgers, requeueing the
queued and half-run jobs; the points such a job already completed live
in the append-only evaluation-cache log and are served as cache hits on
the re-run instead of being simulated again.

Job metrics themselves are *not* in the ledger — finished results land
in the versioned :class:`~repro.service.results.ResultStore` release the
record points at, and hot results additionally stay in scheduler memory.
"""

from __future__ import annotations

import hashlib

from repro.obs.ledger import JobRecord

__all__ = ["JOB_STATES", "JobRecord", "sweep_hash"]

JOB_STATES = ("queued", "running", "done", "failed")


def sweep_hash(spec_hashes: list[str]) -> str:
    """Content hash of a whole submission (order-sensitive).

    Two requests naming the same design points in the same order share
    it, which is what keys result-store releases and lets audit output
    show duplicate submissions for what they are.
    """
    digest = hashlib.sha256()
    for h in spec_hashes:
        digest.update(h.encode("ascii"))
    return digest.hexdigest()
