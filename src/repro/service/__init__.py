"""Experiment service: the engine as a long-running, multi-tenant job API.

The first consumer of :mod:`repro` as a *library*: an HTTP/JSON service
(stdlib only — ``http.server``) that accepts scenario submissions, runs
them on a background scheduler, and publishes results as versioned,
byte-deterministic npz releases. Five pillars:

* :mod:`repro.service.schema` — the canonical, versioned submit-request
  schema; violations become structured 400 bodies;
* :mod:`repro.service.jobs` — job lifecycle records, each the fold of
  the job's run ledger, replayed at boot for kill/restart resume;
* :mod:`repro.service.scheduler` — a single dispatcher thread that
  runs each job's sweep itself through
  :meth:`~repro.experiments.Runner.run_iter`, checkpointing every
  completed point into a shared on-disk
  :class:`~repro.experiments.EvaluationCache` (duplicate or overlapping
  submissions never re-simulate);
* :mod:`repro.service.results` — versioned result releases through the
  npz archive primitives shared with the trace/telemetry stores;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  ThreadingHTTPServer front end and the stdlib client the
  ``repro submit/status/fetch`` CLI commands use.

The CLI exposes the server as ``repro serve``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JOB_STATES, JobRecord, sweep_hash
from repro.service.results import (
    RESULTS_FORMAT,
    RESULTS_VERSION,
    Release,
    ResultStore,
)
from repro.service.scheduler import (
    ExperimentScheduler,
    JobNotDone,
    JobNotFound,
)
from repro.service.schema import (
    REQUEST_VERSION,
    ParsedRequest,
    SchemaError,
    parse_request,
)
from repro.service.server import (
    ApiResponse,
    ExperimentApi,
    make_server,
    serve,
)

__all__ = [
    "JOB_STATES",
    "REQUEST_VERSION",
    "RESULTS_FORMAT",
    "RESULTS_VERSION",
    "ApiResponse",
    "ExperimentApi",
    "ExperimentScheduler",
    "JobNotDone",
    "JobNotFound",
    "JobRecord",
    "ParsedRequest",
    "Release",
    "ResultStore",
    "SchemaError",
    "ServiceClient",
    "ServiceError",
    "make_server",
    "parse_request",
    "serve",
    "sweep_hash",
]
