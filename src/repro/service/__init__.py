"""Fault-tolerant campaign service: leased scheduling over workers.

The service layer turns campaign execution into a long-lived scheduler
(:class:`CampaignService`) that accepts concurrent submissions,
decomposes them into content-keyed cells (overlapping tenant grids
dedupe), dispatches cells to worker processes under heartbeat leases,
recovers from lost workers by re-dispatching expired leases, and
commits each cell's record exactly once to a durable
:class:`~repro.resilience.journal.CheckpointJournal`.

Workers are processes speaking the lease protocol
(:mod:`repro.service.protocol`) as checksummed frames over TCP
(:mod:`repro.service.transport`).  The scheduler always listens: by
default on an ephemeral loopback port, dialed by the ``workers``
processes it spawns itself; with ``ServiceConfig.listen`` set, on that
address, dialed by ``repro-run work --connect`` on any host
(:mod:`repro.service.worker`).

The chaos harness (:mod:`repro.service.chaos`) injects worker kills,
heartbeat stalls, duplicated/reordered completions, journal truncation,
and wire faults (dropped, corrupted, truncated, delayed frames; dropped
connections) on a seeded, reproducible schedule; the integration tests
use it to prove the service's results stay identical to a serial
:meth:`Campaign.run` under failure.
"""

from repro.experiments.campaign import cell_digest
from repro.service.chaos import (
    KILLED_EXIT_CODE,
    ChaosDecision,
    ChaosEngine,
    ChaosSpec,
    CompletionGate,
    WireDecision,
    planned_faults,
    planned_wire_faults,
    truncate_journal_tail,
)
from repro.service.lease import Lease, LeaseTable, lease_id_for
from repro.service.protocol import (
    CellAssignment,
    CompletionMsg,
    GoodbyeMsg,
    HeartbeatMsg,
    HelloMsg,
    NackMsg,
    RegisteredMsg,
    ShutdownMsg,
    payload_digest,
)
from repro.service.scheduler import (
    CampaignService,
    ServiceConfig,
    SubmissionHandle,
    run_service,
)
from repro.service.transport import FramedSocket, connect, listen_socket
from repro.service.worker import run_net_worker, spawn_net_workers

__all__ = [
    "KILLED_EXIT_CODE",
    "CampaignService",
    "CellAssignment",
    "ChaosDecision",
    "ChaosEngine",
    "ChaosSpec",
    "CompletionGate",
    "CompletionMsg",
    "FramedSocket",
    "GoodbyeMsg",
    "HeartbeatMsg",
    "HelloMsg",
    "Lease",
    "LeaseTable",
    "NackMsg",
    "RegisteredMsg",
    "ServiceConfig",
    "ShutdownMsg",
    "SubmissionHandle",
    "WireDecision",
    "cell_digest",
    "connect",
    "lease_id_for",
    "listen_socket",
    "payload_digest",
    "planned_faults",
    "planned_wire_faults",
    "run_net_worker",
    "run_service",
    "spawn_net_workers",
    "truncate_journal_tail",
]
