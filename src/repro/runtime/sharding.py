"""Shard workers behind the sharded extraction service.

The async front end in :mod:`repro.runtime.service` routes extract
requests to N *shards*.  Each shard owns one warm extraction stack and
processes its batches strictly serially, so per-shard results are as
deterministic as the batch CLI.  Two shard flavors share one calling
convention (:meth:`run_batch` / :meth:`close`, invoked from a
per-shard single-thread executor):

* :class:`LocalShard` — the ``shards=1`` path: extraction runs in the
  service process through the service's own
  :class:`~repro.runtime.resilience.ResilientCorpusRunner`, exactly
  like the pre-sharding daemon.
* :class:`ProcessShard` — ``shards>1``: a forked child process holds
  its own extractor (inheriting the parent's published
  ``CompiledArtifact`` and persistent parse cache copy-on-write, with
  path-load fallbacks under spawn) and speaks a pickled message
  protocol over a :class:`multiprocessing.Pipe`.  A dead child (kill
  fault, OOM, SIGKILL) surfaces as :class:`ShardFailure` on the next
  batch, never as a hang.

Routing is rendezvous (highest-random-weight) hashing on the record
id: every record id deterministically prefers one shard, and removing
a dead shard only moves the dead shard's keys — the consistent-hash
property, without a ring.

Each shard may also own a :class:`~repro.storage.db.ResultStore`
*partition* (``<db>.shard<K>``).  Partitions additionally journal
every result/quarantine wire payload keyed by the request's global
accept sequence, so the service can merge them into one store that is
byte-identical to a single-process ``repro extract`` run (see
:func:`repro.storage.db.merge_partition_stores`).  In *fleet* mode
shards skip partitions and write straight to one shared WAL store
with a busy timeout, so several service instances can feed the same
database.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.records.model import PatientRecord

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from repro.extraction.pipeline import ExtractionResult
    from repro.runtime.faults import FaultPlan
    from repro.runtime.resilience import (
        QuarantineEntry,
        ResilientCorpusRunner,
        RetryPolicy,
    )
    from repro.storage.db import ResultStore

#: How long the shared-store lock may be waited on in fleet mode
#: before a write errors out (milliseconds).
FLEET_BUSY_TIMEOUT_MS = 30_000


class ShardFailure(Exception):
    """A shard worker died (killed, crashed, or unreachable)."""

    def __init__(self, shard_id: int, reason: str) -> None:
        self.shard_id = shard_id
        super().__init__(f"shard {shard_id} failed: {reason}")


def shard_for(record_id: str, live: Sequence[int]) -> int:
    """Rendezvous-hash a record id onto one of the *live* shard ids.

    Deterministic across processes (sha256, not ``hash()``), and
    stable under membership change: dropping a shard reassigns only
    the keys that preferred it.
    """
    if not live:
        raise ValueError("no live shards to route to")
    return max(
        live,
        key=lambda shard: hashlib.sha256(
            f"{shard}:{record_id}".encode()
        ).digest(),
    )


def partition_path(store_path: str | Path, shard_id: int) -> Path:
    """Result-store partition owned by one shard."""
    return Path(f"{store_path}.shard{shard_id}")


@dataclass(frozen=True)
class ShardSpec:
    """Everything a shard child needs to build its stack and stores."""

    models: dict[str, dict] | None
    parse_budget: float | None
    artifact_path: str | None
    parse_cache_path: str | None
    store_path: str | None
    fleet: bool
    run_id: str
    max_batch: int
    policy: "RetryPolicy | None"


@dataclass
class BatchOutcome:
    """What one dispatched batch produced, shard-agnostic."""

    results: "list[ExtractionResult]"
    #: Quarantine entries with ``record_index`` rebased to the global
    #: accept sequence of the poisoned request.
    quarantine: "list[QuarantineEntry]"
    #: Parse outcomes the shard's persistent cache gained (empty for
    #: the local shard, whose cache belongs to the parent already).
    parse_delta: dict[tuple, tuple]


def _persist_batch(
    store: "ResultStore | None",
    outcome: BatchOutcome,
    seqs: Sequence[int],
    run_id: str,
    fleet: bool,
) -> None:
    """Write one batch to the shard's store, if it has one.

    Non-fleet partitions also journal the wire payloads keyed by
    accept sequence — the raw material for the byte-identical merge.
    """
    if store is None:
        return
    store.store_many(outcome.results)
    if outcome.quarantine:
        store.save_quarantine(list(outcome.quarantine), run_id=run_id)
    if fleet:
        return
    quarantined_seqs = {
        entry.record_index for entry in outcome.quarantine
    }
    payloads: list[tuple[int, str, str]] = []
    cursor = 0
    for seq in seqs:
        if seq in quarantined_seqs:
            continue
        payloads.append(
            (
                seq,
                "result",
                json.dumps(outcome.results[cursor].to_dict()),
            )
        )
        cursor += 1
    payloads.extend(
        (entry.record_index, "quarantine", json.dumps(entry.to_dict()))
        for entry in outcome.quarantine
    )
    store.save_shard_payloads(payloads)


def _open_shard_store(
    spec: ShardSpec, shard_id: int
) -> "ResultStore | None":
    from repro.storage.db import ResultStore

    if spec.store_path is None:
        return None
    if spec.fleet:
        return ResultStore(
            spec.store_path, busy_timeout_ms=FLEET_BUSY_TIMEOUT_MS
        )
    return ResultStore(partition_path(spec.store_path, shard_id))


# ------------------------------------------------------------- local

class LocalShard:
    """The in-process shard: extraction on the service's own runner."""

    def __init__(
        self,
        shard_id: int,
        runner: "ResilientCorpusRunner",
        spec: ShardSpec,
    ) -> None:
        self.shard_id = shard_id
        self.runner = runner
        self.spec = spec
        self.dead = False
        # Opened lazily on the first batch so the SQLite connection
        # is born on the shard's executor thread (where all batch
        # and close calls run), not the event-loop thread.
        self._store: "ResultStore | None" = None
        self._store_opened = False

    def run_batch(
        self,
        records: "list[PatientRecord]",
        plan: "FaultPlan | None",
        seqs: Sequence[int],
    ) -> BatchOutcome:
        if not self._store_opened:
            self._store = _open_shard_store(self.spec, self.shard_id)
            self._store_opened = True
        self.runner.fault_plan = plan
        self.runner.index_map = list(seqs)
        results = self.runner.run(records)
        outcome = BatchOutcome(
            results=results,
            quarantine=list(self.runner.quarantine),
            parse_delta={},
        )
        _persist_batch(
            self._store, outcome, seqs, self.spec.run_id,
            self.spec.fleet,
        )
        return outcome

    def close(self) -> dict[str, Any]:
        if self._store is not None:
            self._store.close()
        return {"shard": self.shard_id, "mode": "local"}


# ----------------------------------------------------------- process

def _shard_child(
    conn: "Connection", shard_id: int, spec: ShardSpec
) -> None:
    """Shard child main loop: build the stack once, serve batches.

    The shared pool initializer marks the child as a worker (see
    :func:`repro.runtime.faults.mark_worker`), so injected ``kill``
    faults hard-exit it — a deterministic stand-in for a crashed
    shard that the parent observes as EOF on the pipe.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.runtime import runner as runner_mod
    from repro.runtime.faults import InjectedInterrupt
    from repro.runtime.resilience import ResilientCorpusRunner

    runner_mod._init_worker(
        spec.models,
        spec.parse_budget,
        spec.artifact_path,
        None,
        spec.parse_cache_path,
    )
    extractor = runner_mod._WORKER_EXTRACTOR
    assert extractor is not None
    runner = ResilientCorpusRunner(
        extractor,
        workers=1,
        chunk_size=spec.max_batch,
        policy=spec.policy,
    )
    store = _open_shard_store(spec, shard_id)
    caches = getattr(extractor, "caches", None)
    persistent = (
        caches.linkages.persistent if caches is not None else None
    )
    batches = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "close":
            if store is not None:
                store.close()
            stats = runner.stats() if batches else {}
            stats["shard"] = shard_id
            stats["batches"] = batches
            try:
                conn.send(("closed", stats))
            except (OSError, BrokenPipeError):
                pass
            break
        _, records, plan, seqs = message
        batches += 1
        try:
            runner.fault_plan = plan
            runner.index_map = list(seqs)
            results = runner.run(records)
        except (Exception, InjectedInterrupt) as exc:
            conn.send(("error", type(exc).__name__, str(exc)))
            continue
        outcome = BatchOutcome(
            results=results,
            quarantine=list(runner.quarantine),
            parse_delta=(
                persistent.drain_delta()
                if persistent is not None
                else {}
            ),
        )
        _persist_batch(store, outcome, seqs, spec.run_id, spec.fleet)
        conn.send(
            ("ok", outcome.results, outcome.quarantine,
             outcome.parse_delta)
        )
    conn.close()


class ProcessShard:
    """One forked shard worker driven over a pipe.

    All calls happen on the service's per-shard executor thread, so
    pipe access is serialized.  A broken pipe marks the shard dead
    and raises :class:`ShardFailure`; the service answers the batch
    with typed errors and routes subsequent records elsewhere.
    """

    def __init__(self, shard_id: int, spec: ShardSpec) -> None:
        self.shard_id = shard_id
        self.spec = spec
        self.dead = False
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_shard_child,
            args=(child_conn, shard_id, spec),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def run_batch(
        self,
        records: "list[PatientRecord]",
        plan: "FaultPlan | None",
        seqs: Sequence[int],
    ) -> BatchOutcome:
        if self.dead:
            raise ShardFailure(self.shard_id, "worker already dead")
        try:
            self._conn.send(("batch", records, plan, list(seqs)))
            reply = self._conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            self.dead = True
            raise ShardFailure(
                self.shard_id,
                f"pipe broke mid-batch ({type(exc).__name__})",
            ) from exc
        if reply[0] == "error":
            _, error_type, message = reply
            raise RuntimeError(f"{error_type}: {message}")
        _, results, quarantine, parse_delta = reply
        return BatchOutcome(
            results=results,
            quarantine=quarantine,
            parse_delta=parse_delta,
        )

    def close(self, timeout: float = 10.0) -> dict[str, Any]:
        """Drain the child: close its store, collect final stats."""
        stats: dict[str, Any] = {
            "shard": self.shard_id, "mode": "process",
        }
        if not self.dead:
            try:
                self._conn.send(("close",))
                if self._conn.poll(timeout):
                    reply = self._conn.recv()
                    if reply[0] == "closed":
                        stats.update(reply[1])
            except (EOFError, OSError, BrokenPipeError):
                self.dead = True
        self._conn.close()
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        stats["dead"] = self.dead
        return stats


__all__ = [
    "BatchOutcome",
    "FLEET_BUSY_TIMEOUT_MS",
    "LocalShard",
    "ProcessShard",
    "ShardFailure",
    "ShardSpec",
    "partition_path",
    "shard_for",
]
