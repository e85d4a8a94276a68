"""Corpus execution: serial or process fan-out, fault-tolerant.

:class:`ResilientCorpusRunner` is the one corpus runner — behind
``repro extract``, ``repro serve`` and every shard.  It drives
:meth:`~repro.extraction.pipeline.RecordExtractor.extract` over a
cohort in contiguous chunks, and a hostile corpus cannot take down a
run:

* **Retry with backoff** — a failed chunk is re-executed up to
  ``RetryPolicy.max_attempts`` times with exponential backoff; the
  worker's caches are reset on failure so corrupted entries cannot
  survive into the retry.
* **Bisection** — a chunk that keeps failing is split in half and each
  half re-queued with a fresh attempt budget, recursively, until the
  poison record is isolated in a singleton chunk.
* **Quarantine** — an isolated poison record is recorded (id, index,
  exception type, traceback digest, trace span, attempts) and skipped;
  the run continues and every other record's output is byte-identical
  to a run that never saw the poison.
* **Pool recovery** — a worker death (``BrokenProcessPool``) rebuilds
  the pool and re-queues every in-flight chunk, up to
  ``RetryPolicy.max_pool_rebuilds`` times; past the cap a typed
  :class:`~repro.errors.ResilienceError` is raised.
* **Checkpoint/resume** — completed chunks stream to an append-only
  :class:`Journal`; a resumed run (``repro extract --resume RUN_ID``)
  verifies the journal belongs to the same corpus, skips finished
  work, and produces a result store bit-for-bit identical to an
  uninterrupted run.

Everything is observable: retries, bisections, quarantines, re-queued
chunks, and pool rebuilds all land in the runner's metrics and (when a
tracer is attached) as trace events.  The deterministic fault plans in
:mod:`repro.runtime.faults` exercise each path under test.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import pickle
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro import profiling
from repro.errors import ResilienceError
from repro.records.model import PatientRecord
from repro.runtime import runner as _runner
from repro.runtime import tracing
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import Metrics, diff_stats, merge_stats
from repro.runtime.tracing import Span, Tracer

if TYPE_CHECKING:
    from repro.extraction.pipeline import (
        ExtractionResult,
        RecordExtractor,
    )
    from repro.runtime.compiled import CompiledArtifact
    from repro.runtime.parsecache import PersistentParseCache


# ------------------------------------------------------------- policy

@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the recovery machinery (all deterministic)."""

    #: Executions of one chunk before it is bisected (or, for a
    #: singleton chunk, its record quarantined).
    max_attempts: int = 3
    #: First retry sleeps this long; each later retry doubles it.
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    #: Worker-pool rebuilds tolerated in one run before giving up.
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, "
                f"got {self.max_pool_rebuilds}"
            )

    def backoff(self, attempt: int) -> float:
        """Sleep before re-running a chunk that failed *attempt*."""
        return min(
            self.backoff_base_s * self.backoff_factor ** attempt,
            self.backoff_max_s,
        )


# --------------------------------------------------------- quarantine

@dataclass(frozen=True)
class QuarantineEntry:
    """One poisoned record, isolated and set aside."""

    record_id: str
    record_index: int
    error_type: str
    message: str
    traceback_digest: str
    trace_span: str  # JSON-serialized quarantine span
    attempts: int

    @classmethod
    def from_exception(
        cls,
        record: PatientRecord,
        index: int,
        error: BaseException,
        attempts: int,
    ) -> "QuarantineEntry":
        text = "".join(
            traceback_module.format_exception(
                type(error), error, error.__traceback__
            )
        )
        span = Span(
            kind="quarantine",
            name=record.patient_id,
            attributes={
                "record_index": index,
                "error_type": type(error).__name__,
                "attempts": attempts,
            },
        )
        return cls(
            record_id=record.patient_id,
            record_index=index,
            error_type=type(error).__name__,
            message=str(error)[:500],
            traceback_digest=hashlib.sha256(
                text.encode()
            ).hexdigest()[:16],
            trace_span=json.dumps(span.to_dict(), sort_keys=True),
            attempts=attempts,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "record_id": self.record_id,
            "record_index": self.record_index,
            "error_type": self.error_type,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "trace_span": self.trace_span,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QuarantineEntry":
        return cls(
            record_id=data["record_id"],
            record_index=int(data["record_index"]),
            error_type=data["error_type"],
            message=data.get("message", ""),
            traceback_digest=data.get("traceback_digest", ""),
            trace_span=data.get("trace_span", ""),
            attempts=int(data.get("attempts", 0)),
        )


# ------------------------------------------------------------ journal

def corpus_digest(records: Sequence[PatientRecord]) -> str:
    """Content fingerprint of a corpus, for journal/corpus matching."""
    payload = [
        (record.patient_id,
         [(section.name, section.text)
          for section in record.sections])
        for record in records
    ]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


class Journal:
    """Append-only JSONL checkpoint of a corpus run.

    Line types:

    * ``header`` — run metadata (run id, corpus digest, record count)
      written once at the start of a run;
    * ``chunk`` — one completed chunk: start index, patient ids, and
      the pickled extraction results (base64), integrity-checked with
      a SHA-256 digest;
    * ``quarantine`` — one :class:`QuarantineEntry`.

    Every append is flushed and fsynced before returning, so a run
    killed between chunks (the ``kill -9`` scenario) loses at most the
    chunk in flight.  :meth:`load` stops at the first corrupt or
    truncated line and returns everything before it.
    """

    VERSION = 1

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists() and self.path.stat().st_size > 0

    # ------------------------------------------------------- writing

    def _append(self, line: dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def write_header(self, meta: dict[str, Any]) -> None:
        """Start a fresh journal (clears any stale file)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")
        self._append(
            {"type": "header", "version": self.VERSION, **meta}
        )

    def append_chunk(
        self, start: int, results: "list[ExtractionResult]"
    ) -> None:
        payload = base64.b64encode(
            pickle.dumps(results)
        ).decode("ascii")
        self._append(
            {
                "type": "chunk",
                "start": start,
                "count": len(results),
                "ids": [r.patient_id for r in results],
                "sha": hashlib.sha256(
                    payload.encode()
                ).hexdigest()[:16],
                "payload": payload,
            }
        )

    def append_quarantine(self, entry: QuarantineEntry) -> None:
        self._append({"type": "quarantine", **entry.to_dict()})

    # ------------------------------------------------------- reading

    def load(
        self,
    ) -> tuple[
        dict[str, Any] | None,
        "dict[int, list[ExtractionResult]]",
        list[QuarantineEntry],
    ]:
        """Replay the journal: (header, chunks by start, quarantine).

        A corrupt or truncated tail line (the write the dying process
        never finished) ends the replay silently — the work it would
        have covered is simply re-run.
        """
        header: dict[str, Any] | None = None
        chunks: dict[int, list[ExtractionResult]] = {}
        quarantined: list[QuarantineEntry] = []
        if not self.exists():
            return header, chunks, quarantined
        for line in self.path.read_text(
            encoding="utf-8"
        ).splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                kind = data.get("type")
                if kind == "header":
                    header = {
                        k: v for k, v in data.items() if k != "type"
                    }
                elif kind == "chunk":
                    payload = data["payload"]
                    digest = hashlib.sha256(
                        payload.encode()
                    ).hexdigest()[:16]
                    if digest != data["sha"]:
                        break
                    results = pickle.loads(
                        base64.b64decode(payload)
                    )
                    if len(results) != data["count"]:
                        break
                    chunks[int(data["start"])] = results
                elif kind == "quarantine":
                    quarantined.append(
                        QuarantineEntry.from_dict(data)
                    )
            except (KeyError, ValueError, pickle.PickleError,
                    EOFError):
                break
        return header, chunks, quarantined


# ----------------------------------------------------- chunk executor

@dataclass(frozen=True)
class _ChunkTask:
    """One unit of recoverable work: a contiguous record slice."""

    start: int  # global index of the first record
    records: tuple[PatientRecord, ...]
    attempt: int = 0


def _extract_records(
    extractor: "RecordExtractor",
    records: Sequence[PatientRecord],
    start: int,
    attempt: int,
    plan: FaultPlan | None,
    index_map: Sequence[int] | None = None,
) -> "list[ExtractionResult]":
    """The innermost loop: fire scheduled faults, extract each record.

    ``index_map`` translates run-local record positions to an outer
    index space (the extraction service's global accept sequence), so
    fault matching and injected-error messages speak global indices —
    identical to a batch run over the same stream.
    """
    results = []
    for offset, record in enumerate(records):
        if plan is not None:
            position = start + offset
            plan.fire(
                index_map[position]
                if index_map is not None
                else position,
                attempt,
                extractor=extractor,
            )
        results.append(extractor.extract(record))
    return results


def _reset_caches(extractor: "RecordExtractor") -> None:
    """Evict possibly-corrupt cache state after a chunk failure."""
    caches = getattr(extractor, "caches", None)
    if caches is not None:
        caches.clear()


def _extract_chunk_guarded(
    payload: tuple[
        int, tuple[PatientRecord, ...], bool, int, FaultPlan | None
    ],
) -> tuple[
    int,
    "list[ExtractionResult]",
    dict[str, Any],
    list[dict],
    dict[tuple, tuple],
]:
    """Worker-side chunk execution with cache reset on failure."""
    start, records, trace, attempt, plan = payload
    extractor = _runner._WORKER_EXTRACTOR
    assert extractor is not None, "pool initializer did not run"
    before = extractor.counters()
    spans: list[dict] = []
    try:
        if trace:
            tracer = Tracer()
            with tracing.activated(tracer):
                results = _extract_records(
                    extractor, records, start, attempt, plan
                )
            spans = [root.to_dict() for root in tracer.roots]
        else:
            results = _extract_records(
                extractor, records, start, attempt, plan
            )
    except Exception:
        _reset_caches(extractor)
        raise
    delta = diff_stats(extractor.counters(), before)
    delta = _runner._attach_init_report(delta)
    parse_delta: dict[tuple, tuple] = {}
    caches = getattr(extractor, "caches", None)
    if caches is not None and caches.linkages.persistent is not None:
        parse_delta = caches.linkages.persistent.drain_delta()
    return start, results, delta, spans, parse_delta


# ------------------------------------------------------------- runner

class ResilientCorpusRunner:
    """The corpus runner: serial by default, process fan-out on demand.

    ``workers=1`` (the default) runs in-process and is the
    deterministic reference path.  ``workers>1`` fans contiguous
    chunks of records out over a process pool whose workers build
    their extraction stack once (see :mod:`repro.runtime.runner`);
    results are reassembled in input order, so parallel output is
    byte-identical to serial, and each chunk's engine-counter delta is
    merged into one metrics view.  On a healthy corpus with no fault
    plan the recovery machinery never fires — it only changes what
    happens when something goes wrong.
    """

    def __init__(
        self,
        extractor: "RecordExtractor | None" = None,
        workers: int = 1,
        chunk_size: int | None = None,
        tracer: Tracer | None = None,
        policy: RetryPolicy | None = None,
        journal: Journal | str | Path | None = None,
        fault_plan: FaultPlan | None = None,
        resume: bool = False,
        run_id: str = "",
        artifact: "CompiledArtifact | str | Path | None" = None,
        document_cache_size: int | None = None,
        parse_cache: "PersistentParseCache | None" = None,
        profile_stages: bool = False,
    ) -> None:
        from repro.extraction.pipeline import RecordExtractor

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if document_cache_size is not None and document_cache_size < 1:
            raise ValueError(
                "document_cache_size must be >= 1, got "
                f"{document_cache_size}"
            )
        self.metrics = Metrics()
        #: Compiled warm-start bundle: when set, it both builds the
        #: default extractor and is shared with pool workers (via
        #: fork inheritance, with a load-from-path fallback).
        self.artifact: "CompiledArtifact | None" = None
        self._artifact_path: str | None = None
        if artifact is not None:
            self.artifact, self._artifact_path = self._load_artifact(
                artifact
            )
        self.document_cache_size = document_cache_size
        if extractor is None:
            if self.artifact is not None:
                extractor = self.artifact.make_extractor(
                    document_cache_size=document_cache_size
                )
            else:
                extractor = RecordExtractor()
        if document_cache_size is not None:
            caches = getattr(extractor, "caches", None)
            if caches is not None:
                caches.documents.resize(document_cache_size)
        #: Persistent cross-run parse cache: attached to the serial
        #: extractor's linkage cache here, published to pool workers
        #: copy-on-write, and fed every worker's delta at reassembly.
        #: The caller owns saving it (see cli._cmd_extract).
        self.parse_cache = parse_cache
        if parse_cache is not None:
            caches = getattr(extractor, "caches", None)
            if caches is not None:
                caches.linkages.attach_persistent(parse_cache)
        self.extractor = extractor
        self.workers = workers
        self.chunk_size = chunk_size
        #: When set, the run (and every pool worker) attributes wall
        #: time to pipeline stages; merged per-stage seconds/counts
        #: land in ``stats()["stages"]``.
        self.profile_stages = profile_stages
        self.stage_profiler = (
            profiling.StageProfiler() if profile_stages else None
        )
        #: When set, every run records one span tree per record here
        #: (worker trees are merged back in input order).
        self.tracer = tracer
        #: Merged engine counters (caches, parser) from the last runs.
        self.engine_stats: dict[str, Any] = {}
        self.policy = policy or RetryPolicy()
        if isinstance(journal, (str, Path)):
            journal = Journal(journal)
        #: When set, every completed chunk is checkpointed here the
        #: moment it finishes, so a crashed run keeps its finished
        #: work and ``resume=True`` can skip it.
        self.journal = journal
        self.fault_plan = fault_plan
        self.resume = resume
        self.run_id = run_id
        #: Poison records isolated during the last :meth:`run`.
        self.quarantine: list[QuarantineEntry] = []
        #: Optional translation from run-local record positions to an
        #: outer index space (the service's global accept sequence):
        #: fault firing and quarantine entries then carry the global
        #: index, matching a batch run over the same stream.  Serial
        #: (``workers=1``) runs without a journal only.
        self.index_map: Sequence[int] | None = None

    def _load_artifact(
        self, artifact: "CompiledArtifact | str | Path"
    ) -> tuple["CompiledArtifact", str | None]:
        """Resolve the artifact argument, timing any disk load."""
        from repro.runtime.compiled import CompiledArtifact

        if isinstance(artifact, CompiledArtifact):
            return artifact, None
        path = str(artifact)
        with self.metrics.time("artifact_load_seconds"):
            loaded = CompiledArtifact.load(path)
        return loaded, path

    # ------------------------------------------------------------ API

    def run(
        self, records: Sequence[PatientRecord]
    ) -> "list[ExtractionResult]":
        """Extract the corpus, surviving poisons, crashes, and kills.

        Returns results for every non-quarantined record, in input
        order; quarantined records are listed in :attr:`quarantine`.
        """
        records = list(records)
        self._size_document_cache(len(records))
        if self.index_map is not None and (
            self.workers != 1 or self.journal is not None
        ):
            raise ResilienceError(
                "index_map is only supported for serial, "
                "journal-less runs"
            )
        plan = (
            self.fault_plan.resolved(len(records))
            if self.fault_plan
            else None
        )
        context: Any = (
            profiling.activated(self.stage_profiler)
            if self.stage_profiler is not None
            else nullcontext()
        )
        with context:
            with self.metrics.time("extract_seconds"):
                results = self._run_resilient(records, plan)
        self.metrics.count("records", len(records))
        return results

    def _target_document_cache_size(self, n_records: int) -> int:
        """Capacity that covers one worker's share of the corpus.

        Every record touches a handful of distinct section texts, so a
        cache smaller than ~8× the run of records it serves thrashes
        (all evictions, no cross-record reuse).  Sized by the
        **per-worker record share**, not the chunk: one worker
        processes many chunks through the same cache, so sizing by the
        chunk alone thrashed the parallel lane (the default chunk is a
        quarter of the share).  Bounded so a huge corpus cannot pin
        unbounded document memory.
        """
        share = max(1, math.ceil(n_records / self.workers))
        return min(4096, max(256, 8 * share))

    def _size_document_cache(self, n_records: int) -> None:
        """Grow the in-process document cache to fit this run.

        Explicit ``document_cache_size`` wins; otherwise the cache
        grows (never shrinks — shrinking would throw away warm
        entries) to the computed target.
        """
        if self.document_cache_size is not None:
            return
        caches = getattr(self.extractor, "caches", None)
        if caches is None:
            return
        target = self._target_document_cache_size(n_records)
        if target > caches.documents.maxsize:
            caches.documents.resize(target)

    def throughput(self) -> float:
        """Records per second across every ``run`` so far."""
        return self.metrics.rate("records", "extract_seconds")

    def stats(self) -> dict[str, Any]:
        """One JSON-dumpable view over runner + engine metrics."""
        parser = self.engine_stats.get("parser", {})
        linkages = self.engine_stats.get("linkages", {})
        worker_stats = self.engine_stats.get("workers", {})
        counters = self.metrics.counters
        hits = linkages.get("hits", 0)
        lookups = hits + linkages.get("misses", 0)
        before = parser.get("disjuncts_before", 0)
        persistent_hits = parser.get("persistent_hits", 0)
        persistent_lookups = persistent_hits + parser.get(
            "persistent_misses", 0
        )
        out: dict[str, Any] = {
            "workers": self.workers,
            "records": counters.get("records", 0),
            "extract_seconds": self.metrics.timers.get(
                "extract_seconds", 0.0
            ),
            "records_per_sec": self.throughput(),
            "worker_init_seconds": worker_stats.get(
                "init_seconds", 0.0
            ),
            "workers_initialized": worker_stats.get("initialized", 0),
            "artifact_load_seconds": self.metrics.timers.get(
                "artifact_load_seconds", 0.0
            ),
            "warm_start": self.artifact is not None,
            "linkage_cache_hit_rate": hits / lookups if lookups else 0.0,
            "persistent_parse_cache": self.parse_cache is not None,
            "persistent_parse_hits": persistent_hits,
            "persistent_parse_misses": parser.get(
                "persistent_misses", 0
            ),
            "persistent_parse_hit_rate": (
                persistent_hits / persistent_lookups
                if persistent_lookups
                else 0.0
            ),
            "match_bitset_hits": parser.get("match_bitset_hits", 0),
            "beam_pruned": parser.get("beam_pruned", 0),
            "parse_timeouts": parser.get("timeouts", 0),
            "prune_ratio": (
                1.0 - parser.get("disjuncts_after", 0) / before
                if before
                else 0.0
            ),
            "stages": self.engine_stats.get("stages", {}),
            "engine": self.engine_stats,
        }
        for name in (
            "retries",
            "quarantined",
            "requeued_chunks",
            "bisections",
            "pool_rebuilds",
            "resumed_chunks",
        ):
            out[name] = counters.get(name, 0)
        return out

    # ------------------------------------------------------ internals

    def _run_resilient(
        self,
        records: list[PatientRecord],
        plan: FaultPlan | None,
    ) -> "list[ExtractionResult]":
        digest = corpus_digest(records)
        completed: dict[int, list[ExtractionResult]] = {}
        self.quarantine = []
        if self.journal is not None and self.resume:
            self._load_checkpoint(completed, digest)
        elif self.journal is not None:
            self.journal.write_header(self._journal_meta(
                digest, len(records)
            ))
        covered = {
            index
            for start, results in completed.items()
            for index in range(start, start + len(results))
        }
        covered.update(
            entry.record_index for entry in self.quarantine
        )
        tasks = self._pending_tasks(records, covered)
        if self.workers == 1:
            self._drain_serial(tasks, completed, plan)
        else:
            self._drain_parallel(tasks, completed, plan)
        quarantined_ids = {
            entry.record_id for entry in self.quarantine
        }
        return [
            result
            for start in sorted(completed)
            for result in completed[start]
            if result.patient_id not in quarantined_ids
        ]

    def _journal_meta(
        self, digest: str, n_records: int
    ) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "corpus_digest": digest,
            "records": n_records,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
        }

    def _load_checkpoint(
        self,
        completed: "dict[int, list[ExtractionResult]]",
        digest: str,
    ) -> None:
        assert self.journal is not None
        header, chunks, quarantined = self.journal.load()
        if header is None:
            # Nothing usable on disk: behave like a fresh run.
            self.journal.write_header(self._journal_meta(digest, -1))
            return
        if header.get("corpus_digest") != digest:
            raise ResilienceError(
                f"journal {self.journal.path} was written for a "
                f"different corpus (journal digest "
                f"{header.get('corpus_digest')!r}, current {digest!r})"
            )
        completed.update(chunks)
        self.quarantine.extend(quarantined)
        self.metrics.count("resumed_chunks", len(chunks))
        self._trace_event(
            "resume",
            self.run_id,
            chunks=len(chunks),
            quarantined=len(quarantined),
        )

    def _pending_tasks(
        self,
        records: list[PatientRecord],
        covered: set[int],
    ) -> "deque[_ChunkTask]":
        """Chunk every not-yet-covered record into contiguous tasks."""
        size = self.chunk_size or max(
            1, math.ceil(len(records) / (self.workers * 4))
        )
        tasks: deque[_ChunkTask] = deque()
        run_start: int | None = None
        for index in range(len(records) + 1):
            pending = (
                index < len(records) and index not in covered
            )
            if pending and run_start is None:
                run_start = index
            boundary_reached = run_start is not None and (
                not pending or index - run_start == size
            )
            if boundary_reached and run_start is not None:
                tasks.append(
                    _ChunkTask(
                        start=run_start,
                        records=tuple(records[run_start:index]),
                    )
                )
                run_start = index if pending else None
        return tasks

    # ----------------------------------------------------- completion

    def _complete(
        self,
        start: int,
        results: "list[ExtractionResult]",
        delta: dict[str, Any],
        completed: "dict[int, list[ExtractionResult]]",
        parse_delta: dict[tuple, tuple] | None = None,
    ) -> None:
        merge_stats(self.engine_stats, delta)
        if self.parse_cache is not None and parse_delta:
            self.parse_cache.merge(parse_delta)
        completed[start] = results
        if self.journal is not None:
            self.journal.append_chunk(start, results)

    def _on_failure(
        self,
        task: _ChunkTask,
        error: BaseException,
        tasks: "deque[_ChunkTask]",
    ) -> None:
        """Retry, bisect, or quarantine one failed chunk."""
        if task.attempt + 1 < self.policy.max_attempts:
            self.metrics.count("retries")
            self._trace_event(
                "chunk-retry",
                f"chunk@{task.start}",
                attempt=task.attempt + 1,
                error_type=type(error).__name__,
            )
            time.sleep(self.policy.backoff(task.attempt))
            tasks.appendleft(
                replace(task, attempt=task.attempt + 1)
            )
            return
        if len(task.records) > 1:
            self.metrics.count("bisections")
            middle = len(task.records) // 2
            self._trace_event(
                "chunk-bisect",
                f"chunk@{task.start}",
                size=len(task.records),
                error_type=type(error).__name__,
            )
            tasks.appendleft(
                _ChunkTask(
                    start=task.start + middle,
                    records=task.records[middle:],
                )
            )
            tasks.appendleft(
                _ChunkTask(
                    start=task.start,
                    records=task.records[:middle],
                )
            )
            return
        record = task.records[0]
        record_index = (
            self.index_map[task.start]
            if self.index_map is not None
            else task.start
        )
        entry = QuarantineEntry.from_exception(
            record, record_index, error, attempts=task.attempt + 1
        )
        self.quarantine.append(entry)
        self.metrics.count("quarantined")
        self._trace_event(
            "quarantine",
            record.patient_id,
            record_index=record_index,
            error_type=entry.error_type,
            attempts=entry.attempts,
        )
        if self.journal is not None:
            self.journal.append_quarantine(entry)

    def _trace_event(
        self, kind: str, name: str, **attributes: Any
    ) -> None:
        if self.tracer is not None:
            self.tracer.event(kind, name, **attributes)

    # --------------------------------------------------------- serial

    def _drain_serial(
        self,
        tasks: "deque[_ChunkTask]",
        completed: "dict[int, list[ExtractionResult]]",
        plan: FaultPlan | None,
    ) -> None:
        while tasks:
            task = tasks.popleft()
            try:
                start, results, delta = self._execute_serial(
                    task, plan
                )
            except Exception as error:
                self._on_failure(task, error, tasks)
            else:
                self._complete(start, results, delta, completed)

    def _execute_serial(
        self, task: _ChunkTask, plan: FaultPlan | None
    ) -> tuple[int, "list[ExtractionResult]", dict[str, Any]]:
        before = self.extractor.counters()
        roots_before = (
            len(self.tracer.roots) if self.tracer is not None else 0
        )
        try:
            if self.tracer is not None:
                with tracing.activated(self.tracer):
                    results = _extract_records(
                        self.extractor,
                        task.records,
                        task.start,
                        task.attempt,
                        plan,
                        self.index_map,
                    )
            else:
                results = _extract_records(
                    self.extractor,
                    task.records,
                    task.start,
                    task.attempt,
                    plan,
                    self.index_map,
                )
        except Exception:
            _reset_caches(self.extractor)
            if self.tracer is not None:
                # Drop spans from the failed attempt so a retry does
                # not duplicate them.
                del self.tracer.roots[roots_before:]
            raise
        delta = diff_stats(self.extractor.counters(), before)
        return task.start, results, delta

    # ------------------------------------------------------- parallel

    def _make_pool(
        self,
        models: dict[str, dict] | None,
        parse_budget: float | None,
        n_tasks: int,
        n_records: int = 0,
    ):
        from concurrent.futures import ProcessPoolExecutor

        # Size each worker's document cache by its record share, not
        # the 256-entry default (which thrashes).
        worker_cache_size = self.document_cache_size or (
            self._target_document_cache_size(n_records)
            if n_records
            else None
        )
        parse_cache_path = (
            str(self.parse_cache.path)
            if self.parse_cache is not None
            and self.parse_cache.path is not None
            else None
        )
        return ProcessPoolExecutor(
            max_workers=min(self.workers, max(n_tasks, 1)),
            initializer=_runner._init_worker,
            initargs=(
                models,
                parse_budget,
                self._artifact_path,
                worker_cache_size,
                parse_cache_path,
                self.profile_stages,
            ),
        )

    def _drain_parallel(
        self,
        tasks: "deque[_ChunkTask]",
        completed: "dict[int, list[ExtractionResult]]",
        plan: FaultPlan | None,
    ) -> None:
        models = _runner._serialize_models(self.extractor)
        parse_budget = getattr(self.extractor, "parse_budget", None)
        trace = self.tracer is not None
        spans_by_start: dict[int, list[dict]] = {}
        rebuilds = 0
        n_pending = sum(len(task.records) for task in tasks)
        # Publish the artifact (and warm parse cache) so fork-started
        # (and rebuilt) pools inherit them copy-on-write; restored
        # afterwards so later pools see whatever their own runner
        # published.
        previous_artifact = _runner._SHARED_ARTIFACT
        previous_parse_cache = _runner._SHARED_PARSE_CACHE
        _runner._SHARED_ARTIFACT = self.artifact
        _runner._SHARED_PARSE_CACHE = self.parse_cache
        pool = self._make_pool(
            models, parse_budget, len(tasks), n_pending
        )
        futures: dict[Any, _ChunkTask] = {}
        try:
            while tasks or futures:
                try:
                    while tasks:
                        task = tasks.popleft()
                        payload = (
                            task.start,
                            task.records,
                            trace,
                            task.attempt,
                            plan,
                        )
                        try:
                            futures[
                                pool.submit(
                                    _extract_chunk_guarded, payload
                                )
                            ] = task
                        except BrokenProcessPool:
                            tasks.appendleft(task)
                            raise
                    done, _ = wait(
                        set(futures), return_when=FIRST_COMPLETED
                    )
                    broken: BrokenProcessPool | None = None
                    for future in done:
                        task = futures.pop(future)
                        try:
                            (
                                start,
                                results,
                                delta,
                                spans,
                                parse_delta,
                            ) = future.result()
                        except BrokenProcessPool as error:
                            broken = error
                            tasks.append(
                                replace(
                                    task, attempt=task.attempt + 1
                                )
                            )
                            self.metrics.count("requeued_chunks")
                        except Exception as error:
                            self._on_failure(task, error, tasks)
                        else:
                            self._complete(
                                start,
                                results,
                                delta,
                                completed,
                                parse_delta,
                            )
                            if spans:
                                spans_by_start[start] = spans
                    if broken is not None:
                        raise broken
                except BrokenProcessPool:
                    rebuilds += 1
                    self.metrics.count("pool_rebuilds")
                    self._salvage_in_flight(
                        futures, tasks, completed, spans_by_start
                    )
                    self._trace_event(
                        "pool-rebuild",
                        f"rebuild#{rebuilds}",
                        requeued=len(tasks),
                    )
                    if rebuilds > self.policy.max_pool_rebuilds:
                        raise ResilienceError(
                            f"worker pool died {rebuilds} times "
                            f"(policy allows "
                            f"{self.policy.max_pool_rebuilds} "
                            "rebuilds); a worker is being killed "
                            "repeatedly"
                        ) from None
                    # Join the dead pool fully before forking a new
                    # one: leaving its threads mid-operation can
                    # deadlock children forked from this process.
                    pool.shutdown(wait=True, cancel_futures=True)
                    pool = self._make_pool(
                        models,
                        parse_budget,
                        max(len(tasks), 1),
                        sum(len(task.records) for task in tasks),
                    )
        finally:
            _runner._SHARED_ARTIFACT = previous_artifact
            _runner._SHARED_PARSE_CACHE = previous_parse_cache
            pool.shutdown(wait=True, cancel_futures=True)
        if self.tracer is not None:
            for start in sorted(spans_by_start):
                self.tracer.merge(
                    [
                        Span.from_dict(span)
                        for span in spans_by_start[start]
                    ]
                )

    def _salvage_in_flight(
        self,
        futures: "dict[Any, _ChunkTask]",
        tasks: "deque[_ChunkTask]",
        completed: "dict[int, list[ExtractionResult]]",
        spans_by_start: dict[int, list[dict]],
    ) -> None:
        """After a pool break: keep finished results, requeue the rest."""
        for future, task in list(futures.items()):
            salvaged = False
            if future.done() and not future.cancelled():
                try:
                    (
                        start,
                        results,
                        delta,
                        spans,
                        parse_delta,
                    ) = future.result(timeout=0)
                except BaseException:
                    salvaged = False
                else:
                    self._complete(
                        start, results, delta, completed, parse_delta
                    )
                    if spans:
                        spans_by_start[start] = spans
                    salvaged = True
            if not salvaged:
                tasks.append(replace(task, attempt=task.attempt + 1))
                self.metrics.count("requeued_chunks")
        futures.clear()


__all__ = [
    "Journal",
    "QuarantineEntry",
    "ResilientCorpusRunner",
    "RetryPolicy",
    "corpus_digest",
]
