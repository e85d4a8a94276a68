"""Corpus-scale extraction runtime: caching, metrics, parallel fan-out.

The batch engine behind ``repro extract --workers N``:

* :mod:`repro.runtime.cache` — bounded LRU document and cross-record
  linkage caches shared by every extractor in one engine;
* :mod:`repro.runtime.metrics` — monotonic timers and counters, merged
  across worker processes and dumped as JSON by the benchmarks;
* :mod:`repro.runtime.compiled` — ahead-of-time compiled artifacts
  (expanded grammar + connector match table, in-memory ontology
  index) that warm-start the whole stack from one pickle load;
* :mod:`repro.runtime.runner` — per-process worker state shared by
  pool workers and shard children: the copy-on-write artifact and
  parse-cache hand-off and the one pool initializer that builds each
  worker's extraction stack once;
* :mod:`repro.runtime.tracing` — hierarchical span tracing and run
  manifests (zero-cost no-op when disabled), the engine's
  observability layer;
* :mod:`repro.runtime.resilience` — :class:`ResilientCorpusRunner`,
  the one corpus runner: ``workers=1`` as the deterministic serial
  default, ordered process fan-out for ``workers>1``, and retry with
  backoff, chunk bisection, poison-record quarantine, worker-pool
  recovery, and journal-based checkpoint/resume;
* :mod:`repro.runtime.faults` — deterministic, seed-reproducible
  fault injection (``--inject-faults``) that proves the resilience
  layer works;
* :mod:`repro.runtime.service` — the resident extraction daemon
  behind ``repro serve``: a JSON-lines socket protocol, a bounded
  queue with shed-load backpressure, a micro-batcher dispatching
  through the resilient runner, per-request deadlines, and graceful
  drain.

Import order note: :mod:`repro.runtime.tracing` must stay dependency-
free within the package (cache and runner import it), and
:mod:`repro.runtime.runner` must not import
:mod:`repro.runtime.resilience` (the reverse dependency is real).
"""

from repro.runtime import tracing
from repro.runtime.cache import (
    DocumentCache,
    ExtractionCaches,
    LinkageCache,
    LRUCache,
)
from repro.runtime.compiled import (
    ARTIFACT_VERSION,
    CompiledArtifact,
    CompiledGrammar,
    artifact_cache_dir,
    cached_artifact,
    source_fingerprint,
)
from repro.runtime.faults import Fault, FaultPlan
from repro.runtime.metrics import Metrics, diff_stats, merge_stats
from repro.runtime.resilience import (
    Journal,
    QuarantineEntry,
    ResilientCorpusRunner,
    RetryPolicy,
    corpus_digest,
)
from repro.runtime.service import ExtractionService, ServiceConfig
from repro.runtime.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    build_manifest,
)

__all__ = [
    "ARTIFACT_VERSION",
    "NULL_TRACER",
    "CompiledArtifact",
    "CompiledGrammar",
    "DocumentCache",
    "ExtractionCaches",
    "ExtractionService",
    "Fault",
    "FaultPlan",
    "Journal",
    "LRUCache",
    "LinkageCache",
    "Metrics",
    "NullTracer",
    "QuarantineEntry",
    "ResilientCorpusRunner",
    "RetryPolicy",
    "ServiceConfig",
    "Span",
    "Tracer",
    "artifact_cache_dir",
    "build_manifest",
    "cached_artifact",
    "corpus_digest",
    "diff_stats",
    "merge_stats",
    "source_fingerprint",
    "tracing",
]
