"""Per-process worker state shared by every process the runtime forks.

:class:`~repro.runtime.resilience.ResilientCorpusRunner` pool workers,
:mod:`~repro.runtime.sharding` shard children and the
:mod:`~repro.runtime.service` front all start worker processes the
same way:

* the parent publishes its compiled artifact and warm parse cache in
  :data:`_SHARED_ARTIFACT` / :data:`_SHARED_PARSE_CACHE` just before it
  forks, so fork-started children inherit them copy-on-write;
* each child builds its extraction stack **once** in
  :func:`_init_worker` — dictionary expansion, pipeline, ontology, and
  the categorical models (shipped as serialized ID3 trees via
  :func:`_serialize_models`) are per-worker constants, not per-record
  costs;
* the first chunk a worker returns carries its start-up cost
  (:func:`_attach_init_report`), so the parent can aggregate it.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro import profiling
from repro.runtime.faults import mark_worker

if TYPE_CHECKING:  # real imports are deferred: extraction imports us
    from repro.extraction.pipeline import RecordExtractor
    from repro.runtime.compiled import CompiledArtifact
    from repro.runtime.parsecache import PersistentParseCache

#: Per-process extractor, created by the pool initializer.
_WORKER_EXTRACTOR: "RecordExtractor | None" = None

#: Compiled artifact published by the parent just before it forks a
#: pool.  Workers started with the ``fork`` method inherit it
#: copy-on-write and skip every per-process build cost; under
#: ``spawn`` it is ``None`` and the initializer falls back to the
#: artifact path (one pickle load) or a cold build.
_SHARED_ARTIFACT: "CompiledArtifact | None" = None

#: Warm persistent parse cache published the same way: fork-started
#: workers inherit the parent's entries copy-on-write and start with
#: every boilerplate sentence shape pre-parsed; their own additions
#: ship home inside the chunk payloads and are merged at reassembly.
_SHARED_PARSE_CACHE: "PersistentParseCache | None" = None

#: Wall-clock the pool initializer spent building this worker's
#: extraction stack, and whether it was reported back yet.  The first
#: chunk a worker finishes ships the figure home inside its counter
#: delta, so the parent can aggregate per-worker start-up cost.
_WORKER_INIT_SECONDS: float = 0.0
_WORKER_INIT_REPORTED: bool = True


def _serialize_models(
    extractor: "RecordExtractor",
) -> dict[str, dict] | None:
    """Categorical models as picklable JSON-shaped dicts."""
    from repro.ml.serialize import tree_to_dict

    models = {
        name: tree_to_dict(classifier._id3)
        for name, classifier in extractor.categorical.items()
        if classifier._id3 is not None
    }
    return models or None


def _init_worker(
    models: dict[str, dict] | None,
    parse_budget: float | None = None,
    artifact_path: str | None = None,
    document_cache_size: int | None = None,
    parse_cache_path: str | None = None,
    profile_stages: bool = False,
) -> None:
    """Build one extraction stack per worker process.

    Warm-start order: the forked-in :data:`_SHARED_ARTIFACT` (free),
    then *artifact_path* (one pickle load), then a cold build from
    source — whichever is available first.  A stale or unreadable
    artifact file degrades to the cold build rather than killing the
    pool.  The process is also marked as a disposable worker, so
    injected ``kill`` faults really terminate it.
    """
    global _WORKER_EXTRACTOR, _WORKER_INIT_SECONDS
    global _WORKER_INIT_REPORTED
    mark_worker()
    started = time.perf_counter()
    if profile_stages and profiling.active() is None:
        # Process-wide for the worker's lifetime: chunks run outside
        # this frame, and chunk deltas pick the numbers up through
        # the extractor's counters() snapshots.
        profiling.activate(profiling.StageProfiler())
    artifact = _SHARED_ARTIFACT
    if artifact is None and artifact_path is not None:
        from repro.errors import ArtifactError
        from repro.runtime.compiled import CompiledArtifact

        try:
            artifact = CompiledArtifact.load(artifact_path)
        except ArtifactError:
            artifact = None
    if artifact is not None:
        extractor = artifact.make_extractor(
            parse_budget=parse_budget,
            document_cache_size=document_cache_size,
            models=models or {},
        )
    else:
        from repro.extraction.categorical import CategoricalClassifier
        from repro.extraction.pipeline import RecordExtractor
        from repro.extraction.schema import attribute as lookup
        from repro.ml.serialize import tree_from_dict

        extractor = RecordExtractor(parse_budget=parse_budget)
        if document_cache_size is not None:
            extractor.caches.documents.resize(document_cache_size)
        for name, tree in (models or {}).items():
            classifier = CategoricalClassifier(
                lookup(name),
                document_cache=extractor.caches.documents,
                linkage_cache=extractor.caches.linkages,
            )
            classifier._id3 = tree_from_dict(tree)
            extractor.categorical[name] = classifier
    _attach_parse_cache(extractor, parse_cache_path)
    _WORKER_EXTRACTOR = extractor
    _WORKER_INIT_SECONDS = time.perf_counter() - started
    _WORKER_INIT_REPORTED = False


def _attach_parse_cache(
    extractor: "RecordExtractor", parse_cache_path: str | None
) -> None:
    """Give a worker's linkage cache its persistent layer.

    Warm-start order mirrors the artifact: the forked-in
    :data:`_SHARED_PARSE_CACHE` (free, copy-on-write), then the
    sidecar path (one pickle load under ``spawn``), else none.  The
    inherited delta is drained so the first chunk ships only this
    worker's own additions.
    """
    caches = getattr(extractor, "caches", None)
    if caches is None:
        return
    cache = _SHARED_PARSE_CACHE
    if cache is None and parse_cache_path is not None:
        from repro.runtime.parsecache import PersistentParseCache

        parser = extractor.numeric.parser
        cache, _ = PersistentParseCache.load_or_create(
            parse_cache_path, parser.dictionary.signature()
        )
    if cache is not None:
        cache.drain_delta()
        caches.linkages.attach_persistent(cache)


def _attach_init_report(delta: dict[str, Any]) -> dict[str, Any]:
    """Fold this worker's one-time init timing into a chunk delta.

    Only the first chunk a worker returns carries the report, so the
    parent's merged ``workers.init_seconds`` is the total start-up
    cost across the pool and ``workers.initialized`` counts workers.
    """
    global _WORKER_INIT_REPORTED
    if not _WORKER_INIT_REPORTED:
        _WORKER_INIT_REPORTED = True
        delta = dict(delta)
        delta["workers"] = {
            "init_seconds": _WORKER_INIT_SECONDS,
            "initialized": 1,
        }
    return delta

