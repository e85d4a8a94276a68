"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError``, ``ValueError`` from misuse)
propagate normally.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TokenizationError(ReproError):
    """The tokenizer could not produce a token stream for the input."""


class DictionaryError(ReproError):
    """A link-grammar dictionary entry is malformed."""


class ParseFailure(ReproError):
    """The link grammar parser found no complete linkage for a sentence.

    This is an expected outcome for text fragments (e.g. ``blood
    pressure: 144/90``); the numeric extractor catches it and falls back
    to the pattern approach, exactly as the paper prescribes.
    """

    def __init__(self, words, reason: str = "no complete linkage"):
        self.words = list(words)
        self.reason = reason
        super().__init__(f"{reason}: {' '.join(self.words)!r}")


class ParseTimeout(ParseFailure):
    """The parser exceeded its per-sentence time budget.

    A subclass of :class:`ParseFailure` so every caller that degrades
    to the paper's pattern fallback on an unparseable sentence degrades
    the same way on a pathological one, instead of hanging.
    """

    def __init__(self, words, budget: float):
        self.budget = budget
        super().__init__(
            words, f"parse budget of {budget:g}s exceeded"
        )


class OntologyError(ReproError):
    """The ontology store is missing, corrupt, or queried incorrectly."""


class ArtifactError(ReproError):
    """A compiled extraction artifact cannot be used.

    Raised when an artifact file is unreadable, was produced by a
    different artifact-format version, or is stale — its recorded
    source fingerprint no longer matches the in-tree lexicon,
    vocabulary, or POS lexicon it was compiled from.  Callers are
    expected to recover by recompiling (see
    :func:`repro.runtime.compiled.cached_artifact`).
    """


class ParseCacheError(ReproError):
    """A persistent parse-cache sidecar cannot be used.

    Raised when a sidecar file is unreadable, was written by a
    different cache-format version, or is stale — its recorded source
    fingerprint or dictionary signature no longer matches the current
    build.  Callers recover by rebuilding an empty cache (see
    :meth:`repro.runtime.parsecache.PersistentParseCache.load_or_create`);
    a stale sidecar is never silently reused.
    """


class SchemaError(ReproError):
    """An extraction schema definition is inconsistent."""


class RecordFormatError(ReproError):
    """A patient record does not follow the semi-structured format."""


class TrainingError(ReproError):
    """A classifier cannot be trained (e.g. empty or degenerate data)."""


class StorageError(ReproError):
    """The result database rejected an operation."""


class ResilienceError(ReproError):
    """The fault-tolerant corpus runner could not make progress.

    Raised when recovery machinery itself is exhausted — e.g. the
    worker pool broke more times than the retry policy allows, or a
    checkpoint journal belongs to a different corpus — never for a
    single bad record, which is quarantined instead.
    """


class FaultSpecError(ReproError):
    """An ``--inject-faults`` specification string is malformed."""


class ServiceError(ReproError):
    """The extraction service (or its client) failed an operation.

    Raised client-side for protocol violations, connection loss, and
    error responses the caller cannot recover from; transient
    ``overloaded`` responses are retried by the client instead.
    """
