"""Hierarchical span tracing for the extraction engine.

Every run of the engine makes thousands of silent decisions — which
linkage path associated a number with its feature, which POS pattern
proposed a term, which ID3 leaf labelled a smoker.  This module makes
those decisions observable without changing them:

* a :class:`Span` is one timed step (``record`` → ``section`` →
  ``sentence`` → ``parse`` → ``association`` / ``lookup`` /
  ``classification``) with wall-clock duration and free-form
  attributes (cache hits, chosen methods, distances);
* a :class:`Tracer` collects span trees — one root per record — and
  can serialize them as JSONL, merge trees shipped back from
  :class:`~repro.runtime.resilience.ResilientCorpusRunner` pool
  workers, and summarize per-kind timing percentiles;
* :data:`NULL_TRACER` is the zero-cost default: its ``span()`` returns
  one shared no-op context manager, so instrumented code pays a single
  attribute lookup and function call when tracing is off, and the
  property tests assert extraction output is bit-for-bit identical
  either way;
* :func:`build_manifest` fingerprints a run — config hash, dictionary
  signature, categorical-model hashes, timing percentiles — so two
  trace files can be compared apples-to-apples.

Instrumented code uses the module-level helpers, which delegate to the
active tracer::

    from repro.runtime import tracing

    with tracing.span("sentence", text):
        ...
        tracing.annotate(method="linkage", distance=1.5)

The active tracer is process-global (workers activate their own), set
with :func:`activate` or scoped with the :func:`activated` context
manager.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: Span kinds emitted by the extraction engine, leaf-most last.
SPAN_KINDS = (
    "record",
    "section",
    "attribute",
    "sentence",
    "parse",
    "parse-timeout",
    "association",
    "lookup",
    "classification",
)


@dataclass
class Span:
    """One timed step of the engine, with children."""

    kind: str
    name: str = ""
    start: float = 0.0  # seconds since the tracer's epoch
    duration: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "start_s": round(self.start, 6),
            "duration_s": round(self.duration, 6),
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            kind=data["kind"],
            name=data.get("name", ""),
            start=data.get("start_s", 0.0),
            duration=data.get("duration_s", 0.0),
            attributes=dict(data.get("attributes", {})),
            children=[
                cls.from_dict(c) for c in data.get("children", [])
            ],
        )

    def render(self, indent: str = "") -> str:
        """Readable one-span-per-line tree dump."""
        attrs = " ".join(
            f"{key}={value!r}"
            for key, value in sorted(self.attributes.items())
        )
        label = f" {self.name!r}" if self.name else ""
        line = (
            f"{indent}{self.kind}{label} "
            f"[{self.duration * 1000:.2f}ms]"
        )
        if attrs:
            line += f" {attrs}"
        lines = [line]
        lines.extend(
            child.render(indent + "  ") for child in self.children
        )
        return "\n".join(lines)


class _NullContext:
    """Reusable no-op ``with`` target returned by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    ``span()`` hands back one shared context-manager instance and
    allocates nothing, which is what makes instrumentation safe to
    leave in the hot path.
    """

    enabled = False

    def span(
        self, kind: str, name: str = "", **attributes: Any
    ) -> _NullContext:
        return _NULL_CONTEXT

    def event(
        self, kind: str, name: str = "", **attributes: Any
    ) -> None:
        return None

    def annotate(self, **attributes: Any) -> None:
        return None


#: The process-wide disabled tracer (also the default active tracer).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects hierarchical spans; one root span per record."""

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._epoch = time.perf_counter()

    # ---------------------------------------------------------- record

    @contextmanager
    def span(
        self, kind: str, name: str = "", **attributes: Any
    ) -> Iterator[Span]:
        started = time.perf_counter()
        span = Span(
            kind=kind,
            name=name,
            start=started - self._epoch,
            attributes=dict(attributes),
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - started
            self._stack.pop()

    def event(
        self, kind: str, name: str = "", **attributes: Any
    ) -> Span:
        """A zero-duration child span (a point-in-time marker)."""
        span = Span(
            kind=kind,
            name=name,
            start=time.perf_counter() - self._epoch,
            attributes=dict(attributes),
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the innermost open span."""
        if self._stack:
            self._stack[-1].attributes.update(attributes)

    # ----------------------------------------------------------- merge

    def merge(self, spans: list[Span]) -> None:
        """Adopt finished span trees (from a worker process)."""
        self.roots.extend(spans)

    # --------------------------------------------------------- queries

    def percentiles(self) -> dict[str, dict[str, float]]:
        """Per-kind duration percentiles over every recorded span."""
        by_kind: dict[str, list[float]] = {}
        for root in self.roots:
            for span in root.walk():
                by_kind.setdefault(span.kind, []).append(
                    span.duration
                )
        out: dict[str, dict[str, float]] = {}
        for kind, durations in sorted(by_kind.items()):
            durations.sort()
            out[kind] = {
                "count": float(len(durations)),
                "total_s": round(sum(durations), 6),
                "p50_s": round(_quantile(durations, 0.50), 6),
                "p90_s": round(_quantile(durations, 0.90), 6),
                "p99_s": round(_quantile(durations, 0.99), 6),
            }
        return out

    # ------------------------------------------------------- serialize

    def to_jsonl(self, manifest: dict[str, Any] | None = None) -> str:
        """One manifest line (optional) then one line per span tree."""
        lines: list[str] = []
        if manifest is not None:
            lines.append(
                json.dumps(
                    {"type": "manifest", **manifest}, sort_keys=True
                )
            )
        lines.extend(
            json.dumps(
                {"type": "span", **root.to_dict()}, sort_keys=True
            )
            for root in self.roots
        )
        return "\n".join(lines) + "\n" if lines else ""

    def write_jsonl(
        self,
        path: str | Path,
        manifest: dict[str, Any] | None = None,
    ) -> int:
        """Write the trace; returns the number of span trees."""
        Path(path).write_text(self.to_jsonl(manifest))
        return len(self.roots)


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(q * len(sorted_values))
    )
    return sorted_values[index]


# ------------------------------------------------- active tracer state

_ACTIVE: Tracer | NullTracer = NULL_TRACER


def current() -> Tracer | NullTracer:
    """The tracer instrumented code is reporting into right now."""
    return _ACTIVE


def enabled() -> bool:
    """True when spans are being recorded (guard for costly attrs)."""
    return _ACTIVE.enabled


def activate(tracer: Tracer | NullTracer | None) -> None:
    """Install *tracer* process-wide (``None`` restores the no-op)."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER


@contextmanager
def activated(
    tracer: Tracer | NullTracer,
) -> Iterator[Tracer | NullTracer]:
    """Scope *tracer* as the active tracer, restoring the previous."""
    previous = _ACTIVE
    activate(tracer)
    try:
        yield tracer
    finally:
        activate(previous)


def span(kind: str, name: str = "", **attributes: Any):
    """Open a span on the active tracer (no-op context when disabled)."""
    return _ACTIVE.span(kind, name, **attributes)


def event(kind: str, name: str = "", **attributes: Any) -> None:
    """Record a point-in-time marker on the active tracer."""
    _ACTIVE.event(kind, name, **attributes)


def annotate(**attributes: Any) -> None:
    """Attach attributes to the active tracer's innermost span."""
    _ACTIVE.annotate(**attributes)


# ------------------------------------------------------- run manifest

def _hash(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def build_manifest(
    tracer: Tracer,
    config: dict[str, Any] | None = None,
    dictionary_signature: str | None = None,
    model_fingerprints: dict[str, str] | None = None,
    parser_stats: dict[str, Any] | None = None,
    stage_stats: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Fingerprint one traced run.

    The manifest makes two trace files comparable: same config hash +
    same dictionary signature + same model fingerprints means any
    output difference is a code change, not an input change.  The
    parser counters (bitset hits, persistent cache hits/misses, beam
    prunes) record *how* the parses were produced, so a perf
    regression between two byte-identical runs is attributable.
    ``stage_stats`` (per-stage exclusive seconds and entry counts from
    :mod:`repro.profiling`, present when the run profiled stages)
    localises such a regression to a pipeline phase.
    """
    config = dict(config or {})
    return {
        "config": config,
        "config_hash": _hash(config),
        "dictionary_signature": dictionary_signature or "",
        "model_fingerprints": dict(model_fingerprints or {}),
        "parser_stats": dict(parser_stats or {}),
        "stage_stats": dict(stage_stats or {}),
        "records": len(tracer.roots),
        "timing_percentiles": tracer.percentiles(),
    }


def model_fingerprint(tree: dict[str, Any]) -> str:
    """Stable hash of one serialized ID3 tree."""
    return _hash(tree)


def read_jsonl(
    path: str | Path,
) -> tuple[dict[str, Any] | None, list[Span]]:
    """Load a trace file back into (manifest, span trees)."""
    manifest: dict[str, Any] | None = None
    spans: list[Span] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        if data.get("type") == "manifest":
            manifest = {
                k: v for k, v in data.items() if k != "type"
            }
        elif data.get("type") == "span":
            spans.append(
                Span.from_dict(
                    {k: v for k, v in data.items() if k != "type"}
                )
            )
    return manifest, spans
