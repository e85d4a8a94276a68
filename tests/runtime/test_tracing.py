"""Tracing subsystem: spans, no-op cost, merging, manifests, identity.

The acceptance bar for observability is that it observes without
disturbing: the property test at the bottom asserts extraction output
is bit-for-bit identical with tracing enabled and disabled, and the
no-op tests pin the disabled path to a shared singleton context.
"""

import json
import time

import pytest

from repro.extraction import RecordExtractor
from repro.runtime import ResilientCorpusRunner, tracing
from repro.runtime.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    build_manifest,
    model_fingerprint,
    read_jsonl,
)
from repro.synth import CohortSpec, RecordGenerator


@pytest.fixture(scope="module")
def cohort():
    return RecordGenerator(seed=11).generate_cohort(
        CohortSpec(
            size=5,
            smoking_counts={
                "never": 2, "current": 1, "former": 1, None: 1,
            },
        )
    )


@pytest.fixture(autouse=True)
def _reset_active_tracer():
    yield
    tracing.activate(None)


class TestSpanTree:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("record", "p1"):
            with tracer.span("sentence", "s1"):
                tracer.annotate(method="linkage")
            tracer.event("parse-timeout", budget_s=0.5)
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.kind == "record" and root.name == "p1"
        kinds = [child.kind for child in root.children]
        assert kinds == ["sentence", "parse-timeout"]
        assert root.children[0].attributes["method"] == "linkage"
        assert root.duration >= root.children[0].duration

    def test_walk_counts_descendants(self):
        tracer = Tracer()
        with tracer.span("record"):
            with tracer.span("section"):
                tracer.event("lookup")
            tracer.event("lookup")
        assert sum(1 for _ in tracer.roots[0].walk()) == 4

    def test_dict_roundtrip(self):
        tracer = Tracer()
        with tracer.span("record", "p9", cohort="x"):
            with tracer.span("parse", "bp is 120/80"):
                tracer.annotate(cache_hit=False)
        restored = Span.from_dict(tracer.roots[0].to_dict())
        assert restored.to_dict() == tracer.roots[0].to_dict()
        assert restored.children[0].attributes == {"cache_hit": False}

    def test_render_mentions_kind_and_attrs(self):
        tracer = Tracer()
        with tracer.span("record", "p1"):
            with tracer.span("sentence", "text", method="pattern"):
                pass
        text = tracer.roots[0].render()
        assert "record 'p1'" in text
        assert "method='pattern'" in text

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("record", "p1"):
                raise RuntimeError("boom")
        assert tracer.roots[0].duration >= 0.0
        assert tracer._stack == []


class TestNullTracer:
    def test_span_returns_shared_noop_context(self):
        first = NULL_TRACER.span("record", "a", big="attr")
        second = NULL_TRACER.span("sentence")
        assert first is second  # no allocation per span

    def test_default_active_tracer_is_disabled(self):
        assert tracing.current() is NULL_TRACER
        assert not tracing.enabled()

    def test_noop_records_nothing(self):
        with tracing.span("record", "p1"):
            tracing.annotate(method="x")
            tracing.event("lookup")
        assert isinstance(tracing.current(), NullTracer)

    def test_noop_overhead_is_small(self):
        started = time.perf_counter()
        for _ in range(100_000):
            with tracing.span("sentence", "text", n=3):
                pass
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0  # ~µs/span ceiling, generous for CI


class TestActivation:
    def test_activated_scopes_and_restores(self):
        tracer = Tracer()
        with tracing.activated(tracer):
            assert tracing.current() is tracer
            with tracing.span("record", "p1"):
                pass
        assert tracing.current() is NULL_TRACER
        assert [root.name for root in tracer.roots] == ["p1"]

    def test_activated_restores_on_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracing.activated(tracer):
                raise RuntimeError("boom")
        assert tracing.current() is NULL_TRACER


class TestMergeAcrossWorkers:
    def test_merge_adopts_roots_in_order(self):
        parent, worker1, worker2 = Tracer(), Tracer(), Tracer()
        with worker1.span("record", "a"):
            pass
        with worker2.span("record", "b"):
            pass
        parent.merge(worker1.roots)
        parent.merge(worker2.roots)
        assert [root.name for root in parent.roots] == ["a", "b"]

    def test_parallel_trace_matches_serial(self, cohort):
        records, _ = cohort
        serial_tracer = Tracer()
        serial = ResilientCorpusRunner(
            RecordExtractor(), tracer=serial_tracer
        )
        serial_results = serial.run(records)

        parallel_tracer = Tracer()
        parallel = ResilientCorpusRunner(
            RecordExtractor(),
            workers=2,
            chunk_size=2,
            tracer=parallel_tracer,
        )
        parallel_results = parallel.run(records)

        assert parallel_results == serial_results
        assert [root.name for root in parallel_tracer.roots] == [
            root.name for root in serial_tracer.roots
        ]
        # Same decision structure per record: span kind multisets match.
        for left, right in zip(
            serial_tracer.roots, parallel_tracer.roots
        ):
            assert sorted(s.kind for s in left.walk()) == sorted(
                s.kind for s in right.walk()
            )


class TestManifestAndJsonl:
    def test_manifest_hash_is_config_sensitive(self):
        tracer = Tracer()
        one = build_manifest(tracer, config={"workers": 1})
        two = build_manifest(tracer, config={"workers": 2})
        assert one["config_hash"] != two["config_hash"]
        assert one["records"] == 0

    def test_model_fingerprint_stable(self):
        tree = {"feature": "smoker", "present": {"label": "yes"}}
        assert model_fingerprint(tree) == model_fingerprint(
            dict(tree)
        )

    def test_percentiles_cover_every_kind(self):
        tracer = Tracer()
        with tracer.span("record", "p1"):
            with tracer.span("sentence"):
                pass
        stats = tracer.percentiles()
        assert set(stats) == {"record", "sentence"}
        assert stats["record"]["count"] == 1.0
        assert stats["record"]["p50_s"] >= 0.0

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("record", "p1"):
            with tracer.span("parse", "bp", cache_hit=True):
                pass
        manifest = build_manifest(
            tracer,
            config={"workers": 1},
            dictionary_signature="abc123",
        )
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(path, manifest) == 1
        for line in path.read_text().splitlines():
            json.loads(line)  # well-formed JSONL
        loaded_manifest, spans = read_jsonl(path)
        assert loaded_manifest["dictionary_signature"] == "abc123"
        assert len(spans) == 1
        assert spans[0].children[0].attributes["cache_hit"] is True


class TestTracingIsObservationOnly:
    def test_output_identical_with_and_without_tracing(self, cohort):
        """The acceptance property: tracing never changes results."""
        records, golds = cohort
        plain_extractor = RecordExtractor()
        plain_extractor.train_categorical(records, golds)
        plain = ResilientCorpusRunner(plain_extractor).run(records)

        traced_extractor = RecordExtractor()
        traced_extractor.train_categorical(records, golds)
        tracer = Tracer()
        traced = ResilientCorpusRunner(
            traced_extractor, tracer=tracer
        ).run(records)

        assert traced == plain  # values, methods, provenance — all
        assert len(tracer.roots) == len(records)
        assert [root.name for root in tracer.roots] == [
            record.patient_id for record in records
        ]

    def test_every_value_has_provenance(self, cohort):
        records, _ = cohort
        results = ResilientCorpusRunner(RecordExtractor()).run(records)
        for result in results:
            numeric = {
                name
                for name, extraction in result.numeric.items()
                if extraction is not None
            }
            prov_numeric = {
                entry.attribute
                for entry in result.provenance
                if entry.kind == "numeric"
            }
            assert prov_numeric == numeric
            term_count = sum(
                len(terms) for terms in result.terms.values()
            )
            assert term_count == sum(
                1
                for entry in result.provenance
                if entry.kind == "term"
            )
