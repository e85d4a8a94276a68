"""Provenance table: every stored value joins to a decision record."""

import pytest

from repro.extraction import RecordExtractor
from repro.extraction.numeric import Method, NumericExtraction
from repro.extraction.pipeline import ExtractionResult, Provenance
from repro.runtime import ResilientCorpusRunner
from repro.storage import ResultStore
from repro.synth import CohortSpec, RecordGenerator


@pytest.fixture
def result():
    return ExtractionResult(
        patient_id="7",
        numeric={
            "pulse": NumericExtraction(
                "pulse", 84.0, Method.LINKAGE, "pulse of 84",
                "graph-distance=0.5",
            ),
            "weight": None,
        },
        terms={"other_past_medical_history": ["gout"]},
        categorical={"smoking": "former"},
        provenance=[
            Provenance(
                "pulse", "numeric", "84", "linkage",
                "graph-distance=0.5",
            ),
            Provenance(
                "other_past_medical_history", "term", "gout",
                "pos-pattern", "pattern:NN surface:gout", 0,
            ),
            Provenance(
                "smoking", "categorical", "former", "id3",
                "quit=present",
            ),
        ],
    )


@pytest.fixture
def store(result):
    s = ResultStore()
    s.save(result)
    return s


class TestRoundtrip:
    def test_rows_persisted_in_order(self, store):
        rows = store.provenance("7")
        assert [row["kind"] for row in rows] == [
            "categorical", "numeric", "term",
        ]
        pulse = store.provenance("7", attribute="pulse")
        assert pulse == [
            {
                "kind": "numeric",
                "attribute": "pulse",
                "position": 0,
                "value": "84",
                "method": "linkage",
                "detail": "graph-distance=0.5",
            }
        ]

    def test_resave_replaces_rows(self, store, result):
        trimmed = ExtractionResult(
            patient_id="7",
            numeric=result.numeric,
            terms=result.terms,
            categorical=result.categorical,
            provenance=result.provenance[:1],
        )
        store.save(trimmed)
        assert len(store.provenance("7")) == 1

    def test_method_counts(self, store):
        assert store.method_counts() == {
            "id3": 1, "linkage": 1, "pos-pattern": 1,
        }
        assert store.method_counts(kind="numeric") == {"linkage": 1}


class TestCoverageGate:
    def test_complete_provenance_reports_nothing_missing(self, store):
        assert store.missing_provenance() == []

    def test_orphan_value_detected(self, store):
        with store._connection:
            store._connection.execute(
                "DELETE FROM provenance WHERE attribute = 'pulse'"
            )
        missing = store.missing_provenance()
        assert ("numeric", "7", "pulse") in missing

    def test_real_extraction_is_fully_covered(self):
        records, golds = RecordGenerator(seed=3).generate_cohort(
            CohortSpec(
                size=4,
                smoking_counts={"never": 2, "current": 2},
            )
        )
        extractor = RecordExtractor()
        extractor.train_categorical(records, golds)
        results = ResilientCorpusRunner(extractor).run(records)
        store = ResultStore()
        store.store_many(results)
        assert store.missing_provenance() == []
        counts = store.method_counts()
        assert sum(counts.values()) > 0
