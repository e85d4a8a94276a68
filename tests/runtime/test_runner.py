"""The corpus runner: chunking, ordering, parallel/serial identity, stats."""

import pytest

from repro.extraction import RecordExtractor
from repro.runtime import ResilientCorpusRunner, RetryPolicy
from repro.synth import CohortSpec, RecordGenerator


@pytest.fixture(scope="module")
def cohort():
    return RecordGenerator(seed=5).generate_cohort(
        CohortSpec(
            size=6,
            smoking_counts={
                "never": 3, "current": 1, "former": 1, None: 1,
            },
        )
    )


@pytest.fixture(scope="module")
def serial_results(cohort):
    records, _ = cohort
    return ResilientCorpusRunner(RecordExtractor()).run(records)


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ResilientCorpusRunner(workers=0)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError):
            ResilientCorpusRunner(chunk_size=0)


class TestChunking:
    def test_explicit_chunk_size(self):
        runner = ResilientCorpusRunner(workers=2, chunk_size=2)
        tasks = runner._pending_tasks(list(range(5)), set())
        assert [t.records for t in tasks] == [(0, 1), (2, 3), (4,)]
        assert [t.start for t in tasks] == [0, 2, 4]
        assert all(t.attempt == 0 for t in tasks)

    def test_default_chunking_covers_everything(self):
        runner = ResilientCorpusRunner(workers=3)
        tasks = runner._pending_tasks(list(range(100)), set())
        flattened = [x for t in tasks for x in t.records]
        assert flattened == list(range(100))
        # ceil(100 / (3 workers * 4)) records per chunk.
        assert {len(t.records) for t in list(tasks)[:-1]} == {9}


class TestSerial:
    def test_order_and_count(self, cohort, serial_results):
        records, _ = cohort
        assert [r.patient_id for r in serial_results] == [
            r.patient_id for r in records
        ]

    def test_stats_populated(self, cohort):
        records, _ = cohort
        runner = ResilientCorpusRunner(RecordExtractor())
        runner.run(records)
        stats = runner.stats()
        assert stats["records"] == len(records)
        assert stats["records_per_sec"] > 0
        assert 0.0 < stats["prune_ratio"] < 1.0
        assert "linkages" in stats["engine"]


class TestParallel:
    def test_matches_serial_exactly(self, cohort, serial_results):
        records, _ = cohort
        runner = ResilientCorpusRunner(
            RecordExtractor(), workers=2, chunk_size=2
        )
        assert runner.run(records) == serial_results

    def test_worker_metrics_merged(self, cohort):
        records, _ = cohort
        runner = ResilientCorpusRunner(
            RecordExtractor(), workers=2, chunk_size=3
        )
        runner.run(records)
        engine = runner.engine_stats
        assert engine["parser"]["sentences"] > 0
        assert engine["linkages"]["misses"] > 0

    def test_trained_categorical_ships_to_workers(self, cohort):
        records, golds = cohort
        extractor = RecordExtractor()
        extractor.train_categorical(records, golds)
        serial = ResilientCorpusRunner(extractor).run(records)
        parallel = ResilientCorpusRunner(
            extractor, workers=2, chunk_size=3
        ).run(records)
        assert parallel == serial
        assert any(
            v is not None
            for result in parallel
            for v in result.categorical.values()
        )


def _poison_record():
    # A non-string section body crashes extraction with an untyped
    # TypeError in whichever process touches it — parent or pool
    # worker — while the corpus digest can still fingerprint it.
    from repro.records import PatientRecord
    from repro.records.model import Section

    section = Section("Vitals", "Pulse of 84.")
    section.text = 144
    return PatientRecord(patient_id="poison", sections=[section])


class TestJournaledPartialResults:
    """Regression: a failing record must not lose completed chunks.

    The poison is quarantined and every other record is journaled,
    in input order, whether it ran in-process or in a pool worker.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    def test_poison_quarantined_rest_journaled(
        self, workers, cohort, tmp_path
    ):
        from repro.runtime import Journal

        records, _ = cohort
        poisoned = list(records) + [_poison_record()]
        journal = Journal(tmp_path / f"w{workers}.journal")
        runner = ResilientCorpusRunner(
            RecordExtractor(),
            workers=workers,
            chunk_size=2,
            journal=journal,
            policy=RetryPolicy(backoff_base_s=0.0),
        )
        results = runner.run(poisoned)
        assert [e.record_id for e in runner.quarantine] == ["poison"]
        assert runner.quarantine[0].error_type == "TypeError"
        _, chunks, quarantined = journal.load()
        assert [e.record_index for e in quarantined] == [len(records)]
        journaled = [
            r for start in sorted(chunks) for r in chunks[start]
        ]
        assert [r.patient_id for r in journaled] == [
            r.patient_id for r in records
        ]
        assert journaled == results
