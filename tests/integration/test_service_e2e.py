"""Service end-to-end: the daemon path equals the batch path.

* a corpus submitted through the live service yields a result store
  bit-for-bit identical to the batch engine's on the same records;
* the hostile corpus flows through the service unharmed;
* an injected poison is quarantined through the service exactly as
  the batch runner quarantines it — same record, same store digest;
* the real CLI (``repro serve`` / ``repro submit``) round-trips a
  corpus byte-identically to ``repro extract``, drains cleanly on
  SIGTERM, and leaves no orphaned provenance rows.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.client import ServiceClient
from repro.extraction import RecordExtractor
from repro.runtime import (
    CorpusRunner,
    FaultPlan,
    ResilientCorpusRunner,
    RetryPolicy,
)
from repro.runtime.service import ExtractionService, ServiceConfig
from repro.storage import ResultStore
from repro.synth import CohortSpec, RecordGenerator

FAST_POLICY = RetryPolicy(max_attempts=2, backoff_base_s=0.0)


@pytest.fixture(scope="module")
def cohort():
    records, _ = RecordGenerator(seed=41).generate_cohort(
        CohortSpec(
            size=5,
            smoking_counts={"never": 3, "current": 1, None: 1},
        )
    )
    return records


@pytest.fixture(scope="module")
def baseline(cohort):
    return CorpusRunner(RecordExtractor()).run(cohort)


def _store(path, results, quarantine=()):
    store = ResultStore(path)
    store.store_many(results)
    if quarantine:
        store.save_quarantine(list(quarantine))
    store.close()
    return path


def _serve(tmp_path, **kwargs):
    kwargs.setdefault("policy", FAST_POLICY)
    config = kwargs.pop("config", None) or ServiceConfig(
        socket_path=str(tmp_path / "svc.sock"), linger_s=0.01
    )
    service = ExtractionService(config=config, **kwargs)
    service.start()
    return service, config.socket_path


class TestServiceEqualsBatch:
    def test_store_bit_identical_to_batch_engine(
        self, cohort, baseline, tmp_path
    ):
        service, path = _serve(
            tmp_path, extractor=RecordExtractor()
        )
        try:
            with ServiceClient(socket_path=path) as client:
                results, quarantined = client.extract_many(cohort)
        finally:
            service.stop(timeout=30)
        assert quarantined == []
        a = _store(tmp_path / "service.db", results)
        b = _store(tmp_path / "batch.db", baseline)
        assert a.read_bytes() == b.read_bytes()

    def test_hostile_corpus_through_service(
        self, hostile_corpus, tmp_path
    ):
        service, path = _serve(
            tmp_path, extractor=RecordExtractor()
        )
        try:
            with ServiceClient(socket_path=path) as client:
                results, quarantined = client.extract_many(
                    hostile_corpus
                )
        finally:
            service.stop(timeout=30)
        assert quarantined == []
        plain = CorpusRunner(RecordExtractor()).run(hostile_corpus)
        a = _store(tmp_path / "service.db", results)
        b = _store(tmp_path / "plain.db", plain)
        assert a.read_bytes() == b.read_bytes()

    def test_adversarial_corpus_through_service(
        self, adversarial_corpus, tmp_path
    ):
        # one record per style pack: OCR noise, mangled headers,
        # run-on sections, extra Labs — daemon path must equal the
        # batch path byte-for-byte on all of them
        service, path = _serve(
            tmp_path, extractor=RecordExtractor()
        )
        try:
            with ServiceClient(socket_path=path) as client:
                results, quarantined = client.extract_many(
                    adversarial_corpus
                )
        finally:
            service.stop(timeout=30)
        assert quarantined == []
        plain = CorpusRunner(RecordExtractor()).run(
            adversarial_corpus
        )
        a = _store(tmp_path / "service.db", results)
        b = _store(tmp_path / "plain.db", plain)
        assert a.read_bytes() == b.read_bytes()


class TestServiceQuarantineEqualsBatchQuarantine:
    def test_same_poison_same_store(self, cohort, tmp_path):
        plan = "raise@2"
        batch_runner = ResilientCorpusRunner(
            RecordExtractor(),
            chunk_size=2,
            fault_plan=FaultPlan.parse(plan),
            policy=FAST_POLICY,
        )
        batch_results = batch_runner.run(cohort)
        assert len(batch_runner.quarantine) == 1

        service, path = _serve(
            tmp_path,
            extractor=RecordExtractor(),
            fault_plan=FaultPlan.parse(plan),
            config=ServiceConfig(
                socket_path=str(tmp_path / "svc.sock"),
                max_batch=2,
                linger_s=0.05,
            ),
        )
        try:
            with ServiceClient(socket_path=path) as client:
                results, quarantined = client.extract_many(cohort)
        finally:
            service.stop(timeout=30)

        assert [index for index, _ in quarantined] == [2]
        assert [e.record_id for e in service.quarantine] == [
            batch_runner.quarantine[0].record_id
        ]
        assert service.quarantine[0].record_index == 2

        a = ResultStore(tmp_path / "service.db")
        a.store_many(results)
        a.save_quarantine(service.quarantine)
        b = ResultStore(tmp_path / "batch.db")
        b.store_many(batch_results)
        b.save_quarantine(batch_runner.quarantine)
        assert a.content_digest() == b.content_digest()
        assert a.missing_provenance() == []
        a.close()
        b.close()


class TestShardedStoreEqualsBatch:
    """Sharded serving is invisible in the stored artifacts."""

    def test_merged_partitions_byte_identical_to_batch(
        self, cohort, tmp_path
    ):
        """Two forked shards, a poison record, server-side store.

        The partitions merged at drain must be byte-for-byte the
        store a batch run writes — results, provenance, and the
        quarantine row (same global record index, same traceback
        digest) included.
        """
        plan = "raise@2"
        batch_runner = ResilientCorpusRunner(
            RecordExtractor(),
            chunk_size=2,
            fault_plan=FaultPlan.parse(plan),
            policy=FAST_POLICY,
        )
        batch_results = batch_runner.run(cohort)
        batch_db = _store(
            tmp_path / "batch.db",
            batch_results,
            batch_runner.quarantine,
        )

        service_db = tmp_path / "sharded.db"
        service, path = _serve(
            tmp_path,
            extractor=RecordExtractor(),
            fault_plan=FaultPlan.parse(plan),
            config=ServiceConfig(
                socket_path=str(tmp_path / "svc.sock"),
                max_batch=2,
                linger_s=0.01,
                shards=2,
                store_path=str(service_db),
            ),
        )
        try:
            with ServiceClient(socket_path=path) as client:
                results, quarantined = client.extract_many(cohort)
        finally:
            service.stop(timeout=60)
        assert len(results) == len(cohort) - 1
        assert [index for index, _ in quarantined] == [2]
        assert service.merge_summary == {
            "results": len(cohort) - 1,
            "quarantined": 1,
            "partitions": 2,
        }
        assert service_db.read_bytes() == batch_db.read_bytes()
        merged = ResultStore(service_db)
        assert merged.missing_provenance() == []
        assert (
            merged.quarantine_digest()
            == ResultStore(batch_db).quarantine_digest()
        )
        merged.close()

    def test_adversarial_corpus_shard_parity(
        self, adversarial_corpus, tmp_path
    ):
        """Batch == 1-shard == N-shard byte identity on style-pack
        adversarial text: sharding must stay invisible no matter how
        hostile the dictation surface is."""
        batch_db = _store(
            tmp_path / "batch.db",
            CorpusRunner(RecordExtractor()).run(adversarial_corpus),
        )
        for shards in (1, 2):
            service_db = tmp_path / f"shards{shards}.db"
            service, path = _serve(
                tmp_path,
                extractor=RecordExtractor(),
                config=ServiceConfig(
                    socket_path=str(
                        tmp_path / f"svc{shards}.sock"
                    ),
                    max_batch=3,
                    linger_s=0.01,
                    shards=shards,
                    store_path=str(service_db),
                ),
            )
            try:
                with ServiceClient(socket_path=path) as client:
                    results, quarantined = client.extract_many(
                        adversarial_corpus
                    )
            finally:
                service.stop(timeout=60)
            assert quarantined == []
            assert len(results) == len(adversarial_corpus)
            assert service_db.read_bytes() == batch_db.read_bytes(), (
                f"{shards}-shard store diverged from batch"
            )
            merged = ResultStore(service_db)
            assert merged.missing_provenance() == []
            merged.close()

    def test_fleet_instances_share_one_store(self, cohort, tmp_path):
        """Two service instances, one WAL store, full provenance.

        Fleet mode trades byte-ordering (arrival order interleaves)
        for shared writes, so parity here is content-digest level:
        the union of both instances' work must equal one batch run.
        """
        fleet_db = tmp_path / "fleet.db"
        first, first_path = _serve(
            tmp_path,
            extractor=RecordExtractor(),
            config=ServiceConfig(
                socket_path=str(tmp_path / "one.sock"),
                linger_s=0.01,
                shards=2,
                store_path=str(fleet_db),
                fleet=True,
            ),
        )
        second, second_path = _serve(
            tmp_path,
            extractor=RecordExtractor(),
            config=ServiceConfig(
                socket_path=str(tmp_path / "two.sock"),
                linger_s=0.01,
                shards=2,
                store_path=str(fleet_db),
                fleet=True,
            ),
        )
        half = len(cohort) // 2
        try:
            with ServiceClient(socket_path=first_path) as client:
                left, _ = client.extract_many(cohort[:half])
            with ServiceClient(socket_path=second_path) as client:
                right, _ = client.extract_many(cohort[half:])
        finally:
            first.stop(timeout=60)
            second.stop(timeout=60)
        assert len(left) + len(right) == len(cohort)

        batch_db = _store(
            tmp_path / "batch.db",
            CorpusRunner(RecordExtractor()).run(cohort),
        )
        shared = ResultStore(fleet_db)
        assert (
            shared.content_digest()
            == ResultStore(batch_db).content_digest()
        )
        assert shared.missing_provenance() == []
        shared.close()


class TestServeSubmitCli:
    """The real ``repro serve`` / ``repro submit`` subprocesses."""

    @pytest.fixture(scope="class")
    def notes_dir(self, tmp_path_factory):
        from repro.records.loader import save_records

        directory = tmp_path_factory.mktemp("notes")
        records, _ = RecordGenerator(seed=41).generate_cohort(
            CohortSpec(size=3, smoking_counts={"never": 2, None: 1})
        )
        save_records(records, directory)
        return directory

    def _spawn_serve(self, tmp_path, *extra):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src
        ready = tmp_path / "ready.json"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", str(tmp_path / "svc.sock"),
                "--ready-file", str(ready),
                *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 120
        while not ready.exists():
            if process.poll() is not None:
                raise AssertionError(
                    "serve died: " + process.stdout.read()
                )
            if time.monotonic() > deadline:
                process.kill()
                raise AssertionError("serve never became ready")
            time.sleep(0.1)
        bound = json.loads(ready.read_text())
        return process, bound["socket"], env

    def _submit(self, env, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "submit", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_cli_round_trip_drain_and_provenance(
        self, notes_dir, tmp_path
    ):
        process, sock, env = self._spawn_serve(tmp_path)
        try:
            health = self._submit(
                env, "--socket", sock, "--health"
            )
            assert health.returncode == 0, health.stderr
            assert json.loads(health.stdout)["status"] == "ok"

            service_db = tmp_path / "service.db"
            submit = self._submit(
                env,
                "--socket", sock,
                "--input", str(notes_dir),
                "--db", str(service_db),
            )
            assert submit.returncode == 0, submit.stderr
            assert "3 extracted, 0 quarantined" in submit.stdout

            # Two notes with one patient id are refused before any
            # record reaches the service.
            dup_dir = tmp_path / "dup"
            shutil.copytree(notes_dir, dup_dir)
            first = sorted(dup_dir.glob("*.txt"))[0]
            shutil.copy(first, dup_dir / "zz_copy.txt")
            dup = self._submit(
                env, "--socket", sock, "--input", str(dup_dir),
                "--db", str(tmp_path / "dup.db"),
            )
            assert dup.returncode == 2
            assert "duplicate patient id" in dup.stderr
            assert not (tmp_path / "dup.db").exists()

            stats = self._submit(env, "--socket", sock, "--stats")
            assert stats.returncode == 0
            parsed = json.loads(stats.stdout)
            assert parsed["completed"] == 3
            assert parsed["queue_depth"] == 0

            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=120)
            assert process.returncode == 0, out
            assert "drained: 3 completed" in out
            assert not Path(sock).exists()
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)

        batch_db = tmp_path / "batch.db"
        extract = subprocess.run(
            [
                sys.executable, "-m", "repro", "extract",
                "--input", str(notes_dir),
                "--db", str(batch_db),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert extract.returncode == 0, extract.stderr
        assert service_db.read_bytes() == batch_db.read_bytes()

        store = ResultStore(service_db)
        assert store.missing_provenance() == []
        store.close()
