"""Persistent cross-run parse cache: lifecycle, parity, invalidation.

The contract under test: a sidecar-warmed run produces output
bit-for-bit identical to an uncached run (serial, parallel, resumed,
hostile corpus), a stale sidecar is rejected and rebuilt — never
silently reused — and cached timeout markers are keyed by parse
budget so a bigger-budget run can never be served a stale timeout.
"""

import pickle

import pytest

from repro.errors import ParseCacheError
from repro.extraction import RecordExtractor
from repro.linkgrammar import LinkGrammarParser
from repro.runtime import (
    FaultPlan,
    ResilientCorpusRunner,
    RetryPolicy,
)
from repro.runtime.cache import LinkageCache
from repro.runtime.faults import InjectedInterrupt
from repro.runtime.parsecache import (
    OUTCOME_OK,
    PARSECACHE_VERSION,
    PersistentParseCache,
    sidecar_path,
)
from repro.storage.db import ResultStore
from repro.synth import CohortSpec, RecordGenerator

FAST_POLICY = RetryPolicy(max_attempts=3, backoff_base_s=0.0)

SENTENCE = "pulse of 84 .".split()
VARIANT = "pulse of 96 .".split()
TAGS = ["NN", "IN", "CD", "."]


@pytest.fixture(scope="module")
def cohort():
    records, _ = RecordGenerator(seed=29).generate_cohort(
        CohortSpec(
            size=8,
            smoking_counts={
                "never": 4, "current": 2, "former": 1, None: 1,
            },
        )
    )
    return records


@pytest.fixture(scope="module")
def baseline(cohort):
    return ResilientCorpusRunner(RecordExtractor()).run(cohort)


def _warm_stack(path=None):
    """A parser + linkage cache wired to a fresh persistent layer."""
    parser = LinkGrammarParser()
    persistent = PersistentParseCache.empty(
        parser.dictionary.signature(), path=path
    )
    cache = LinkageCache(persistent=persistent)
    return parser, cache, persistent


class TestSidecarLifecycle:
    def test_roundtrip_restores_entries(self, tmp_path):
        path = tmp_path / "grammar.parsecache"
        parser, cache, persistent = _warm_stack(path)
        cold = cache.lookup(parser, SENTENCE, TAGS)
        assert parser.stats.persistent_misses == 1
        assert persistent.dirty
        persistent.save()
        assert not persistent.dirty

        parser2 = LinkGrammarParser()
        loaded, ok = PersistentParseCache.load_or_create(
            path, parser2.dictionary.signature()
        )
        assert ok and len(loaded) == len(persistent)
        warm_cache = LinkageCache(persistent=loaded)
        warm = warm_cache.lookup(parser2, SENTENCE, TAGS)
        assert parser2.stats.persistent_hits == 1
        assert parser2.stats.sentences == 0  # no re-parse happened
        assert warm.links == cold.links
        assert warm.cost == cold.cost
        assert warm.words == cold.words

    def test_save_merges_with_concurrent_writer(self, tmp_path):
        path = tmp_path / "grammar.parsecache"
        parser_a, cache_a, persistent_a = _warm_stack(path)
        cache_a.lookup(parser_a, SENTENCE, TAGS)
        parser_b, cache_b, persistent_b = _warm_stack(path)
        fragment = "blood pressure : 144/90".split()
        tags = ["NN", "NN", ":", "CD"]
        assert cache_b.lookup(parser_b, fragment, tags) is None
        keys_a = set(persistent_a.entries)
        keys_b = set(persistent_b.entries)
        assert keys_a.isdisjoint(keys_b)
        persistent_a.save()
        persistent_b.save()  # must union, not clobber, a's entries
        final = PersistentParseCache.load(path)
        assert set(final.entries) == keys_a | keys_b

    def test_value_variants_share_one_entry(self, tmp_path):
        parser, cache, persistent = _warm_stack(
            tmp_path / "x.parsecache"
        )
        cache.lookup(parser, SENTENCE, TAGS)
        cache.lookup(parser, VARIANT, TAGS)
        assert len(persistent) == 1

    def test_stale_fingerprint_rejected_and_rebuilt(self, tmp_path):
        path = tmp_path / "stale.parsecache"
        parser, cache, persistent = _warm_stack(path)
        cache.lookup(parser, SENTENCE, TAGS)
        persistent.save()
        raw = pickle.loads(path.read_bytes())
        raw["fingerprint"] = "0" * 16
        path.write_bytes(pickle.dumps(raw))
        with pytest.raises(ParseCacheError, match="fingerprint"):
            PersistentParseCache.load(path)
        rebuilt, loaded = PersistentParseCache.load_or_create(
            path, parser.dictionary.signature()
        )
        assert not loaded and len(rebuilt) == 0

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.parsecache"
        parser, cache, persistent = _warm_stack(path)
        cache.lookup(parser, SENTENCE, TAGS)
        persistent.save()
        raw = pickle.loads(path.read_bytes())
        raw["version"] = PARSECACHE_VERSION + 1
        path.write_bytes(pickle.dumps(raw))
        with pytest.raises(ParseCacheError, match="version"):
            PersistentParseCache.load(path)

    def test_garbage_and_missing_files_rejected(self, tmp_path):
        garbage = tmp_path / "garbage.parsecache"
        garbage.write_bytes(b"not a pickle at all")
        with pytest.raises(ParseCacheError):
            PersistentParseCache.load(garbage)
        with pytest.raises(ParseCacheError):
            PersistentParseCache.load(tmp_path / "missing")
        not_sidecar = tmp_path / "other.pkl"
        not_sidecar.write_bytes(pickle.dumps({"some": "dict"}))
        with pytest.raises(ParseCacheError, match="sidecar"):
            PersistentParseCache.load(not_sidecar)

    def test_foreign_dictionary_signature_starts_empty(
        self, tmp_path
    ):
        path = tmp_path / "foreign.parsecache"
        parser, cache, persistent = _warm_stack(path)
        cache.lookup(parser, SENTENCE, TAGS)
        persistent.save()
        rebuilt, loaded = PersistentParseCache.load_or_create(
            path, "someone-elses-dictionary"
        )
        assert not loaded and len(rebuilt) == 0

    def test_sidecar_path_is_suffixed(self):
        assert str(sidecar_path("/x/artifact.pkl")).endswith(
            "artifact.pkl.parsecache"
        )

    def test_delta_drains_once(self):
        parser, cache, persistent = _warm_stack()
        cache.lookup(parser, SENTENCE, TAGS)
        delta = persistent.drain_delta()
        assert len(delta) == 1
        assert persistent.drain_delta() == {}
        other = PersistentParseCache.empty(
            parser.dictionary.signature()
        )
        assert other.merge(delta) == 1
        assert other.merge(delta) == 0  # idempotent


class TestTimeoutBudgetKeying:
    def test_bigger_budget_not_served_stale_timeout(self):
        # Regression: a timeout recorded under a tiny budget used to
        # be replayed verbatim to a later run with a bigger budget,
        # turning a config change into a silent no-op.
        starved = LinkGrammarParser(time_budget=0.0)
        cache = LinkageCache()
        assert cache.lookup(starved, SENTENCE, TAGS) is None
        assert starved.stats.timeouts == 1

        generous = LinkGrammarParser(time_budget=60.0)
        linkage = cache.lookup(generous, SENTENCE, TAGS)
        assert linkage is not None
        assert generous.stats.timeouts == 0

    def test_same_budget_served_cached_timeout(self):
        starved = LinkGrammarParser(time_budget=0.0)
        cache = LinkageCache()
        assert cache.lookup(starved, SENTENCE, TAGS) is None
        before = starved.stats.sentences
        assert cache.lookup(starved, SENTENCE, TAGS) is None
        assert starved.stats.sentences == before  # served, not parsed

    def test_unbudgeted_parser_ignores_timeout_marker(self):
        starved = LinkGrammarParser(time_budget=0.0)
        cache = LinkageCache()
        assert cache.lookup(starved, SENTENCE, TAGS) is None
        unbudgeted = LinkGrammarParser()
        assert cache.lookup(unbudgeted, SENTENCE, TAGS) is not None

    def test_persistent_timeouts_budget_keyed(self, tmp_path):
        path = tmp_path / "budget.parsecache"
        starved = LinkGrammarParser(time_budget=0.0)
        persistent = PersistentParseCache.empty(
            starved.dictionary.signature(), path=path
        )
        cache = LinkageCache(persistent=persistent)
        assert cache.lookup(starved, SENTENCE, TAGS) is None
        persistent.save()

        loaded, _ = PersistentParseCache.load_or_create(
            path, starved.dictionary.signature()
        )
        generous = LinkGrammarParser(time_budget=60.0)
        warm_cache = LinkageCache(persistent=loaded)
        assert warm_cache.lookup(generous, SENTENCE, TAGS) is not None


class TestCorpusParity:
    """Cold -> warm -> restart -> warm equals the uncached run."""

    def _run(self, records, workers=1, parse_cache=None):
        runner = ResilientCorpusRunner(
            RecordExtractor(),
            workers=workers,
            chunk_size=2,
            parse_cache=parse_cache,
        )
        return runner, runner.run(records)

    def _fresh_cache(self, path):
        signature = LinkGrammarParser().dictionary.signature()
        cache, _ = PersistentParseCache.load_or_create(
            path, signature
        )
        return cache

    @pytest.mark.parametrize("workers", [1, 2])
    def test_round_trip_is_byte_identical(
        self, workers, cohort, baseline, tmp_path
    ):
        path = tmp_path / "corpus.parsecache"
        cold_cache = self._fresh_cache(path)
        _, cold = self._run(
            cohort, workers=workers, parse_cache=cold_cache
        )
        assert cold == baseline
        assert cold_cache.dirty
        cold_cache.save()

        warm_cache = self._fresh_cache(path)
        assert len(warm_cache) == len(cold_cache)
        runner, warm = self._run(
            cohort, workers=workers, parse_cache=warm_cache
        )
        assert warm == baseline
        stats = runner.stats()
        assert stats["persistent_parse_hits"] > 0

        a = ResultStore(tmp_path / f"a{workers}.db")
        a.store_many(cold)
        a.close()
        b = ResultStore(tmp_path / f"b{workers}.db")
        b.store_many(warm)
        b.close()
        assert (tmp_path / f"a{workers}.db").read_bytes() == (
            tmp_path / f"b{workers}.db"
        ).read_bytes()

    def test_parallel_workers_ship_deltas_to_parent(
        self, cohort, tmp_path
    ):
        path = tmp_path / "delta.parsecache"
        cache = self._fresh_cache(path)
        self._run(cohort, workers=2, parse_cache=cache)
        assert cache.dirty  # parent merged worker-discovered parses
        assert all(
            outcome[0] == OUTCOME_OK
            for outcome in cache.entries.values()
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hostile_corpus_parity(
        self, workers, hostile_corpus, tmp_path
    ):
        path = tmp_path / "hostile.parsecache"
        baseline = ResilientCorpusRunner(RecordExtractor()).run(
            hostile_corpus
        )
        cold_cache = self._fresh_cache(path)
        _, cold = self._run(
            hostile_corpus, workers=workers, parse_cache=cold_cache
        )
        assert cold == baseline
        cold_cache.save()
        warm_cache = self._fresh_cache(path)
        _, warm = self._run(
            hostile_corpus, workers=workers, parse_cache=warm_cache
        )
        assert warm == baseline

    def test_resumed_run_with_warm_cache_is_identical(
        self, cohort, baseline, tmp_path
    ):
        path = tmp_path / "resume.parsecache"
        cold_cache = self._fresh_cache(path)
        self._run(cohort, parse_cache=cold_cache)
        cold_cache.save()

        journal_path = tmp_path / "run.journal"
        interrupted = ResilientCorpusRunner(
            RecordExtractor(),
            chunk_size=2,
            journal=journal_path,
            run_id="pc",
            fault_plan=FaultPlan.parse("interrupt@5"),
            policy=FAST_POLICY,
            parse_cache=self._fresh_cache(path),
        )
        with pytest.raises(InjectedInterrupt):
            interrupted.run(cohort)

        resumed = ResilientCorpusRunner(
            RecordExtractor(),
            chunk_size=2,
            journal=journal_path,
            run_id="pc",
            resume=True,
            policy=FAST_POLICY,
            parse_cache=self._fresh_cache(path),
        )
        results = resumed.run(cohort)
        assert resumed.stats()["resumed_chunks"] >= 1
        assert results == baseline
