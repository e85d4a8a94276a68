"""Stage profiler: exclusive-time semantics and engine integration."""

import time

from repro import profiling
from repro.runtime import ResilientCorpusRunner
from repro.synth import CohortSpec, RecordGenerator


def _cohort(size=6):
    return RecordGenerator(seed=19).generate_cohort(
        CohortSpec(
            size=size,
            smoking_counts={
                "never": size - 3, "current": 1, "former": 1, None: 1,
            },
        )
    )


class TestStageProfiler:
    def test_exclusive_nesting_sums_to_outer_wall_time(self):
        profiler = profiling.StageProfiler()
        with profiling.activated(profiler):
            with profiling.stage("outer"):
                time.sleep(0.01)
                with profiling.stage("inner"):
                    time.sleep(0.01)
                time.sleep(0.01)
        seconds = profiler.seconds
        assert seconds["inner"] >= 0.009
        # Exclusive attribution: outer's time excludes inner's.
        assert seconds["outer"] >= 0.019
        assert seconds["outer"] + seconds["inner"] == (
            profiler.total_seconds()
        )
        assert profiler.counts == {"outer": 1, "inner": 1}

    def test_counters_shape_is_merge_friendly(self):
        from repro.runtime.metrics import diff_stats, merge_stats

        profiler = profiling.StageProfiler()
        with profiling.activated(profiler):
            with profiling.stage("a"):
                pass
        before = profiler.counters()
        with profiling.activated(profiler):
            with profiling.stage("a"):
                pass
        delta = diff_stats(profiler.counters(), before)
        assert delta["counts"]["a"] == 1
        merged: dict = {}
        merge_stats(merged, delta)
        merge_stats(merged, delta)
        assert merged["counts"]["a"] == 2

    def test_stage_is_noop_without_active_profiler(self):
        assert profiling.active() is None
        assert not profiling.enabled()
        # The shared null context must be reused, not allocated.
        assert profiling.stage("x") is profiling.stage("y")
        with profiling.stage("x"):
            pass

    def test_activated_restores_previous(self):
        outer = profiling.StageProfiler()
        inner = profiling.StageProfiler()
        with profiling.activated(outer):
            with profiling.activated(inner):
                assert profiling.active() is inner
            assert profiling.active() is outer
        assert profiling.active() is None


class TestRunnerIntegration:
    def test_stages_off_by_default(self):
        records, _ = _cohort()
        runner = ResilientCorpusRunner()
        runner.run(records)
        assert runner.stats()["stages"] == {}

    def test_serial_stages_sum_to_extract_time(self):
        records, _ = _cohort()
        runner = ResilientCorpusRunner(profile_stages=True)
        baseline = ResilientCorpusRunner()
        assert runner.run(records) == baseline.run(records)
        stages = runner.stats()["stages"]
        expected = {
            "record", "tokenize", "sentence", "pos", "number",
            "term-scan", "term-assign", "numeric",
        }
        assert expected <= set(stages["seconds"])
        assert stages["counts"]["record"] == len(records)
        total = sum(stages["seconds"].values())
        extract = runner.metrics.timers["extract_seconds"]
        # Exclusive stage times account for the extraction wall clock
        # (runner bookkeeping outside the record loop is the slack).
        assert total <= extract
        assert total >= 0.8 * extract

    def test_parallel_workers_ship_stage_deltas(self):
        records, _ = _cohort(8)
        serial = ResilientCorpusRunner().run(records)
        runner = ResilientCorpusRunner(
            workers=2, chunk_size=2, profile_stages=True
        )
        assert runner.run(records) == serial
        stages = runner.stats()["stages"]
        assert stages["counts"]["record"] == len(records)
        assert stages["seconds"]["numeric"] > 0.0


class TestNormalizationHoisting:
    def test_sections_scanned_once_across_term_attributes(self):
        """Attributes sharing a section must not rescan it.

        The four term attributes read two distinct sections, so one
        record costs at most one term scan per (section, type-filter)
        group — not one per attribute — and each distinct section text
        runs the NLP pipeline exactly once (the document cache absorbs
        the rest).
        """
        records, _ = _cohort(4)
        runner = ResilientCorpusRunner(profile_stages=True)
        runner.run(records)
        stages = runner.stats()["stages"]
        counts = stages["counts"]
        attributes = runner.extractor.terms.attributes
        groups = {
            (a.section, frozenset(a.semantic_types))
            for a in attributes
        }
        assert len(groups) < len(attributes)
        assert counts["term-scan"] <= len(groups) * len(records)
        # Tokenize runs once per document-cache miss, never per
        # attribute: misses bound the fused scanner invocations.
        misses = runner.extractor.caches.documents.counters()["misses"]
        assert counts["tokenize"] == misses
