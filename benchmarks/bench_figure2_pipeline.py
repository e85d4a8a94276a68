"""FIG2 — the Figure 2 system architecture, end to end.

Record files → section split → NLP → three extractors → result
database, driven by the corpus runner: once through the serial
reference path and once fanned out over worker processes, asserting
the two runs fill identical cells.
"""

from conftest import print_table

from repro import RecordExtractor, ResultStore, split_record
from repro.runtime import ResilientCorpusRunner


def test_full_pipeline_throughput(benchmark, small_cohort):
    records, golds = small_cohort
    extractor = RecordExtractor()
    extractor.train_categorical(records, golds)

    def run():
        store = ResultStore()
        reparsed = [split_record(r.raw_text) for r in records]
        serial = ResilientCorpusRunner(extractor, workers=1)
        results = serial.run(reparsed)
        store.store_many(results)
        parallel = ResilientCorpusRunner(extractor, workers=2)
        parallel_results = parallel.run(reparsed)
        return store, results, serial, parallel, parallel_results

    store, results, serial, parallel, parallel_results = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    assert len(store.patients()) == len(records)
    assert parallel_results == results  # fan-out is exact
    filled_numeric = sum(
        1
        for result in results
        for v in result.numeric.values()
        if v is not None
    )
    print_table(
        "Figure 2 pipeline (20 records end to end)",
        ["stage", "output"],
        [
            ("records stored", len(store.patients())),
            ("numeric cells filled", filled_numeric),
            ("term cells filled", sum(
                len(t) for r in results for t in r.terms.values()
            )),
            ("categorical cells filled", sum(
                1
                for r in results
                for v in r.categorical.values()
                if v is not None
            )),
        ],
    )
    print_table(
        "Serial vs parallel throughput",
        ["configuration", "records/s"],
        [
            ("serial", f"{serial.throughput():.1f}"),
            ("workers=2", f"{parallel.throughput():.1f}"),
        ],
    )
    assert filled_numeric == 8 * len(records)
