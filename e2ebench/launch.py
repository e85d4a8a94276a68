"""Run one ``repro`` command as the process under test.

    python3 launch.py --report OUT.json [--trace] -- <repro arguments>

The launcher records when the entry point became ready to take its
first record: the first ``ResilientCorpusRunner.run`` call for
``repro extract``, the return of ``ExtractionService.start`` for
``repro serve``.  With ``--trace`` it also wraps the public functions
of every layer in spans (see :func:`install_layers`).  It changes no
code of the program: the wrappers are installed on the imported
classes and modules of this process only.  On exit it writes the marks, its peak
memory and, when tracing, the spans and counts to the report file.
"""

from __future__ import annotations

import time

LAUNCH_WALL = time.time()
LAUNCH = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from spans import Recorder  # noqa: E402


def _mark_ready(marks: dict[str, float], cls: type, name: str,
                after_return: bool) -> None:
    original = getattr(cls, name)

    def mark() -> None:
        if "ready" not in marks:
            marks["ready"] = time.perf_counter()
            marks["ready_wall"] = time.time()

    def marked(*args: Any, **kwargs: Any) -> Any:
        if not after_return:
            mark()
        result = original(*args, **kwargs)
        mark()
        return result

    setattr(cls, name, marked)


def install_marks(marks: dict[str, float]) -> None:
    from repro.runtime.resilience import ResilientCorpusRunner
    from repro.runtime.service import ExtractionService

    _mark_ready(marks, ResilientCorpusRunner, "run", after_return=False)
    _mark_ready(marks, ExtractionService, "start", after_return=True)


def install_layers(recorder: Recorder, batches: list) -> None:
    """Wrap each layer's public entry points in spans."""
    import repro.cli
    import repro.extraction.numeric as numeric_module
    from repro.extraction.categorical import CategoricalClassifier
    from repro.extraction.numeric import NumericExtractor
    from repro.extraction.pipeline import RecordExtractor
    from repro.extraction.terms import TermExtractor
    from repro.linkgrammar.parser import LinkGrammarParser
    from repro.runtime.cache import DocumentCache, LinkageCache
    from repro.runtime.compiled import CompiledArtifact
    from repro.runtime.resilience import ResilientCorpusRunner
    from repro.runtime.service import ExtractionService
    from repro.runtime.sharding import LocalShard
    from repro.storage.db import ResultStore

    counts: Counter[str] = recorder.counts
    wrap = recorder.wrap

    def method(cls: type, name: str, span: str, **hooks: Any) -> None:
        setattr(cls, name, wrap(span, getattr(cls, name), **hooks))

    load_records = repro.cli.load_records
    repro.cli.load_records = wrap(
        "records.load", lambda *a, **k: list(load_records(*a, **k))
    )

    def artifact_size(args: tuple, result: Any, state: Any,
                      span_id: int) -> None:
        counts["compiled.artifact_bytes"] = Path(args[0]).stat().st_size

    CompiledArtifact.load = staticmethod(wrap(
        "compiled.load", CompiledArtifact.load, after=artifact_size
    ))
    method(CompiledArtifact, "make_extractor", "compiled.make_extractor")

    def doc_hits(args: tuple, result: Any, state: Any,
                 span_id: int) -> None:
        counts["nlp.doc_hits"] += args[0]._lru.hits - state

    method(DocumentCache, "get", "nlp.scan",
           before=lambda args: args[0]._lru.hits, after=doc_hits)

    def term_hits(args: tuple, result: Any, state: Any,
                  span_id: int) -> None:
        counts["terms.hits"] += sum(len(v) for v in result[0].values())

    method(TermExtractor, "extract_record_detailed", "terms",
           after=term_hits)

    def numeric_filled(args: tuple, result: Any, state: Any,
                       span_id: int) -> None:
        for found in result.values():
            if found is not None:
                counts["numeric.filled"] += 1
                counts[f"numeric.method.{found.method.value}"] += 1

    method(NumericExtractor, "extract_record", "numeric",
           after=numeric_filled)

    def lookup_hit(args: tuple, result: Any, state: Any,
                   span_id: int) -> None:
        if counts["linkgrammar.parse_calls"] == state:
            counts["linkgrammar.lookup_hits"] += 1

    method(LinkageCache, "lookup", "linkgrammar.lookup",
           before=lambda args: counts["linkgrammar.parse_calls"],
           after=lookup_hit)

    def parsed(args: tuple, result: Any, state: Any,
               span_id: int) -> None:
        counts["linkgrammar.parse_calls"] += 1

    def parse_failed(error: BaseException) -> None:
        counts["linkgrammar.parse_calls"] += 1
        counts["linkgrammar.parse_failures"] += 1

    method(LinkGrammarParser, "parse", "linkgrammar.parse",
           after=parsed, on_error=parse_failed)
    numeric_module.nearest_word = wrap(
        "linkgrammar.distance", numeric_module.nearest_word
    )
    method(CategoricalClassifier, "predict_record_detailed",
           "categorical")
    method(RecordExtractor, "load_models", "categorical.load_models")

    def rows(args: tuple, result: Any, state: Any, span_id: int) -> None:
        counts["storage.rows"] += len(args[1])

    method(ResultStore, "store_many", "storage.write", after=rows)
    method(ResultStore, "close", "storage.close")

    def runner_counters(args: tuple) -> tuple[int, int]:
        counters = args[0].metrics.counters
        return counters.get("retries", 0), counters.get("quarantined", 0)

    def runner_delta(args: tuple, result: Any, state: Any,
                     span_id: int) -> None:
        retries, quarantined = runner_counters(args)
        counts["runtime.retries"] += retries - state[0]
        counts["runtime.quarantined"] += quarantined - state[1]

    method(ResilientCorpusRunner, "run", "runtime.runner",
           before=runner_counters, after=runner_delta)

    def batch_ids(args: tuple, result: Any, state: Any,
                  span_id: int) -> None:
        batches.append((span_id, [r.patient_id for r in args[1]]))

    method(LocalShard, "run_batch", "service.run_batch", after=batch_ids)
    method(ExtractionService, "start", "service.start")


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1:]
    report_path = Path(options[options.index("--report") + 1])
    recorder = Recorder() if "--trace" in options else None
    batches: list = []
    marks: dict[str, float] = {}
    if recorder is not None:
        with recorder.span("startup.import"):
            import repro.cli
    else:
        import repro.cli
    install_marks(marks)
    if recorder is not None:
        install_layers(recorder, batches)
    rc = 1
    try:
        rc = repro.cli.main(command)
    finally:
        end = time.perf_counter()
        report: dict[str, Any] = {
            "rc": rc,
            "launch_wall": LAUNCH_WALL,
            "ready_wall": marks.get("ready_wall"),
            "ready_s": (
                marks["ready"] - LAUNCH if "ready" in marks else None
            ),
            "wall_s": end - LAUNCH,
            "maxrss_kb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss,
        }
        if recorder is not None:
            report["spans"] = [
                (i, p, n, s - LAUNCH, e - LAUNCH)
                for i, p, n, s, e in recorder.spans
            ]
            report["counts"] = dict(recorder.counts)
            report["batches"] = batches
        report_path.write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
