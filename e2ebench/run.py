"""End-to-end benchmark of ``repro extract`` and ``repro serve``.

    python3 e2ebench/run.py --workload mixed --seed 1 --seconds 30 \
        --trace 0

Run it from the root of a checkout: it builds nothing, running the
program from ``src/`` of the current directory.  Every run starts from
nothing: a fresh working directory under ``.e2ebench_work/``, a fresh
artifact cache compiled during preparation, fresh notes generated from
``--seed``, categorical models trained on a cohort of their own, and
``--no-parse-cache`` on every command.  Each run has two parts:

* batch: ``repro extract`` (CLI defaults, ``--workers 1``) over fresh
  corpora, one process per corpus, until ``--seconds``/2 have passed
  (at least two corpora);
* serve: three fresh ``repro serve`` processes, each fed its own fresh
  corpus through the library's pipelined client.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1``
it repeats the first batch corpus under the span wrappers of
:mod:`launch`, runs one traced fresh server per offered rate under the
open-loop client of :mod:`loadgen`, and prints the per-layer ledger
instead.  The last line of output is one JSON object; the exit code is
1 when any output check failed.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: Offered rates of the open-loop phases (``--trace 1``), requests/s.
RATES = (5, 10, 15)
#: Latency limit at the reported percentile for ``goodput_rps``.
LATENCY_LIMIT_MS = 300.0
#: An open-loop phase whose generator sent any request later than
#: this after its due time is rejected.
GENERATOR_LATE_LIMIT_MS = 50.0
#: ``--trace 1``: self times must explain the traced wall time to
#: within this share of it.
LEDGER_TOLERANCE = 0.05
#: ``repro compile`` runs after each part of an untraced run, and
#: ``repro serve`` processes per run.
COMPILES_PER_PART = 2
SERVERS = 3

WORKLOADS: dict[str, dict[str, Any]] = {
    # All nine style packs, equal shares, shuffled.
    "mixed": {
        "packs": None, "batch_per_pack": 30, "throughput_per_pack": 20,
        "open_loop_per_pack": 12, "train_per_pack": 20,
    },
    # The single-clinician cohort the older benches replay.
    "templated": {
        "packs": ("consistent",), "batch_per_pack": 600,
        "throughput_per_pack": 450, "open_loop_per_pack": 108,
        "train_per_pack": 180,
    },
}

END_TO_END = [
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("records_per_s", "1/s"),
    ("serve_records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_share", "share"),
    ("numeric_f1", "share"),
    ("term_f1", "share"),
    ("smoking_acc", "share"),
]

METHODS = ("regex", "linkage", "pattern", "proximity", "alignment")

PER_LAYER = [
    ("startup.import_s", "s"),
    ("records.load_s", "s"),
    ("compiled.load_s", "s"),
    ("compiled.make_extractor_s", "s"),
    ("compiled.artifact_mb", "MB"),
    ("nlp.scan_s", "s"),
    ("nlp.sections", "count"),
    ("nlp.doc_cache_hit_ratio", "share"),
    ("terms.s", "s"),
    ("terms.hits", "count"),
    ("numeric.self_s", "s"),
    ("numeric.filled", "count"),
    *[(f"numeric.method.{m}", "count") for m in METHODS],
    ("linkgrammar.parse_s", "s"),
    ("linkgrammar.parse_calls", "count"),
    ("linkgrammar.parse_p90_ms", "ms"),
    ("linkgrammar.parse_failures", "count"),
    ("linkgrammar.linkage_hit_ratio", "share"),
    ("linkgrammar.lookup_self_s", "s"),
    ("linkgrammar.distance_s", "s"),
    ("linkgrammar.parse_share_batch", "share"),
    ("categorical.s", "s"),
    ("categorical.load_models_s", "s"),
    ("storage.write_s", "s"),
    ("storage.rows", "count"),
    ("runtime.runner_self_s", "s"),
    ("runtime.retries", "count"),
    ("runtime.quarantined", "count"),
    ("service.start_s", "s"),
    ("service.batches", "count"),
    ("service.batch_size_mean", "count"),
    ("service.batch_exec_p90_ms", "ms"),
    ("service.wait_p90_ms", "ms"),
    ("service.shed", "count"),
    ("service.gen_late_max_ms", "ms"),
    *[(f"p50_ms.r{rate}", "ms") for rate in RATES],
    *[(f"p90_ms.r{rate}", "ms") for rate in RATES],
    ("goodput_rps", "1/s"),
    ("ledger.wall_s", "s"),
    ("ledger.unattributed_s", "s"),
    ("ledger.unattributed_share", "share"),
    ("trace.overhead_s", "s"),
]


class CheckFailed(Exception):
    """An output check failed; the run's figures are not trusted."""


@dataclass
class Run:
    """State of one benchmark run: where it works and what it saw."""

    seed: int
    workload: dict[str, Any]
    work: Path
    env: dict[str, str]
    models: Path = field(init=False)
    attempted: int = 0
    failed: int = 0
    live: list[subprocess.Popen] = field(default_factory=list)
    compiles: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.models = self.work / "models"


@dataclass
class Child:
    """One finished process under test."""

    wall_s: float
    #: From launch until it could take its first record.
    setup_s: float
    maxrss_mb: float
    report: dict[str, Any]


# ------------------------------------------------------------ processes

def _spawn(run: Run, argv: list[str], log: Path) -> subprocess.Popen:
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=run.env, stdout=out,
            stderr=subprocess.STDOUT,
        )
    run.live.append(proc)
    return proc


def _reap(run: Run, proc: subprocess.Popen, timeout_s: float = 120.0):
    """Wait for *proc*; returns its resource usage."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            run.live.remove(proc)
            raise CheckFailed(f"pid {proc.pid} ran over {timeout_s}s")
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    run.live.remove(proc)
    return usage


def launch(run: Run, name: str, command: list[str],
           trace: bool) -> tuple[subprocess.Popen, float, Path]:
    """Start ``repro <command>`` under the launcher."""
    report = run.work / f"{name}.report.json"
    argv = [sys.executable, str(BENCH / "launch.py"), "--report",
            str(report)]
    if trace:
        argv.append("--trace")
    started = time.time()
    proc = _spawn(run, argv + ["--", *command], run.work / f"{name}.log")
    return proc, started, report


def finish(run: Run, proc: subprocess.Popen, started: float,
           report: Path, name: str) -> Child:
    usage = _reap(run, proc)
    wall = time.time() - started
    if proc.returncode != 0:
        log = (run.work / f"{name}.log").read_text(errors="replace")
        raise CheckFailed(
            f"{name} exited {proc.returncode}:\n{log[-2000:]}"
        )
    data = json.loads(report.read_text())
    return Child(
        wall_s=wall,
        setup_s=data["ready_wall"] - started,
        maxrss_mb=usage.ru_maxrss / 1024,
        report=data,
    )


def check_no_sidecar(run: Run) -> None:
    found = sorted(run.work.rglob("*.parsecache"))
    if found:
        raise CheckFailed(
            f"--no-parse-cache left a sidecar behind: {found[0]}"
        )


# ---------------------------------------------------------- preparation

def time_compile(run: Run) -> float:
    """Seconds of one ``repro compile`` into a new, empty cache.

    The first compile of a run becomes the run's artifact cache.
    """
    cache = run.work / f"cache-{len(run.compiles)}"
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "compile"], cwd=ROOT,
        env={**run.env, "REPRO_ARTIFACT_CACHE": str(cache)},
        check=True, stdout=subprocess.DEVNULL,
    )
    run.compiles.append(time.perf_counter() - started)
    if len(run.compiles) == 1:
        run.env["REPRO_ARTIFACT_CACHE"] = str(cache)
    return run.compiles[-1]


def train_models(run: Run) -> None:
    """ID3 models from a cohort no measured note comes from."""
    from corpus import build_corpus
    from repro.runtime.compiled import CompiledArtifact

    cohort = build_corpus(
        run.seed, "train", run.workload["train_per_pack"],
        run.workload["packs"],
    )
    artifact_path = next(
        Path(run.env["REPRO_ARTIFACT_CACHE"]).glob("artifact-*.pkl")
    )
    extractor = CompiledArtifact.load(artifact_path).make_extractor()
    extractor.train_categorical(
        cohort.records, [cohort.gold[r.patient_id] for r in cohort.records]
    )
    extractor.save_models(run.models)


# ---------------------------------------------------------------- batch

def extract_corpus(run: Run, role: str, trace: bool, accuracy=None,
                   corpus=None):
    """``repro extract`` over one fresh corpus; checks every record."""
    from corpus import build_corpus
    from score import quarantined_ids, values_from_db

    if corpus is None:
        corpus = build_corpus(
            run.seed, role, run.workload["batch_per_pack"],
            run.workload["packs"],
        )
    name = f"{role}-traced" if trace else role
    notes = run.work / role / "notes"
    if not notes.exists():
        corpus.write(notes)
    db = run.work / f"{name}.db"
    proc, started, report = launch(run, name, [
        "extract", "--input", str(notes), "--db", str(db),
        "--models", str(run.models), "--no-parse-cache",
    ], trace)
    child = finish(run, proc, started, report, name)
    check_no_sidecar(run)
    values = values_from_db(db)
    quarantined = quarantined_ids(db)
    ids = {record.patient_id for record in corpus.records}
    if set(values) | set(quarantined) != ids or (
        len(values) + len(quarantined) != len(ids)
    ):
        raise CheckFailed(
            f"{name}: {len(values)} stored + {len(quarantined)} "
            f"quarantined != {len(ids)} attempted"
        )
    if accuracy is not None:
        run.attempted += len(ids)
        run.failed += len(quarantined)
        for patient_id, got in values.items():
            accuracy.add(got, corpus.gold[patient_id])
    return corpus, child, len(ids)


def batch_part(run: Run, window_s: float, accuracy) -> dict[str, float]:
    records, seconds, rss = 0, 0.0, []
    ends = time.monotonic() + window_s
    index = 0
    while index < 2 or time.monotonic() < ends:
        _, child, count = extract_corpus(
            run, f"batch-{index}", trace=False, accuracy=accuracy
        )
        records += count
        seconds += child.wall_s
        rss.append(child.maxrss_mb)
        index += 1
    return {
        "records_per_s": records / seconds,
        "peak_rss_mb": statistics.median(rss),
    }


# ---------------------------------------------------------------- serve

def start_server(run: Run, role: str, trace: bool):
    """A fresh ``repro serve`` process; returns once it takes requests."""
    ready = run.work / f"{role}.ready"
    proc, started, report = launch(run, role, [
        "serve", "--host", "127.0.0.1", "--port", "0",
        "--ready-file", str(ready), "--models", str(run.models),
        "--no-parse-cache",
    ], trace)
    deadline = time.monotonic() + 60.0
    while True:
        if proc.poll() is not None:
            raise CheckFailed(f"{role} exited {proc.returncode} early")
        try:
            port = int(json.loads(ready.read_text())["port"])
            break
        except (OSError, ValueError, KeyError):
            if time.monotonic() > deadline:
                raise CheckFailed(f"{role} not ready after 60s")
            time.sleep(0.005)
    return proc, started, report, ("127.0.0.1", port)


def stop_server(run: Run, server, role: str) -> Child:
    import loadgen

    proc, started, report, address = server
    loadgen.shutdown(address)
    child = finish(run, proc, started, report, role)
    check_no_sidecar(run)
    return child


def serve_throughput(run: Run, index: int, accuracy):
    """A fresh corpus through a fresh server as fast as it will go.

    The client is the library's pipelined one (``repro submit``'s
    path): a window of requests in flight, shed requests resent.
    """
    from corpus import build_corpus
    from repro.client import ServiceClient

    role = f"serve-{index}"
    corpus = build_corpus(
        run.seed, role, run.workload["throughput_per_pack"],
        run.workload["packs"],
    )
    server = start_server(run, role, trace=False)
    _, _, _, (_, port) = server
    started = time.perf_counter()
    with ServiceClient(port=port) as client:
        results, quarantined = client.extract_many(corpus.records)
    elapsed = time.perf_counter() - started
    child = stop_server(run, server, role)
    if len(results) + len(quarantined) != len(corpus.records):
        raise CheckFailed(
            f"{role}: {len(results)} returned + {len(quarantined)} "
            f"quarantined != {len(corpus.records)} sent"
        )
    run.attempted += len(corpus.records)
    run.failed += len(quarantined)
    for result in results:
        accuracy.add(values_of(result), corpus.gold[result.patient_id])
    return corpus, results, elapsed, child


def values_of(result) -> dict[str, Any]:
    return {
        "numeric": result.numeric_values(),
        "terms": result.terms,
        "categorical": result.categorical,
    }


def check_batch_equals_serve(run: Run, served: list) -> None:
    """Serve results for a fixed sample == ``repro extract``'s, bytes."""
    from corpus import Corpus
    from repro.storage.db import ResultStore

    sample = Corpus(records=[], gold={}, packs={})
    results = []
    for corpus, returned in served:
        by_id = {result.patient_id: result for result in returned}
        for record in [r for r in corpus.records
                       if r.patient_id in by_id][:3]:
            sample.records.append(record)
            sample.gold[record.patient_id] = corpus.gold[
                record.patient_id]
            results.append(by_id[record.patient_id])
    notes = run.work / "sample" / "notes"
    sample.write(notes)
    batch_db = run.work / "sample-batch.db"
    proc, started, report = launch(run, "sample", [
        "extract", "--input", str(notes), "--db", str(batch_db),
        "--models", str(run.models), "--no-parse-cache",
    ], trace=False)
    finish(run, proc, started, report, "sample")
    serve_db = run.work / "sample-serve.db"
    store = ResultStore(serve_db)
    store.store_many(results)
    store.close()
    if serve_db.read_bytes() != batch_db.read_bytes():
        raise CheckFailed(
            f"serve results for {len(results)} sampled notes differ "
            "from repro extract's"
        )


def serve_part(run: Run, accuracy) -> dict[str, float]:
    records, seconds, setups, served = 0, 0.0, [], []
    for index in range(SERVERS):
        corpus, results, elapsed, child = serve_throughput(
            run, index, accuracy
        )
        records += len(corpus.records)
        seconds += elapsed
        setups.append(child.setup_s)
        served.append((corpus, results))
    check_batch_equals_serve(run, served)
    return {
        "serve_records_per_s": records / seconds,
        "setup_s": statistics.median(setups),
    }


def open_loop(run: Run, rate: int):
    """One traced fresh server fed fresh notes at *rate* requests/s."""
    import loadgen
    from corpus import build_corpus, derive_seed

    role = f"serve-r{rate}"
    corpus = build_corpus(
        run.seed, role, run.workload["open_loop_per_pack"],
        run.workload["packs"],
    )
    server = start_server(run, role, trace=True)
    phase = loadgen.run_phase(
        server[3], corpus.records, rate,
        seed=derive_seed(run.seed, role, "arrivals"),
    )
    child = stop_server(run, server, role)
    if len(phase.results) + len(phase.failed) != phase.sent:
        raise CheckFailed(
            f"{role}: {len(phase.results)} returned + "
            f"{len(phase.failed)} failed != {phase.sent} sent"
        )
    if phase.late_max_s * 1000 > GENERATOR_LATE_LIMIT_MS:
        raise CheckFailed(
            f"{role}: open-loop generator ran "
            f"{phase.late_max_s * 1000:.1f} ms late"
        )
    run.attempted += phase.sent
    run.failed += len(phase.failed)
    return phase, child


def backlog_grows(phase) -> bool:
    """Did latency keep rising through the phase?"""
    ordered = [phase.latency[i] for i in
               sorted(phase.latency, key=phase.due.__getitem__)]
    third = len(ordered) // 3
    first = statistics.median(ordered[:third])
    last = statistics.median(ordered[-third:])
    return last > 2 * first and last > 0.1


def latency_metrics(phases: list) -> dict[str, float]:
    from spans import quantile

    out: dict[str, float] = {}
    goodput = 0
    for phase in phases:
        latencies = list(phase.latency.values())
        p90 = 1000 * quantile(latencies, 0.90)
        out[f"p50_ms.r{phase.rate}"] = 1000 * quantile(latencies, 0.50)
        out[f"p90_ms.r{phase.rate}"] = p90
        if (
            p90 <= LATENCY_LIMIT_MS
            and len(phase.failed) <= 0.01 * phase.sent
            and not backlog_grows(phase)
        ):
            goodput = max(goodput, phase.rate)
    out["goodput_rps"] = goodput
    return out


# --------------------------------------------------------------- ledger

def layer_metrics(batch: Child, servers: list[Child], phases: list,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer figures from the traced processes of one run."""
    from spans import durations, quantile, self_times

    children = [batch, *servers]
    selfs = [self_times(c.report["spans"]) for c in children]
    counts: dict[str, float] = {}
    for child in children:
        for name, value in child.report["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def self_s(*names: str) -> float:
        return sum(s.get(n, 0.0) for s in selfs for n in names)

    def spans_of(name: str) -> list[float]:
        return [d for c in children
                for d in durations(c.report["spans"], name)]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    parses = spans_of("linkgrammar.parse")
    lookups = len(spans_of("linkgrammar.lookup"))
    sections = len(spans_of("nlp.scan"))
    execs, sizes, waits = [], [], []
    for server, phase in zip(servers, phases):
        spans = {s[0]: s for s in server.report["spans"]}
        for span_id, ids in server.report["batches"]:
            _, _, _, start, end = spans[span_id]
            execs.append(end - start)
            sizes.append(len(ids))
            waits += [phase.latency[i] - (end - start) for i in ids
                      if i in phase.latency]
    batch_wall = batch.report["wall_s"]
    wall = batch_wall + sum(
        s.report["ready_s"] + sum(durations(
            s.report["spans"], "service.run_batch"))
        for s in servers
    )
    unattributed = wall - sum(sum(s.values()) for s in selfs)
    out = {
        "startup.import_s": self_s("startup.import"),
        "records.load_s": self_s("records.load"),
        "compiled.load_s": self_s("compiled.load"),
        "compiled.make_extractor_s": self_s("compiled.make_extractor"),
        "compiled.artifact_mb": batch.report["counts"].get(
            "compiled.artifact_bytes", 0) / 1e6,
        "nlp.scan_s": self_s("nlp.scan"),
        "nlp.sections": sections,
        "nlp.doc_cache_hit_ratio": ratio(
            counts.get("nlp.doc_hits", 0), sections),
        "terms.s": self_s("terms"),
        "terms.hits": counts.get("terms.hits", 0),
        "numeric.self_s": self_s("numeric"),
        "numeric.filled": counts.get("numeric.filled", 0),
        **{f"numeric.method.{m}": counts.get(f"numeric.method.{m}", 0)
           for m in METHODS},
        "linkgrammar.parse_s": self_s("linkgrammar.parse"),
        "linkgrammar.parse_calls": len(parses),
        "linkgrammar.parse_p90_ms": 1000 * quantile(parses, 0.90),
        "linkgrammar.parse_failures": counts.get(
            "linkgrammar.parse_failures", 0),
        "linkgrammar.linkage_hit_ratio": ratio(
            counts.get("linkgrammar.lookup_hits", 0), lookups),
        "linkgrammar.lookup_self_s": self_s("linkgrammar.lookup"),
        "linkgrammar.distance_s": self_s("linkgrammar.distance"),
        "linkgrammar.parse_share_batch": ratio(
            selfs[0].get("linkgrammar.parse", 0.0), batch_wall),
        "categorical.s": self_s("categorical"),
        "categorical.load_models_s": self_s("categorical.load_models"),
        "storage.write_s": self_s("storage.write", "storage.close"),
        "storage.rows": counts.get("storage.rows", 0),
        "runtime.runner_self_s": self_s("runtime.runner"),
        "runtime.retries": counts.get("runtime.retries", 0),
        "runtime.quarantined": counts.get("runtime.quarantined", 0),
        "service.start_s": self_s("service.start"),
        "service.batches": len(execs),
        "service.batch_size_mean": ratio(sum(sizes), len(sizes)),
        "service.batch_exec_p90_ms": 1000 * quantile(execs, 0.90),
        "service.wait_p90_ms": 1000 * quantile(waits, 0.90),
        "service.shed": sum(p.shed for p in phases),
        "service.gen_late_max_ms": 1000 * max(
            p.late_max_s for p in phases),
        "ledger.wall_s": wall,
        "ledger.unattributed_s": unattributed,
        "ledger.unattributed_share": ratio(unattributed, wall),
        "trace.overhead_s": overhead_s,
    }
    if abs(out["ledger.unattributed_share"]) > LEDGER_TOLERANCE:
        raise CheckFailed(
            f"ledger leaves {unattributed:.3f}s of {wall:.3f}s "
            f"unattributed (tolerance {LEDGER_TOLERANCE:.0%})"
        )
    return out


# ----------------------------------------------------------------- runs

def measure(run: Run, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    from score import Accuracy

    accuracy = Accuracy()
    out = batch_part(run, seconds / 2, accuracy)
    for _ in range(COMPILES_PER_PART):
        time_compile(run)
    out.update(serve_part(run, accuracy))
    for _ in range(COMPILES_PER_PART):
        time_compile(run)
    # Compiles are spread over the run and the fastest is kept: the
    # work is fixed, so it is the one least slowed by whatever else
    # shared the machine at the time.
    out["compile_s"] = min(run.compiles)
    out.update(accuracy.metrics())
    out["success_share"] = (run.attempted - run.failed) / run.attempted
    return out


def trace(run: Run) -> dict[str, float]:
    """The per-layer ledger of one traced run."""
    from score import Accuracy

    corpus, plain, _ = extract_corpus(
        run, "batch-0", trace=False, accuracy=Accuracy()
    )
    _, traced, _ = extract_corpus(
        run, "batch-0", trace=True, corpus=corpus
    )
    servers, phases = [], []
    for rate in RATES:
        phase, child = open_loop(run, rate)
        servers.append(child)
        phases.append(phase)
    out = layer_metrics(
        traced, servers, phases, traced.wall_s - plain.wall_s
    )
    out.update(latency_metrics(phases))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workroot = ROOT / ".e2ebench_work"
    workroot.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=workroot
    ))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join((str(SRC), str(BENCH))),
    }
    run = Run(args.seed, WORKLOADS[args.workload], work, env)
    failures: list[str] = []
    metrics: dict[str, float] = {}
    try:
        time_compile(run)
        train_models(run)
        if args.trace:
            metrics = trace(run)
        else:
            metrics = measure(run, args.seconds)
    except CheckFailed as error:
        failures.append(str(error))
    finally:
        for proc in list(run.live):
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": not failures,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
