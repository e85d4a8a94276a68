"""Deterministic fault injection for the corpus runner.

The resilience layer (:mod:`repro.runtime.resilience`) claims to
survive poisoned records, hung parses, corrupted caches, and killed
workers.  This module makes those claims *testable*: a
:class:`FaultPlan` is a seed-reproducible schedule of faults, fired at
chosen record indices as the runner walks the corpus.  The same plan
object serves the fault-matrix test suite and the
``repro extract --inject-faults SPEC`` debug flag.

Fault kinds and the seam each one exercises:

``raise``
    The pipeline seam: record extraction raises an untyped exception,
    the way a genuinely malformed record would.  Default mode is
    ``always`` — the record is a true poison and must end up
    quarantined.
``hang``
    The parser seam: extraction sleeps past the simulated per-record
    watchdog, then raises :class:`InjectedHang` (standing in for the
    parse-budget machinery firing).  Also ``always`` by default.
``corrupt``
    The cache seam: every entry of the extractor's document and
    linkage caches is overwritten with garbage, then
    :class:`InjectedCacheCorruption` is raised.  Recovery *requires*
    the resilience layer's cache reset on retry — if a retry ran on
    the dirty caches it would crash again.  Default mode ``once``.
``kill``
    The worker seam: inside a pool worker the process dies with
    ``os._exit`` (a segfault/OOM-kill stand-in) and the parent sees
    ``BrokenProcessPool``; in a serial run it raises
    :class:`InjectedWorkerKill` instead of killing the test process.
    Default mode ``once``.
``interrupt``
    The whole-process seam: raises :class:`InjectedInterrupt`, a
    ``BaseException`` that deliberately bypasses the retry machinery —
    a ``kill -9`` stand-in used to test checkpoint/resume.  Always
    fires on the first attempt only.

Spec grammar (see ``docs/robustness.md``)::

    SPEC  := FAULT (";" FAULT)*
    FAULT := KIND "@" INDEX [":" MODE]
    KIND  := "raise" | "hang" | "kill" | "corrupt" | "interrupt"
    INDEX := non-negative integer | "first" | "mid" | "last"
    MODE  := "once" | "always"

Symbolic indices resolve against the corpus size at run time
(:meth:`FaultPlan.resolved`).  ``once`` fires on a record's first
attempt only (a transient fault, recoverable by retry); ``always``
fires on every attempt (a permanent poison, ends in quarantine).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.errors import FaultSpecError, ReproError

if TYPE_CHECKING:
    from repro.extraction.pipeline import RecordExtractor

FAULT_KINDS = ("raise", "hang", "kill", "corrupt", "interrupt")

#: Kinds that model a transient fault (recoverable, fire once) vs a
#: permanent poison (fire on every attempt until quarantined).
_DEFAULT_MODE = {
    "raise": "always",
    "hang": "always",
    "kill": "once",
    "corrupt": "once",
    "interrupt": "once",
}

_SYMBOLIC = ("first", "mid", "last")


class InjectedFailure(ReproError):
    """A ``raise`` fault: the record's extraction blew up."""


class InjectedHang(ReproError):
    """A ``hang`` fault: the simulated per-record watchdog fired."""


class InjectedWorkerKill(ReproError):
    """A ``kill`` fault fired outside a pool worker (serial run)."""


class InjectedCacheCorruption(ReproError):
    """A ``corrupt`` fault: the extractor's caches now hold garbage."""


class InjectedInterrupt(BaseException):
    """A ``kill -9`` stand-in.

    Deliberately *not* a :class:`ReproError` (and not even an
    :class:`Exception`) so the resilience layer's ``except Exception``
    recovery machinery lets it through, exactly as a real SIGKILL
    would end the process — completed chunks survive only via the
    journal.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"injected interrupt at record {index}")


#: Set by the pool initializer (``runner._init_worker``) so ``kill``
#: faults know they may really terminate the current process.
_IN_WORKER = False


def mark_worker() -> None:
    """Record that this process is a disposable pool worker."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    return _IN_WORKER


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: *kind* fires at record *index*."""

    kind: str
    index: int | str
    mode: str = ""  # "" = kind default

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})"
            )
        if self.mode not in ("", "once", "always"):
            raise FaultSpecError(
                f"unknown fault mode {self.mode!r} "
                "(expected 'once' or 'always')"
            )
        if isinstance(self.index, str) and self.index not in _SYMBOLIC:
            raise FaultSpecError(
                f"bad fault index {self.index!r} (expected an "
                f"integer or one of {', '.join(_SYMBOLIC)})"
            )
        if isinstance(self.index, int) and self.index < 0:
            raise FaultSpecError(
                f"fault index must be >= 0, got {self.index}"
            )

    def effective_mode(self) -> str:
        return self.mode or _DEFAULT_MODE[self.kind]

    def spec(self) -> str:
        out = f"{self.kind}@{self.index}"
        if self.mode:
            out += f":{self.mode}"
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable schedule of injected faults.

    Plans are immutable and carry no firing state: whether a fault
    fires is a pure function of ``(record index, attempt number)``,
    so a plan shipped to four pool workers and replayed across
    retries behaves identically everywhere.
    """

    faults: tuple[Fault, ...] = ()
    #: How long a ``hang`` fault sleeps before the watchdog "fires".
    hang_seconds: float = 0.02

    # ------------------------------------------------------ construct

    @classmethod
    def parse(
        cls, spec: str, hang_seconds: float = 0.02
    ) -> "FaultPlan":
        """Build a plan from the ``--inject-faults`` grammar."""
        faults: list[Fault] = []
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            if "@" not in raw:
                raise FaultSpecError(
                    f"bad fault {raw!r}: expected KIND@INDEX[:MODE]"
                )
            kind, _, rest = raw.partition("@")
            index_text, _, mode = rest.partition(":")
            index: int | str
            if index_text in _SYMBOLIC:
                index = index_text
            else:
                try:
                    index = int(index_text)
                except ValueError:
                    raise FaultSpecError(
                        f"bad fault index {index_text!r} in {raw!r}"
                    ) from None
            faults.append(
                Fault(kind=kind.strip(), index=index, mode=mode)
            )
        if not faults:
            raise FaultSpecError(f"empty fault spec {spec!r}")
        return cls(faults=tuple(faults), hang_seconds=hang_seconds)

    @classmethod
    def sample(
        cls,
        n_records: int,
        kinds: Sequence[str] = ("raise",),
        count: int = 1,
        seed: int = 0,
        hang_seconds: float = 0.02,
    ) -> "FaultPlan":
        """Seed-reproducible random placement of *count* faults."""
        if n_records < 1:
            raise FaultSpecError("cannot sample faults for 0 records")
        rng = random.Random(seed)
        faults = tuple(
            Fault(kind=rng.choice(list(kinds)),
                  index=rng.randrange(n_records))
            for _ in range(count)
        )
        return cls(faults=faults, hang_seconds=hang_seconds)

    def resolved(self, n_records: int) -> "FaultPlan":
        """Resolve symbolic indices against the corpus size."""
        mapping = {
            "first": 0,
            "mid": max(n_records // 2, 0),
            "last": max(n_records - 1, 0),
        }
        return replace(
            self,
            faults=tuple(
                replace(fault, index=mapping[fault.index])
                if isinstance(fault.index, str)
                else fault
                for fault in self.faults
            ),
        )

    # ----------------------------------------------------------- fire

    def fault_for(self, index: int, attempt: int) -> Fault | None:
        """The fault that fires for this (record, attempt), if any."""
        for fault in self.faults:
            if fault.index != index:
                continue
            if fault.effective_mode() == "once" and attempt > 0:
                continue
            return fault
        return None

    def fire(
        self,
        index: int,
        attempt: int,
        extractor: "RecordExtractor | None" = None,
    ) -> None:
        """Act out the scheduled fault for record *index*, if any.

        Called by the chunk executors immediately before each record
        is extracted.  Symbolic indices must already be resolved
        (:meth:`resolved`).
        """
        for scheduled in self.faults:
            if isinstance(scheduled.index, str):
                raise FaultSpecError(
                    f"unresolved symbolic fault {scheduled.spec()!r}; "
                    "call FaultPlan.resolved(n_records) first"
                )
        fault = self.fault_for(index, attempt)
        if fault is None:
            return
        if fault.kind == "raise":
            raise InjectedFailure(
                f"injected failure at record {index} "
                f"(attempt {attempt})"
            )
        if fault.kind == "hang":
            time.sleep(self.hang_seconds)
            raise InjectedHang(
                f"injected hang at record {index} exceeded the "
                f"{self.hang_seconds:g}s watchdog (attempt {attempt})"
            )
        if fault.kind == "corrupt":
            if extractor is not None:
                _corrupt_caches(extractor)
            raise InjectedCacheCorruption(
                f"injected cache corruption at record {index} "
                f"(attempt {attempt})"
            )
        if fault.kind == "kill":
            if in_worker():
                os._exit(1)
            raise InjectedWorkerKill(
                f"injected worker kill at record {index} "
                f"(attempt {attempt})"
            )
        if fault.kind == "interrupt":
            raise InjectedInterrupt(index)

    # ------------------------------------------------------- describe

    def spec(self) -> str:
        return ";".join(fault.spec() for fault in self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)


def _corrupt_caches(extractor: "RecordExtractor") -> None:
    """Overwrite every cached entry with garbage, in place.

    The poisoned values crash any consumer that touches them (tuple
    unpacking for linkages, attribute access for documents), so a
    retry on the same worker only succeeds if the resilience layer
    reset the caches first.
    """
    caches = getattr(extractor, "caches", None)
    if caches is None:
        return
    for holder in (caches.documents, caches.linkages):
        lru = getattr(holder, "_lru", None)
        if lru is None:
            continue
        for key in list(lru._data):
            lru._data[key] = ("__corrupted-cache-entry__",)
