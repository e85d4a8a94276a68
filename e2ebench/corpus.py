"""Fresh, deterministic corpora for the end-to-end benchmark.

Every corpus is generated from the workload seed given on the command
line.  Each style pack's cohort gets its own seed, derived by hashing
the workload seed together with the corpus role and the pack name
into ``[2**40, 2**41)``.  That range is disjoint from every seed the
repository's tests, evaluations and the benchmark's own calibration
use (all of them are small integers), so no record the program has
seen before is replayed.

Two repository behaviours shape the writer:

* ``load_records`` reads files sorted by name, so file names carry a
  zero-padded position and the shuffled order survives the round trip.
* Two notes with the same patient id make ``repro extract`` extract
  the whole corpus and then die in ``ResultStore.store_many`` with
  ``sqlite3.IntegrityError: UNIQUE constraint failed: term_values...``.
  Pack cohorts all number their patients from 1, so the ``Patient:``
  line of every note is rewritten to a corpus-unique id, and the gold
  is re-keyed to that id.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from repro.records.model import PatientRecord
from repro.records.section_splitter import split_record
from repro.synth.generator import CohortSpec
from repro.synth.gold import GoldAnnotations
from repro.synth.packs import STYLE_PACKS, pack_by_name

#: Seeds the repository already uses for pinned cohorts and baselines.
#: Derived seeds never fall among them (see :func:`derive_seed`).
RESERVED_SEEDS = frozenset({0, 1, 2, 3, 5, 7, 11, 13, 17, 42, 1234})

SEED_BASE = 2 ** 40

_PATIENT_LINE = re.compile(r"^Patient:[ \t]*\S+", re.MULTILINE)


def derive_seed(seed: int, role: str, pack: str) -> int:
    """The generator seed of one pack's cohort inside one corpus."""
    digest = hashlib.sha256(
        f"e2ebench|{seed}|{role}|{pack}".encode()
    ).digest()
    return SEED_BASE + int.from_bytes(digest[:5], "big")


def cohort_spec(size: int) -> CohortSpec:
    """*size* records with the paper cohort's smoking proportions."""
    current = round(size * 0.24)
    former = round(size * 0.10)
    unknown = round(size * 0.10)
    never = size - current - former - unknown
    return CohortSpec(
        size=size,
        smoking_counts={
            "never": never,
            "current": current,
            "former": former,
            None: unknown,
        },
    )


@dataclass
class Corpus:
    """Notes in dispatch order plus their gold, keyed by patient id."""

    records: list[PatientRecord]
    gold: dict[str, GoldAnnotations]
    packs: dict[str, str]  # patient id -> style pack name

    def write(self, directory: Path) -> Path:
        """Write one ``.txt`` per note, and the gold beside *directory*.

        Returns the gold path, ``<directory>.gold.json``: it lives in
        the parent so ``load_records`` sees only the notes.
        """
        directory.mkdir(parents=True, exist_ok=True)
        for position, record in enumerate(self.records):
            path = directory / f"{position:06d}_{record.patient_id}.txt"
            path.write_text(record.raw_text, encoding="ascii")
        gold_path = directory.parent / f"{directory.name}.gold.json"
        gold_path.write_text(json.dumps(
            [self.gold[r.patient_id].to_dict() for r in self.records]
        ))
        return gold_path


def _relabel(
    record: PatientRecord, gold: GoldAnnotations, patient_id: str
) -> tuple[PatientRecord, GoldAnnotations]:
    text, count = _PATIENT_LINE.subn(
        f"Patient:  {patient_id}", record.raw_text, count=1
    )
    if count != 1:
        raise ValueError(
            f"record {record.patient_id!r} has no Patient: line"
        )
    relabelled = split_record(text)
    if relabelled.patient_id != patient_id:
        raise ValueError(
            f"relabelled record reads back as "
            f"{relabelled.patient_id!r}, not {patient_id!r}"
        )
    gold = GoldAnnotations.from_dict(
        {**gold.to_dict(), "patient_id": patient_id}
    )
    return relabelled, gold


def build_corpus(
    seed: int,
    role: str,
    per_pack: int,
    packs: tuple[str, ...] | None = None,
) -> Corpus:
    """*per_pack* fresh notes from each named pack, shuffled.

    *role* names the corpus inside one benchmark run (``"batch-0"``,
    ``"serve-r20"``, ``"train"``, ...); different roles give disjoint
    seeds, so corpora of one run never share a note.
    """
    names = packs or tuple(pack.name for pack in STYLE_PACKS)
    tag = hashlib.sha256(f"{seed}|{role}".encode()).hexdigest()[:6]
    records: list[PatientRecord] = []
    gold: dict[str, GoldAnnotations] = {}
    pack_of: dict[str, str] = {}
    for pack_index, name in enumerate(names):
        cohort, golds = pack_by_name(name).generate_cohort(
            cohort_spec(per_pack), seed=derive_seed(seed, role, name)
        )
        for index, (record, truth) in enumerate(zip(cohort, golds)):
            patient_id = f"{tag}p{pack_index}n{index:05d}"
            record, truth = _relabel(record, truth, patient_id)
            records.append(record)
            gold[patient_id] = truth
            pack_of[patient_id] = name
    random.Random(derive_seed(seed, role, "shuffle")).shuffle(records)
    return Corpus(records=records, gold=gold, packs=pack_of)
