"""ASCII record file loading.

"Patient records for input are stored in separate ASCII text files."
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.errors import RecordFormatError
from repro.records.model import PatientRecord
from repro.records.section_splitter import split_record


def load_record(path: str | Path) -> PatientRecord:
    """Load and parse one record file."""
    text = Path(path).read_text(encoding="ascii", errors="replace")
    record = split_record(text)
    if not record.patient_id:
        record.patient_id = Path(path).stem
    return record


def load_records(directory: str | Path) -> Iterator[PatientRecord]:
    """Yield records from every ``*.txt`` file in *directory*, sorted.

    Unparseable files raise :class:`RecordFormatError` with the file
    name attached so a bad note in a batch is identifiable.
    """
    for path in _record_paths(directory):
        try:
            yield load_record(path)
        except RecordFormatError as exc:
            raise RecordFormatError(f"{path.name}: {exc}") from exc


def _record_paths(directory: str | Path) -> list[Path]:
    """The files :func:`load_records` reads, in the order it yields."""
    return sorted(Path(directory).glob("*.txt"))


def check_unique_ids(
    directory: str | Path, records: list[PatientRecord]
) -> None:
    """Reject two files of ``load_records(directory)`` sharing an id.

    Results are stored keyed by patient id, so a duplicate would
    either fail the store after the whole corpus was extracted or
    silently overwrite a patient.  Raises :class:`RecordFormatError`
    naming the id and both files.
    """
    first_file: dict[str, str] = {}
    for path, record in zip(_record_paths(directory), records):
        seen = first_file.setdefault(record.patient_id, path.name)
        if seen != path.name:
            raise RecordFormatError(
                f"duplicate patient id {record.patient_id!r} in "
                f"{seen} and {path.name}"
            )


def save_records(
    records: list[PatientRecord], directory: str | Path
) -> list[Path]:
    """Write records as individual ASCII files; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for record in records:
        path = directory / f"patient_{record.patient_id}.txt"
        path.write_text(
            record.raw_text or record.render(), encoding="ascii",
            errors="replace",
        )
        paths.append(path)
    return paths
