"""Accuracy against the generator's gold, and the result checks."""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Any

from repro.ml.metrics import ExtractionCounts, score_extraction
from repro.synth.gold import GoldAnnotations


def values_from_db(path: Path) -> dict[str, dict[str, Any]]:
    """Plain values of every patient stored by ``repro extract``."""
    out: dict[str, dict[str, Any]] = {}
    with sqlite3.connect(f"file:{path}?mode=ro", uri=True) as db:
        for (patient_id,) in db.execute("SELECT patient_id FROM patients"):
            out[patient_id] = {
                "numeric": {}, "terms": {}, "categorical": {},
            }
        for pid, attr, value, value2 in db.execute(
            "SELECT patient_id, attribute, value, value2 "
            "FROM numeric_values"
        ):
            out[pid]["numeric"][attr] = (
                None if value is None
                else (value, value2) if value2 is not None else value
            )
        for pid, attr, term in db.execute(
            "SELECT patient_id, attribute, term FROM term_values "
            "ORDER BY patient_id, attribute, position"
        ):
            out[pid]["terms"].setdefault(attr, []).append(term)
        for pid, attr, label in db.execute(
            "SELECT patient_id, attribute, label FROM categorical_values"
        ):
            out[pid]["categorical"][attr] = label
    return out


def quarantined_ids(path: Path) -> list[str]:
    with sqlite3.connect(f"file:{path}?mode=ro", uri=True) as db:
        return [row[0] for row in db.execute(
            "SELECT record_id FROM quarantine"
        )]


class Accuracy:
    """Micro-averaged numeric and term F1 plus smoking accuracy."""

    def __init__(self) -> None:
        self.numeric = ExtractionCounts()
        self.terms = ExtractionCounts()
        self.smoking_right = 0
        self.smoking_total = 0

    def add(self, values: dict[str, Any], gold: GoldAnnotations) -> None:
        for attr, got in values["numeric"].items():
            expected = gold.numeric.get(attr)
            if isinstance(expected, list):
                expected = tuple(expected)
            self.numeric.tinst += expected is not None
            if got is None:
                continue
            self.numeric.etotal += 1
            self.numeric.etrue += got == expected
        for attr, expected in gold.terms.items():
            self.terms += score_extraction(
                values["terms"].get(attr, []), expected
            )
        label = gold.categorical.get("smoking")
        if label is not None:
            self.smoking_total += 1
            self.smoking_right += (
                values["categorical"].get("smoking") == label
            )

    @staticmethod
    def _f1(counts: ExtractionCounts) -> float:
        p, r = counts.precision(), counts.recall()
        return 2 * p * r / (p + r) if p + r else 0.0

    def metrics(self) -> dict[str, float]:
        return {
            "numeric_f1": self._f1(self.numeric),
            "term_f1": self._f1(self.terms),
            "smoking_acc": (
                self.smoking_right / self.smoking_total
                if self.smoking_total else 0.0
            ),
        }
