"""Automated error attribution for term extraction (§5's analysis).

The paper attributes its Table 1 errors by manual inspection: "false
positives are mainly caused by the incompleteness of domain ontology
… the low recall of predefined past surgical history and low
precision of other past surgical history is due to failures to
recognize the synonyms of predefined surgical terms and improper
assignments of them to other surgical terms."

This module derives the same attribution programmatically.  Each
false positive and false negative is classified:

False positives
    ``misrouted``       the term belongs to the sibling attribute's
                        gold (a predefined synonym landed in "other",
                        or vice versa);
    ``partial_match``   the extracted term's words are a subset of
                        some gold term's words (an ontology gap made a
                        shorter pattern fire);
    ``spurious``        anything else.

False negatives
    ``misrouted``       extracted, but into the sibling attribute;
    ``ontology_miss``   no name of the gold concept exists in the
                        extraction ontology;
    ``partial_match``   a partial extraction shadowed the term;
    ``other``           anything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.extraction.schema import TERMS_ATTRIBUTES
from repro.extraction.terms import TermExtractor
from repro.ontology.store import OntologyStore
from repro.records.model import PatientRecord
from repro.synth.gold import GoldAnnotations

#: attribute -> the attribute misrouted terms land in.
_SIBLING = {
    "predefined_past_medical_history": "other_past_medical_history",
    "other_past_medical_history": "predefined_past_medical_history",
    "predefined_past_surgical_history": "other_past_surgical_history",
    "other_past_surgical_history": "predefined_past_surgical_history",
}


@dataclass
class ErrorBreakdown:
    """Error counts by category for one term attribute."""

    attribute: str
    false_positives: dict[str, int] = field(default_factory=dict)
    false_negatives: dict[str, int] = field(default_factory=dict)

    def _bump(self, table: dict[str, int], category: str) -> None:
        table[category] = table.get(category, 0) + 1

    def total_fp(self) -> int:
        return sum(self.false_positives.values())

    def total_fn(self) -> int:
        return sum(self.false_negatives.values())

    def dominant_fp_cause(self) -> str | None:
        if not self.false_positives:
            return None
        return max(self.false_positives, key=self.false_positives.get)

    def render(self) -> str:
        lines = [f"{self.attribute}:"]
        lines.append(f"  false positives ({self.total_fp()}):")
        for cat, n in sorted(
            self.false_positives.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"    {cat:16s} {n}")
        lines.append(f"  false negatives ({self.total_fn()}):")
        for cat, n in sorted(
            self.false_negatives.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"    {cat:16s} {n}")
        return "\n".join(lines)


def _word_set(term: str) -> frozenset[str]:
    return frozenset(term.lower().split())


def _is_partial_of(term: str, gold_terms: list[str]) -> bool:
    words = _word_set(term)
    for gold in gold_terms:
        gold_words = _word_set(gold)
        if words and words < gold_words:
            return True
    return False


def analyze_term_errors(
    records: list[PatientRecord],
    golds: list[GoldAnnotations],
    extractor: TermExtractor,
    full_ontology: OntologyStore | None = None,
) -> dict[str, ErrorBreakdown]:
    """Attribute every term-extraction error to a cause.

    ``full_ontology`` (when given) distinguishes *ontology_miss* —
    concept absent from the extractor's degraded store though present
    in the full vocabulary — from plain misses.
    """
    breakdowns = {
        attr.name: ErrorBreakdown(attribute=attr.name)
        for attr in TERMS_ATTRIBUTES
    }
    for record, gold in zip(records, golds):
        extracted = extractor.extract_record(record)
        for attr in TERMS_ATTRIBUTES:
            name = attr.name
            sibling = _SIBLING[name]
            got = list(extracted[name])
            expected = list(gold.terms[name])
            section_gold = expected + list(gold.terms[sibling])
            breakdown = breakdowns[name]

            for term in got:
                if term in expected:
                    continue
                if term in gold.terms[sibling]:
                    breakdown._bump(
                        breakdown.false_positives, "misrouted"
                    )
                elif _is_partial_of(term, section_gold):
                    breakdown._bump(
                        breakdown.false_positives, "partial_match"
                    )
                else:
                    breakdown._bump(
                        breakdown.false_positives, "spurious"
                    )

            for term in expected:
                if term in got:
                    continue
                if term in extracted[sibling]:
                    breakdown._bump(
                        breakdown.false_negatives, "misrouted"
                    )
                elif not extractor.ontology.lookup(term):
                    breakdown._bump(
                        breakdown.false_negatives, "ontology_miss"
                    )
                elif any(
                    _is_partial_of(g, [term]) for g in got
                ):
                    breakdown._bump(
                        breakdown.false_negatives, "partial_match"
                    )
                else:
                    breakdown._bump(breakdown.false_negatives, "other")
    return breakdowns
