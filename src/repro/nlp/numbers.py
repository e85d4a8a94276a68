"""Number annotation (GATE number NER substitute).

The paper: "most NLP development tools, such as GATE, provide
tokenization modules and Named Entity Recognition modules, which
annotate all numbers in a text with extremely high precision and
recall."  Numbers appear as digits (``17``), decimals (``98.3``), ratio
readings (``144/90``) and English words (``seventeen``,
``twenty-five``).  This module annotates all of them with a normalized
``value`` feature (ratios get a ``values`` tuple instead).
"""

from __future__ import annotations

from repro.nlp.document import Document, TokenKind
from repro import profiling

_UNITS = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
    "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
    "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18,
    "nineteen": 19,
}
_TENS = {
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50, "sixty": 60,
    "seventy": 70, "eighty": 80, "ninety": 90,
}
_SCALES = {"hundred": 100, "thousand": 1000, "million": 1_000_000}


def parse_number_word(word: str) -> float | None:
    """Parse a single number word or hyphenated compound.

    >>> parse_number_word("seventeen")
    17.0
    >>> parse_number_word("twenty-five")
    25.0
    """
    lower = word.lower()
    if lower in _UNITS:
        return float(_UNITS[lower])
    if lower in _TENS:
        return float(_TENS[lower])
    if lower in _SCALES:
        return float(_SCALES[lower])
    if "-" in lower:
        tens, _, unit = lower.partition("-")
        if tens in _TENS and unit in _UNITS and _UNITS[unit] < 10:
            return float(_TENS[tens] + _UNITS[unit])
    return None


def parse_word_sequence(words: list[str]) -> float | None:
    """Parse a multi-word number ("one hundred fifty four")."""
    total = 0.0
    current = 0.0
    seen = False
    for word in words:
        value = parse_number_word(word)
        if value is None:
            return None
        seen = True
        if word.lower() in _SCALES:
            current = (current or 1.0) * value
            if value >= 1000:
                total += current
                current = 0.0
        else:
            current += value
    return total + current if seen else None


def collect_number_features(
    texts: list[str],
    kinds: list[TokenKind | None],
    spans: list[tuple[int, int]],
) -> list[tuple[int, int, dict]]:
    """Number spans + features for a pre-tokenized text.

    Walks the full token stream (word-number runs may cross sentence
    boundaries).  Shared by the staged :class:`NumberAnnotator` and the
    fused scanner so both annotate identically.
    """
    out: list[tuple[int, int, dict]] = []
    n = len(texts)
    i = 0
    while i < n:
        kind = kinds[i]
        text = texts[i]
        if kind is TokenKind.RATIO:
            parts = tuple(float(p) for p in text.split("/"))
            out.append(
                (
                    spans[i][0],
                    spans[i][1],
                    {"values": parts, "value": parts[0], "form": "ratio"},
                )
            )
            i += 1
        elif kind is TokenKind.NUMBER:
            out.append(
                (
                    spans[i][0],
                    spans[i][1],
                    {
                        "value": float(text.replace(",", "")),
                        "form": "digits",
                    },
                )
            )
            i += 1
        elif parse_number_word(text) is not None:
            j = i
            words = []
            while j < n and parse_number_word(texts[j]) is not None:
                words.append(texts[j])
                j += 1
            value = parse_word_sequence(words)
            if value is not None:
                out.append(
                    (
                        spans[i][0],
                        spans[j - 1][1],
                        {"value": value, "form": "words"},
                    )
                )
            i = j
        else:
            i += 1
    return out


class NumberAnnotator:
    """Adds ``Number`` annotations over digit, ratio and word numbers."""

    def annotate(self, document: Document) -> None:
        with profiling.stage("number"):
            tokens = document.tokens()
            texts = [document.span_text(t) for t in tokens]
            kinds = [t.features.get("kind") for t in tokens]
            spans = [(t.start, t.end) for t in tokens]
            for start, end, features in collect_number_features(
                texts, kinds, spans
            ):
                document.annotations.add("Number", start, end, features)

