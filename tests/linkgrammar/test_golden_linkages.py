"""Golden linkage digests over every sentence the extractor parses.

``golden_linkages.json`` holds each distinct sentence (words + tags)
that a compiled extractor sends to :meth:`LinkGrammarParser.parse`
while extracting 10 notes per style pack at three seeds, plus the
hostile corpus, together with a digest of the parse outcome: the cost
and sorted links of every linkage in rank order, or the failure class.

The default parser must reproduce every digest byte for byte, and the
label-set oracle (``bitset=False``) and the unpruned parser must agree
with it, so any rewrite of the parse session is pinned to the same
linkages.  Regenerate (only when a linkage change is intended) with::

    PYTHONPATH=src python -m tests.linkgrammar.test_golden_linkages
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ParseFailure
from repro.linkgrammar import LinkGrammarParser

GOLDEN = Path(__file__).with_name("golden_linkages.json")
SEEDS = (42, 7, 1234)
NOTES_PER_PACK = 10


def _digest(payload) -> str:
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:32]


def outcome_digest(parser: LinkGrammarParser, words, tags) -> str:
    """Digest of ``parser.parse(words, tags)``: linkages or failure."""
    try:
        linkages = parser.parse(list(words), list(tags) if tags else None)
    except ParseFailure as exc:
        return _digest(["fail", type(exc).__name__])
    return _digest([
        [lk.cost, [[l.left, l.right, l.label] for l in lk.links]]
        for lk in linkages
    ])


def capture_sentences() -> list[tuple[list[str], list[str] | None]]:
    """Every distinct (words, tags) a compiled extractor parses."""
    from tests.conftest import HOSTILE_TEXTS

    from repro.records import PatientRecord, Section
    from repro.runtime.compiled import CompiledArtifact
    from repro.synth import STYLE_PACKS, CohortSpec

    seen: dict[tuple, None] = {}
    original = LinkGrammarParser.parse

    def recording(self, words, tags=None):
        key = (tuple(words), tuple(tags) if tags else None)
        seen.setdefault(key, None)
        return original(self, words, tags)

    spec = CohortSpec(
        size=NOTES_PER_PACK,
        smoking_counts={"never": 5, "current": 3, "former": 1, None: 1},
    )
    records = []
    for seed in SEEDS:
        for pack in STYLE_PACKS:
            cohort, _ = pack.generate_cohort(spec, seed=seed)
            records.extend(cohort)
    records.extend(
        PatientRecord(
            patient_id=f"hostile-{i}",
            sections=[
                Section("Vitals", text),
                Section("Social History", text),
            ],
        )
        for i, text in enumerate(HOSTILE_TEXTS)
    )
    extractor = CompiledArtifact.build().make_extractor()
    LinkGrammarParser.parse = recording
    try:
        for record in records:
            extractor.extract(record)
    finally:
        LinkGrammarParser.parse = original
    return [
        (list(words), list(tags) if tags else None)
        for words, tags in seen
    ]


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())["sentences"]


def test_golden_covers_the_corpus():
    digests = [s["digest"] for s in _golden()]
    failed = digests.count(_digest(["fail", "ParseFailure"]))
    assert len(digests) >= 60
    # Both complete linkages and parse failures are pinned.
    assert 0 < failed < len(digests) // 2


def test_default_parser_matches_golden():
    parser = LinkGrammarParser()
    mismatched = [
        " ".join(s["words"])
        for s in _golden()
        if outcome_digest(parser, s["words"], s["tags"]) != s["digest"]
    ]
    assert mismatched == []


@pytest.mark.parametrize(
    "oracle",
    [{"bitset": False}, {"prune": False}],
    ids=["label-set", "unpruned"],
)
def test_oracles_agree_with_default(oracle):
    sentences = _golden()
    if "prune" in oracle:
        # The unpruned recurrence is slow on long sentences; its
        # equivalence is structural, so a spread of lengths suffices.
        sentences = [s for s in sentences if len(s["words"]) <= 15]
    fast, slow = LinkGrammarParser(), LinkGrammarParser(**oracle)
    for s in sentences:
        assert outcome_digest(fast, s["words"], s["tags"]) == (
            outcome_digest(slow, s["words"], s["tags"])
        ), " ".join(s["words"])
    assert fast.stats.failures == slow.stats.failures
    if "bitset" in oracle:
        assert fast.stats.disjuncts_before == slow.stats.disjuncts_before
        assert fast.stats.disjuncts_after == slow.stats.disjuncts_after


if __name__ == "__main__":
    parser = LinkGrammarParser()
    sentences = [
        {
            "words": words,
            "tags": tags,
            "digest": outcome_digest(parser, words, tags),
        }
        for words, tags in capture_sentences()
    ]
    GOLDEN.write_text(
        json.dumps(
            {"seeds": list(SEEDS), "notes_per_pack": NOTES_PER_PACK,
             "sentences": sentences},
            indent=0,
        )
        + "\n"
    )
    print(f"wrote {len(sentences)} sentences to {GOLDEN}")
