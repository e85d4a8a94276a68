"""Parser tests: clinical sentences, invariants, failure modes."""

import pytest

from repro.errors import ParseFailure
from repro.linkgrammar import (
    Dictionary,
    LinkGrammarParser,
    Linkage,
)
from repro.linkgrammar.dictionary import LEFT_WALL

FIGURE1 = (
    "blood pressure is 144/90 , pulse of 84 , temperature of 98.3 , "
    "and weight of 154 pounds ."
).split()


@pytest.fixture(scope="module")
def parser():
    return LinkGrammarParser()


def link_set(linkage: Linkage):
    return {
        (linkage.words[l.left], linkage.words[l.right], l.label)
        for l in linkage.links
    }


class TestClinicalSentences:
    def test_figure1_parses(self, parser):
        linkage = parser.parse_one(FIGURE1)
        links = link_set(linkage)
        # The paper's headline link: verb–object between "is" and the
        # blood pressure reading.
        assert ("is", "144/90", "O") in links
        assert ("blood", "pressure", "AN") in links

    def test_quit_smoking(self, parser):
        linkage = parser.parse_one("she quit smoking five years ago .".split())
        links = link_set(linkage)
        assert ("she", "quit", "Ss") in links
        assert ("years", "ago", "TA") in links

    def test_never_smoked(self, parser):
        linkage = parser.parse_one("she has never smoked .".split())
        links = link_set(linkage)
        assert ("has", "smoked", "PP") in links
        assert ("never", "smoked", "E") in links

    def test_current_smoker(self, parser):
        linkage = parser.parse_one("she is currently a smoker .".split())
        links = link_set(linkage)
        assert ("is", "smoker", "O") in links
        assert ("is", "currently", "EB") in links

    def test_single_word(self, parser):
        linkage = parser.parse_one(["none"])
        assert len(linkage.links) == 1

    def test_predicate_adjective_with_complement(self, parser):
        linkage = parser.parse_one(
            "her breast history is negative for biopsies .".split()
        )
        links = link_set(linkage)
        assert ("is", "negative", "Pa") in links
        assert ("for", "biopsies", "J") in links

    def test_gyn_fragment(self, parser):
        linkage = parser.parse_one(
            "menarche at age 10 , gravida 4 , para 3 .".split()
        )
        links = link_set(linkage)
        assert ("age", "10", "NM") in links
        assert ("gravida", "4", "NM") in links
        assert ("para", "3", "NM") in links

    def test_tag_fallback_for_unknown_words(self, parser):
        # "flurbs" is not in the dictionary; the NNS tag default makes
        # the sentence parse anyway.
        words = "she reports two flurbs .".split()
        tags = ["PRP", "VBZ", "CD", "NNS", "."]
        linkage = parser.parse_one(words, tags)
        assert ("reports", "flurbs", "O") in link_set(linkage)


class TestFailureModes:
    def test_colon_fragment_fails_without_tags(self, parser):
        # §3.1: "the Link Grammar Parser cannot parse text fragments,
        # e.g., 'blood pressure: 144/90'" — the pattern approach takes
        # over.  Without a tag for ':' there is no dictionary entry.
        with pytest.raises(ParseFailure):
            parser.parse("blood pressure : 144/90".split(" ")[0:2] + ["###"])

    def test_empty_sentence(self, parser):
        with pytest.raises(ParseFailure):
            parser.parse([])

    def test_punctuation_only(self, parser):
        with pytest.raises(ParseFailure):
            parser.parse([".", ","])

    def test_unknown_word_no_tag(self, parser):
        with pytest.raises(ParseFailure):
            parser.parse(["zzzqqq", "xxxyyy"])

    def test_word_cap(self):
        small = LinkGrammarParser(max_words=5)
        with pytest.raises(ParseFailure):
            small.parse("she is a very very very old lady .".split())

    def test_ungrammatical_fails(self, parser):
        with pytest.raises(ParseFailure):
            parser.parse("the the the".split())


class TestLinkageInvariants:
    SENTENCES = [
        FIGURE1,
        "she quit smoking five years ago .".split(),
        "she has never smoked .".split(),
        "she is currently a smoker .".split(),
        "her breast history is negative for biopsies .".split(),
        "she drinks one glass of wine per day .".split(),
        "menarche at age 10 , gravida 4 , para 3 .".split(),
        "smoking history , 15 years .".split(),
    ]

    @pytest.mark.parametrize("words", SENTENCES, ids=lambda w: " ".join(w[:4]))
    def test_all_linkages_planar(self, parser, words):
        for linkage in parser.parse(words):
            assert linkage.is_planar()

    @pytest.mark.parametrize("words", SENTENCES, ids=lambda w: " ".join(w[:4]))
    def test_all_linkages_connected(self, parser, words):
        for linkage in parser.parse(words):
            assert linkage.is_connected()

    @pytest.mark.parametrize("words", SENTENCES, ids=lambda w: " ".join(w[:4]))
    def test_exclusion_no_duplicate_pairs(self, parser, words):
        for linkage in parser.parse(words):
            pairs = [(l.left, l.right) for l in linkage.links]
            assert len(pairs) == len(set(pairs))

    @pytest.mark.parametrize("words", SENTENCES, ids=lambda w: " ".join(w[:4]))
    def test_linkages_unique(self, parser, words):
        seen = set()
        for linkage in parser.parse(words):
            key = frozenset(linkage.links)
            assert key not in seen
            seen.add(key)

    def test_costs_sorted_ascending(self, parser):
        linkages = parser.parse(FIGURE1)
        costs = [lk.cost for lk in linkages]
        assert costs == sorted(costs)

    def test_token_map_skips_stripped_punctuation(self, parser):
        linkage = parser.parse_one("she has never smoked .".split())
        # wall maps to None, remaining words map to original indices.
        assert linkage.token_map[0] is None
        assert linkage.token_map[1:] == [0, 1, 2, 3]


class TestCustomDictionary:
    def test_add_overrides(self):
        d = Dictionary()
        d.add("zzgloblet", "{D-} & (Wd- or O-)")
        parser = LinkGrammarParser(dictionary=d)
        linkage = parser.parse_one(["the", "zzgloblet"])
        assert ("the", "zzgloblet") in {
            (linkage.words[l.left], linkage.words[l.right])
            for l in linkage.links
        }

    def test_contains(self):
        d = Dictionary()
        assert "pressure" in d
        assert "zzgloblet" not in d

    def test_parse_one_returns_cheapest(self):
        parser = LinkGrammarParser()
        all_linkages = parser.parse(FIGURE1)
        assert parser.parse_one(FIGURE1).cost == all_linkages[0].cost


class TestEncoding:
    """The parser's small-int encoding is derived from the dictionary
    and must follow it: rebuilt after ``add``, one code per distinct
    disjunct object (never per list slot)."""

    def test_add_after_parse_is_seen(self):
        d = Dictionary()
        parser = LinkGrammarParser(dictionary=d)
        parser.parse(FIGURE1)
        stale = d.encoding()
        # XZ is a label the dictionary has never carried, so a stale
        # encoding could not even encode these entries.
        d.add("zzfoo", "Wd- & XZ+")
        d.add("zzbar", "XZ-")
        linkage = parser.parse_one(["zzfoo", "zzbar"])
        assert d.encoding() is not stale
        assert [(l.left, l.right, l.label) for l in linkage.links] == [
            (0, 1, "Wd"),
            (1, 2, "XZ"),
        ]

    def test_codes_are_per_disjunct_object(self):
        d = Dictionary()
        parser = LinkGrammarParser(dictionary=d)
        sentences = [FIGURE1] + TestLinkageInvariants.SENTENCES
        for words in sentences:
            parser.parse(words)
        lists = [
            d.disjuncts(word)
            for words in sentences
            for word in [LEFT_WALL] + words
        ]
        slots = sum(len(ds) for ds in lists)
        distinct = {id(disjunct) for ds in lists for disjunct in ds}
        codes = d.encoding().codes
        assert set(codes) <= distinct
        assert len(codes) <= len(distinct) < slots // 10


class TestBitsetParity:
    """The integer-encoded session is an optimization, not a
    behaviour: every sentence must produce identical linkages (and
    identical failures) as the label-set oracle (``bitset=False``)."""

    SENTENCES = TestLinkageInvariants.SENTENCES

    @pytest.mark.parametrize(
        "words", SENTENCES, ids=lambda w: " ".join(w[:4])
    )
    def test_linkages_identical(self, words):
        fast = LinkGrammarParser(bitset=True)
        slow = LinkGrammarParser(bitset=False)
        assert fast.parse(words) == slow.parse(words)
        assert fast.stats.match_bitset_hits > 0
        assert slow.stats.match_bitset_hits == 0

    def test_failures_identical(self):
        bad = "wine glass pressure the of .".split()
        fast = LinkGrammarParser(bitset=True)
        slow = LinkGrammarParser(bitset=False)
        with pytest.raises(ParseFailure) as fast_err:
            fast.parse(bad)
        with pytest.raises(ParseFailure) as slow_err:
            slow.parse(bad)
        assert fast_err.value.reason == slow_err.value.reason

    def test_prune_counts_identical(self):
        fast = LinkGrammarParser(bitset=True)
        slow = LinkGrammarParser(bitset=False)
        fast.parse(FIGURE1)
        slow.parse(FIGURE1)
        assert (
            fast.stats.disjuncts_after == slow.stats.disjuncts_after
        )
        assert (
            fast.stats.disjuncts_before
            == slow.stats.disjuncts_before
        )


class TestBeamPruning:
    def test_off_by_default(self):
        parser = LinkGrammarParser()
        parser.parse(FIGURE1)
        assert parser.beam is None
        assert parser.stats.beam_pruned == 0

    def test_wide_beam_changes_nothing(self):
        # A beam wider than any cost spread admits every disjunct,
        # so the linkages must match the unpruned parser exactly.
        wide = LinkGrammarParser(beam=1000)
        plain = LinkGrammarParser()
        assert wide.parse(FIGURE1) == plain.parse(FIGURE1)

    def test_tight_beam_prunes_and_still_parses(self):
        tight = LinkGrammarParser(beam=0)
        words = "she quit smoking five years ago .".split()
        linkage = tight.parse_one(words)
        assert linkage is not None
        assert tight.stats.beam_pruned > 0

    def test_tight_beam_can_lose_linkages(self):
        # beam=0 keeps only cheapest-cost disjuncts per word; on a
        # long coordinated sentence that deletes the only complete
        # linkage — which is exactly why beam pruning is opt-in and
        # part of the cache key rather than a transparent fast path.
        tight = LinkGrammarParser(beam=0)
        with pytest.raises(ParseFailure):
            tight.parse(FIGURE1)
        assert tight.stats.beam_pruned > 0

    def test_negative_beam_rejected(self):
        with pytest.raises(ValueError):
            LinkGrammarParser(beam=-1)
