"""The link grammar parser (Sleator & Temperley's algorithm).

A sentence has a valid **linkage** when links can be drawn between
words such that

1. *satisfaction* — every word uses exactly one of its disjuncts, all
   of whose connectors are consumed by links, left connectors to
   earlier words and right connectors to later words, in the distance
   order the disjunct prescribes;
2. *planarity* — drawn above the sentence, no two links cross;
3. *connectivity* — the words and links form a connected graph;
4. *exclusion* — no two links join the same pair of words.

The algorithm is the memoized region recurrence of the original paper:
``count(L, R, le, re)`` counts linkages of the words strictly between
positions ``L`` and ``R`` given the unsatisfied right-pointing
connectors ``le`` of word ``L`` and left-pointing connectors ``re`` of
word ``R`` (both farthest-first).  A region is solved by choosing an
interior word ``W`` and linking it to ``L``, to ``R``, or to both —
this is what guarantees connectivity.  ``@``-multi-connectors may
accept further links and therefore optionally stay at the head of
their list.  Linkages are re-extracted by running the same recurrence
generatively with the memo table used to prune dead branches.

Fragments like ``blood pressure: 144/90`` have no linkage (the colon
has no dictionary entry).  The parser raises
:class:`~repro.errors.ParseFailure`, which the numeric extractor
catches to fall back on the paper's pattern approach.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ParseFailure, ParseTimeout
from repro.linkgrammar.connectors import Connector, link_label
from repro.linkgrammar.dictionary import (
    LEFT_WALL,
    Dictionary,
    DisjunctCode,
    DisjunctEncoding,
    MatchTables,
    default_dictionary,
)
from repro.linkgrammar.expressions import Disjunct
from repro.linkgrammar.linkage import Link, Linkage

# Terminal punctuation is dropped before parsing (the real parser
# links it to the wall).  Colons are NOT dropped: they have no
# dictionary entry, which is precisely why "blood pressure: 144/90"
# fails to parse and falls back to the pattern approach (§3.1).
_STRIP_TOKENS = {".", "!", "?", ";"}

ConnList = tuple[Connector, ...]
CodeList = tuple[int, ...]


@dataclass
class ParserStats:
    """Additive per-parser counters for the engine's metrics layer.

    ``disjuncts_before``/``disjuncts_after`` count disjuncts entering
    the region recurrence without and with the pruning pass; their
    ratio is the benchmark's "prune ratio".
    """

    sentences: int = 0
    failures: int = 0
    timeouts: int = 0
    disjuncts_before: int = 0
    disjuncts_after: int = 0
    parse_seconds: float = 0.0
    #: Candidate disjuncts the region recurrence visited after the
    #: head-connector bit test (0 under the ``bitset=False`` oracle).
    match_bitset_hits: int = 0
    #: Disjuncts dropped by cost-bounded beam pruning (``beam=``).
    beam_pruned: int = 0
    #: Sentence shapes served from / missed in the persistent
    #: cross-run parse cache (see repro.runtime.parsecache).
    persistent_hits: int = 0
    persistent_misses: int = 0

    def prune_ratio(self) -> float:
        """Fraction of disjuncts the pruning pass deleted."""
        if not self.disjuncts_before:
            return 0.0
        return 1.0 - self.disjuncts_after / self.disjuncts_before

    def to_dict(self) -> dict[str, float]:
        return {
            "sentences": self.sentences,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "disjuncts_before": self.disjuncts_before,
            "disjuncts_after": self.disjuncts_after,
            "parse_seconds": self.parse_seconds,
            "match_bitset_hits": self.match_bitset_hits,
            "beam_pruned": self.beam_pruned,
            "persistent_hits": self.persistent_hits,
            "persistent_misses": self.persistent_misses,
        }

    def reset(self) -> None:
        self.sentences = 0
        self.failures = 0
        self.timeouts = 0
        self.disjuncts_before = 0
        self.disjuncts_after = 0
        self.parse_seconds = 0.0
        self.match_bitset_hits = 0
        self.beam_pruned = 0
        self.persistent_hits = 0
        self.persistent_misses = 0


class LinkGrammarParser:
    """Parses token sequences into cost-ranked linkages.

    ``prune=False`` disables the Sleator–Temperley power-pruning pass
    before the region recurrence — the linkages are identical either
    way (pruned disjuncts can never appear in a complete linkage);
    the flag exists so that equivalence stays testable and ablations
    can measure what pruning buys.

    Sessions run on the dictionary's small-int connector encoding
    (:meth:`Dictionary.encoding`).  ``bitset=False`` swaps in the
    label-set session — connector objects, string-pair match dict,
    set-algebra pruning — the independent implementation the integer
    session is checked against: bit-for-bit identical output, several
    times slower, kept only for parity tests and the parse
    benchmark's cold lane.

    ``beam`` (off by default) enables cost-bounded beam pruning: at
    each word, disjuncts costing more than ``cheapest + beam`` are
    dropped before the recurrence.  Unlike power pruning this is an
    approximation — it can change or lose linkages — so it never
    participates in parity suites and is excluded from shared caches'
    default keys.
    """

    def __init__(
        self,
        dictionary: Dictionary | None = None,
        max_linkages: int = 16,
        max_words: int = 40,
        prune: bool = True,
        time_budget: float | None = None,
        bitset: bool = True,
        beam: int | None = None,
    ) -> None:
        if time_budget is not None and time_budget < 0:
            raise ValueError(
                f"time_budget must be >= 0, got {time_budget}"
            )
        if beam is not None and beam < 0:
            raise ValueError(f"beam must be >= 0, got {beam}")
        self.dictionary = dictionary or default_dictionary()
        self.max_linkages = max_linkages
        self.max_words = max_words
        self.prune = prune
        self.time_budget = time_budget
        self.bitset = bitset
        self.beam = beam
        self.stats = ParserStats()

    # ------------------------------------------------------------ public

    def parse(
        self,
        words: list[str],
        tags: list[str] | None = None,
    ) -> list[Linkage]:
        """All linkages of *words*, cheapest first.

        *tags* are optional Penn POS tags used for unknown words.
        Raises :class:`ParseFailure` when no linkage exists.
        """
        started = time.perf_counter()
        self.stats.sentences += 1
        try:
            return self._parse(words, tags, started)
        except ParseTimeout:
            self.stats.timeouts += 1
            self.stats.failures += 1
            raise
        except ParseFailure:
            self.stats.failures += 1
            raise
        finally:
            self.stats.parse_seconds += time.perf_counter() - started

    def _parse(
        self,
        words: list[str],
        tags: list[str] | None = None,
        started: float | None = None,
    ) -> list[Linkage]:
        if not words:
            raise ParseFailure(words, "empty sentence")
        kept, token_map = self._strip(words)
        if not kept:
            raise ParseFailure(words, "only punctuation")
        if len(kept) > self.max_words:
            raise ParseFailure(words, f"longer than {self.max_words} words")

        sentence = [LEFT_WALL] + kept
        sent_tags = [None] + [
            tags[token_map[i]] if tags and token_map[i] is not None else None
            for i in range(len(kept))
        ]
        disjuncts = [
            self.dictionary.disjuncts(word, tag)
            for word, tag in zip(sentence, sent_tags)
        ]
        if any(not d for d in disjuncts):
            missing = [
                sentence[i] for i, d in enumerate(disjuncts) if not d
            ]
            raise ParseFailure(words, f"no entry for {missing[0]!r}")

        deadline = None
        if self.time_budget is not None:
            deadline = (
                started if started is not None else time.perf_counter()
            ) + self.time_budget
        if self.bitset:
            kind, tables = _ParseSession, self.dictionary.encoding()
        else:
            kind, tables = _LabelSetSession, self.dictionary.match_tables()
        session = kind(
            sentence, disjuncts, tables,
            prune=self.prune, deadline=deadline,
            budget=self.time_budget, beam=self.beam,
        )
        self.stats.disjuncts_before += session.disjuncts_before
        self.stats.disjuncts_after += session.disjuncts_after
        self.stats.beam_pruned += session.beam_pruned
        try:
            linkages = session.linkages(self.max_linkages)
        finally:
            self.stats.match_bitset_hits += session.match_bitset_hits
        if not linkages:
            raise ParseFailure(words, "no complete linkage")
        result = [
            Linkage(
                words=sentence,
                links=sorted(links),
                cost=cost,
                token_map=[None] + token_map,
            )
            for links, cost in linkages
        ]
        result.sort(key=lambda lk: (lk.cost, lk.links))
        return result

    def parse_one(
        self, words: list[str], tags: list[str] | None = None
    ) -> Linkage:
        """The cheapest linkage of *words*."""
        return self.parse(words, tags)[0]

    def can_parse(
        self, words: list[str], tags: list[str] | None = None
    ) -> bool:
        """True when at least one linkage exists."""
        try:
            self.parse(words, tags)
            return True
        except ParseFailure:
            return False

    def parse_robust(
        self,
        words: list[str],
        tags: list[str] | None = None,
        max_skips: int = 1,
    ) -> tuple[Linkage, list[int]]:
        """Parse allowing up to *max_skips* words to go unlinked.

        An approximation of the original parser's null-link mode: when
        no complete linkage exists, tokens are dropped (fewest first,
        unknown words preferred) until one does.  Returns the linkage
        plus the indices of the skipped tokens; the linkage's
        ``token_map`` still refers to the caller's original indices.
        Raises :class:`ParseFailure` when even skipping does not help.

        The paper's own system never does this — fragments trigger the
        pattern fallback instead — so nothing in the extraction
        pipeline calls it; it exists for users who want the robust
        behaviour of the C parser's ``null`` mode.
        """
        try:
            return self.parse_one(words, tags), []
        except ParseFailure:
            pass
        # Prefer skipping tokens the dictionary cannot place at all.
        unknown = [
            i
            for i, word in enumerate(words)
            if not self.dictionary.disjuncts(
                word, tags[i] if tags else None
            )
        ]
        order = unknown + [i for i in range(len(words))
                           if i not in unknown]
        for skips in range(1, max_skips + 1):
            for combo in itertools.combinations(order, skips):
                kept = [
                    w for i, w in enumerate(words) if i not in combo
                ]
                kept_tags = (
                    [t for i, t in enumerate(tags) if i not in combo]
                    if tags
                    else None
                )
                try:
                    linkage = self.parse_one(kept, kept_tags)
                except ParseFailure:
                    continue
                index_map = [
                    i for i in range(len(words)) if i not in combo
                ]
                linkage.token_map = [
                    None if tm is None else index_map[tm]
                    for tm in linkage.token_map
                ]
                return linkage, sorted(combo)
        raise ParseFailure(
            words, f"no linkage even with {max_skips} null word(s)"
        )

    # ----------------------------------------------------------- helpers

    @staticmethod
    def _strip(words: list[str]) -> tuple[list[str], list[int]]:
        """Drop sentence-final punctuation tokens, keep index mapping."""
        kept: list[str] = []
        token_map: list[int] = []
        for index, word in enumerate(words):
            if word in _STRIP_TOKENS:
                continue
            kept.append(word)
            token_map.append(index)
        return kept, token_map


def _variants(
    plus_list: CodeList, minus_list: CodeList
) -> list[tuple[CodeList, CodeList]]:
    """Successor list pairs after linking two matching head connectors.

    ``plus_list`` belongs to the earlier word (pointing right),
    ``minus_list`` to the later word (pointing left), both
    farthest-first.  Multi-connectors (odd ids) may stay for further
    links.
    """
    a, b = plus_list[0] & 1, minus_list[0] & 1
    variants = [(plus_list[1:], minus_list[1:])]
    if a:
        variants.append((plus_list, minus_list[1:]))
    if b:
        variants.append((plus_list[1:], minus_list))
    if a and b:
        variants.append((plus_list, minus_list))
    return variants


def _union(codes: list[DisjunctCode]) -> int:
    """Bitmask of every connector id carried by *codes*."""
    bits = 0
    for code in codes:
        bits |= code.mask
    return bits


class _ParseSession:
    """One sentence's memo tables and extraction state.

    Runs on the dictionary's small-int encoding
    (:class:`~repro.linkgrammar.dictionary.DisjunctEncoding`):
    connector lists are tuples of ids, memo keys are int tuples, and
    a match is one bit test.  Each region only visits the candidate
    disjuncts of an interior word ``W`` whose head connector can take
    the region's forced head — bucketed per ``(W, head id)`` from W's
    pruned disjuncts in their original order, because extraction
    stops at ``max_linkages`` and counting caps at 1e6, so the visit
    order is part of the output.
    """

    def __init__(
        self,
        sentence: list[str],
        disjuncts: list[list[Disjunct]],
        tables: "DisjunctEncoding | MatchTables",
        prune: bool = True,
        deadline: float | None = None,
        budget: float | None = None,
        beam: int | None = None,
    ) -> None:
        self.sentence = sentence
        self.n = len(sentence)
        self._deadline = deadline
        self._budget = budget
        self._ops = 0
        self._count_memo: dict[tuple, int] = {}
        self.match_bitset_hits = 0
        self.beam_pruned = 0
        self.disjuncts_before = sum(len(d) for d in disjuncts)
        self._load(disjuncts, tables)
        if prune:
            self._prune()
        self.disjuncts_after = sum(len(d) for d in self.disjuncts)
        if beam is not None:
            self._beam_prune(beam)

    def _load(
        self, disjuncts: list[list[Disjunct]], encoding: "DisjunctEncoding"
    ) -> None:
        self.disjuncts: list[list] = [
            encoding.encode(ds) for ds in disjuncts
        ]
        self._links = encoding.links
        self._plus_limit = encoding.plus_limit
        self._connectors = encoding.connectors
        self._buckets: list[dict[int, list[DisjunctCode]]] = [
            {} for _ in range(self.n)
        ]

    def _beam_prune(self, beam: int) -> None:
        """Cost-bounded beam pruning (approximate — see parser docs).

        At each word, drop every disjunct costing more than the word's
        cheapest disjunct plus *beam*, bounding the branching factor
        of the O(n³) recurrence.  Applied once, before the recurrence,
        so `_count` and `_extract` see the same disjunct lists and can
        never disagree about which candidates exist.
        """
        for i, ds in enumerate(self.disjuncts):
            if len(ds) <= 1:
                continue
            ceiling = min(d.cost for d in ds) + beam
            kept = [d for d in ds if d.cost <= ceiling]
            if len(kept) != len(ds):
                self.beam_pruned += len(ds) - len(kept)
                self.disjuncts[i] = kept

    def _prune(self) -> None:
        """Power pruning: drop disjuncts with unconnectable connectors.

        A disjunct survives only while each of its left connectors can
        match some right connector available on an earlier word and
        each right connector some left connector on a later word.
        Iterates to the greatest fixpoint; typically removes the large
        majority of tag-default disjuncts and makes the O(n³)
        recurrence fast.

        Each pass tests every distinct connector of a word once
        against the connectors before/after it, collecting a mask of
        dead ids; a disjunct goes when its own connector mask meets
        it, and a word without dead connectors is left alone.
        """
        links, plus_limit = self._links, self._plus_limit
        words = self.disjuncts
        n = self.n
        bits = [_union(ds) for ds in words]
        changed = True
        while changed:
            changed = False
            # Connectors available strictly before / after word i.
            before = [0] * n
            after = [0] * n
            pool = 0
            for i in range(n):
                before[i] = pool
                pool |= bits[i]
            pool = 0
            for i in range(n - 1, -1, -1):
                after[i] = pool
                pool |= bits[i]
            for i in range(n):
                dead = 0
                todo = bits[i]
                while todo:
                    low = todo & -todo
                    todo ^= low
                    cid = low.bit_length() - 1
                    partners = after[i] if cid < plus_limit else before[i]
                    if not partners & links[cid]:
                        dead |= low
                if dead:
                    kept = [c for c in words[i] if not c.mask & dead]
                    words[i] = kept
                    bits[i] = _union(kept)
                    changed = True

    def _check_deadline(self) -> None:
        """Raise :class:`ParseTimeout` once the budget is exhausted.

        Called unconditionally when extraction starts and every 256
        recurrence steps after, so even a zero budget fails fast and a
        pathological sentence cannot wedge the engine: the timeout is
        a :class:`ParseFailure`, so callers fall back to the paper's
        linguistic patterns exactly as they do for fragments.
        """
        if (
            self._deadline is not None
            and time.perf_counter() > self._deadline
        ):
            raise ParseTimeout(
                self.sentence[1:], self._budget or 0.0
            )

    # The wall's disjuncts have no left connectors; the virtual right
    # boundary is position n with an empty connector list.

    def linkages(
        self, limit: int
    ) -> list[tuple[frozenset[Link], int]]:
        self._check_deadline()
        found: dict[frozenset[Link], int] = {}
        for disjunct in self.disjuncts[0]:
            if disjunct.left:
                continue
            if not self._count(0, self.n, disjunct.right, ()):
                continue
            for links, cost in self._extract(0, self.n, disjunct.right, ()):
                key = frozenset(links)
                if key not in found or cost < found[key]:
                    found[key] = cost + disjunct.cost
                if len(found) >= limit:
                    break
            if len(found) >= limit:
                break
        return list(found.items())

    def _candidates(self, W: int, head: int) -> list[DisjunctCode]:
        """W's disjuncts whose head connector can take *head*.

        A right-pointing *head* (le's, on the region's left word) must
        be taken by the disjunct's first left connector; a
        left-pointing one (re's) by its first right connector.
        """
        bucket = self._buckets[W]
        found = bucket.get(head)
        if found is None:
            row = self._links[head]
            if head < self._plus_limit:
                found = [
                    c for c in self.disjuncts[W]
                    if c.left and row >> c.left[0] & 1
                ]
            else:
                found = [
                    c for c in self.disjuncts[W]
                    if c.right and row >> c.right[0] & 1
                ]
            bucket[head] = found
        return found

    def _match_variants(
        self, plus_list: CodeList, minus_list: CodeList
    ) -> list[tuple[CodeList, CodeList]]:
        """:func:`_variants` when the heads match, else nothing."""
        if (
            plus_list
            and minus_list
            and self._links[plus_list[0]] >> minus_list[0] & 1
        ):
            return _variants(plus_list, minus_list)
        return []

    # ------------------------------------------------------------ count

    def _count(self, L: int, R: int, le: CodeList, re: CodeList) -> int:
        """Number of linkages of region (L, R) — capped, used to prune."""
        if R == L + 1:
            return 0 if le or re else 1
        if not le and not re:
            return 0
        key = (L, R, le, re)
        memo = self._count_memo.get(key)
        if memo is not None:
            return memo
        self._ops += 1
        if not self._ops & 255:
            self._check_deadline()
        # With connectors left on L, W must take le's head; otherwise
        # it must take re's head.
        head = le[0] if le else re[0]
        buckets = self._buckets
        total = 0
        for W in range(L + 1, R):
            candidates = buckets[W].get(head)
            if candidates is None:
                candidates = self._candidates(W, head)
            for code in candidates:
                self.match_bitset_hits += 1
                total += self._count_choice(L, R, le, re, W, code)
                if total > 1_000_000:  # cap to avoid huge ints
                    self._count_memo[key] = total
                    return total
        self._count_memo[key] = total
        return total

    def _count_choice(
        self, L: int, R: int, le: CodeList, re: CodeList,
        W: int, code: DisjunctCode,
    ) -> int:
        count = self._count
        dl, dr = code.left, code.right
        # A candidate's left head already matches le's (see _count).
        # Plain heads (no multi-connector, the common case) have the
        # single successor pair; _variants spells out the general one.
        leftcount = 0
        if le:
            if (le[0] | dl[0]) & 1:
                for nle, ndl in _variants(le, dl):
                    leftcount += count(L, W, nle, ndl)
            else:
                leftcount = count(L, W, le[1:], dl[1:])
        rightcount = 0
        if re and dr and self._links[dr[0]] >> re[0] & 1:
            if (dr[0] | re[0]) & 1:
                for ndr, nre in _variants(dr, re):
                    rightcount += count(W, R, ndr, nre)
            else:
                rightcount = count(W, R, dr[1:], re[1:])
        total = leftcount * rightcount
        if leftcount:
            total += leftcount * count(W, R, dr, re)
        # The decomposition is unique because W is pinned to the word
        # that le's head connector links to; only when L has no
        # connectors left may W instead be the target of re's head.
        if not le and rightcount:
            total += count(L, W, le, dl) * rightcount
        return total

    # --------------------------------------------------------- extract

    def _extract(
        self, L: int, R: int, le: CodeList, re: CodeList
    ) -> Iterator[tuple[list[Link], int]]:
        """Generate (links, cost) for region (L, R) — mirrors _count."""
        if R == L + 1:
            if not le and not re:
                yield [], 0
            return
        if not le and not re:
            return
        head = le[0] if le else re[0]
        for W in range(L + 1, R):
            for code in self._candidates(W, head):
                yield from self._extract_choice(L, R, le, re, W, code)

    def _extract_choice(
        self, L: int, R: int, le: CodeList, re: CodeList,
        W: int, code: DisjunctCode,
    ) -> Iterator[tuple[list[Link], int]]:
        dl, dr = code.left, code.right
        left_variants = self._match_variants(le, dl)
        right_variants = self._match_variants(dr, re)
        has_left = any(
            self._count(L, W, nle, ndl) for nle, ndl in left_variants
        )
        has_right = any(
            self._count(W, R, ndr, nre) for ndr, nre in right_variants
        )
        connectors = self._connectors

        def left_link() -> Link:
            return Link(
                L, W, link_label(connectors[le[0]], connectors[dl[0]])
            )

        def right_link() -> Link:
            return Link(
                W, R, link_label(connectors[dr[0]], connectors[re[0]])
            )

        # Both boundary links.
        if has_left and has_right:
            for nle, ndl in left_variants:
                if not self._count(L, W, nle, ndl):
                    continue
                for llinks, lcost in self._extract(L, W, nle, ndl):
                    for ndr, nre in right_variants:
                        if not self._count(W, R, ndr, nre):
                            continue
                        for rlinks, rcost in self._extract(W, R, ndr, nre):
                            yield (
                                llinks + rlinks + [left_link(), right_link()],
                                lcost + rcost + code.cost,
                            )
        # Left boundary link only.
        if has_left and self._count(W, R, dr, re):
            for nle, ndl in left_variants:
                if not self._count(L, W, nle, ndl):
                    continue
                for llinks, lcost in self._extract(L, W, nle, ndl):
                    for rlinks, rcost in self._extract(W, R, dr, re):
                        yield (
                            llinks + rlinks + [left_link()],
                            lcost + rcost + code.cost,
                        )
        # Right boundary link only (legal only with an exhausted le —
        # see _count_choice).
        if not le and has_right and self._count(L, W, le, dl):
            for ndr, nre in right_variants:
                if not self._count(W, R, ndr, nre):
                    continue
                for rlinks, rcost in self._extract(W, R, ndr, nre):
                    for llinks, lcost in self._extract(L, W, le, dl):
                        yield (
                            llinks + rlinks + [right_link()],
                            lcost + rcost + code.cost,
                        )


class _LabelSetSession(_ParseSession):
    """The same recurrence over connector objects and label sets.

    The parity oracle behind ``LinkGrammarParser(bitset=False)``:
    matches are dictionary lookups on ``(plus label, minus label)``
    and pruning is set algebra over label strings.  Slower, and kept
    only so tests and benchmarks can check the integer session
    against an independent implementation.
    """

    def _load(
        self, disjuncts: list[list[Disjunct]], match_tables: "MatchTables"
    ) -> None:
        self.disjuncts = [list(d) for d in disjuncts]
        # Dictionary-wide tables (possibly AOT-compiled): cover a
        # superset of this sentence's labels, so no per-sentence
        # table build.  Pruning intersects the matcher sets with
        # the labels actually present, making the superset exact.
        (
            self._table,
            self._matchers_for_left,
            self._matchers_for_right,
        ) = match_tables

    def _match(self, plus: Connector, minus: Connector) -> bool:
        """Precomputed label-pair lookup."""
        return self._table[plus.label, minus.label]

    def _prune(self) -> None:
        """Power pruning: drop disjuncts with unconnectable connectors.

        A disjunct survives only while each of its left connectors can
        match some right connector available on an earlier word and
        each right connector some left connector on a later word.
        Iterates to a fixpoint; typically removes the large majority of
        tag-default disjuncts and makes the O(n³) recurrence fast.

        Label sets: for every left-pointing label the set of right-
        pointing labels that can reach it (and vice versa) is derived
        once from the match table, so each fixpoint sweep is set
        algebra over label strings instead of connector pairs.
        """
        matchers_for_left = self._matchers_for_left
        matchers_for_right = self._matchers_for_right
        empty: set[str] = set()

        changed = True
        while changed:
            changed = False
            # Right-pointing labels available strictly before word i.
            rights_before: list[set[str]] = []
            pool: set[str] = set()
            for ds in self.disjuncts:
                rights_before.append(set(pool))
                for d in ds:
                    pool.update(c.label for c in d.right)
            # Left-pointing labels available strictly after word i.
            lefts_after: list[set[str]] = [set() for _ in range(self.n)]
            pool = set()
            for i in range(self.n - 1, -1, -1):
                lefts_after[i] = set(pool)
                for d in self.disjuncts[i]:
                    pool.update(c.label for c in d.left)
            for i, ds in enumerate(self.disjuncts):
                before, after = rights_before[i], lefts_after[i]
                kept = [
                    d
                    for d in ds
                    if all(
                        not before.isdisjoint(
                            matchers_for_left.get(c.label, empty)
                        )
                        for c in d.left
                    )
                    and all(
                        not after.isdisjoint(
                            matchers_for_right.get(c.label, empty)
                        )
                        for c in d.right
                    )
                ]
                if len(kept) != len(ds):
                    self.disjuncts[i] = kept
                    changed = True

    def _count(self, L: int, R: int, le: ConnList, re: ConnList) -> int:
        """Number of linkages of region (L, R) — capped, used to prune."""
        self._ops += 1
        if not self._ops & 255:
            self._check_deadline()
        if R == L + 1:
            return 1 if not le and not re else 0
        if not le and not re:
            return 0
        key = (L, R, le, re)
        memo = self._count_memo.get(key)
        if memo is not None:
            return memo
        total = 0
        le_head = le[0] if le else None
        re_head = re[0] if re else None
        for W in range(L + 1, R):
            for d in self.disjuncts[W]:
                # Gate: with connectors left on L, this W must take
                # le's head; otherwise it must take re's head.  Cheap
                # check before the full case analysis.
                if le_head is not None:
                    if not d.left or not self._match(le_head, d.left[0]):
                        continue
                else:
                    if (
                        re_head is None
                        or not d.right
                        or not self._match(d.right[0], re_head)
                    ):
                        continue
                total += self._count_choice(L, R, le, re, W, d)
                if total > 1_000_000:  # cap to avoid huge ints
                    self._count_memo[key] = total
                    return total
        self._count_memo[key] = total
        return total

    def _count_choice(
        self, L: int, R: int, le: ConnList, re: ConnList,
        W: int, d: Disjunct,
    ) -> int:
        left_variants = self._match_variants(le, d.left)
        right_variants = self._match_variants(d.right, re)
        leftcount = sum(
            self._count(L, W, nle, ndl) for nle, ndl in left_variants
        )
        rightcount = sum(
            self._count(W, R, ndr, nre) for ndr, nre in right_variants
        )
        total = leftcount * rightcount
        if leftcount:
            total += leftcount * self._count(W, R, d.right, re)
        # The decomposition is unique because W is pinned to the word
        # that le's head connector links to; only when L has no
        # connectors left may W instead be the target of re's head.
        if not le and rightcount:
            total += self._count(L, W, le, d.left) * rightcount
        return total

    def _match_variants(
        self, plus_list: ConnList, minus_list: ConnList
    ) -> list[tuple[ConnList, ConnList]]:
        """Successor list pairs after linking the two head connectors.

        ``plus_list`` belongs to the earlier word (pointing right),
        ``minus_list`` to the later word (pointing left), both
        farthest-first.  Multi-connectors may stay for further links.
        """
        if not plus_list or not minus_list:
            return []
        a, b = plus_list[0], minus_list[0]
        if not self._match(a, b):
            return []
        variants = [(plus_list[1:], minus_list[1:])]
        if a.multi:
            variants.append((plus_list, minus_list[1:]))
        if b.multi:
            variants.append((plus_list[1:], minus_list))
        if a.multi and b.multi:
            variants.append((plus_list, minus_list))
        return variants

    # --------------------------------------------------------- extract

    def _extract(
        self, L: int, R: int, le: ConnList, re: ConnList
    ) -> Iterator[tuple[list[Link], int]]:
        """Generate (links, cost) for region (L, R) — mirrors _count."""
        if R == L + 1:
            if not le and not re:
                yield [], 0
            return
        if not le and not re:
            return
        le_head = le[0] if le else None
        re_head = re[0] if re else None
        for W in range(L + 1, R):
            for d in self.disjuncts[W]:
                # Same gate as _count: W must take the forced head.
                if le_head is not None:
                    if not d.left or not self._match(le_head, d.left[0]):
                        continue
                else:
                    if (
                        re_head is None
                        or not d.right
                        or not self._match(d.right[0], re_head)
                    ):
                        continue
                yield from self._extract_choice(L, R, le, re, W, d)

    def _extract_choice(
        self, L: int, R: int, le: ConnList, re: ConnList,
        W: int, d: Disjunct,
    ) -> Iterator[tuple[list[Link], int]]:
        left_variants = self._match_variants(le, d.left)
        right_variants = self._match_variants(d.right, re)
        has_left = any(
            self._count(L, W, nle, ndl) for nle, ndl in left_variants
        )
        has_right = any(
            self._count(W, R, ndr, nre) for ndr, nre in right_variants
        )

        def left_link() -> Link:
            return Link(L, W, link_label(le[0], d.left[0]))

        def right_link() -> Link:
            return Link(W, R, link_label(d.right[0], re[0]))

        # Both boundary links.
        if has_left and has_right:
            for nle, ndl in left_variants:
                if not self._count(L, W, nle, ndl):
                    continue
                for llinks, lcost in self._extract(L, W, nle, ndl):
                    for ndr, nre in right_variants:
                        if not self._count(W, R, ndr, nre):
                            continue
                        for rlinks, rcost in self._extract(W, R, ndr, nre):
                            yield (
                                llinks + rlinks + [left_link(), right_link()],
                                lcost + rcost + d.cost,
                            )
        # Left boundary link only.
        if has_left and self._count(W, R, d.right, re):
            for nle, ndl in left_variants:
                if not self._count(L, W, nle, ndl):
                    continue
                for llinks, lcost in self._extract(L, W, nle, ndl):
                    for rlinks, rcost in self._extract(W, R, d.right, re):
                        yield (
                            llinks + rlinks + [left_link()],
                            lcost + rcost + d.cost,
                        )
        # Right boundary link only (legal only with an exhausted le —
        # see _count_choice).
        if not le and has_right and self._count(L, W, le, d.left):
            for ndr, nre in right_variants:
                if not self._count(W, R, ndr, nre):
                    continue
                for rlinks, rcost in self._extract(W, R, ndr, nre):
                    for llinks, lcost in self._extract(L, W, le, d.left):
                        yield (
                            llinks + rlinks + [right_link()],
                            lcost + rcost + d.cost,
                        )


def parse(words: list[str], tags: list[str] | None = None) -> Linkage:
    """Module-level convenience: cheapest linkage with defaults."""
    return LinkGrammarParser().parse_one(words, tags)
