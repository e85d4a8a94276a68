"""Link grammar dictionary: word → disjunct list.

Loads :mod:`repro.linkgrammar.lexicon_data`, substitutes macros, expands
expressions into disjuncts once, and serves lookups.  Unknown words fall
back to a tag-default expression (the caller supplies POS tags from the
NLP pipeline), mirroring how the real parser handles unknown words with
generic noun/verb/adjective entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.errors import DictionaryError
from repro.linkgrammar.connectors import Connector, connectors_match
from repro.linkgrammar.expressions import Disjunct, expression_to_disjuncts
from repro.linkgrammar.lexicon_data import (
    ENTRIES,
    MACROS,
    NUMBER_EXPR,
    TAG_DEFAULTS,
)

if TYPE_CHECKING:  # compiled imports dictionary; only types flow back
    from repro.runtime.compiled import CompiledGrammar

LEFT_WALL = "###LEFT-WALL###"

#: (match table, matchers-for-left, matchers-for-right) — see
#: :meth:`Dictionary.match_tables`.
MatchTables = tuple[
    dict[tuple[str, str], bool],
    dict[str, set[str]],
    dict[str, set[str]],
]


class DisjunctCode(NamedTuple):
    """A disjunct in the parse session's small-int alphabet.

    ``left``/``right`` are connector ids, farthest-first like the
    disjunct's own tuples; ``mask`` has bit ``cid`` set for every
    connector the disjunct carries (power pruning tests it against
    a word's dead connectors in one AND).  ``disjunct`` is the
    source object, which also pins its ``id()`` as the cache key.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    cost: int
    mask: int
    disjunct: Disjunct


class DisjunctEncoding:
    """Small-int connector ids plus per-disjunct codes for one dictionary.

    Every (direction, label) pair in the match table gets an index
    ``k`` (right-pointing labels first, sorted), and a connector's id
    is ``2 * k + multi`` — so ``cid & 1`` is the ``@`` flag and
    ``cid < plus_limit`` means it points right.  ``links[cid]`` is
    the bitmask of opposite-direction ids *cid* can link to, so a
    match test is ``links[a] >> b & 1``.

    ``codes`` caches one :class:`DisjunctCode` per distinct
    :class:`Disjunct` object, keyed by ``id()`` (the code holds the
    disjunct, so the id cannot be recycled while cached).  Keying per
    object rather than per list slot keeps the cache at a few
    thousand entries: the expanded dictionary repeats ~5k distinct
    disjuncts across ~350k list slots.  Being keyed by ``id()``, an
    encoding is only valid in the process that built it.
    """

    def __init__(self, table: dict[tuple[str, str], bool]) -> None:
        plus = sorted({pl for pl, _ in table})
        minus = sorted({ml for _, ml in table})
        self._index = {("+", label): k for k, label in enumerate(plus)}
        self._index.update(
            (("-", label), len(plus) + k) for k, label in enumerate(minus)
        )
        self.plus_limit = 2 * len(plus)
        rows = dict.fromkeys(self._index.values(), 0)
        for (pl, ml), ok in table.items():
            if ok:
                p, m = self._index["+", pl], self._index["-", ml]
                rows[p] |= 0b11 << (2 * m)
                rows[m] |= 0b11 << (2 * p)
        self.links = [rows[cid >> 1] for cid in range(2 * len(rows))]
        #: A representative connector per id, filled as disjuncts are
        #: encoded; link labels are computed from these.
        self.connectors: list[Connector | None] = [None] * len(self.links)
        self.codes: dict[int, DisjunctCode] = {}

    def encode(self, disjuncts: list[Disjunct]) -> list[DisjunctCode]:
        """Codes for *disjuncts*, in order."""
        codes = self.codes
        try:
            return [codes[id(d)] for d in disjuncts]
        except KeyError:
            pass
        for d in disjuncts:
            if id(d) not in codes:
                codes[id(d)] = self._encode(d)
        return [codes[id(d)] for d in disjuncts]

    def _encode(self, disjunct: Disjunct) -> DisjunctCode:
        mask = 0
        ids = []
        for side in (disjunct.left, disjunct.right):
            side_ids = []
            for c in side:
                cid = 2 * self._index[c.direction, c.label] + c.multi
                if self.connectors[cid] is None:
                    self.connectors[cid] = c
                side_ids.append(cid)
                mask |= 1 << cid
            ids.append(tuple(side_ids))
        return DisjunctCode(ids[0], ids[1], disjunct.cost, mask, disjunct)


def _substitute_macros(expression: str) -> str:
    """Textually expand ``<name>`` macros (macros may nest one level)."""
    for _ in range(3):
        if "<" not in expression:
            return expression
        for name, body in MACROS.items():
            expression = expression.replace(name, f"({body})")
    if "<" in expression:
        raise DictionaryError(
            f"unresolved macro in expression: {expression!r}"
        )
    return expression


class Dictionary:
    """Expanded dictionary with tag-based fallbacks for unknown words."""

    def __init__(
        self,
        entries: list[tuple[str, str]] | None = None,
        tag_defaults: list[tuple[str, str]] | None = None,
    ) -> None:
        self._words: dict[str, list[Disjunct]] = {}
        self._tag_defaults: list[tuple[str, list[Disjunct]]] = []
        self._expression_cache: dict[str, list[Disjunct]] = {}
        for words, expression in entries if entries is not None else ENTRIES:
            disjuncts = self._expand(expression)
            for word in words.split():
                # A word listed under several entries (e.g. "smoked" as
                # finite verb and as past participle) gets the union of
                # their disjuncts.
                existing = self._words.setdefault(word.lower(), [])
                seen = {
                    (d.left, d.right) for d in existing
                }
                existing.extend(
                    d for d in disjuncts if (d.left, d.right) not in seen
                )
        for tag, expression in (
            tag_defaults if tag_defaults is not None else TAG_DEFAULTS
        ):
            self._tag_defaults.append((tag, self._expand(expression)))
        self._number_disjuncts = self._expand(NUMBER_EXPR)
        self._match_tables: MatchTables | None = None
        self._encoding: DisjunctEncoding | None = None
        self._signature: str | None = None

    @classmethod
    def from_compiled(cls, grammar: "CompiledGrammar") -> "Dictionary":
        """Rehydrate a dictionary from an AOT-compiled grammar.

        Skips expression expansion entirely — the compiled grammar
        already carries every disjunct list plus the precomputed
        connector match table, so construction is a few dict copies.
        Disjunct lists are shared with the grammar (they are treated
        as immutable everywhere; :meth:`add` rebinds, never mutates).
        """
        self = cls.__new__(cls)
        self._words = dict(grammar.words)
        self._tag_defaults = list(grammar.tag_defaults)
        self._number_disjuncts = grammar.number_disjuncts
        self._expression_cache = {}
        self._match_tables = grammar.match_tables
        self._encoding = None
        self._signature = grammar.signature
        return self

    def _expand(self, expression: str) -> list[Disjunct]:
        cached = self._expression_cache.get(expression)
        if cached is None:
            cached = expression_to_disjuncts(_substitute_macros(expression))
            self._expression_cache[expression] = cached
        return cached

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._words

    def add(self, words: str, expression: str) -> None:
        """Add or override entries at runtime (tests, extensions)."""
        disjuncts = self._expand(expression)
        for word in words.split():
            self._words[word.lower()] = disjuncts
        # New entries may introduce connectors the precomputed match
        # table has never seen; recompute lazily on the next parse.
        self._match_tables = None
        self._encoding = None
        self._signature = None

    def match_tables(self) -> MatchTables:
        """Dictionary-wide connector match table plus matcher sets.

        The parser's recurrence and its pruning pass test (right-label,
        left-label) pairs millions of times.  All connectors any
        sentence can ever carry come from this dictionary, so one table
        over the dictionary's distinct labels (a few hundred entries)
        serves every sentence — computed once, cached, shipped inside
        compiled grammars, and invalidated by :meth:`add`.

        Returns ``(table, matchers_for_left, matchers_for_right)``:
        ``table[(plus, minus)]`` says whether the labels can link;
        ``matchers_for_left[minus]`` is the set of right-pointing
        labels that can reach ``minus`` (and vice versa).  Pruning
        intersects these with the labels actually present in a
        sentence, so the dictionary-wide supersets are exact there.
        """
        cached = self._match_tables
        if cached is None:
            cached = _build_match_tables(
                list(self._words.values())
                + [ds for _, ds in self._tag_defaults]
                + [self._number_disjuncts]
            )
            self._match_tables = cached
        return cached

    def encoding(self) -> DisjunctEncoding:
        """Small-int connector encoding the parser's sessions run on.

        Derived lazily from :meth:`match_tables` — compiled artifacts
        keep their existing on-disk format — cached together with the
        per-disjunct codes it accumulates, and invalidated by
        :meth:`add` alongside the match tables.
        """
        cached = self._encoding
        if cached is None:
            cached = DisjunctEncoding(self.match_tables()[0])
            self._encoding = cached
        return cached

    def disjuncts(
        self, word: str, tag: str | None = None
    ) -> list[Disjunct]:
        """Disjuncts for *word*; falls back on the POS-tag default.

        Returns an empty list when the word is unknown and no tag
        default applies — the parser then fails the sentence, which is
        the behaviour the paper relies on for fragments.
        """
        found = self._words.get(word.lower())
        if found is not None:
            return found
        if tag == "CD" or _looks_numeric(word):
            return self._number_disjuncts
        if tag:
            for prefix, disjuncts in self._tag_defaults:
                if tag == prefix or (
                    len(prefix) <= len(tag) and tag.startswith(prefix)
                ):
                    return disjuncts
        return []

    def signature(self) -> str:
        """Stable fingerprint of the dictionary's contents.

        Hashes every word with its disjunct count and total cost plus
        the tag defaults, so any :meth:`add` (or a different seed
        lexicon) changes the signature.  Recorded in trace manifests:
        two runs with the same signature resolved tokens identically.
        Cached — computing it walks every disjunct — and invalidated
        by :meth:`add`.
        """
        if self._signature is not None:
            return self._signature
        import hashlib

        payload = "|".join(
            f"{word}:{len(ds)}:{sum(d.cost for d in ds)}"
            for word, ds in sorted(self._words.items())
        )
        payload += "||" + "|".join(
            f"{tag}:{len(ds)}" for tag, ds in self._tag_defaults
        )
        self._signature = hashlib.sha256(
            payload.encode()
        ).hexdigest()[:16]
        return self._signature

    def resolution_key(self, word: str, tag: str | None = None) -> str:
        """Equivalence class of ``disjuncts(word, tag)``.

        Two tokens with the same key resolve to the *same* disjunct
        list, so any parse outcome (link structure, costs, failures)
        is identical between them.  This is what lets the runtime's
        cross-record linkage cache share one parse between sentences
        that differ only in their numeric values ("pulse of 84" vs
        "pulse of 96").  Must mirror :meth:`disjuncts` case for case.
        """
        lowered = word.lower()
        if lowered in self._words:
            return lowered
        if tag == "CD" or _looks_numeric(word):
            return "#NUM#"
        if tag:
            for prefix, _ in self._tag_defaults:
                if tag == prefix or (
                    len(prefix) <= len(tag) and tag.startswith(prefix)
                ):
                    return f"#TAG:{prefix}#"
        return "#NONE#"


def _build_match_tables(
    disjunct_lists: list[list[Disjunct]],
) -> MatchTables:
    """All-pairs label match table over the given disjunct lists."""
    plus: dict[str, Connector] = {}
    minus: dict[str, Connector] = {}
    for disjuncts in disjunct_lists:
        for disjunct in disjuncts:
            for connector in disjunct.right:
                plus.setdefault(connector.label, connector)
            for connector in disjunct.left:
                minus.setdefault(connector.label, connector)
    table = {
        (pl, ml): connectors_match(pc, mc)
        for pl, pc in plus.items()
        for ml, mc in minus.items()
    }
    matchers_for_left: dict[str, set[str]] = {}
    matchers_for_right: dict[str, set[str]] = {}
    for (pl, ml), ok in table.items():
        if ok:
            matchers_for_left.setdefault(ml, set()).add(pl)
            matchers_for_right.setdefault(pl, set()).add(ml)
    return table, matchers_for_left, matchers_for_right


def _looks_numeric(word: str) -> bool:
    return bool(word) and word[0].isdigit()


_default: Dictionary | None = None


def default_dictionary() -> Dictionary:
    """Process-wide shared dictionary (expansion is not free)."""
    global _default
    if _default is None:
        _default = Dictionary()
    return _default
