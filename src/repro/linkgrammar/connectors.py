"""Connector algebra for the link grammar (Sleator & Temperley 1993).

A *connector* is a typed plug: an uppercase name, an optional lowercase
subscript string, a direction (``+`` right, ``-`` left) and an optional
multi flag (``@``) that lets one connector accept several links
("@A-" on a noun collects any number of attributive adjectives).

Two connectors **match** when one points right and the other left, the
uppercase names are equal, and the subscripts are compatible position
by position — a position is compatible when the characters are equal,
either is ``*``, or either subscript has ended.  ``Ss+`` therefore
matches ``S-`` and ``S*-`` but not ``Sp-``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import DictionaryError

_CONNECTOR_RE = re.compile(
    r"(?P<multi>@)?(?P<name>[A-Z]+)(?P<sub>[a-z*]*)(?P<dir>[+-])"
)


@dataclass(frozen=True)
class Connector:
    """One plug of a disjunct.

    ``label`` (name + subscript, no direction) is precomputed because
    the parser's innermost loop reads it constantly.
    """

    name: str            # uppercase type, e.g. "S", "MV"
    subscript: str = ""  # lowercase refinement, e.g. "s" in "Ss"
    direction: str = "+"  # "+" links rightward, "-" leftward
    multi: bool = False   # "@" prefix: may take several links
    label: str = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.direction not in "+-":
            raise DictionaryError(f"bad direction {self.direction!r}")
        if not self.name.isupper():
            raise DictionaryError(f"bad connector name {self.name!r}")
        object.__setattr__(self, "label", self.name + self.subscript)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return ("@" if self.multi else "") + self.label + self.direction


#: Interned connector instances, keyed by their literal form.
#: Connectors are immutable value objects, so every dictionary entry
#: spelling the same connector can share one instance — expanded
#: dictionaries hold thousands of references to a few dozen distinct
#: connectors, which keeps compiled-grammar pickles small and makes
#: identity-based sharing after deserialization cheap.
_INTERNED: dict[str, Connector] = {}


def parse_connector(text: str) -> Connector:
    """Parse one connector literal such as ``@MVp+`` (interned).

    >>> parse_connector("Ss+").label
    'Ss'
    """
    text = text.strip()
    found = _INTERNED.get(text)
    if found is not None:
        return found
    match = _CONNECTOR_RE.fullmatch(text)
    if match is None:
        raise DictionaryError(f"malformed connector: {text!r}")
    connector = Connector(
        name=match.group("name"),
        subscript=match.group("sub"),
        direction=match.group("dir"),
        multi=bool(match.group("multi")),
    )
    _INTERNED[text] = connector
    return connector


def subscripts_compatible(a: str, b: str) -> bool:
    """Positional wildcard comparison of two subscript strings."""
    for ca, cb in zip(a, b):
        if ca == "*" or cb == "*":
            continue
        if ca != cb:
            return False
    return True


def connectors_match(left: Connector, right: Connector) -> bool:
    """Can a link join *left* (on the earlier word, pointing ``+``)
    with *right* (on the later word, pointing ``-``)?"""
    if left.direction != "+" or right.direction != "-":
        return False
    if left.name != right.name:
        return False
    return subscripts_compatible(left.subscript, right.subscript)


def link_label(left: Connector, right: Connector) -> str:
    """Label for a formed link: the more specific of the two sides.

    LG prints the union of the matched connectors' subscripts; taking
    the longer subscript reproduces that for our wildcard-free lexicon.
    """
    if len(right.subscript) > len(left.subscript):
        return right.label
    return left.label
