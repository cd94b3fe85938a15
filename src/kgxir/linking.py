"""Entity and relation linking against the knowledge graph.

A mention is a ``(kind, id)`` pair, ``kind`` being ``"entity"`` or
``"relation"``; every reader only needs the ids. Two linkers produce them:

* a deterministic gazetteer: one table from the token-normalized KG labels
  and aliases to ``(kind, id)``, matched by greedy left-to-right longest
  token match (no disambiguation -- a surface shared by two ids of one kind
  resolves to the lexicographically smallest id, and one shared by an
  entity and a relation to the entity, which makes linker mistakes
  reproducible on purpose);
* gold annotations: hand-curated (kind, id) links per query, modeling an
  ideal entity matcher, loaded as a plain dict (query id -> its links in
  file order), which :func:`query_mentions` replays.

:func:`query_mentions` is the one place a query's mentions are resolved
for a linker mode; the library, the CLI and both eval runners go through
it. Under gold links, a query without annotations has no mentions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import DataFormatError, UsageError, read, rows
from .kg import KnowledgeGraph
from .text import tokenize

ENTITY = "entity"
RELATION = "relation"
_KINDS = (ENTITY, RELATION)
LINKER_MODES = ("off", "gazetteer", "gold")


@dataclass
class Gazetteer:
    """Normalized surface form -> ``(kind, id)``, one table for both kinds,
    and each token that starts a surface -> the length of its longest one.

    A surface that names both an entity and a relation maps to the entity.
    """

    surfaces: dict[tuple[str, ...], tuple[str, str]] = field(default_factory=dict)
    longest: dict[str, int] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)


def build_gazetteer(kg: KnowledgeGraph) -> Gazetteer:
    """Index every entity/relation label and alias, token-normalized.

    When two ids of the same kind share a surface form the lexicographically
    smaller id wins and a diagnostic is recorded, so ambiguity is
    deterministic (and testable). An entity then wins a surface it shares
    with a relation. A label or alias without tokens can never be linked,
    and gets a diagnostic too, unless it is empty.
    """
    gaz = Gazetteer()
    relations: dict[tuple[str, ...], tuple[str, str]] = {}
    for table, kind, items in (
        (gaz.surfaces, ENTITY, kg.entities),
        (relations, RELATION, kg.relations),
    ):
        for item in items.values():
            ref = (kind, item.id)
            for surface in (item.label, *item.aliases):
                key = tuple(tokenize(surface))
                if not key:
                    if surface:  # validate() reports an empty entity label
                        message = f"{kind} {item.id!r} surface {surface!r} has no tokens"
                        gaz.diagnostics.append(f"{message}; it can never be linked")
                    continue
                existing = table.setdefault(key, ref)
                if existing != ref:
                    table[key] = min(existing, ref)
                    winner, loser = sorted((existing[1], ref[1]))
                    gaz.diagnostics.append(
                        f"{kind} surface {' '.join(key)!r} is ambiguous between "
                        f"{winner!r} and {loser!r}; keeping {winner!r}"
                    )
                gaz.longest[key[0]] = max(gaz.longest.get(key[0], 0), len(key))
    for key, ref in relations.items():
        gaz.surfaces.setdefault(key, ref)  # an entity keeps a shared surface
    return gaz


def link(text: str, gazetteer: Gazetteer) -> list[tuple[str, str]]:
    """Greedy left-to-right longest-match linking over the token sequence.

    Returns the gazetteer's ``(kind, id)`` of each match in text order.
    Matched tokens are consumed, so matches never overlap. A surface shared
    by an entity and a relation links to the entity.
    """
    return _link_words(tokenize(text), gazetteer)


def _link_words(words: list[str], gazetteer: Gazetteer) -> list[tuple[str, str]]:
    """:func:`link` over a text's tokens; a token that starts no surface is skipped."""
    longest, surfaces = gazetteer.longest, gazetteer.surfaces
    mentions: list[tuple[str, str]] = []
    end = 0  # the tokens before it are consumed
    for i, word in enumerate(words):
        top = longest.get(word)
        if top is None or i < end:
            continue
        for length in range(min(top, len(words) - i), 0, -1):
            ref = surfaces.get(tuple(words[i : i + length]))
            if ref is not None:
                mentions.append(ref)
                end = i + length
                break
    return mentions


def distinct_ids(mentions: Iterable[tuple[str, str]], kind: str) -> list[str]:
    """Ids of the mentions of one kind, deduplicated, in first-occurrence order."""
    return list(dict.fromkeys(kg_id for mention_kind, kg_id in mentions if mention_kind == kind))


# Gold links: query id -> its ``(kind, id)`` links, in file order.
GoldLinks = dict[str, list[tuple[str, str]]]


def parse_gold_annotations(
    lines: Iterable[str], kg: KnowledgeGraph, source: str = "<gold-links>"
) -> GoldLinks:
    """``query_id<TAB>kind<TAB>kg_id`` per line; ids are checked against the KG."""
    links: GoldLinks = {}
    for lineno, (query_id, kind, kg_id) in rows(lines, source, 3):
        if kind not in _KINDS:
            raise DataFormatError(f"{source}:{lineno}: kind must be entity or relation, got {kind!r}")
        if kind == ENTITY and kg_id not in kg.entities:
            raise DataFormatError(f"{source}:{lineno}: unknown entity id {kg_id!r}")
        if kind == RELATION and kg_id not in kg.relations:
            raise DataFormatError(f"{source}:{lineno}: unknown relation id {kg_id!r}")
        links.setdefault(query_id, []).append((kind, kg_id))
    return links


def load_gold_annotations(path: str | Path, kg: KnowledgeGraph) -> GoldLinks:
    return read(path, parse_gold_annotations, kg)


def check_linker(linker: str, gold_links: GoldLinks | None) -> None:
    """Raise :class:`UsageError` for an unknown linker mode, or for gold
    linking without annotations."""
    if linker not in LINKER_MODES:
        raise UsageError(f"linker mode must be one of {LINKER_MODES}, got {linker!r} (--linker)")
    if linker == "gold" and gold_links is None:
        raise UsageError("gold linker requires gold annotations (--gold-links)")


def query_mentions(
    query_id: str,
    query_text: str,
    linker: str,
    kg: KnowledgeGraph | None,
    gold_links: GoldLinks | None = None,
) -> list[tuple[str, str]]:
    """The ``(kind, id)`` mentions of one query under a linker mode
    (``off``/``gazetteer``/``gold``).

    ``gazetteer`` links the text with the KG's own gazetteer. ``gold``
    replays the annotations of ``query_id`` in file order; a query without
    any gold link has no mentions.
    """
    check_linker(linker, gold_links)
    if linker == "off":
        return []
    if linker == "gazetteer":
        return link(query_text, kg.gazetteer)
    return list(gold_links.get(query_id, ()))
