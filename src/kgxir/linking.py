"""Entity and relation linking against the knowledge graph.

Two linkers share one mention type:

* a deterministic gazetteer built from KG labels and aliases, matched by
  greedy left-to-right longest token match (no disambiguation -- surface
  collisions resolve to the lexicographically smallest id, which makes
  linker mistakes reproducible on purpose);
* a gold-annotation linker that replays hand-curated (kind, id) links per
  query, modeling an ideal entity matcher.

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
from .text import tokenize, tokenize_with_spans

ENTITY = "entity"
RELATION = "relation"
_KINDS = (ENTITY, RELATION)
LINKER_MODES = ("off", "gazetteer", "gold")


@dataclass(frozen=True)
class LinkedMention:
    """A text span resolved to one KG id.

    Gold-annotation mentions carry no real span and use start == end == 0.
    """

    start: int
    end: int
    surface: str
    kind: str
    id: str


@dataclass
class Gazetteer:
    """Normalized surface form -> id, one table per kind."""

    entity_surfaces: dict[tuple[str, ...], str] = field(default_factory=dict)
    relation_surfaces: dict[tuple[str, ...], str] = field(default_factory=dict)
    max_tokens: int = 0
    diagnostics: list[str] = field(default_factory=list)


def build_gazetteer(kg: KnowledgeGraph) -> Gazetteer:
    """Index every entity/relation label and alias, token-normalized.

    When two ids of the same kind share a surface form the lexicographically
    smaller id wins and a diagnostic is recorded, so ambiguity is
    deterministic (and testable).
    """
    gaz = Gazetteer()

    def insert(table: dict[tuple[str, ...], str], kind: str, surface: str, new_id: str) -> None:
        key = tuple(tokenize(surface))
        if not key:
            return
        existing = table.get(key)
        if existing is None:
            table[key] = new_id
        elif existing != new_id:
            winner = min(existing, new_id)
            loser = max(existing, new_id)
            table[key] = winner
            gaz.diagnostics.append(
                f"{kind} surface {' '.join(key)!r} is ambiguous between "
                f"{winner!r} and {loser!r}; keeping {winner!r}"
            )
        gaz.max_tokens = max(gaz.max_tokens, len(key))

    for entity in kg.entities.values():
        insert(gaz.entity_surfaces, ENTITY, entity.label, entity.id)
        for alias in entity.aliases:
            insert(gaz.entity_surfaces, ENTITY, alias, entity.id)
    for relation in kg.relations.values():
        insert(gaz.relation_surfaces, RELATION, relation.label, relation.id)
        for alias in relation.aliases:
            insert(gaz.relation_surfaces, RELATION, alias, relation.id)
    return gaz


def link(text: str, gazetteer: Gazetteer) -> list[LinkedMention]:
    """Greedy left-to-right longest-match linking over the token sequence.

    Matched tokens are consumed, so mentions never overlap and come back
    sorted by start offset. At equal length an entity match is preferred
    over a relation match.
    """
    tokens = tokenize_with_spans(text)
    mentions: list[LinkedMention] = []
    i = 0
    while i < len(tokens):
        matched = None
        longest = min(gazetteer.max_tokens, len(tokens) - i)
        for length in range(longest, 0, -1):
            key = tuple(tok for tok, _, _ in tokens[i : i + length])
            entity_id = gazetteer.entity_surfaces.get(key)
            if entity_id is not None:
                matched = (ENTITY, entity_id, length)
                break
            relation_id = gazetteer.relation_surfaces.get(key)
            if relation_id is not None:
                matched = (RELATION, relation_id, length)
                break
        if matched is None:
            i += 1
            continue
        kind, matched_id, length = matched
        start = tokens[i][1]
        end = tokens[i + length - 1][2]
        mentions.append(
            LinkedMention(start=start, end=end, surface=text[start:end], kind=kind, id=matched_id)
        )
        i += length
    return mentions


def distinct_ids(mentions: Iterable[LinkedMention], kind: str) -> list[str]:
    """Ids of the mentions of one kind, deduplicated, in first-occurrence order."""
    return list(dict.fromkeys(m.id for m in mentions if m.kind == kind))


def distinct_entity_ids(text: str, gazetteer: Gazetteer) -> list[str]:
    """Entity ids mentioned in ``text``, deduplicated, in first-occurrence
    order. Relation mentions are ignored."""
    return distinct_ids(link(text, gazetteer), ENTITY)


@dataclass
class GoldAnnotations:
    """Ground-truth (kind, id) links per query id."""

    links: dict[str, list[tuple[str, str]]]


def parse_gold_annotations(
    lines: Iterable[str], kg: KnowledgeGraph, source: str = "<gold-links>"
) -> GoldAnnotations:
    """``query_id<TAB>kind<TAB>kg_id`` per line; ids are checked against the KG."""
    links: dict[str, list[tuple[str, str]]] = {}
    for lineno, (query_id, kind, kg_id) in rows(lines, source, 3):
        if kind not in _KINDS:
            raise DataFormatError(f"{source}:{lineno}: kind must be entity or relation, got {kind!r}")
        if kind == ENTITY and kg_id not in kg.entities:
            raise DataFormatError(f"{source}:{lineno}: unknown entity id {kg_id!r}")
        if kind == RELATION and kg_id not in kg.relations:
            raise DataFormatError(f"{source}:{lineno}: unknown relation id {kg_id!r}")
        links.setdefault(query_id, []).append((kind, kg_id))
    return GoldAnnotations(links=links)


def load_gold_annotations(path: str | Path, kg: KnowledgeGraph) -> GoldAnnotations:
    return read(path, parse_gold_annotations, kg)


def link_gold(query_id: str, gold: GoldAnnotations, kg: KnowledgeGraph) -> list[LinkedMention]:
    """Replay the annotated links for ``query_id`` as mentions.

    The mentions carry zero-length spans (there is no text evidence); the
    surface is filled with the KG label for readability.
    """
    if query_id not in gold.links:
        raise KeyError(f"no gold annotations for query id {query_id!r}")
    mentions = []
    for kind, kg_id in gold.links[query_id]:
        label = kg.entities[kg_id].label if kind == ENTITY else kg.relations[kg_id].label
        mentions.append(LinkedMention(start=0, end=0, surface=label, kind=kind, id=kg_id))
    return mentions


def check_linker(linker: str, gold_links: GoldAnnotations | None) -> None:
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
    gold_links: GoldAnnotations | None = None,
) -> list[LinkedMention]:
    """The mentions of one query under a linker mode (``off``/``gazetteer``/``gold``).

    ``gazetteer`` links the text with the KG's own gazetteer; ``gold``
    replays the annotations of ``query_id``, and a query without any gold
    link has no mentions.
    """
    check_linker(linker, gold_links)
    if linker == "off":
        return []
    if linker == "gazetteer":
        return link(query_text, kg.gazetteer)
    if query_id not in gold_links.links:
        return []
    return link_gold(query_id, gold_links, kg)
