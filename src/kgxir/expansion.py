"""KG-driven query expansion.

A query is classified by what the linker found in it, then expanded with
the matching slice of the graph:

* entity + relation  -> append the labels of entities reachable over that
  relation from each matched entity (deduplicated, ordered by entity id);
* a single entity    -> append its description tokens (capped);
* several entities, no relation -> append the entity labels themselves;
* no entities        -> leave the query untouched.

Appended terms only ever come from KG labels and descriptions; the original
query text is never altered or reordered.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .kg import KnowledgeGraph
from .linking import ENTITY, RELATION, distinct_ids
from .text import tokenize

# Bounds how much of a long description can drift the query vector.
DESCRIPTION_TOKEN_CAP = 64


class ExpansionCase(Enum):
    """Which expansion rule applied. Values are the wire labels."""

    ENTITY_RELATION = "A"
    SINGLE_ENTITY = "B"
    ENTITIES_ONLY = "C"
    NONE = "none"


class ExpandedQuery(NamedTuple):
    original: str
    appended_terms: tuple[str, ...]
    case: ExpansionCase
    entity_ids: tuple[str, ...]
    relation_ids: tuple[str, ...]

    @property
    def text(self) -> str:
        """Original query plus the appended terms, space-joined."""
        return " ".join((self.original, *self.appended_terms))


def classify(entity_ids: Sequence[str], relation_ids: Sequence[str]) -> ExpansionCase:
    """Pick the expansion case from the distinct mentioned ids.

    At least one entity and one relation -> ENTITY_RELATION; exactly one
    entity alone -> SINGLE_ENTITY; several entities without a relation ->
    ENTITIES_ONLY; no entities -> NONE (relations alone expand nothing).
    """
    if not entity_ids:
        return ExpansionCase.NONE
    if relation_ids:
        return ExpansionCase.ENTITY_RELATION
    if len(entity_ids) == 1:
        return ExpansionCase.SINGLE_ENTITY
    return ExpansionCase.ENTITIES_ONLY


def expand(query: str, mentions: Sequence[tuple[str, str]], kg: KnowledgeGraph) -> ExpandedQuery:
    """Build the expanded query for ``query`` given its ``(kind, id)`` mentions."""
    entity_ids = distinct_ids(mentions, ENTITY)
    relation_ids = distinct_ids(mentions, RELATION)
    case = classify(entity_ids, relation_ids)

    appended: list[str] = []
    if case is ExpansionCase.ENTITY_RELATION:
        neighbor_ids: set[str] = set()
        for entity_id in entity_ids:
            for relation_id in relation_ids:
                neighbor_ids.update(kg.neighbors(entity_id, relation_id))
        appended = [kg.entities[nid].label for nid in sorted(neighbor_ids)]
    elif case is ExpansionCase.SINGLE_ENTITY:
        description = kg.entities[entity_ids[0]].description
        appended = tokenize(description)[:DESCRIPTION_TOKEN_CAP]
    elif case is ExpansionCase.ENTITIES_ONLY:
        appended = [kg.entities[eid].label for eid in entity_ids]

    return ExpandedQuery(
        original=query,
        appended_terms=tuple(appended),
        case=case,
        entity_ids=tuple(entity_ids),
        relation_ids=tuple(relation_ids),
    )
