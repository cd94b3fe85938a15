"""Knowledge-graph store: TSV loading, validation, and link-overlap relatedness.

The graph is immutable after :func:`load_kg`; every query method is safe
under concurrent reads. Incoming links and outgoing edges are indexed per
entity when the graph is built, and the gazetteer of labels and aliases
that the linker matches against is built on first use and kept with the
graph, so no query rescans the edges or rebuilds the gazetteer.

Relatedness between two entities is derived from the overlap of their
incoming-link sets (the classic Wikipedia link-based measure). The printed
formula is a *distance* (0 = identical in-links), so two modes are exposed:

* ``raw`` -- the distance exactly as written, for replication studies;
* ``complement`` -- clamp(1 - distance, 0, 1), larger-is-better, the form
  used for ranking, and the only one re-ranking uses. Pairs with no shared
  in-links score 0 here, while raw mode refuses them (log 0 is undefined).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import DataFormatError, RelatednessUndefinedError, UsageError, read, rows

if TYPE_CHECKING:
    from .linking import Gazetteer

RELATEDNESS_MODES = ("raw", "complement")


@dataclass(frozen=True)
class Entity:
    id: str
    label: str
    aliases: tuple[str, ...] = ()
    description: str = ""


@dataclass(frozen=True)
class RelationType:
    id: str
    label: str
    aliases: tuple[str, ...] = ()


class Edge(NamedTuple):
    source: str
    relation: str
    target: str


@dataclass
class KnowledgeGraph:
    """Entities, typed directed edges, and prebuilt per-entity indexes of
    incoming links and outgoing edges."""

    entities: dict[str, Entity]
    relations: dict[str, RelationType]
    edges: list[Edge]
    in_links: dict[str, frozenset[str]] = field(init=False, repr=False)
    out_edges: dict[str, list[Edge]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        incoming: dict[str, set[str]] = {eid: set() for eid in self.entities}
        self.out_edges = {eid: [] for eid in self.entities}
        for edge in self.edges:
            incoming[edge.target].add(edge.source)
            self.out_edges[edge.source].append(edge)
        self.in_links = {eid: frozenset(sources) for eid, sources in incoming.items()}

    @cached_property
    def gazetteer(self) -> Gazetteer:
        """The gazetteer of this graph's labels and aliases, built once by
        :func:`kgxir.linking.build_gazetteer` on first use."""
        from . import linking

        return linking.build_gazetteer(self)

    @property
    def node_count(self) -> int:
        return len(self.entities)

    def incoming(self, entity_id: str) -> frozenset[str]:
        """Set of entity ids with an edge pointing at ``entity_id``."""
        try:
            return self.in_links[entity_id]
        except KeyError:
            raise KeyError(f"unknown entity id: {entity_id!r}") from None

    def neighbors(self, entity_id: str, relation_id: str | None = None) -> list[str]:
        """Targets of outgoing edges from ``entity_id``, optionally filtered
        by relation type; deduplicated and sorted by entity id."""
        if entity_id not in self.entities:
            raise KeyError(f"unknown entity id: {entity_id!r}")
        if relation_id is not None and relation_id not in self.relations:
            raise KeyError(f"unknown relation id: {relation_id!r}")
        targets = {
            e.target
            for e in self.out_edges[entity_id]
            if relation_id is None or e.relation == relation_id
        }
        return sorted(targets)

    def relatedness(self, a: str, b: str, mode: str = "complement") -> float:
        """Link-overlap relatedness between entities ``a`` and ``b``.

        distance = (ln max(|in(a)|, |in(b)|) - ln |in(a) & in(b)|)
                   / (ln W - ln min(|in(a)|, |in(b)|))

        with W the total node count. ``raw`` returns the distance;
        ``complement`` returns clamp(1 - distance, 0, 1). Symmetric in
        (a, b) by construction. A denominator of zero (both in-sets cover
        the whole graph) is clamped below by ln W - ln(W - 1).
        """
        if mode not in RELATEDNESS_MODES:
            raise UsageError(f"mode must be one of {RELATEDNESS_MODES}, got {mode!r}")
        if self.node_count < 2:
            raise ValueError("relatedness needs a graph with at least 2 nodes")
        in_a = self.incoming(a)
        in_b = self.incoming(b)
        overlap = len(in_a & in_b)
        if overlap == 0:
            if mode == "raw":
                raise RelatednessUndefinedError(
                    f"entities {a!r} and {b!r} share no incoming links; "
                    "raw-mode relatedness is undefined"
                )
            return 0.0
        larger = max(len(in_a), len(in_b))
        smaller = min(len(in_a), len(in_b))
        log_w = math.log(self.node_count)
        numerator = math.log(larger) - math.log(overlap)
        denominator = log_w - math.log(smaller)
        floor = log_w - math.log(self.node_count - 1)
        distance = numerator / max(denominator, floor)
        if mode == "raw":
            return distance
        return min(max(1.0 - distance, 0.0), 1.0)

    def validate(self) -> list[str]:
        """Non-fatal diagnostics: edges over an unknown relation, empty
        labels, isolated entities. An edge with an unknown endpoint cannot
        get this far: building the graph raises ``KeyError`` on it. Loading
        rejects unknown relations, so those only appear on hand-built
        graphs."""
        diagnostics: list[str] = []
        for edge in self.edges:
            if edge.relation not in self.relations:
                diagnostics.append(f"edge references unknown relation {edge.relation!r}")
        for entity in self.entities.values():
            if not entity.label:
                diagnostics.append(f"entity {entity.id!r} has an empty label")
        connected = {e.source for e in self.edges} | {e.target for e in self.edges}
        for eid in self.entities:
            if eid not in connected:
                diagnostics.append(f"entity {eid!r} is isolated (no incoming or outgoing edges)")
        return diagnostics


def _split_aliases(raw: str) -> tuple[str, ...]:
    return tuple(a for a in raw.split("|") if a)


def parse_entities(lines: Iterable[str], source: str = "<entities>") -> dict[str, Entity]:
    """``id<TAB>label<TAB>alias1|alias2|...<TAB>description`` per line.

    Trailing fields may be empty but all three tabs are required.
    """
    entities: dict[str, Entity] = {}
    for lineno, (eid, label, aliases, description) in rows(lines, source, 4):
        if eid in entities:
            raise DataFormatError(f"{source}:{lineno}: duplicate entity id {eid!r}")
        entities[eid] = Entity(
            id=eid, label=label, aliases=_split_aliases(aliases), description=description
        )
    return entities


def parse_relations(lines: Iterable[str], source: str = "<relations>") -> dict[str, RelationType]:
    """``id<TAB>label<TAB>alias1|alias2|...`` per line."""
    relations: dict[str, RelationType] = {}
    for lineno, (rid, label, aliases) in rows(lines, source, 3):
        if rid in relations:
            raise DataFormatError(f"{source}:{lineno}: duplicate relation id {rid!r}")
        relations[rid] = RelationType(id=rid, label=label, aliases=_split_aliases(aliases))
    return relations


def parse_edges(
    lines: Iterable[str],
    entities: dict[str, Entity],
    relations: dict[str, RelationType],
    source: str = "<edges>",
) -> list[Edge]:
    """``source_id<TAB>relation_id<TAB>target_id`` per line; duplicates collapse."""
    edges: dict[Edge, None] = {}
    for lineno, (src, rel, dst) in rows(lines, source, 3):
        if src not in entities:
            raise DataFormatError(f"{source}:{lineno}: edge references unknown entity id {src!r}")
        if dst not in entities:
            raise DataFormatError(f"{source}:{lineno}: edge references unknown entity id {dst!r}")
        if rel not in relations:
            raise DataFormatError(f"{source}:{lineno}: edge references unknown relation id {rel!r}")
        edges[Edge(src, rel, dst)] = None
    return list(edges)


def load_kg(
    entities_path: str | Path,
    relations_path: str | Path,
    edges_path: str | Path,
) -> KnowledgeGraph:
    """Load a knowledge graph from the three TSV files.

    Raises :class:`DataFormatError` naming the file and line for duplicate
    ids, field-count problems, or edges referencing unknown ids.
    """
    entities = read(entities_path, parse_entities)
    relations = read(relations_path, parse_relations)
    edges = read(edges_path, parse_edges, entities, relations)
    return KnowledgeGraph(entities=entities, relations=relations, edges=edges)
