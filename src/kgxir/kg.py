"""Knowledge-graph store: TSV loading, validation, and link-overlap relatedness.

The graph is immutable once built; every query method is safe under
concurrent reads. An edge is its source, relation and target codes, and a
graph is built from those codes alone: :func:`load_kg` reads them in one
bulk pass, and the per-line :func:`parse_edges` returns the same codes and
locates a bad line. In-link sets and the gazetteer are built on first use.

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
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

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


def _codes(ids: Iterable[str]) -> dict[str, int]:
    """Each id's position in insertion order."""
    return {item: code for code, item in enumerate(ids)}


class KnowledgeGraph:
    """Entities, relation types and typed directed edges, as integer arrays.

    A code is a position in ``entities`` or ``relations``. A graph is built
    from the ``(3, m)`` codes that :func:`parse_edges` returns (``[]`` for no
    edges). ``_edges`` holds the distinct edges in first-occurrence order,
    ``_out`` sorted, with entity ``c``'s at ``_out_ptr[c]:_out_ptr[c + 1]``,
    and the same slice of ``_in_src`` under ``_in_ptr`` the sorted sources of
    its in-links.
    """

    def __init__(self, entities: dict, relations: dict, edges: np.ndarray | list) -> None:
        self.entities, self.relations = entities, relations
        self._entity_ids, self._entity_code = list(entities), _codes(entities)
        self._relation_ids = list(relations)
        codes = np.asarray(edges, dtype=np.int64).reshape(3, -1)
        n, (source, relation, target) = len(entities), codes
        keys = (source * len(relations) + relation) * n + target
        first = np.unique(keys, return_index=True)[1]
        self._edges, self._out = codes[:, np.sort(first)], codes[:, first]
        in_keys = np.sort(target * n + source)
        in_target, self._in_src = np.divmod(in_keys[np.diff(in_keys, prepend=-1) != 0], n)
        self._out_ptr = np.searchsorted(self._out[0], np.arange(n + 1))
        self._in_ptr = np.searchsorted(in_target, np.arange(n + 1))
        # Filled on first use; two threads that race store equal sets.
        self._incoming: dict[str, frozenset[str]] = {}

    @cached_property
    def gazetteer(self) -> Gazetteer:
        """The gazetteer of this graph's labels and aliases, built once by
        :func:`kgxir.linking.build_gazetteer` on first use."""
        from . import linking

        return linking.build_gazetteer(self)

    @property
    def node_count(self) -> int:
        return len(self.entities)

    @property
    def edges(self) -> list[Edge]:
        """The distinct edges in first-occurrence order, made on each call."""
        ids, relation_ids = self._entity_ids, self._relation_ids
        return [Edge(ids[s], relation_ids[r], ids[t]) for s, r, t in self._edges.T.tolist()]

    def _code(self, entity_id: str) -> int:
        try:
            return self._entity_code[entity_id]
        except KeyError:
            raise KeyError(f"unknown entity id: {entity_id!r}") from None

    def incoming(self, entity_id: str) -> frozenset[str]:
        """Set of entity ids with an edge pointing at ``entity_id``."""
        try:
            return self._incoming[entity_id]
        except KeyError:
            code = self._code(entity_id)
        sources = self._in_src[self._in_ptr[code] : self._in_ptr[code + 1]].tolist()
        links = self._incoming[entity_id] = frozenset(map(self._entity_ids.__getitem__, sources))
        return links

    def neighbors(self, entity_id: str, relation_id: str | None = None) -> list[str]:
        """Targets of outgoing edges from ``entity_id``, optionally filtered
        by relation type; deduplicated and sorted by entity id."""
        code = self._code(entity_id)
        if relation_id is not None and relation_id not in self.relations:
            raise KeyError(f"unknown relation id: {relation_id!r}")
        _, relation, targets = self._out[:, self._out_ptr[code] : self._out_ptr[code + 1]]
        if relation_id is not None:
            targets = targets[relation == self._relation_ids.index(relation_id)]
        return sorted(set(map(self._entity_ids.__getitem__, targets.tolist())))

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
        """Non-fatal diagnostics: entities and relations with an empty label,
        which no text can link to, and isolated entities. An edge cannot
        name an unknown id: both edge readers refuse one."""
        diagnostics = [
            f"{kind} {item.id!r} has an empty label"
            for kind, items in (("entity", self.entities), ("relation", self.relations))
            for item in items.values()
            if not item.label
        ]
        isolated = (np.diff(self._in_ptr) == 0) & (np.diff(self._out_ptr) == 0)
        for eid in compress(self._entity_ids, isolated.tolist()):
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
) -> np.ndarray:
    """``source_id<TAB>relation_id<TAB>target_id`` per line, read line by
    line: the ``(3, m)`` int64 source, relation and target codes of the
    ``m`` edges, duplicates included, as :func:`_edge_codes` reads them in
    bulk. An unknown id raises :class:`DataFormatError` naming the line."""
    code, relation_code = _codes(entities), _codes(relations)
    triples = []
    for lineno, (src, rel, dst) in rows(lines, source, 3):
        if src not in code:
            raise DataFormatError(f"{source}:{lineno}: edge references unknown entity id {src!r}")
        if dst not in code:
            raise DataFormatError(f"{source}:{lineno}: edge references unknown entity id {dst!r}")
        if rel not in relation_code:
            raise DataFormatError(f"{source}:{lineno}: edge references unknown relation id {rel!r}")
        triples.append((code[src], relation_code[rel], code[dst]))
    return np.array(triples, dtype=np.int64).reshape(-1, 3).T


def _edge_codes(fh: IO[str], entities: dict, relations: dict, source: str) -> np.ndarray:
    """The ``(3, m)`` codes of an edge file's ``m`` edges, read in one pass
    with no object per line, keeping data lines by the rule of ``rows``. A
    bad line is one :func:`parse_edges` refuses; it then reads and raises."""
    try:
        text = fh.read()
    except UnicodeDecodeError:  # a bad line before the bad bytes is reported first
        fh.seek(0)
        parse_edges(fh, entities, relations, source)
        raise
    lines = text.split("\n")
    data = list(filter(str.strip, lines))
    if text.startswith("#") or "\n#" in text:
        data = [line for line in data if not line.startswith("#")]
    if {2}.issuperset(map(str.count, data, repeat("\t"))):
        fields = "\t".join(data).split("\t") if data else []
        tables = (_codes(entities), _codes(relations))
        try:
            columns = (map(tables[i % 2].get, fields[i::3]) for i in range(3))
            return np.array([np.fromiter(column, np.int64, len(data)) for column in columns])
        except TypeError:  # an unknown id maps to None
            pass
    parse_edges(lines, entities, relations, source)
    raise AssertionError("parse_edges accepted an edge file that the bulk read refused")


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
    return KnowledgeGraph(entities, relations, read(edges_path, _edge_codes, entities, relations))
