"""Knowledge-graph store: TSV loading, validation, and link-overlap relatedness.

The graph is immutable once built; every query method is safe under
concurrent reads. Entities and relation types are named tuples. An edge is
its source, relation and target codes, and a graph keeps its edges as codes
alone: :func:`load_kg` reads them in one bulk pass, and the per-line
:func:`parse_edges` returns the same codes and locates a bad line. The
gazetteer is built on first use; ``incoming`` makes a set per call and is
kept for its callers, though no query path uses it.

Relatedness is the classic Wikipedia link-based measure of the overlap of two
entities' in-link sets, computed in one place: a table over entity codes that
re-ranking reads, whose one-pair case is :meth:`KnowledgeGraph.relatedness`
(it and :func:`kgxir.rerank.qdr` look ids up), in ``raw`` mode (the printed
distance, for replication studies) or ``complement`` (the form re-ranking uses).
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .errors import DataFormatError, RelatednessUndefinedError, UsageError, read, rows

if TYPE_CHECKING:
    from .linking import Gazetteer

RELATEDNESS_MODES = ("raw", "complement")


class Entity(NamedTuple):
    id: str
    label: str
    aliases: tuple[str, ...] = ()
    description: str = ""


class RelationType(NamedTuple):
    id: str
    label: str
    aliases: tuple[str, ...] = ()


def _codes(ids: Iterable[str]) -> dict[str, int]:
    """Each id's position in insertion order."""
    return {item: code for code, item in enumerate(ids)}


class KnowledgeGraph:
    """Entities, relation types and typed directed edges, as integer arrays.

    A code is a position in ``entities`` or ``relations``. A graph is built
    from the ``(3, m)`` integer codes that :func:`parse_edges` returns (``[]``
    for no edges) and refuses any other. ``_out`` holds the distinct edges
    sorted, with entity ``c``'s at ``_out_ptr[c]:_out_ptr[c + 1]``, and the
    same slice of ``_in_src`` under ``_in_ptr`` the sorted sources of its
    in-links.
    """

    def __init__(self, entities: dict, relations: dict, edges: np.ndarray | list) -> None:
        self.entities, self.relations = entities, relations
        self._entity_ids, self._entity_code = list(entities), _codes(entities)
        self._relation_code = _codes(relations)
        codes = np.zeros((3, 0), np.int64) if isinstance(edges, list) and not edges else edges
        integers = isinstance(codes, np.ndarray) and codes.dtype.kind in "iu"
        if not (integers and codes.shape[:-1] == (3,)):
            raise ValueError("edges must be [] or a (3, m) integer array")
        n, limits = len(entities), np.array([len(entities), len(relations), len(entities)])
        outside = np.argwhere(((codes < 0) | (codes >= limits[:, None])).T)
        if len(outside):
            edge, column = outside[0].tolist()
            name, code = ("source", "relation", "target")[column], codes[column, edge]
            raise ValueError(f"edge {edge}: {name} code {code} is not in range({limits[column]})")
        source, relation, target = codes = codes.astype(np.int64, copy=False)
        keys = (source * len(relations) + relation) * n + target
        self._out = codes[:, np.unique(keys, return_index=True)[1]]
        in_keys = np.sort(target * n + source)
        in_target, self._in_src = np.divmod(in_keys[np.diff(in_keys, prepend=-1) != 0], n)
        self._out_ptr = np.searchsorted(self._out[0], np.arange(n + 1))
        self._in_ptr = np.searchsorted(in_target, np.arange(n + 1))
        # math.log(i) at i = 1..n (0.0 at 0), not np.log: its SIMD paths round differently per CPU.
        self._logs = np.array([0.0] + [math.log(i) for i in range(1, n + 1)])

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
    def edge_count(self) -> int:
        """The number of distinct edges."""
        return self._out.shape[1]

    def _code(self, entity_id: str) -> int:
        try:
            return self._entity_code[entity_id]
        except KeyError:
            raise KeyError(f"unknown entity id: {entity_id!r}") from None

    def incoming(self, entity_id: str) -> frozenset[str]:
        """Set of entity ids with an edge pointing at ``entity_id``."""
        code = self._code(entity_id)
        sources = self._in_src[self._in_ptr[code] : self._in_ptr[code + 1]].tolist()
        return frozenset(map(self._entity_ids.__getitem__, sources))

    def neighbors(self, entity_id: str, relation_id: str | None = None) -> list[str]:
        """Targets of outgoing edges from ``entity_id``, optionally filtered
        by relation type; deduplicated and sorted by entity id."""
        code = self._code(entity_id)
        _, relation, targets = self._out[:, self._out_ptr[code] : self._out_ptr[code + 1]]
        if relation_id is not None:
            if (relation_code := self._relation_code.get(relation_id)) is None:
                raise KeyError(f"unknown relation id: {relation_id!r}")
            targets = targets[relation == relation_code]
        return sorted(set(map(self._entity_ids.__getitem__, targets.tolist())))

    def relatedness(self, a: str, b: str, mode: str = "complement") -> float:
        """Link-overlap relatedness of entities ``a`` and ``b``: the one-pair case of
        :meth:`_complement_table`, the table that re-ranking reads, or of its distance:

        distance = (ln max(|in(a)|, |in(b)|) - ln |in(a) & in(b)|)
                   / max(ln W - ln min(|in(a)|, |in(b)|), ln W - ln(W - 1))

        with W the node count. ``raw`` is the distance, refused for a pair with no
        shared in-link (log 0 is undefined); ``complement`` is clamp(1 - distance,
        0, 1), and 0 for such a pair. Symmetric in (a, b) by construction.
        """
        if mode not in RELATEDNESS_MODES:
            raise UsageError(f"mode must be one of {RELATEDNESS_MODES}, got {mode!r}")
        pair = np.array([self._code(a)]), np.array([self._code(b)])
        if mode == "complement":
            return self._complement_table(*pair).item()
        distance, overlap = (values.item() for values in self._distances(*pair))
        if overlap == 0:
            raise RelatednessUndefinedError(
                f"entities {a!r} and {b!r} share no incoming links; "
                "raw-mode relatedness is undefined"
            )
        return distance

    def _distances(self, q: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The :meth:`relatedness` distance (meaningless at no overlap) and in-link overlap
        of each entity code ``a`` of ``q`` (rows) and ``b`` of ``d`` (columns)."""
        if not (len(q) and len(d)):
            return (np.zeros((len(q), len(d))),) * 2
        if self.node_count < 2:
            raise ValueError("relatedness needs a graph with at least 2 nodes")
        ptr, src, logs = self._in_ptr, self._in_src, self._logs
        size_q, size_d = ptr[q + 1] - ptr[q], ptr[d + 1] - ptr[d]
        marks = np.zeros((len(q), self.node_count), dtype=bool)
        for i, code in enumerate(q.tolist()):
            marks[i, src[ptr[code] : ptr[code + 1]]] = True
        links = np.arange(size_d.sum()) + np.repeat(ptr[d] - np.cumsum(size_d) + size_d, size_d)
        row, hit = np.nonzero(marks[:, src[links]])
        keys = row * len(d) + np.repeat(np.arange(len(d)), size_d)[hit]
        overlap = np.bincount(keys, minlength=len(q) * len(d)).reshape(len(q), len(d))
        floor = logs[-1] - logs[-2]
        denominator = np.maximum(logs[-1] - logs[np.minimum.outer(size_q, size_d)], floor)
        distance = (logs[np.maximum.outer(size_q, size_d)] - logs[overlap]) / denominator
        return distance, overlap

    def _complement_table(self, q: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The complement :meth:`relatedness` of each pair of :meth:`_distances`."""
        distance, overlap = self._distances(q, d)
        return np.where(overlap > 0, np.clip(1.0 - distance, 0.0, 1.0), 0.0)

    def validate(self) -> list[str]:
        """Non-fatal diagnostics: entities and relations with an empty label,
        which no text can link to, and isolated entities. An edge cannot
        name an unknown id: the constructor refuses its code."""
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
