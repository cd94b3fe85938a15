"""Explainable re-ranking by query-document relatedness.

The feature is built from pairwise entity relatedness on the KG, in its
larger-is-better complement form: for each distinct query entity, average
its relatedness to every distinct document entity, then sum those
averages, all of a query's candidates from one relatedness table. The
per-query-entity breakdown is kept on the score so a ranking can be audited
term by term. Re-ranking reads the index's entity cache as KG codes, resolved
once per (index, KG) pair, and a query with no entity builds no table.

Re-ranking only reorders: the candidate set is preserved exactly, and ties
(including the no-entity degenerate case, which scores 0.0) keep the original
embedding order.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError, UsageError
from .kg import KnowledgeGraph
from .retrieval import DocumentIndex, ScoredDoc


class QdrScore(NamedTuple):
    """Query-document relatedness with its per-query-entity breakdown.

    ``value`` is exactly the sum of the breakdown entries; the breakdown is
    ordered by entity id, one entry per distinct query entity.
    """

    value: float
    breakdown: tuple[tuple[str, float], ...]


def qdr(
    query_entities: Sequence[str], document_entities: Sequence[str], kg: KnowledgeGraph
) -> QdrScore:
    """Query-document relatedness over distinct entity ids.

    Both sides are deduplicated and canonicalized to sorted order before
    any arithmetic, so the result is exactly invariant under permutation
    (and duplication) of either input. Either side empty scores 0.0.
    Sums add left to right, since the built-in ``sum`` compensates from
    Python 3.12 on and would move the bits.
    """
    ids = sorted(set(document_entities))
    codes = np.fromiter(map(kg._code, ids), np.int64, len(ids))
    return _qdr_scores(query_entities, (np.array([0, len(ids)]), codes), np.zeros(1, int), kg)[0]


def rerank(
    candidates: Sequence[ScoredDoc], query_entities: Sequence[str], kg: KnowledgeGraph,
    index: DocumentIndex,
) -> list[tuple[ScoredDoc, QdrScore]]:
    """Pair each candidate with its QDR, in re-ranked order: descending QDR,
    ties in embedding order. A candidate's final rank is its position.

    A candidate's entities are those the ``index`` cached at index time, read
    as :func:`_index_codes`. No candidate is ever added or dropped.
    """
    rows = np.array([index._row[c.doc_id] for c in candidates], dtype=np.int64)
    scores = _qdr_scores(query_entities, _index_codes(index, kg), rows, kg)
    return sorted(zip(candidates, scores), key=lambda pair: -pair[1].value)  # stable


def _index_codes(index: DocumentIndex, kg: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
    """Row ``r``'s distinct cached ids, sorted, as ``kg``'s codes at ``codes[ptr[r]:ptr[r + 1]]``,
    kept until ``kg`` or ``index.entities`` is another object; an unknown id is a data error."""
    cached, entities = index._kg_codes, index.entities
    if cached[0] is not kg or cached[1] is not entities:
        if entities is None:
            raise UsageError(
                "re-ranking needs the index's per-document entity cache; build the index "
                "with a gazetteer (kgxir index --kg-entities/--kg-relations/--kg-edges)"
            )
        ids = list(map(sorted, map(set, entities)))
        try:
            codes = np.fromiter(map(kg._entity_code.__getitem__, chain.from_iterable(ids)), int)
        except KeyError as exc:
            doc_id = next(d for d, found in zip(index._ids, ids) if exc.args[0] in found)
            raise DataFormatError(
                f"document {doc_id!r}: cached entity id {exc.args[0]!r} is not in the KG; "
                "rebuild the index with this KG (kgxir index)"
            ) from None
        ptr = np.fromiter(chain([0], map(len, ids)), int).cumsum()
        cached = index._kg_codes = (kg, entities, ptr, codes)
    return cached[2:]


def _qdr_scores(
    query_entities: Sequence[str], csr: tuple[np.ndarray, ...], rows: np.ndarray, kg: KnowledgeGraph
) -> list[QdrScore]:
    """The :func:`qdr` of each of ``rows``, its codes gathered from ``csr`` as ``retrieve`` gathers
    postings, from one relatedness table. ``cumsum`` adds rows left to right, zero-padded."""
    query_ids, (ptr, codes) = sorted(set(query_entities)), csr
    if not query_ids:
        return [QdrScore(value=0.0, breakdown=())] * len(rows)
    starts, lengths = ptr[rows], ptr[rows + 1] - ptr[rows]
    gather = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    table = kg._complement_table(np.fromiter(map(kg._code, query_ids), int), codes[gather])
    padded = np.zeros((len(query_ids), len(lengths), lengths.max(initial=0) + 1))
    padded[:, np.arange(padded.shape[2]) < lengths[:, None]] = table  # row-major: doc by doc
    averages = np.cumsum(padded, axis=2)[:, :, -1] / np.maximum(lengths, 1)
    values = np.cumsum(np.vstack((np.zeros(len(lengths)), averages)), axis=0)[-1]
    scored = zip(values.tolist(), averages.T.tolist())
    return [QdrScore(value, tuple(zip(query_ids, row))) for value, row in scored]
