"""Explainable re-ranking by query-document relatedness.

The feature is built from pairwise entity relatedness on the KG, in its
larger-is-better complement form: for each distinct query entity, average
its relatedness to every distinct document entity, then sum those
averages. The per-query-entity breakdown is kept on the score so a ranking
can be audited term by term.

Re-ranking only reorders: the candidate set is preserved exactly, and ties
(including the no-entity degenerate case, which scores 0.0) keep the original
embedding order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Mapping, Sequence

from .kg import KnowledgeGraph
from .retrieval import ScoredDoc


@dataclass(frozen=True)
class QdrScore:
    """Query-document relatedness with its per-query-entity breakdown.

    ``value`` is exactly the sum of the breakdown entries; the breakdown is
    ordered by entity id, one entry per distinct query entity.
    """

    value: float
    breakdown: tuple[tuple[str, float], ...]


def qdr(
    query_entities: Sequence[str],
    document_entities: Sequence[str],
    kg: KnowledgeGraph,
) -> QdrScore:
    """Query-document relatedness over distinct entity ids.

    Both sides are deduplicated and canonicalized to sorted order before
    any arithmetic, so the result is exactly invariant under permutation
    (and duplication) of either input. Either side empty scores 0.0.
    Sums add left to right, since the built-in ``sum`` compensates from
    Python 3.12 on and would move the bits.
    """
    query_ids = sorted(set(query_entities))
    document_ids = sorted(set(document_entities))
    breakdown: list[tuple[str, float]] = []
    for query_id in query_ids:
        if document_ids:
            total = reduce(add, (kg.relatedness(query_id, doc_id) for doc_id in document_ids), 0.0)
            average = total / len(document_ids)
        else:
            average = 0.0
        breakdown.append((query_id, average))
    value = reduce(add, (average for _, average in breakdown), 0.0)
    return QdrScore(value=value, breakdown=tuple(breakdown))


def rerank(
    candidates: Sequence[ScoredDoc],
    query_entities: Sequence[str],
    kg: KnowledgeGraph,
    entities_by_doc: Mapping[str, Sequence[str]],
) -> list[tuple[ScoredDoc, QdrScore]]:
    """Pair each candidate with its QDR, in re-ranked order: descending QDR,
    ties in embedding order. A candidate's final rank is its position.

    ``entities_by_doc`` is the per-document entity cache built at index
    time. No candidate is ever added or dropped.
    """
    pairs = [(c, qdr(query_entities, entities_by_doc[c.doc_id], kg)) for c in candidates]
    return sorted(pairs, key=lambda pair: -pair[1].value)  # stable: ties keep order
