"""Explainable re-ranking by query-document relatedness.

The feature is built from pairwise entity relatedness on the KG, in its
larger-is-better complement form: for each distinct query entity, average
its relatedness to every distinct document entity, then sum those
averages, all of a query's candidates from one relatedness table. The
per-query-entity breakdown is kept on the score so a ranking can be audited
term by term.

Re-ranking only reorders: the candidate set is preserved exactly, and ties
(including the no-entity degenerate case, which scores 0.0) keep the original
embedding order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

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
    return _qdr_scores(query_entities, [document_entities], kg)[0]


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
    scores = _qdr_scores(query_entities, [entities_by_doc[c.doc_id] for c in candidates], kg)
    return sorted(zip(candidates, scores), key=lambda pair: -pair[1].value)  # stable


def _qdr_scores(
    query_entities: Sequence[str], entities_per_doc: Sequence[Sequence[str]], kg: KnowledgeGraph
) -> list[QdrScore]:
    """The :func:`qdr` of each document of ``entities_per_doc`` from one
    relatedness table. ``cumsum`` adds each row left to right, zero-padded."""
    query_ids = sorted(set(query_entities))
    document_ids = [sorted(set(ids)) for ids in entities_per_doc]
    lengths = np.array([len(ids) for ids in document_ids], dtype=np.int64)
    table = kg._complement_table(query_ids, list(chain.from_iterable(document_ids)))
    padded = np.zeros((len(query_ids), len(lengths), lengths.max(initial=0) + 1))
    padded[:, np.arange(padded.shape[2]) < lengths[:, None]] = table  # row-major: doc by doc
    averages = np.cumsum(padded, axis=2)[:, :, -1] / np.maximum(lengths, 1)
    values = np.cumsum(np.vstack((np.zeros(len(lengths)), averages)), axis=0)[-1]
    rows = zip(values.tolist(), averages.T.tolist())
    return [QdrScore(value=value, breakdown=tuple(zip(query_ids, row))) for value, row in rows]
