"""End-to-end explained retrieval: expansion, ranking, re-ranking, and the
most important sentence per result, captured in one auditable record.

:func:`explain_query` is the one query path. ``kgxir query`` calls it, the
sentence-retrieval runner reads its top result, and the re-ranking runner
shares its ranking step (mentions -> optional expansion -> retrieval ->
optional QDR re-ranking), so the experiments measure what a query serves.
Mentions come from :func:`kgxir.linking.query_mentions` and the gazetteer
from the KG itself, which builds it once. Re-ranking reads the index's
per-document entity cache, resolved to KG codes once per KG and cache, and
refuses an index without one, or with one naming an entity the KG lacks.

The record carries every number needed to recompute the ranking by hand:
embedding score and rank, the QDR value with its per-query-entity
breakdown, and the MIS with its similarity. It serializes to canonical
JSON (sorted keys, ``null`` for an absent value).
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .errors import UsageError
from .expansion import ExpandedQuery, ExpansionCase, expand
from .kg import KnowledgeGraph
from .linking import GoldLinks, query_mentions
from .rerank import QdrScore, rerank
from .retrieval import DocumentIndex, ScoredDoc, _select_mis_batch, retrieve
from .text import embed


class DocExplanation(NamedTuple):
    """One ranked document with the evidence behind its position."""

    doc_id: str
    final_rank: int
    embedding_score: float
    embedding_rank: int
    qdr_value: float | None
    qdr_breakdown: tuple[tuple[str, float], ...] | None
    mis_index: int | None
    mis_text: str | None
    mis_score: float | None


class ExplanationRecord(NamedTuple):
    query_id: str
    query: str
    expansion_case: str
    appended_terms: tuple[str, ...]
    entity_ids: tuple[str, ...]
    relation_ids: tuple[str, ...]
    k: int
    linker: str
    relatedness: str
    results: tuple[DocExplanation, ...]

    def to_json(self) -> str:
        record = {**self._asdict(), "results": [r._asdict() for r in self.results]}
        return json.dumps(record, sort_keys=True, ensure_ascii=False)

    def format_block(self) -> str:
        """Human-readable explanation block."""
        lines = [f"query [{self.query_id}]: {self.query}"]
        if self.expansion_case != ExpansionCase.NONE.value:
            lines.append(
                f"expansion: case {self.expansion_case}; appended: "
                + (" ".join(self.appended_terms) if self.appended_terms else "(nothing)")
            )
        else:
            lines.append("expansion: none")
        if self.entity_ids:
            lines.append("matched entities: " + ", ".join(self.entity_ids))
        if self.relation_ids:
            lines.append("matched relations: " + ", ".join(self.relation_ids))
        for r in self.results:
            parts = [f"{r.final_rank:3d}. {r.doc_id}  embed={r.embedding_score:.4f}"]
            if r.qdr_value is not None:
                parts.append(f"qdr={r.qdr_value:.4f}")
            lines.append("  ".join(parts))
            if r.qdr_breakdown:
                lines.append(
                    "     qdr breakdown: "
                    + ", ".join(f"{eid}={value:.4f}" for eid, value in r.qdr_breakdown)
                )
            if r.mis_index is not None:
                lines.append(f"     MIS[{r.mis_index}] ({r.mis_score:.4f}): {r.mis_text}")
        return "\n".join(lines) + "\n"


def _rank(
    index: DocumentIndex,
    query_id: str,
    query_text: str,
    k: int,
    kg: KnowledgeGraph | None,
    linker: str,
    gold_links: GoldLinks | None,
    expansion_on: bool,
    relatedness: str,
) -> tuple[ExpandedQuery, np.ndarray, list[tuple[ScoredDoc, QdrScore | None]]]:
    """The ranking step shared by every caller: resolve mentions, expand,
    embed the query once, retrieve the top ``k``, re-rank by QDR (when on).

    Returns the query as ranked (with no appended terms and case ``NONE``
    when expansion is off), its vector, and one list of (candidate, QDR)
    pairs in final order. The QDR is ``None`` when relatedness is off, and
    the order is then the embedding order.
    """
    query = expand(query_text, query_mentions(query_id, query_text, linker, kg, gold_links), kg)
    if not expansion_on:
        query = query._replace(appended_terms=(), case=ExpansionCase.NONE)
    query_vec = embed(query.text, index.model)
    candidates = retrieve(index, query_vec, k)
    if relatedness == "off":
        return query, query_vec, [(c, None) for c in candidates]
    return query, query_vec, rerank(candidates, query.entity_ids, kg, index)


def explain_query(
    index: DocumentIndex,
    query_text: str,
    *,
    query_id: str = "q",
    k: int = 10,
    kg: KnowledgeGraph | None = None,
    linker: str = "off",
    gold_links: GoldLinks | None = None,
    expansion_on: bool = False,
    relatedness: str = "off",
) -> ExplanationRecord:
    """Run the full pipeline for one query and return the explanation record.

    ``linker`` chooses where mentions come from (``off``/``gazetteer``/
    ``gold``; a query without gold links has none); ``expansion_on``
    applies them to the query text; ``relatedness="complement"`` re-ranks
    candidates by QDR, which needs the index's entity cache. A KG is
    required unless linking, expansion and relatedness are all off.
    """
    if relatedness not in ("off", "complement"):
        raise UsageError(
            f"relatedness must be 'off' or 'complement', got {relatedness!r} (--relatedness)"
        )
    if (linker != "off" or expansion_on or relatedness != "off") and kg is None:
        raise UsageError(
            "a knowledge graph is required for linking, expansion, or re-ranking "
            "(--kg-entities/--kg-relations/--kg-edges)"
        )
    query, query_vec, ranked = _rank(
        index, query_id, query_text, k, kg, linker, gold_links, expansion_on, relatedness
    )
    found = _select_mis_batch(index, [doc.doc_id for doc, _ in ranked], query_vec)
    return ExplanationRecord(
        query_id=query_id,
        query=query_text,
        expansion_case=query.case.value,
        appended_terms=query.appended_terms,
        entity_ids=query.entity_ids,
        relation_ids=query.relation_ids,
        k=k,
        linker=linker,
        relatedness=relatedness,
        results=tuple(
            DocExplanation(
                doc_id=doc.doc_id,
                final_rank=final_rank,
                embedding_score=doc.score,
                embedding_rank=doc.rank,
                qdr_value=None if qdr is None else qdr.value,
                qdr_breakdown=None if qdr is None else qdr.breakdown,
                mis_index=None if mis is None else mis.index,
                mis_text=None if mis is None else mis.text,
                mis_score=None if mis is None else mis.score,
            )
            for final_rank, ((doc, qdr), mis) in enumerate(zip(ranked, found), start=1)
        ),
    )
