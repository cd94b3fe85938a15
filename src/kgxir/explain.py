"""End-to-end explained retrieval: expansion, ranking, re-ranking, and the
most important sentence per result, captured in one auditable record.

:func:`explain_query` is the one query path. ``kgxir query`` calls it, the
sentence-retrieval runner reads its top result, and the re-ranking runner
shares its ranking step (mentions -> optional expansion -> retrieval ->
optional QDR re-ranking), so the experiments measure what a query serves.
Mentions come from :func:`kgxir.linking.query_mentions` and the gazetteer
from the KG itself, which builds it once. Re-ranking reads the index's
per-document entity cache and refuses an index built without one.

The record carries every number needed to recompute the ranking by hand:
embedding score and rank, the QDR value with its per-query-entity
breakdown, and the MIS with its similarity. It serializes to JSON and
parses back losslessly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import UsageError
from .expansion import ExpandedQuery, ExpansionCase, expand
from .kg import KnowledgeGraph
from .linking import ENTITY, RELATION, GoldAnnotations, distinct_ids, query_mentions
from .rerank import QdrScore, RerankedDoc, rerank
from .retrieval import DocumentIndex, ScoredDoc, retrieve, select_mis
from .text import embed

@dataclass(frozen=True)
class DocExplanation:
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


@dataclass(frozen=True)
class ExplanationRecord:
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
        return json.dumps(asdict(self), sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "ExplanationRecord":
        payload = json.loads(text)
        payload["results"] = [_from_payload(DocExplanation, r) for r in payload["results"]]
        return _from_payload(cls, payload)

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


def _from_payload(cls, payload: dict):
    """Build ``cls`` from its JSON form: JSON arrays become the tuples the
    records hold."""

    def frozen(value):
        return tuple(frozen(v) for v in value) if isinstance(value, list) else value

    return cls(**{f.name: frozen(payload[f.name]) for f in fields(cls)})


def _rank(
    index: DocumentIndex,
    query_id: str,
    query_text: str,
    k: int,
    kg: KnowledgeGraph | None,
    linker: str,
    gold_links: GoldAnnotations | None,
    expansion_on: bool,
    relatedness: str,
) -> tuple[ExpandedQuery, np.ndarray, list[ScoredDoc], list[RerankedDoc] | None]:
    """The ranking step shared by every caller: resolve mentions, expand
    (when on), embed the query once, retrieve the top ``k``, re-rank by QDR
    (when on).

    Returns the query as ranked (without appended terms when expansion is
    off), its vector, the candidates in embedding order, and the re-ranked
    candidates or ``None`` when relatedness is off.
    """
    mentions = query_mentions(query_id, query_text, linker, kg, gold_links)
    if expansion_on:
        query = expand(query_text, mentions, kg)
    else:
        query = ExpandedQuery(
            original=query_text,
            appended_terms=(),
            case=ExpansionCase.NONE,
            entity_ids=tuple(distinct_ids(mentions, ENTITY)),
            relation_ids=tuple(distinct_ids(mentions, RELATION)),
        )
    query_vec = embed(query.text, index.model)
    candidates = retrieve(index, query_vec, k)
    if relatedness == "off":
        return query, query_vec, candidates, None
    if index.entities_by_doc is None:
        raise UsageError(
            "re-ranking needs the index's per-document entity cache; build the index "
            "with a gazetteer (kgxir index --kg-entities/--kg-relations/--kg-edges)"
        )
    reranked = rerank(candidates, query.entity_ids, kg, index.entities_by_doc)
    return query, query_vec, candidates, reranked


def _explain_doc(
    index: DocumentIndex,
    query_vec: np.ndarray,
    doc_id: str,
    final_rank: int,
    embedding_score: float,
    embedding_rank: int,
    qdr: QdrScore | None,
) -> DocExplanation:
    mis = select_mis(index, doc_id, query_vec) if index.sentences[doc_id] else None
    return DocExplanation(
        doc_id=doc_id,
        final_rank=final_rank,
        embedding_score=embedding_score,
        embedding_rank=embedding_rank,
        qdr_value=None if qdr is None else qdr.value,
        qdr_breakdown=None if qdr is None else qdr.breakdown,
        mis_index=None if mis is None else mis.index,
        mis_text=None if mis is None else mis.text,
        mis_score=None if mis is None else mis.score,
    )


def explain_query(
    index: DocumentIndex,
    query_text: str,
    *,
    query_id: str = "q",
    k: int = 10,
    kg: KnowledgeGraph | None = None,
    linker: str = "off",
    gold_links: GoldAnnotations | None = None,
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
    query, query_vec, candidates, reranked = _rank(
        index, query_id, query_text, k, kg, linker, gold_links, expansion_on, relatedness
    )
    if reranked is None:
        results = [
            _explain_doc(index, query_vec, c.doc_id, c.rank, c.score, c.rank, None)
            for c in candidates
        ]
    else:
        results = [
            _explain_doc(
                index, query_vec, r.doc_id, r.rank, r.embedding_score, r.embedding_rank,
                r.relatedness,
            )
            for r in reranked
        ]
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
        results=tuple(results),
    )
