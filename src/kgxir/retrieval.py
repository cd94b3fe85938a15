"""Document index, brute-force top-k retrieval, and most-important-sentence
selection.

Scoring is exact cosine over every stored vector -- no approximate index --
so results are oracle-checkable and fully deterministic. Ties are always
broken the same way: ascending document id for retrieval, lowest sentence
index for MIS.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError, UsageError, read
from .expansion import ExpandedQuery
from .linking import Gazetteer, distinct_entity_ids
from .text import EmbedderModel, SentenceSpan, embed, split_sentences

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    title: str = ""

    @property
    def embedding_text(self) -> str:
        """Text fed to the embedder: title (when present) prepended to body."""
        if self.title:
            return self.title + " " + self.text
        return self.text


def parse_corpus(lines: Iterable[str], source: str = "<corpus>") -> list[Document]:
    """One JSON object per line with fields ``id``, ``text`` and optional
    ``title``."""
    docs: list[Document] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{source}:{lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict) or "id" not in record or "text" not in record:
            raise DataFormatError(f"{source}:{lineno}: record needs 'id' and 'text' fields")
        docs.append(
            Document(
                id=str(record["id"]),
                text=str(record["text"]),
                title=str(record.get("title", "")),
            )
        )
    return docs


def load_corpus(path: str | Path) -> list[Document]:
    return read(path, parse_corpus)


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class MisResult:
    """The document sentence most similar to the query."""

    index: int
    text: str
    score: float


@dataclass
class DocumentIndex:
    """Per-document vectors, sentence spans, and (optionally) the KG entities
    found in each document. Immutable after construction."""

    model: EmbedderModel
    documents: dict[str, Document]
    vectors: dict[str, np.ndarray]
    sentences: dict[str, list[SentenceSpan]]
    entities_by_doc: dict[str, list[str]] | None = None


def build_index(
    corpus: Sequence[Document],
    model: EmbedderModel,
    gazetteer: Gazetteer | None = None,
) -> DocumentIndex:
    """Embed every document once and precompute its sentence spans.

    With a gazetteer, the entities mentioned in each document are extracted
    here and cached so re-ranking never re-links documents per query.
    Duplicate document ids are an error; documents that embed to the zero
    vector (nothing in vocabulary) are kept but logged.
    """
    documents: dict[str, Document] = {}
    vectors: dict[str, np.ndarray] = {}
    sentences: dict[str, list[SentenceSpan]] = {}
    entities: dict[str, list[str]] | None = {} if gazetteer is not None else None
    for doc in corpus:
        if doc.id in documents:
            raise ValueError(f"duplicate document id: {doc.id!r}")
        vector = embed(doc.embedding_text, model)
        if not vector.any():
            log.warning("document %r has no in-vocabulary terms; stored as zero vector", doc.id)
        documents[doc.id] = doc
        vectors[doc.id] = vector
        sentences[doc.id] = split_sentences(doc.text)
        if entities is not None and gazetteer is not None:
            entities[doc.id] = distinct_entity_ids(doc.text, gazetteer)
    return DocumentIndex(
        model=model,
        documents=documents,
        vectors=vectors,
        sentences=sentences,
        entities_by_doc=entities,
    )


def _query_text(query: str | ExpandedQuery) -> str:
    if isinstance(query, ExpandedQuery):
        return query.text
    return query


def retrieve(index: DocumentIndex, query: str | ExpandedQuery, k: int) -> list[ScoredDoc]:
    """Exact top-k by cosine against every document vector.

    Ties break by ascending document id; fewer than ``k`` results when the
    corpus is smaller. ``query`` may be a raw string or an
    :class:`ExpandedQuery` (its expanded text is used).
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k} (--k)")
    query_vec = embed(_query_text(query), index.model)
    scored = [
        (float(np.dot(vector, query_vec)), doc_id)
        for doc_id, vector in index.vectors.items()
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [
        ScoredDoc(doc_id=doc_id, score=score, rank=position)
        for position, (score, doc_id) in enumerate(scored[:k], start=1)
    ]


def select_mis(index: DocumentIndex, doc_id: str, query: str | ExpandedQuery) -> MisResult:
    """Most important sentence: the one maximizing cosine with the query.

    Each sentence is embedded with the index's corpus-fitted model. Ties
    (including the all-zero case) resolve to the lowest sentence index.
    """
    if doc_id not in index.documents:
        raise KeyError(f"unknown document id: {doc_id!r}")
    spans = index.sentences[doc_id]
    if not spans:
        raise ValueError(f"document {doc_id!r} has no sentences")
    doc_text = index.documents[doc_id].text
    query_vec = embed(_query_text(query), index.model)
    best_span = spans[0]
    best_score = float(np.dot(embed(best_span.text_of(doc_text), index.model), query_vec))
    for span in spans[1:]:
        score = float(np.dot(embed(span.text_of(doc_text), index.model), query_vec))
        if score > best_score:
            best_span, best_score = span, score
    return MisResult(index=best_span.index, text=best_span.text_of(doc_text), score=best_score)
