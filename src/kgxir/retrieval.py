"""Document index, exact top-k retrieval, and most-important-sentence
selection.

The index holds each document's TF-IDF vector as one sparse row (CSR
arrays) and the postings derived from those rows. Retrieval accumulates
scores term-at-a-time over the postings of the query's terms, the layout of
Lucene/Anserini, then rescores every document that could reach the top k as
the dot product of its dense vector with the query's. MIS scores a
candidate's sentences over sparse rows built when it is asked for, and
rescores the sentences that could be the best with the same dense product
of embeddings. So every score is exactly the brute-force cosine over dense
vectors: no approximate index, oracle-checkable and fully deterministic.
Ties are always broken the same way: ascending document id for retrieval,
lowest sentence index for MIS.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError, UsageError, read
from .expansion import ExpandedQuery
from .linking import Gazetteer, distinct_entity_ids
from .text import EmbedderModel, SentenceSpan, embed, split_sentences, tokenize

log = logging.getLogger(__name__)

# Candidates for rescoring are those whose accumulated score lies within
# MARGIN of the k-th (or best) one. Rows are unit-norm with nonnegative
# weights, so a score is a sum of m nonnegative products whose total is at
# most 1 (plus rounding). Summed in another order, or with its sentence norm
# taken in another order, it moves by at most about (2m + L + 6) * 2**-53,
# where L counts the sentence's distinct terms. MARGIN covers twice that for
# m and L up to a million terms, so no document or sentence that can reach
# the exact top is left out.
MARGIN = 1e-9


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
    """Documents in insertion order, their TF-IDF vectors as CSR rows,
    sentence spans and (optionally) the KG entities found in each document.
    Immutable after construction.

    Row ``r`` is the ``r``-th document of ``documents``: its term ids,
    ascending, are ``doc_terms[doc_ptr[r]:doc_ptr[r + 1]]`` and its weights
    the same slice of ``doc_weights``, exactly the nonzeros that
    :func:`~kgxir.text.embed` produced. The postings (``post_ptr`` by term,
    ``post_rows``, ``post_weights``) are derived from the rows.
    """

    model: EmbedderModel
    documents: dict[str, Document]
    doc_ptr: np.ndarray
    doc_terms: np.ndarray
    doc_weights: np.ndarray
    sentences: dict[str, list[SentenceSpan]]
    entities_by_doc: dict[str, list[str]] | None = None
    post_ptr: np.ndarray = field(init=False, repr=False)
    post_rows: np.ndarray = field(init=False, repr=False)
    post_weights: np.ndarray = field(init=False, repr=False)
    _ids: list[str] = field(init=False, repr=False)
    _id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = np.repeat(np.arange(len(self.documents)), np.diff(self.doc_ptr))
        order = np.argsort(self.doc_terms, kind="stable")
        counts = np.bincount(self.doc_terms, minlength=self.model.dimension)
        self.post_ptr = np.concatenate(([0], np.cumsum(counts)))
        self.post_rows = rows[order]
        self.post_weights = self.doc_weights[order]
        self._ids = list(self.documents)
        rank = {doc_id: r for r, doc_id in enumerate(sorted(self._ids))}
        self._id_rank = np.array([rank[doc_id] for doc_id in self._ids], dtype=np.int64)

    def dense_row(self, row: int) -> np.ndarray:
        """Row ``row`` as the dense vector :func:`~kgxir.text.embed` gave."""
        start, end = self.doc_ptr[row], self.doc_ptr[row + 1]
        vector = np.zeros(self.model.dimension, dtype=np.float64)
        vector[self.doc_terms[start:end]] = self.doc_weights[start:end]
        return vector


def build_index(
    corpus: Sequence[Document],
    model: EmbedderModel,
    gazetteer: Gazetteer | None = None,
) -> DocumentIndex:
    """Embed every document once and precompute its sentence spans.

    With a gazetteer, the entities mentioned in each document are extracted
    here and cached so re-ranking never re-links documents per query.
    Duplicate document ids are an error; documents that embed to the zero
    vector (nothing in vocabulary) are kept as empty rows but logged.
    """
    documents: dict[str, Document] = {}
    terms: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    sentences: dict[str, list[SentenceSpan]] = {}
    entities: dict[str, list[str]] | None = {} if gazetteer is not None else None
    for doc in corpus:
        if doc.id in documents:
            raise ValueError(f"duplicate document id: {doc.id!r}")
        vector = embed(doc.embedding_text, model)
        nonzero = np.flatnonzero(vector != 0.0)  # 5x faster on bools than on floats
        if not nonzero.size:
            log.warning("document %r has no in-vocabulary terms; stored as zero vector", doc.id)
        documents[doc.id] = doc
        terms.append(nonzero)
        weights.append(vector[nonzero])
        sentences[doc.id] = split_sentences(doc.text)
        if entities is not None and gazetteer is not None:
            entities[doc.id] = distinct_entity_ids(doc.text, gazetteer)
    lengths = [len(row) for row in terms]
    return DocumentIndex(
        model=model,
        documents=documents,
        doc_ptr=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        doc_terms=np.concatenate([np.zeros(0, dtype=np.int64), *terms]),
        doc_weights=np.concatenate([np.zeros(0, dtype=np.float64), *weights]),
        sentences=sentences,
        entities_by_doc=entities,
    )


def _query_vector(index: DocumentIndex, query: str | ExpandedQuery | np.ndarray) -> np.ndarray:
    if isinstance(query, np.ndarray):
        return query
    if isinstance(query, ExpandedQuery):
        query = query.text
    return embed(query, index.model)


def retrieve(
    index: DocumentIndex, query: str | ExpandedQuery | np.ndarray, k: int
) -> list[ScoredDoc]:
    """Exact top-k by cosine against every document vector.

    Ties break by ascending document id; fewer than ``k`` results when the
    corpus is smaller. ``query`` may be a raw string, an
    :class:`ExpandedQuery` (its expanded text is used) or a vector that
    :func:`~kgxir.text.embed` made with the index's model.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k} (--k)")
    query_vec = _query_vector(index, query)
    n = len(index._ids)
    # Every posting of the query's terms, term by term.
    terms = np.flatnonzero(query_vec)
    starts = index.post_ptr[terms]
    lengths = index.post_ptr[terms + 1] - starts
    postings = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    rows = index.post_rows[postings]
    products = index.post_weights[postings] * np.repeat(query_vec[terms], lengths)
    approx = np.bincount(rows, weights=products, minlength=n)
    touched = np.bincount(rows, minlength=n) > 0
    if k < n:
        kth = np.partition(approx, n - k)[n - k]
        candidates = np.flatnonzero(approx >= kth - MARGIN)
    else:
        candidates = np.arange(n)
    # A document that shares no term with the query scores exactly 0.0.
    scores = np.zeros(len(candidates))
    for j in np.flatnonzero(touched[candidates]):
        scores[j] = np.dot(index.dense_row(candidates[j]), query_vec)
    order = np.lexsort((index._id_rank[candidates], -scores))[:k]
    return [
        ScoredDoc(doc_id=index._ids[candidates[j]], score=float(scores[j]), rank=position)
        for position, j in enumerate(order, start=1)
    ]


def _sentence_scores(
    index: DocumentIndex, doc_text: str, spans: list[SentenceSpan], query_vec: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each sentence's cosine with the query, summed over sparse sentence
    rows (so exact up to rounding), and whether the sentence shares a term
    with the query."""
    term_index = index.model.term_index
    sentence_of: list[int] = []
    term_of: list[int] = []
    count_of: list[int] = []
    for i, span in enumerate(spans):
        counts = Counter(term_index.get(word) for word in tokenize(span.text_of(doc_text)))
        counts.pop(None, None)  # out of vocabulary
        sentence_of += [i] * len(counts)
        term_of += counts
        count_of += counts.values()
    rows, terms = np.array(sentence_of, dtype=np.int64), np.array(term_of, dtype=np.int64)
    raw = np.array(count_of, dtype=np.float64) * index.model.idf[terms]
    norms = np.sqrt(np.bincount(rows, weights=raw * raw, minlength=len(spans)))
    query_weights = query_vec[terms]
    approx = np.bincount(rows, weights=raw / norms[rows] * query_weights, minlength=len(spans))
    touched = np.bincount(rows[query_weights != 0.0], minlength=len(spans)) > 0
    return approx, touched


def select_mis(
    index: DocumentIndex, doc_id: str, query: str | ExpandedQuery | np.ndarray
) -> MisResult:
    """Most important sentence: the one maximizing cosine with the query.

    Sentences are scored over sparse rows built with the index's
    corpus-fitted model; those within ``MARGIN`` of the best are embedded
    and rescored exactly. Ties (including the all-zero case) resolve to the
    lowest sentence index. ``query`` is taken as in :func:`retrieve`.
    """
    if doc_id not in index.documents:
        raise KeyError(f"unknown document id: {doc_id!r}")
    spans = index.sentences[doc_id]
    if not spans:
        raise ValueError(f"document {doc_id!r} has no sentences")
    doc_text = index.documents[doc_id].text
    query_vec = _query_vector(index, query)
    approx, touched = _sentence_scores(index, doc_text, spans, query_vec)
    best_span, best_score = None, 0.0
    # A sentence that shares no term with the query scores exactly 0.0.
    for i in np.flatnonzero(approx >= approx.max() - MARGIN):
        span = spans[i]
        score = 0.0
        if touched[i]:
            score = float(np.dot(embed(span.text_of(doc_text), index.model), query_vec))
        if best_span is None or score > best_score:
            best_span, best_score = span, score
    return MisResult(index=best_span.index, text=best_span.text_of(doc_text), score=best_score)
