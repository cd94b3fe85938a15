"""Document index, exact top-k retrieval, and most-important-sentence
selection.

The index holds each document's term counts as one sparse row (CSR arrays),
and the TF-IDF weights and postings derived from them. Retrieval accumulates
scores term-at-a-time over the postings of the query's terms, the layout of
Lucene/Anserini, then rescores every document that could reach the top k as
the dot product of its dense vector with the query's. MIS does the same over
the sentence rows of all of a query's candidates at once, each document's
built on its first MIS and kept. A text is split into sentences only when
first asked for. This module tokenizes nothing: every term count, of a
document, a sentence or a query, comes from :func:`~kgxir.text._count_rows`
and every weight from :func:`~kgxir.text._unit_weights`, so every score is
exactly the brute-force cosine over dense vectors: no approximate index,
oracle-checkable and fully deterministic. An index reads its corpus once.
Ties are always broken the same way: ascending document id for retrieval,
lowest sentence index for MIS.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError, UsageError, decode_json, read
from .linking import ENTITY, Gazetteer, _link_words, distinct_ids
from .text import EmbedderModel, SentenceSpan, _count_rows, _unit_weights, embed, split_sentences

log = logging.getLogger(__name__)

# Candidates for rescoring are those whose accumulated score lies within
# MARGIN of the k-th (or best) one. The accumulated and the exact score
# multiply the same weights and differ only in summation order (and, with
# fused multiply-adds, in product rounding). Rows are unit-norm with
# nonnegative weights, so a score sums m nonnegative products to at most 1,
# and the two differ by at most about (2m + 2) * 2**-53. MARGIN covers twice
# that for m up to a million terms, so no document or sentence that can
# reach the exact top is left out.
MARGIN = 1e-9


class Document(NamedTuple):
    id: str
    text: str
    title: str = ""

    @property
    def embedding_text(self) -> str:
        """Text fed to the embedder: title (when present) prepended to body."""
        return self.title + " " + self.text if self.title else self.text


def parse_corpus(lines: Iterable[str], source: str = "<corpus>") -> list[Document]:
    """One JSON object per line with string fields ``id`` (unique),
    ``text`` and optional ``title``; at least one document."""
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        record = decode_json(line, f"{source}:{lineno}")
        if not isinstance(record, dict) or "id" not in record or "text" not in record:
            raise DataFormatError(f"{source}:{lineno}: record needs 'id' and 'text' fields")
        doc = Document(id=record["id"], text=record["text"], title=record.get("title", ""))
        for name in ("id", "title", "text"):
            value = getattr(doc, name)
            if not isinstance(value, str):
                raise DataFormatError(f"{source}:{lineno}: {name}: {value!r} is not a string")
        if doc.id in seen:
            raise DataFormatError(f"{source}:{lineno}: id: duplicate document id {doc.id!r}")
        seen.add(doc.id)
        docs.append(doc)
    if not docs:
        raise DataFormatError(f"{source}: no documents")
    return docs


def load_corpus(path: str | Path) -> list[Document]:
    return read(path, parse_corpus)


class ScoredDoc(NamedTuple):
    doc_id: str
    score: float
    rank: int


class MisResult(NamedTuple):
    """The document sentence most similar to the query."""

    index: int
    text: str
    score: float


class _Sentences(dict[str, list[SentenceSpan]]):
    """Document id -> :func:`~kgxir.text.split_sentences` of its text, split
    on its first subscript and kept. Two threads that race on one document
    store equal lists, so no lock is needed."""

    def __init__(self, documents: dict[str, Document]) -> None:
        self._documents = documents

    def __missing__(self, doc_id: str) -> list[SentenceSpan]:
        spans = self[doc_id] = split_sentences(self._documents[doc_id].text)
        return spans


@dataclass(eq=False)
class DocumentIndex:
    """Documents in insertion order, the term counts of their
    ``embedding_text`` as the CSR rows :func:`~kgxir.text._count_rows`
    gives, and (optionally) the entity cache, ``entities``: the KG entity ids
    found in each document, one list per row. All else is derived on
    construction, alike for a built and a loaded index, and never changes,
    apart from what is made on first use: a text's sentences, the sparse
    sentence rows that :func:`select_mis` counts on a document's first MIS,
    and, in one slot, the cache as the codes of the last KG that re-ranked
    with it, kept while ``entities`` is the same object: assign a new list,
    never mutate it in place. An ``entities`` of another length than
    ``documents`` raises ``ValueError``.

    Row ``r`` is the ``r``-th document of ``documents``: its term ids,
    ascending, are ``doc_terms[doc_ptr[r]:doc_ptr[r + 1]]``. The same slice
    of ``doc_counts`` holds their counts, and of ``doc_weights`` exactly the
    nonzeros of :func:`~kgxir.text.embed`. ``sentences[doc_id]`` is the
    text's :func:`~kgxir.text.split_sentences`, split on first subscript
    (``.get``, ``in`` and iteration see only the texts already split); the
    postings are ``post_ptr`` by term, ``post_rows`` and ``post_weights``.
    Two indexes are equal only when they are one object.
    """

    model: EmbedderModel
    documents: dict[str, Document]
    doc_ptr: np.ndarray
    doc_terms: np.ndarray
    doc_counts: np.ndarray
    entities: list[list[str]] | None = None
    doc_weights: np.ndarray = field(init=False, repr=False)
    sentences: dict[str, list[SentenceSpan]] = field(init=False, repr=False)
    post_ptr: np.ndarray = field(init=False, repr=False)
    post_rows: np.ndarray = field(init=False, repr=False)
    post_weights: np.ndarray = field(init=False, repr=False)
    _ids: list[str] = field(init=False, repr=False)
    _row: dict[str, int] = field(init=False, repr=False)
    _id_rank: np.ndarray = field(init=False, repr=False)  # each row's rank by document id
    # Made on first use in one assignment each: racing threads store equal tuples, so no lock.
    _sentence_rows: dict[str, tuple[np.ndarray, ...]] = field(
        init=False, repr=False, default_factory=dict
    )
    _kg_codes: tuple = field(init=False, repr=False, default=(None,) * 4)

    def __post_init__(self) -> None:
        if self.entities is not None and (n := len(self.entities)) != len(self.documents):
            raise ValueError(f"{n} entity lists for {len(self.documents)} documents")
        rows = np.repeat(np.arange(len(self.documents)), np.diff(self.doc_ptr))
        self.doc_weights = _unit_weights(rows, self.doc_terms, self.doc_counts, self.model)
        self.sentences = _Sentences(self.documents)
        # Stable, so one order; NumPy radix-sorts keys of 16 bits or fewer.
        keys = self.doc_terms.astype(np.min_scalar_type(self.model.dimension - 1))
        order = np.argsort(keys, kind="stable")
        counts = np.bincount(self.doc_terms, minlength=self.model.dimension)
        self.post_ptr = np.concatenate(([0], np.cumsum(counts)))
        self.post_rows = rows[order]
        self.post_weights = self.doc_weights[order]
        self._ids = list(self.documents)
        self._row = dict(zip(self._ids, range(len(self._ids))))
        self._id_rank = np.argsort(np.fromiter(map(self._row.__getitem__, sorted(self._ids)), int))


def build_index(
    corpus: Sequence[Document],
    model: EmbedderModel | None = None,
    gazetteer: Gazetteer | None = None,
) -> DocumentIndex:
    """Read every document once: one :func:`~kgxir.text._count_rows` pass
    counts its terms, fits the model when none is given (bit for bit the
    :func:`~kgxir.text.fit_embedder` of every ``embedding_text``) and, with
    a gazetteer, links its text, so re-ranking never re-links documents per
    query. Duplicate document ids are an error; documents that embed to the
    zero vector (nothing in vocabulary) are kept as empty rows but logged.
    """
    documents: dict[str, Document] = {}
    for doc in corpus:
        if doc.id in documents:
            raise ValueError(f"duplicate document id: {doc.id!r}")
        documents[doc.id] = doc
    linked: list[list[str]] = []

    def visit(words: list[str]) -> None:
        linked.append(distinct_ids(_link_words(words, gazetteer), ENTITY))

    texts, titles = [d.text for d in corpus], [d.title for d in corpus]
    doc_ptr, _, doc_terms, doc_counts, model = _count_rows(
        texts, model, titles, visit if gazetteer is not None else None
    )
    for row in np.flatnonzero(np.diff(doc_ptr) == 0).tolist():
        log.warning("document %r has no in-vocabulary terms; stored as zero vector", corpus[row].id)
    entities = linked if gazetteer is not None else None
    return DocumentIndex(model, documents, doc_ptr, doc_terms, doc_counts, entities)


def _query_vector(index: DocumentIndex, query: str | np.ndarray) -> np.ndarray:
    return query if isinstance(query, np.ndarray) else embed(query, index.model)


def retrieve(index: DocumentIndex, query: str | np.ndarray, k: int) -> list[ScoredDoc]:
    """Exact top-k by cosine against every document vector.

    Ties break by ascending document id; fewer than ``k`` results when the
    corpus is smaller. ``query`` may be a raw string or a vector that
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
        row = candidates[j]
        scores[j] = _exact(index.doc_ptr, index.doc_terms, index.doc_weights, row, query_vec)
    order = np.lexsort((index._id_rank[candidates], -scores))[:k]
    return [
        ScoredDoc(doc_id=index._ids[candidates[j]], score=float(scores[j]), rank=position)
        for position, j in enumerate(order, start=1)
    ]


def _exact(
    ptr: np.ndarray, terms: np.ndarray, weights: np.ndarray, row: int, query_vec: np.ndarray
) -> float:
    """Cosine of sparse row ``row`` with ``query_vec``: the row scattered
    into the dense vector :func:`~kgxir.text.embed` gives for its text, then
    ``np.dot``, so the score is the brute-force one bit for bit."""
    start, end = ptr[row], ptr[row + 1]
    vector = np.zeros(len(query_vec))
    vector[terms[start:end]] = weights[start:end]
    return float(np.dot(vector, query_vec))


def select_mis(index: DocumentIndex, doc_id: str, query: str | np.ndarray) -> MisResult:
    """Most important sentence: the one maximizing cosine with the query,
    ties (including the all-zero case) to the lowest sentence index; the
    one-document case of the pass that scores all of a query's candidates.
    ``query`` is taken as in :func:`retrieve`."""
    if doc_id not in index.documents:
        raise KeyError(f"unknown document id: {doc_id!r}")
    if not index.sentences[doc_id]:
        raise ValueError(f"document {doc_id!r} has no sentences")
    return _select_mis_batch(index, [doc_id], _query_vector(index, query))[0]


def _select_mis_batch(
    index: DocumentIndex, doc_ids: Sequence[str], query_vec: np.ndarray
) -> list[MisResult | None]:
    """The :func:`select_mis` of each of ``doc_ids`` (``None`` for no sentences):
    one ``_count_rows`` call counts every document not yet kept as its kept
    ``(rows, terms, weights)``, rows from 0, and one ``bincount`` scores all
    kept rows, each row's terms in its own order."""
    docs = [(d, ss) for d in doc_ids if (ss := index.sentences[d])]
    new = {d: ss for d, ss in docs if d not in index._sentence_rows}
    if new:
        texts = [s.text_of(index.documents[d].text) for d, ss in new.items() for s in ss]
        ptr, rows, terms, counts, _ = _count_rows(texts, index.model)
        weights = _unit_weights(rows, terms, counts, index.model)
        bounds = np.cumsum([0] + [len(ss) for ss in new.values()]).tolist()
        for doc_id, first, last in zip(new, bounds, bounds[1:]):
            a, b = ptr[first], ptr[last]
            index._sentence_rows[doc_id] = rows[a:b] - first, terms[a:b], weights[a:b]
    if not docs:
        return [None] * len(doc_ids)
    memos = [index._sentence_rows[d] for d, _ in docs]
    sizes = [len(ss) for _, ss in docs]
    starts, owner = np.cumsum(sizes) - sizes, np.repeat(np.arange(len(docs)), sizes)
    rows, terms, weights = (np.concatenate([m[i] for m in memos]) for i in range(3))
    rows += np.repeat(starts, [len(m[0]) for m in memos])  # a new array: no kept one changes
    query_weights = query_vec[terms]
    approx = np.bincount(rows, weights=weights * query_weights, minlength=len(owner))
    touched = np.bincount(rows[query_weights != 0.0], minlength=len(owner)) > 0
    tops = np.maximum.reduceat(approx, starts)[owner]
    ptr = np.searchsorted(rows, np.arange(len(owner) + 1))
    found: dict[str, MisResult] = {}
    # A sentence that shares no term with the query scores exactly 0.0.
    for row in np.flatnonzero(approx >= tops - MARGIN).tolist():
        (doc_id, doc_spans), i = docs[owner[row]], row - starts[owner[row]]
        score = _exact(ptr, terms, weights, row, query_vec) if touched[row] else 0.0
        if doc_id not in found or score > found[doc_id].score:
            text = doc_spans[i].text_of(index.documents[doc_id].text)
            found[doc_id] = MisResult(index=doc_spans[i].index, text=text, score=score)
    return [found.get(doc_id) for doc_id in doc_ids]
