"""On-disk index artifact: embedder model, documents, their term counts and
cached per-document entities, in one versioned JSON file, laid out as
:class:`~kgxir.retrieval.DocumentIndex` holds them, so nothing is reordered
on save or load: ``embedder.document_frequency`` is one df per vocabulary
term, and ``documents`` one object of columns: ``id``, ``title`` and
``text`` (one string per document),
``ptr`` (the row starts), ``terms`` and ``counts`` (every row's ascending
term ids and their counts, as two flat integer lists) and ``entities``
(null, or one list of entity ids per document). TF-IDF weights are derived
on load, as on a build, and sentences are split on first use. Artifacts of
versions 1 (float weights and sentence spans), 2 (``[term id, count]``
pairs) and 3 (one record per document) are rejected, to be rebuilt with
``kgxir index``.

Serialization is canonical (sorted keys, fixed list orders), so rebuilding
from identical inputs produces identical bytes.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DataFormatError, decode_json, read
from .retrieval import Document, DocumentIndex
from .text import EmbedderModel

FORMAT_NAME = "kgxir-index"
FORMAT_VERSION = 4


def index_to_payload(index: DocumentIndex) -> dict[str, object]:
    model, docs, entities = index.model, index.documents, index.entities
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "embedder": {
            "n_docs": model.n_docs,
            "vocabulary": list(model.vocabulary),
            "document_frequency": list(model.document_frequency),
        },
        "documents": {
            "id": list(docs),
            "title": [doc.title for doc in docs.values()],
            "text": [doc.text for doc in docs.values()],
            "ptr": index.doc_ptr.tolist(),
            "terms": index.doc_terms.tolist(),
            "counts": index.doc_counts.tolist(),
            "entities": None if entities is None else list(entities),
        },
    }


def save_index(index: DocumentIndex, path: str | Path) -> None:
    payload = index_to_payload(index)
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def index_from_payload(payload: dict[str, object], source: str = "<index>") -> DocumentIndex:
    """Rebuild the index from its JSON form, checking it on the way.

    ``documents`` holds one column per field: ``id``, ``title`` and
    ``text``, one string each per document; ``ptr``, the n + 1 row starts
    into ``terms`` and ``counts``, the flat rows of
    :class:`~kgxir.retrieval.DocumentIndex`; and ``entities``, null or one
    list of entity ids per document. A missing key, a value of the wrong
    type (the vocabulary must be a list; its terms, ids, titles and texts
    strings; ``terms`` and ``counts`` lists of equal length; term ids
    integers; counts positive integers below 2**63), vocabulary terms out of
    the strictly ascending order :func:`~kgxir.text.fit_embedder` writes, a
    corpus size outside 1..2**63 - 1, a document frequency outside
    1..``n_docs``, no documents, a column of another length, a repeated
    document id, row starts that do not run from 0 to ``len(terms)`` without
    decreasing and a term id outside the vocabulary or out of ascending
    order within its row raise :class:`DataFormatError` naming ``source``
    and the JSON path; a bad term id or count also names its document.
    """
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise DataFormatError(f"{source}: not a {FORMAT_NAME} artifact")
    if payload.get("version") != FORMAT_VERSION:
        raise DataFormatError(
            f"{source}: unsupported artifact version {payload.get('version')!r} "
            f"(expected {FORMAT_VERSION}); rebuild it with `kgxir index`"
        )
    where = ""  # JSON path of the object being read
    try:
        embedder, columns = payload["embedder"], payload["documents"]
        where = "embedder"
        vocabulary, frequencies = embedder["vocabulary"], embedder["document_frequency"]
        if not isinstance(vocabulary, list):
            raise DataFormatError(f"{source}: embedder.vocabulary: not a list of terms")
        for i, term in enumerate(vocabulary):
            if not isinstance(term, str):
                problem = "is not a string"
            elif i and term <= vocabulary[i - 1]:
                problem = f"follows {vocabulary[i - 1]!r}; terms must be strictly ascending"
            else:
                continue
            raise DataFormatError(f"{source}: embedder.vocabulary[{i}]: {term!r} {problem}")
        if len(frequencies) != len(vocabulary):
            raise DataFormatError(
                f"{source}: embedder.document_frequency: {len(frequencies)} values "
                f"for {len(vocabulary)} terms"
            )
        n_docs = embedder["n_docs"]
        if not (type(n_docs) is int and 1 <= n_docs < 2**63):
            problem = f"{n_docs!r} is not an integer in 1..2**63 - 1"
            raise DataFormatError(f"{source}: embedder.n_docs: {problem}")
        for i, df in enumerate(frequencies):
            if not (type(df) is int and 1 <= df <= n_docs):
                problem = f"{df!r} is not an integer in 1..{n_docs} (n_docs)"
                raise DataFormatError(f"{source}: embedder.document_frequency[{i}]: {problem}")
        model = EmbedderModel(vocabulary=vocabulary, document_frequency=frequencies, n_docs=n_docs)
        where, at = "documents", f"{source}: documents"
        ids, titles, texts = columns["id"], columns["title"], columns["text"]
        n = len(ids)
        if not n:
            raise DataFormatError(f"{at}: no documents")
        for name, column in (("id", ids), ("title", titles), ("text", texts)):
            if not (isinstance(column, list) and len(column) == n):
                raise DataFormatError(f"{at}.{name}: not a list of {n} strings, one per document")
            for i, value in enumerate(column):
                if not isinstance(value, str):
                    raise DataFormatError(f"{at}.{name}[{i}]: {value!r} is not a string")
        documents = {i: Document(id=i, text=t, title=h) for i, t, h in zip(ids, texts, titles)}
        if len(documents) < n:
            i = next(i for i, doc_id in enumerate(ids) if ids.index(doc_id) < i)
            raise DataFormatError(f"{at}.id[{i}]: duplicate document id {ids[i]!r}")
        terms, counts, ptr = columns["terms"], columns["counts"], columns["ptr"]
        if not isinstance(terms, list):
            raise DataFormatError(f"{at}.terms: not a list of term ids")
        if not (isinstance(counts, list) and len(counts) == len(terms)):
            problem = f"not a list of {len(terms)} counts, one per term id"
            raise DataFormatError(f"{at}.counts: {problem}")
        ptr, bad = _int64(ptr if isinstance(ptr, list) else [])
        ends = (ptr[0], ptr[-1]) if len(ptr) == n + 1 else None
        if bad.any() or ends != (0, len(terms)) or (np.diff(ptr) < 0).any():
            raise DataFormatError(
                f"{at}.ptr: not {n + 1} row starts running from 0 to {len(terms)} "
                "(the number of term ids) without decreasing"
            )
        entities = columns["entities"]
        if entities is not None:
            if not (isinstance(entities, list) and len(entities) == n):
                raise DataFormatError(f"{at}.entities: not null or {n} lists, one per document")
            for i, found in enumerate(entities):
                if not (isinstance(found, list) and all(isinstance(e, str) for e in found)):
                    raise DataFormatError(f"{at}.entities[{i}]: not a list of entity ids")
    except KeyError as exc:
        key = f"{where}.{exc.args[0]}".lstrip(".")
        raise DataFormatError(f"{source}: {key}: missing") from None
    except DataFormatError:
        raise
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise DataFormatError(f"{source}: {where or 'top level'}: malformed ({exc})") from None
    doc_terms, doc_counts = _checked_rows(terms, counts, ptr, ids, model.dimension, source)
    return DocumentIndex(model, documents, ptr, doc_terms, doc_counts, entities)


def _checked_rows(
    terms: list, counts: list, doc_ptr: np.ndarray, ids: list[str], dimension: int, source: str
) -> tuple[np.ndarray, np.ndarray]:
    """The term ids and counts of the rows that ``doc_ptr`` starts, as
    int64 arrays, checked all at once: each value an ``int`` (not a
    ``bool``) that fits int64, term ids in 0..``dimension - 1`` and strictly
    ascending within each row, counts at least 1. Only when a check fails is
    the bad pair located: the first in file order, its term id checked
    before its count, named by its index and by the id of its document."""
    term_ids, bad_type = _int64(terms)
    values, bad_count = _int64(counts)
    row_start = np.zeros(len(term_ids) + 1, dtype=bool)
    row_start[doc_ptr] = True
    previous = np.roll(term_ids, 1)
    previous[row_start[:-1]] = -1
    bad_term = bad_type | (term_ids <= previous) | (term_ids >= dimension)
    bad = bad_term | bad_count | (values < 1)
    if not bad.any():
        return term_ids, values
    i = int(np.argmax(bad))
    doc_id = ids[np.searchsorted(doc_ptr, i, side="right") - 1]
    pair = f"[{i}] (document {doc_id!r})"
    if bad_term[i]:
        raise _term_error(f"{source}: documents.terms{pair}", terms[i], int(previous[i]), dimension)
    problem = f"has count {counts[i]!r}; counts must be positive integers below 2**63"
    raise DataFormatError(f"{source}: documents.counts{pair}: term id {terms[i]} {problem}")


def _int64(values: list) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as an int64 array, and a mask of those that are not an
    ``int`` (a ``bool`` is not one) within int64's range; they read as 0.
    All values are converted in one call unless one of them is bad."""
    if {int}.issuperset(map(type, values)):
        with contextlib.suppress(OverflowError):
            return np.array(values, dtype=np.int64), np.zeros(len(values), dtype=bool)
    bad = [not (type(v) is int and -(2**63) <= v < 2**63) for v in values]
    fitting = [0 if b else v for v, b in zip(values, bad)]
    return np.array(fitting, dtype=np.int64), np.array(bad, dtype=bool)


def _term_error(where: str, term: object, previous: int, dimension: int) -> DataFormatError:
    if type(term) is not int:
        problem = "is not an integer"
    elif not 0 <= term < dimension:
        problem = f"is outside the vocabulary (0..{dimension - 1})"
    else:
        problem = f"follows term id {previous}; term ids must be strictly ascending"
    return DataFormatError(f"{where}: term id {term!r} {problem}")


def _parse_index(fh: IO[str], source: str) -> DocumentIndex:
    # Bytes that are not UTF-8 are named by ``read``; the text is not held
    # while the index is built.
    return index_from_payload(decode_json(fh.read(), source), source=source)


def load_index(path: str | Path) -> DocumentIndex:
    return read(path, _parse_index)
