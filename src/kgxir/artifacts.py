"""On-disk index artifact: embedder model, documents, their term counts and
cached per-document entities, in one versioned JSON file. A document's
vector is stored as its sparse row: two flat integer lists, ``terms``
(ascending term ids) and ``counts``. TF-IDF weights are derived on load, as
on a build, and sentences are split on first use. Artifacts of versions 1
(float weights and sentence spans) and 2 (``[term id, count]`` pairs) are
rejected, to be rebuilt with ``kgxir index``.

Serialization is canonical (sorted keys, fixed list orders), so rebuilding
from identical inputs produces identical bytes.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DataFormatError, read
from .retrieval import Document, DocumentIndex, _checked_document
from .text import EmbedderModel

FORMAT_NAME = "kgxir-index"
FORMAT_VERSION = 3


def index_to_payload(index: DocumentIndex) -> dict[str, object]:
    model = index.model
    documents = []
    terms, counts = index.doc_terms.tolist(), index.doc_counts.tolist()
    bounds = index.doc_ptr.tolist()
    for row, (doc_id, doc) in enumerate(index.documents.items()):
        start, end = bounds[row], bounds[row + 1]
        entities = None
        if index.entities_by_doc is not None:
            entities = list(index.entities_by_doc[doc_id])
        documents.append(
            {
                "id": doc.id,
                "title": doc.title,
                "text": doc.text,
                "terms": terms[start:end],
                "counts": counts[start:end],
                "entities": entities,
            }
        )
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "embedder": {
            "n_docs": model.n_docs,
            "vocabulary": list(model.vocabulary),
            "document_frequency": [model.document_frequency[t] for t in model.vocabulary],
        },
        "documents": documents,
    }


def save_index(index: DocumentIndex, path: str | Path) -> None:
    payload = index_to_payload(index)
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def index_from_payload(payload: dict[str, object], source: str = "<index>") -> DocumentIndex:
    """Rebuild the index from its JSON form, checking it on the way.

    A missing key, a value of the wrong type (the vocabulary must be a list;
    its terms, ids, titles and texts strings; a document's ``terms`` and
    ``counts`` lists of equal length; term ids integers; counts positive
    integers below 2**63; entities a list of ids or null), vocabulary terms
    out of the strictly ascending order :func:`~kgxir.text.fit_embedder`
    writes, a corpus size below 1 or a document frequency outside
    1..``n_docs``, entities that are a list in some documents and null in
    others, a term id outside the vocabulary or out of ascending order and a
    repeated document id raise :class:`DataFormatError` naming ``source``
    and the JSON path. The documents' own fields are checked one document at
    a time; their term ids and counts, all together after them.
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
        embedder, records = payload["embedder"], payload["documents"]
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
        if not (type(n_docs) is int and n_docs >= 1):
            raise DataFormatError(f"{source}: embedder.n_docs: {n_docs!r} is not an integer >= 1")
        for i, df in enumerate(frequencies):
            if not (type(df) is int and 1 <= df <= n_docs):
                problem = f"{df!r} is not an integer in 1..{n_docs} (n_docs)"
                raise DataFormatError(f"{source}: embedder.document_frequency[{i}]: {problem}")
        model = EmbedderModel(
            vocabulary=vocabulary,
            document_frequency=dict(zip(vocabulary, frequencies)),
            n_docs=n_docs,
        )
        dimension = model.dimension
        documents: dict[str, Document] = {}
        doc_ptr, terms, counts = [0], [], []
        entities: dict[str, list[str]] | None = None
        where = "documents"
        for position, record in enumerate(records):
            where = f"documents[{position}]"
            doc = _checked_document(record, documents, f"{source}: {where}.")
            row_terms, row_counts = record["terms"], record["counts"]
            if not isinstance(row_terms, list):
                raise DataFormatError(f"{source}: {where}.terms: not a list of term ids")
            if not (isinstance(row_counts, list) and len(row_counts) == len(row_terms)):
                raise DataFormatError(
                    f"{source}: {where}.counts: not a list of {len(row_terms)} counts, "
                    "one per term id"
                )
            terms.extend(row_terms)
            counts.extend(row_counts)
            doc_ptr.append(len(terms))
            documents[doc.id] = doc
            found = record.get("entities")
            if found is not None and not (
                isinstance(found, list) and all(isinstance(e, str) for e in found)
            ):
                raise DataFormatError(f"{source}: {where}.entities: not a list of entity ids")
            if position == 0:
                entities = None if found is None else {}
            if (found is None) != (entities is None):
                shape = "null" if found is None else "a list"
                raise DataFormatError(
                    f"{source}: {where}.entities: {shape} where documents[0].entities is not; "
                    "the entity cache must cover every document or none"
                )
            if entities is not None:
                entities[doc.id] = found
    except KeyError as exc:
        key = f"{where}.{exc.args[0]}".lstrip(".")
        raise DataFormatError(f"{source}: {key}: missing") from None
    except DataFormatError:
        raise
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise DataFormatError(f"{source}: {where or 'top level'}: malformed ({exc})") from None
    ptr = np.array(doc_ptr, dtype=np.int64)
    doc_terms, doc_counts = _checked_rows(terms, counts, ptr, dimension, source)
    return DocumentIndex(
        model=model,
        documents=documents,
        doc_ptr=ptr,
        doc_terms=doc_terms,
        doc_counts=doc_counts,
        entities_by_doc=entities,
    )


def _checked_rows(
    terms: list, counts: list, doc_ptr: np.ndarray, dimension: int, source: str
) -> tuple[np.ndarray, np.ndarray]:
    """Every document's term ids and counts, concatenated, as int64 arrays,
    checked all at once: each value an ``int`` (not a ``bool``) that fits
    int64, term ids in 0..``dimension - 1`` and strictly ascending within
    each row, counts at least 1. Only when a check fails is the bad pair
    located: the first in file order, its term id checked before its count."""
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
    where = f"{source}: documents[{np.searchsorted(doc_ptr, i, side='right') - 1}]"
    if bad_term[i]:
        raise _term_error(f"{where}.terms", terms[i], int(previous[i]), dimension)
    problem = f"has count {counts[i]!r}; counts must be positive integers below 2**63"
    raise DataFormatError(f"{where}.counts: term id {terms[i]} {problem}")


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
    try:
        payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{source}: invalid JSON ({exc.msg})") from exc
    return index_from_payload(payload, source=source)


def load_index(path: str | Path) -> DocumentIndex:
    return read(path, _parse_index)
