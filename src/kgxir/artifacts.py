"""On-disk index artifact: vocabulary, documents, their term counts and
cached per-document entities, in one versioned JSON file, laid out as
:class:`~kgxir.retrieval.DocumentIndex` holds them, so nothing is reordered
on save or load: ``vocabulary`` is the model's terms and ``documents`` one
object of columns: ``id``, ``title`` and ``text`` (one string per
document), ``ptr`` (the row starts), ``terms`` and ``counts`` (every row's
ascending term ids and their counts, flat) and ``entities`` (null, or one
list of entity ids per document). Each integer list is one string of
decimals and single spaces, ``"0 3 6 15"``, which a load decodes in C.
Document frequencies, corpus size and TF-IDF weights are derived on load,
as on a build, so only a model that its rows fit is saved; sentences are
split on first use. Versions 1 (float weights and sentence spans), 2
(``[term id, count]`` pairs), 3 (one record per document), 4 (JSON integer
lists) and 5 (stored df and corpus size) are refused, to be rebuilt by
``kgxir index``.

Serialization is canonical (sorted keys, fixed list orders), so rebuilding
from identical inputs produces identical bytes.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from operator import lt
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DataFormatError, UsageError, decode_json, read
from .retrieval import Document, DocumentIndex
from .text import _fit_rows

FORMAT_NAME = "kgxir-index"
FORMAT_VERSION = 6

_INTEGER = re.compile(r"0|-?[1-9][0-9]*")  # ASCII digits only: no "+", "٣" or "３"
_INT64_MAX = b"9223372036854775807"


def index_to_payload(index: DocumentIndex) -> dict[str, object]:
    model, docs, entities = index.model, index.documents, index.entities
    df = _fit_rows(model.vocabulary, index.doc_terms, len(docs)).document_frequency
    if (df, len(docs)) != (model.document_frequency, model.n_docs) or 0 in df:
        raise UsageError("cannot save an index whose model was not fit on its own documents")
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "vocabulary": list(model.vocabulary),
        "documents": {
            "id": list(docs),
            "title": [doc.title for doc in docs.values()],
            "text": [doc.text for doc in docs.values()],
            "ptr": _spelled(index.doc_ptr.tolist()),
            "terms": _spelled(index.doc_terms.tolist()),
            "counts": _spelled(index.doc_counts.tolist()),
            "entities": None if entities is None else list(entities),
        },
    }


def save_index(index: DocumentIndex, path: str | Path) -> None:
    payload = index_to_payload(index)
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _spelled(values: list[int]) -> str:
    """An integer list as stored, by the C JSON encoder (faster than ``str.join``)."""
    return json.dumps(values, separators=(" ", ":"))[1:-1]


def index_from_payload(payload: dict[str, object], source: str = "<index>") -> DocumentIndex:
    """Rebuild the index from its JSON form, checking it on the way.

    ``vocabulary`` is the model's terms, and ``documents`` holds one column
    per field: ``id``, ``title`` and ``text``, one string each per document;
    ``ptr``, the n + 1 row starts into ``terms`` and ``counts``, the flat
    rows of :class:`~kgxir.retrieval.DocumentIndex`, each integer list one
    string of decimals split by single spaces; and ``entities``, null or one
    list of entity ids per document. The model is the checked rows'
    :func:`~kgxir.text._fit_rows`, as in the fitting pass. A missing key, a
    value of the wrong type (the vocabulary must be a list; its terms, ids,
    titles and texts strings; ``terms`` and ``counts`` of equal length; each
    integer canonical; counts positive), vocabulary terms out of the
    strictly ascending order :func:`~kgxir.text.fit_embedder` writes, no
    documents, a column of another length, a repeated document id, row
    starts that do not run from 0 to the number of term ids without
    decreasing, a term id outside the vocabulary or out of ascending order
    within its row and a vocabulary term in no row raise
    :class:`DataFormatError` naming ``source``, the JSON path and the index
    of the first bad value; a bad term id or count also names its document.
    No value is clamped.
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
        vocabulary, columns = payload["vocabulary"], payload["documents"]
        if not isinstance(vocabulary, list):
            raise DataFormatError(f"{source}: vocabulary: not a list of terms")
        # Checked in C, and only a failure located term by term.
        if not ({str} >= set(map(type, vocabulary)) and all(map(lt, vocabulary, vocabulary[1:]))):
            for i, term in enumerate(vocabulary):
                if not isinstance(term, str):
                    problem = "is not a string"
                elif i and term <= vocabulary[i - 1]:
                    problem = f"follows {vocabulary[i - 1]!r}; terms must be strictly ascending"
                else:
                    continue
                raise DataFormatError(f"{source}: vocabulary[{i}]: {term!r} {problem}")
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
        if not isinstance(terms, str):
            raise DataFormatError(f"{at}.terms: not a list of term ids")
        term_ids = _column(terms)
        if not isinstance(counts, str) or len(values := _column(counts)) != len(term_ids):
            problem = f"not a list of {len(term_ids)} counts, one per term id"
            raise DataFormatError(f"{at}.counts: {problem}")
        ptr = _column(ptr if isinstance(ptr, str) else "")
        ends = (ptr[0], ptr[-1]) if len(ptr) == n + 1 else None
        if ends != (0, len(term_ids)) or (np.diff(ptr) < 0).any():
            raise DataFormatError(
                f"{at}.ptr: not {n + 1} row starts running from 0 to {len(term_ids)} "
                "(the number of term ids) without decreasing"
            )
        entities = columns["entities"]
        if entities is not None:
            if not (isinstance(entities, list) and len(entities) == n):
                raise DataFormatError(f"{at}.entities: not null or {n} lists, one per document")
            lists = {list} >= set(map(type, entities))  # checked in C; a failure located below
            if not (lists and {str} >= set(map(type, chain.from_iterable(entities)))):
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
    _check_rows(columns, term_ids, values, ptr, len(vocabulary), at)
    model = _fit_rows(vocabulary, term_ids, n)
    if 0 in model.document_frequency:
        i = model.document_frequency.index(0)
        raise DataFormatError(f"{source}: vocabulary[{i}]: {vocabulary[i]!r} is in no document")
    return DocumentIndex(model, documents, ptr, term_ids, values, entities)


def _check_rows(
    columns: dict, terms: np.ndarray, counts: np.ndarray, ptr: np.ndarray, dimension: int, at: str
) -> None:
    """Check the rows that ``ptr`` starts all at once: term ids in
    0..``dimension - 1`` and ascending within each row, counts at least 1.
    Only a failure is located: the first bad pair in file order, its term id
    checked before its count, named by its index and its document's id."""
    row_start = np.zeros(len(terms) + 1, dtype=bool)
    row_start[ptr] = True
    previous = np.roll(terms, 1)
    previous[row_start[:-1]] = -1
    bad_term = (terms <= previous) | (terms >= dimension)
    bad = bad_term | (counts < 1)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    doc_id = columns["id"][np.searchsorted(ptr, i, side="right") - 1]
    pair = f"[{i}] (document {doc_id!r})"
    if bad_term[i]:
        term = _value(columns["terms"].split(" ")[i])
        if term is None:
            problem = "is not an integer"
        elif not 0 <= term < dimension:
            problem = f"is outside the vocabulary (0..{dimension - 1})"
        else:
            problem = f"follows term id {previous[i]}; term ids must be strictly ascending"
        raise DataFormatError(f"{at}.terms{pair}: term id {_shown(columns['terms'], i)} {problem}")
    count = _shown(columns["counts"], i)
    problem = f"has count {count}; counts must be positive integers below 2**63"
    raise DataFormatError(f"{at}.counts{pair}: term id {terms[i]} {problem}")


def _column(text: str) -> np.ndarray:
    """The integers of a list string, one per token of ``text.split(" ")``
    (none for ``""``), as int64; a token that is not a canonical decimal in
    0..2**63 - 1 reads as -1. Only bytes that pass the checks are decoded, in
    C: ``np.fromstring`` alone clamps an overflow, and stops (or on NumPy 1
    warns) at a bad token. Tokens are read one by one only on a failure."""
    if text.isascii() and not (raw := text.encode("ascii")).translate(None, b"0123456789 "):
        byte = np.frombuffer(raw, dtype=np.uint8)
        bounds = np.flatnonzero(np.concatenate(([True], byte == ord(" "), [True])))
        starts, lengths = bounds[:-1], np.diff(bounds) - 1
        # Token k is raw[bounds[k] : bounds[k + 1] - 1]. None is empty (a doubled, leading
        # or trailing space), has a leading zero (byte 48) or passes 2**63 - 1.
        if 0 < lengths.min() <= lengths.max() <= 19 and (byte[starts[lengths > 1]] != 48).all():
            if all(raw[s : s + 19] <= _INT64_MAX for s in starts[lengths == 19].tolist()):
                return np.fromstring(text, dtype=np.int64, sep=" ")
    values = map(_value, text.split(" ") if text else [])
    return np.array([v if v is not None and 0 <= v < 2**63 else -1 for v in values], np.int64)


def _value(token: str) -> int | None:
    """A token's value if it is a decimal integer, of any size, without "+",
    a leading zero or "-0". ``int`` reads 21 characters: enough past int64."""
    return int(token[:21]) if _INTEGER.fullmatch(token) else None


def _shown(column: str, i: int) -> str:
    """The ``i``-th token of a list string as errors show it: quoted if empty or unprintable."""
    token = column.split(" ")[i]
    return token if token.isprintable() and token else repr(token)


def _parse_index(fh: IO[str], source: str) -> DocumentIndex:
    # Bytes that are not UTF-8 are named by ``read``; the text is not held
    # while the index is built.
    return index_from_payload(decode_json(fh.read(), source), source=source)


def load_index(path: str | Path) -> DocumentIndex:
    return read(path, _parse_index)
