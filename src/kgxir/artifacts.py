"""On-disk index artifact: vocabulary, documents, their terms and cached
per-document entities, in one versioned JSON file, laid out as
:class:`~kgxir.retrieval.DocumentIndex` holds them, so nothing is reordered
on save or load: ``vocabulary`` is the model's terms and ``documents`` one
object of columns: ``id``, ``title`` and ``text`` (one string per
document), ``terms`` (every row's ascending term ids, each once per count,
as the first id and then the gap to the previous, the d-gaps of Zobel and
Moffat, 2006: terms 3 x 2, 7 and 9 x 3 are ``"3 0 4 2 0 0"``), ``ptr``
(the row starts into ``terms``) and ``entities`` (null, or one list of
entity ids per document). Each integer list is one string of decimals and
single spaces, which a load decodes in C. Counts are run lengths, and
document frequencies, corpus size and TF-IDF weights are derived on load,
as on a build, so only a model that its rows fit is saved; sentences are
split on first use. Versions 1 (float weights and sentence spans), 2
(``[term id, count]`` pairs), 3 (one record per document), 4 (JSON integer
lists), 5 (stored df and corpus size) and 6 (a counts column) are refused,
to be rebuilt by ``kgxir index``.

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
FORMAT_VERSION = 7

_DECIMAL = re.compile(r"0|[1-9][0-9]{0,18}")  # ASCII digits only: no "+", "٣" or "３"
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
            **_gaps(index.doc_ptr, index.doc_terms, index.doc_counts),
            "entities": None if entities is None else list(entities),
        },
    }


def _gaps(ptr: np.ndarray, terms: np.ndarray, counts: np.ndarray) -> dict[str, str]:
    """The ``ptr`` and ``terms`` columns of CSR rows: each row's term ids,
    once per count, as the first one and the gaps to the previous."""
    tokens = np.repeat(terms, counts)
    starts = np.concatenate(([0], np.cumsum(counts)))[ptr]
    gaps = np.diff(tokens, prepend=0)
    firsts = starts[:-1][starts[:-1] < starts[1:]]  # of the rows that hold a term
    gaps[firsts] = tokens[firsts]
    return {"ptr": _spelled(starts.tolist()), "terms": _spelled(gaps.tolist())}


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
    ``terms``, every row's term ids, once per count, gap-coded; ``ptr``, the
    n + 1 row starts into ``terms``, each integer list one string of
    decimals split by single spaces; and ``entities``, null or one list of
    entity ids per document. The rows of
    :class:`~kgxir.retrieval.DocumentIndex` are decoded from ``terms`` by
    :func:`_rows`, and the model is their :func:`~kgxir.text._fit_rows`, as
    in the fitting pass. A missing key, a value of the wrong type (the
    vocabulary must be a list; its terms, ids, titles and texts strings;
    each integer canonical), vocabulary terms out of the strictly ascending
    order :func:`~kgxir.text.fit_embedder` writes, no documents, a column of
    another length, a repeated document id, row starts that do not run from
    0 to the number of tokens without decreasing, a running sum outside the
    vocabulary and a vocabulary term in no row raise
    :class:`DataFormatError` naming ``source``, the JSON path and the index
    of the first bad value; a bad token also names its document.
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
        terms, ptr = columns["terms"], columns["ptr"]
        if not isinstance(terms, str):
            raise DataFormatError(f"{at}.terms: not a list of term ids")
        tokens = _column(terms)
        ptr = _column(ptr if isinstance(ptr, str) else "")
        ends = (ptr[0], ptr[-1]) if len(ptr) == n + 1 else None
        if ends != (0, len(tokens)) or (np.diff(ptr) < 0).any():
            raise DataFormatError(
                f"{at}.ptr: not {n + 1} row starts running from 0 to {len(tokens)} "
                "(the number of tokens) without decreasing"
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
    ptr, term_ids, counts = _rows(columns, tokens, ptr, len(vocabulary), at)
    del tokens  # decoded in place, and freed before the index is built
    model = _fit_rows(vocabulary, term_ids, n)
    if 0 in model.document_frequency:
        i = model.document_frequency.index(0)
        raise DataFormatError(f"{source}: vocabulary[{i}]: {vocabulary[i]!r} is in no document")
    return DocumentIndex(model, documents, ptr, term_ids, counts, entities)


def _rows(
    columns: dict, tokens: np.ndarray, ptr: np.ndarray, dimension: int, at: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR rows of the token rows that ``ptr`` starts, decoded in place:
    a row's running sums are its term ids, and each run of one id is a term
    and its count. Every token must lie in 0..``dimension - 1``, checked
    before any sum so that none can overflow, and so must every running
    sum, checked as its row's total (sums never fall within a row). Only a
    failure is located: the first bad token in file order, by its index and
    its document's id; the term id it names is its running sum."""
    firsts = ptr[:-1][ptr[:-1] < ptr[1:]]  # the starts of the rows that hold a token
    bad = (tokens < 0) | (tokens >= dimension)  # -1 is a token that is not canonical
    # Each row's last running sum; a bad token counts as ``dimension``, so its row fails.
    totals = np.add.reduceat(np.where(bad, dimension, tokens) if bad.any() else tokens, firsts)
    if (totals >= dimension).any():
        row = int(np.searchsorted(ptr, firsts[np.argmax(totals >= dimension)], side="right")) - 1
        total, text = 0, columns["terms"].split(" ")
        for i in range(ptr[row], ptr[row + 1]):
            if tokens[i] < 0:
                token = text[i] if text[i].isprintable() and text[i] else repr(text[i])
                problem = f"token {token} is not a canonical decimal below 2**63"
            elif (total := total + int(tokens[i])) >= dimension:
                problem = f"term id {total} is outside the vocabulary (0..{dimension - 1})"
            else:
                continue
            raise DataFormatError(f"{at}.terms[{i}] (document {columns['id'][row]!r}): {problem}")
    tokens[firsts[1:]] -= totals[:-1]  # so the sums restart at each row
    terms = np.cumsum(tokens, out=tokens)
    run_start = np.ones(len(terms), dtype=bool)
    np.not_equal(terms[1:], terms[:-1], out=run_start[1:])
    run_start[firsts] = True
    runs = np.flatnonzero(run_start)
    return np.searchsorted(runs, ptr), terms[runs], np.diff(runs, append=len(terms))


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
    values = [int(t) if _DECIMAL.fullmatch(t) else -1 for t in (text.split(" ") if text else [])]
    return np.array([v if v < 2**63 else -1 for v in values], np.int64)


def _parse_index(fh: IO[str], source: str) -> DocumentIndex:
    # Bytes that are not UTF-8 are named by ``read``; the text is not held
    # while the index is built.
    return index_from_payload(decode_json(fh.read(), source), source=source)


def load_index(path: str | Path) -> DocumentIndex:
    return read(path, _parse_index)
