"""On-disk index artifact: embedder model, document vectors, sentence spans,
and cached per-document entities, in one versioned JSON file.

Serialization is canonical (sorted keys, shortest-repr floats, fixed list
orders), so rebuilding from identical inputs produces identical bytes, and
floats survive a save/load round trip bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DataFormatError, read
from .retrieval import Document, DocumentIndex
from .text import EmbedderModel, SentenceSpan

FORMAT_NAME = "kgxir-index"
FORMAT_VERSION = 1


def _sparse(vector: np.ndarray) -> list[list[object]]:
    return [[int(i), float(vector[i])] for i in np.nonzero(vector)[0]]


def index_to_payload(index: DocumentIndex) -> dict[str, object]:
    model = index.model
    documents = []
    for doc_id, doc in index.documents.items():
        entities = None
        if index.entities_by_doc is not None:
            entities = list(index.entities_by_doc[doc_id])
        documents.append(
            {
                "id": doc.id,
                "title": doc.title,
                "text": doc.text,
                "sentences": [[s.start, s.end] for s in index.sentences[doc_id]],
                "vector": _sparse(index.vectors[doc_id]),
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

    A missing key, a value of the wrong type, a term id outside the
    vocabulary, a sentence span outside its text and a repeated document
    id raise :class:`DataFormatError` naming ``source`` and the JSON path.
    """
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise DataFormatError(f"{source}: not a {FORMAT_NAME} artifact")
    if payload.get("version") != FORMAT_VERSION:
        raise DataFormatError(
            f"{source}: unsupported artifact version {payload.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    where = ""  # JSON path of the object being read
    try:
        embedder, records = payload["embedder"], payload["documents"]
        where = "embedder"
        vocabulary, frequencies = list(embedder["vocabulary"]), embedder["document_frequency"]
        if len(frequencies) != len(vocabulary):
            raise DataFormatError(
                f"{source}: embedder.document_frequency: {len(frequencies)} values "
                f"for {len(vocabulary)} terms"
            )
        model = EmbedderModel(
            vocabulary=vocabulary,
            document_frequency=dict(zip(vocabulary, frequencies)),
            n_docs=embedder["n_docs"],
        )
        dimension = model.dimension
        documents: dict[str, Document] = {}
        vectors: dict[str, np.ndarray] = {}
        sentences: dict[str, list[SentenceSpan]] = {}
        entities: dict[str, list[str]] | None = None
        where = "documents"
        for position, record in enumerate(records):
            where = f"documents[{position}]"
            doc = Document(id=record["id"], text=record["text"], title=record.get("title", ""))
            if doc.id in documents:
                raise DataFormatError(f"{source}: {where}.id: duplicate document id {doc.id!r}")
            vector = np.zeros(dimension, dtype=np.float64)
            for term, weight in record["vector"]:
                if not 0 <= term < dimension:
                    raise DataFormatError(
                        f"{source}: {where}.vector: term id {term} is outside the "
                        f"vocabulary (0..{dimension - 1})"
                    )
                vector[term] = weight
            spans = []
            for i, (start, end) in enumerate(record["sentences"]):
                if not 0 <= start <= end <= len(doc.text):
                    raise DataFormatError(
                        f"{source}: {where}.sentences[{i}]: [{start}, {end}] is not an "
                        f"ordered span of the text ({len(doc.text)} chars)"
                    )
                spans.append(SentenceSpan(index=i, start=start, end=end))
            documents[doc.id] = doc
            vectors[doc.id] = vector
            sentences[doc.id] = spans
            if record.get("entities") is not None:
                if entities is None:
                    entities = {}
                entities[doc.id] = list(record["entities"])
    except KeyError as exc:
        key = f"{where}.{exc.args[0]}".lstrip(".")
        raise DataFormatError(f"{source}: {key}: missing") from None
    except DataFormatError:
        raise
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise DataFormatError(f"{source}: {where or 'top level'}: malformed ({exc})") from None
    return DocumentIndex(
        model=model,
        documents=documents,
        vectors=vectors,
        sentences=sentences,
        entities_by_doc=entities,
    )


def _parse_index(fh: IO[str], source: str) -> DocumentIndex:
    try:
        payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{source}: invalid JSON ({exc.msg})") from exc
    return index_from_payload(payload, source=source)


def load_index(path: str | Path) -> DocumentIndex:
    return read(path, _parse_index)
