"""Deterministic text processing: tokens, sentences, TF-IDF vectors.

Everything here is resource-free and reproducible: no stemming, no stopword
lists, no learned components. Vectors are plain ``numpy`` float64 arrays,
L2-normalized at construction (or all-zero when nothing is in vocabulary),
so the dot product of two of them is their cosine similarity.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# Maximal runs of Unicode alphanumerics; underscore is a separator like any
# other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_TERMINATORS = frozenset(".!?")


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric-run tokens, in order of appearance."""
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def tokenize_with_spans(text: str) -> list[tuple[str, int, int]]:
    """Like :func:`tokenize` but each token carries (start, end) character
    offsets into the original text."""
    return [(m.group().lower(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


@dataclass(frozen=True)
class SentenceSpan:
    """One sentence of a document: ordinal plus [start, end) character offsets."""

    index: int
    start: int
    end: int

    def text_of(self, document_text: str) -> str:
        return document_text[self.start : self.end]


def split_sentences(text: str) -> list[SentenceSpan]:
    """Split on '.', '!' or '?' followed by whitespace or end of text.

    The terminator stays with its sentence; spans exclude leading/trailing
    whitespace. Text without any terminator yields a single span; empty or
    whitespace-only text yields none. Abbreviations are split naively.
    """
    spans: list[SentenceSpan] = []
    n = len(text)

    def emit(raw_start: int, raw_end: int) -> None:
        start, end = raw_start, raw_end
        while start < end and text[start].isspace():
            start += 1
        while end > start and text[end - 1].isspace():
            end -= 1
        if start < end:
            spans.append(SentenceSpan(index=len(spans), start=start, end=end))

    seg_start = 0
    for i, ch in enumerate(text):
        if ch in _TERMINATORS and (i + 1 == n or text[i + 1].isspace()):
            emit(seg_start, i + 1)
            seg_start = i + 1
    emit(seg_start, n)
    return spans


@dataclass
class EmbedderModel:
    """Fitted TF-IDF vocabulary: sorted terms, document frequencies, corpus size.

    Instances are immutable by convention once built and safe to share
    between threads.
    """

    vocabulary: list[str]
    document_frequency: dict[str, int]
    n_docs: int
    term_index: dict[str, int] = field(init=False, repr=False)
    idf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.term_index = {term: i for i, term in enumerate(self.vocabulary)}
        df = np.array([self.document_frequency[t] for t in self.vocabulary], dtype=np.float64)
        self.idf = np.log((1.0 + self.n_docs) / (1.0 + df)) + 1.0

    @property
    def dimension(self) -> int:
        return len(self.vocabulary)


def fit_embedder(texts: Iterable[str]) -> EmbedderModel:
    """Fit a TF-IDF model over a corpus of raw texts.

    Vocabulary is the sorted set of all tokens; df counts the documents
    containing each term. Raises ``ValueError`` on an empty corpus, which
    would yield an unusable model.
    """
    texts = list(texts)
    if not texts:
        raise ValueError("cannot fit embedder on an empty corpus")
    df: Counter[str] = Counter()
    for text in texts:
        df.update(set(tokenize(text)))
    vocabulary = sorted(df)
    return EmbedderModel(
        vocabulary=vocabulary,
        document_frequency={t: df[t] for t in vocabulary},
        n_docs=len(texts),
    )


def embed(text: str, model: EmbedderModel) -> np.ndarray:
    """TF-IDF vector for ``text``: tf(t) * idf(t) per vocabulary position,
    L2-normalized. Out-of-vocabulary tokens are ignored; a text with no
    in-vocabulary tokens embeds to the all-zero vector.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, smoothed so it is always > 0.
    """
    vec = np.zeros(model.dimension, dtype=np.float64)
    for term, count in Counter(tokenize(text)).items():
        pos = model.term_index.get(term)
        if pos is not None:
            vec[pos] = count * model.idf[pos]
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec

