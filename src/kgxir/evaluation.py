"""Ranking metrics and the two experiment protocols.

Metrics are the standard IR set: accuracy for sentence selection, precision
and recall for retrieved sets, and MAP@k / NDCG@k for ranking quality
(binary relevance for AP, graded 2^g - 1 gains for NDCG). The runners
reproduce the two evaluation protocols on desk-scale fixtures: sentence
retrieval with and without KG expansion, and embedding-order versus
QDR-order ranking on the same candidates. Both runners go through the query
path of :mod:`kgxir.explain` (the sentence runner calls
:func:`~kgxir.explain.explain_query`, the re-ranking runner its ranking
step), so they measure exactly what ``kgxir query`` serves, with the same
linker modes and the same gold-link policy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DataFormatError, UsageError, read, rows
from .explain import _rank, explain_query
from .kg import KnowledgeGraph
from .linking import GoldAnnotations, check_linker
from .retrieval import Document, DocumentIndex, build_index
from .text import fit_embedder


# ---------------------------------------------------------------------------
# Fixture loaders


def parse_queries(lines: Iterable[str], source: str = "<queries>") -> dict[str, str]:
    """``query_id<TAB>query text`` per line, order preserved."""
    queries: dict[str, str] = {}
    for lineno, (query_id, text) in rows(lines, source, 2):
        if query_id in queries:
            raise DataFormatError(f"{source}:{lineno}: duplicate query id {query_id!r}")
        queries[query_id] = text
    return queries


def load_queries(path: str | Path) -> dict[str, str]:
    return read(path, parse_queries)


@dataclass
class Qrels:
    """Graded relevance judgments: query id -> doc id -> grade >= 0."""

    grades: dict[str, dict[str, int]]

    def grades_for(self, query_id: str) -> dict[str, int]:
        return self.grades.get(query_id, {})

    def relevant_docs(self, query_id: str) -> set[str]:
        return {doc for doc, grade in self.grades_for(query_id).items() if grade >= 1}


def parse_qrels(lines: Iterable[str], source: str = "<qrels>") -> Qrels:
    """TREC format: whitespace-separated ``query_id 0 doc_id grade``."""
    grades: dict[str, dict[str, int]] = {}
    for lineno, (query_id, _, doc_id, grade_text) in rows(lines, source, 4, sep=None):
        try:
            grade = int(grade_text)
        except ValueError:
            raise DataFormatError(f"{source}:{lineno}: grade {grade_text!r} is not an integer") from None
        if grade < 0:
            raise DataFormatError(f"{source}:{lineno}: negative relevance grade {grade}")
        per_query = grades.setdefault(query_id, {})
        if doc_id in per_query:
            raise DataFormatError(
                f"{source}:{lineno}: duplicate judgment for ({query_id!r}, {doc_id!r})"
            )
        per_query[doc_id] = grade
    return Qrels(grades=grades)


def load_qrels(path: str | Path) -> Qrels:
    return read(path, parse_qrels)


@dataclass
class SentenceGold:
    """For each query: the answer-bearing document and its correct sentence
    indices."""

    answers: dict[str, tuple[str, frozenset[int]]]


def parse_sentence_gold(lines: Iterable[str], source: str = "<sentence-gold>") -> SentenceGold:
    """``query_id<TAB>doc_id<TAB>sentence_index`` per line; several lines per
    query are allowed but must name the same document."""
    answers: dict[str, tuple[str, set[int]]] = {}
    for lineno, (query_id, doc_id, index_text) in rows(lines, source, 3):
        try:
            sentence_index = int(index_text)
        except ValueError:
            raise DataFormatError(
                f"{source}:{lineno}: sentence index {index_text!r} is not an integer"
            ) from None
        if sentence_index < 0:
            raise DataFormatError(f"{source}:{lineno}: negative sentence index {sentence_index}")
        if query_id in answers and answers[query_id][0] != doc_id:
            raise DataFormatError(
                f"{source}:{lineno}: query {query_id!r} already mapped to document "
                f"{answers[query_id][0]!r}, cannot also map to {doc_id!r}"
            )
        answers.setdefault(query_id, (doc_id, set()))[1].add(sentence_index)
    return SentenceGold(
        answers={qid: (doc, frozenset(idxs)) for qid, (doc, idxs) in answers.items()}
    )


def load_sentence_gold(path: str | Path) -> SentenceGold:
    return read(path, parse_sentence_gold)


# ---------------------------------------------------------------------------
# Metrics


def accuracy(predictions: Mapping[str, object], gold: Mapping[str, Iterable[object]]) -> float:
    """Fraction of queries whose prediction is in the query's gold set."""
    if not predictions:
        return 0.0
    correct = 0
    for query_id, predicted in predictions.items():
        if query_id not in gold:
            raise KeyError(f"prediction for unknown query id {query_id!r}")
        if predicted in gold[query_id]:
            correct += 1
    return correct / len(predictions)


def precision_recall(retrieved: Iterable[str], relevant: set[str]) -> tuple[float, float]:
    """(precision, recall) of a retrieved set against the relevant set.

    Empty retrieved set gives precision 0; empty relevant set gives recall 0.
    """
    retrieved_set = set(retrieved)
    hits = len(retrieved_set & relevant)
    precision = hits / len(retrieved_set) if retrieved_set else 0.0
    recall = hits / len(relevant) if relevant else 0.0
    return precision, recall


def average_precision_at_k(ranked: Sequence[str], relevant: set[str], k: int) -> float:
    """AP@k with binary relevance, normalized by min(|relevant|, k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    denominator = min(len(relevant), k)
    if denominator == 0:
        return 0.0
    hits = 0
    total = 0.0
    for position, doc_id in enumerate(ranked[:k], start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / position
    return total / denominator


def ndcg_at_k(ranked: Sequence[str], grades: Mapping[str, int], k: int) -> float:
    """NDCG@k with 2^grade - 1 gains and log2(rank + 1) discounts.

    The ideal ranking sorts all judged grades descending; a query whose
    ideal DCG is zero scores 0 (callers flag those separately).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dcg = sum(
        (2 ** grades.get(doc_id, 0) - 1) / math.log2(position + 1)
        for position, doc_id in enumerate(ranked[:k], start=1)
    )
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = sum((2**g - 1) / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


# ---------------------------------------------------------------------------
# Reports


@dataclass
class EvalReport:
    """Aggregate rows plus the per-query breakdown behind them."""

    experiment: str
    config: dict[str, object]
    rows: list[dict[str, object]]
    per_query: list[dict[str, object]]
    notes: list[str] = field(default_factory=list)

    def format_table(self) -> str:
        """Fixed-width text table of the aggregate rows."""
        if not self.rows:
            return "(no results)\n"
        columns = list(self.rows[0])
        headers = [self._header(c) for c in columns]
        cells = [[self._cell(row[c]) for c in columns] for row in self.rows]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in cells)) for i in range(len(columns))
        ]
        lines = [
            f"experiment: {self.experiment}",
            "config: " + ", ".join(f"{k}={v}" for k, v in self.config.items()),
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row_cells in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row_cells, widths)).rstrip())
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def _header(self, column: str) -> str:
        k = self.config.get("k")
        if column == "map_at_k":
            return f"MAP@{k}"
        if column == "ndcg_at_k":
            return f"NDCG@{k}"
        return column

    @staticmethod
    def _cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    def to_records(self) -> list[dict[str, object]]:
        """One flat dict per line for machine consumption."""
        records: list[dict[str, object]] = [
            {"record": "config", "experiment": self.experiment, **self.config}
        ]
        records.extend({"record": "aggregate", **row} for row in self.rows)
        records.extend({"record": "query", **row} for row in self.per_query)
        records.extend({"record": "note", "message": note} for note in self.notes)
        return records

    def write_records(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for record in self.to_records():
                fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False))
                fh.write("\n")


# ---------------------------------------------------------------------------
# Experiment runners


def _mis_results(
    index: DocumentIndex,
    kg: KnowledgeGraph,
    queries: Mapping[str, str],
    sentence_gold: SentenceGold,
    linker_mode: str,
    gold_links: GoldAnnotations | None,
) -> tuple[dict[str, object], list[dict[str, object]]]:
    passage_pred: dict[str, str] = {}
    passage_gold: dict[str, set[str]] = {}
    sentence_pred: dict[str, tuple[str, int]] = {}
    sentence_gold_sets: dict[str, set[tuple[str, int]]] = {}
    per_query: list[dict[str, object]] = []

    for query_id, query_text in queries.items():
        if query_id not in sentence_gold.answers:
            raise KeyError(f"no sentence gold for query id {query_id!r}")
        gold_doc, gold_indices = sentence_gold.answers[query_id]
        if gold_doc not in index.documents:
            raise ValueError(f"sentence gold for {query_id!r} names unknown document {gold_doc!r}")
        n_sentences = len(index.sentences[gold_doc])
        bad = [i for i in gold_indices if i >= n_sentences]
        if bad:
            raise ValueError(
                f"sentence gold for {query_id!r} has out-of-range indices {sorted(bad)} "
                f"for document {gold_doc!r} ({n_sentences} sentences)"
            )

        record = explain_query(
            index,
            query_text,
            query_id=query_id,
            k=1,
            kg=kg,
            linker=linker_mode,
            gold_links=gold_links,
            expansion_on=True,
            relatedness="off",
        )
        top = record.results[0]

        passage_pred[query_id] = top.doc_id
        passage_gold[query_id] = {gold_doc}
        sentence_pred[query_id] = (top.doc_id, top.mis_index)
        sentence_gold_sets[query_id] = {(gold_doc, i) for i in gold_indices}
        per_query.append(
            {
                "system": linker_mode,
                "query_id": query_id,
                "case": record.expansion_case,
                "appended_terms": list(record.appended_terms),
                "top_doc": top.doc_id,
                "passage_hit": top.doc_id == gold_doc,
                "mis_index": top.mis_index,
                "sentence_hit": (top.doc_id, top.mis_index) in sentence_gold_sets[query_id],
            }
        )

    row = {
        "system": linker_mode,
        "passage_accuracy": accuracy(passage_pred, passage_gold),
        "sentence_accuracy": accuracy(sentence_pred, sentence_gold_sets),
        "queries": len(queries),
    }
    return row, per_query


def compare_mis_modes(
    corpus: Sequence[Document],
    kg: KnowledgeGraph,
    queries: Mapping[str, str],
    sentence_gold: SentenceGold,
    gold_links: GoldAnnotations | None = None,
    modes: Sequence[str] = ("off", "gazetteer", "gold"),
) -> EvalReport:
    """Sentence-retrieval protocol, one row per linker mode on a shared index.

    Per query: :func:`explain_query` with expansion on and ``k=1``; its top
    document and that document's most important sentence are the
    predictions. Reports passage accuracy (top-1 document is the
    answer-bearing one) and sentence accuracy (correct document and a
    correct sentence index). Gold is skipped when no annotations are
    supplied; a query without gold links expands nothing in gold mode.
    """
    model = fit_embedder([doc.embedding_text for doc in corpus])
    index = build_index(corpus, model)
    rows: list[dict[str, object]] = []
    per_query: list[dict[str, object]] = []
    for mode in modes:
        if mode == "gold" and gold_links is None:
            continue
        row, mode_per_query = _mis_results(index, kg, queries, sentence_gold, mode, gold_links)
        rows.append(row)
        per_query.extend(mode_per_query)
    return EvalReport(
        experiment="mis",
        config={"k": 1, "linker": "|".join(r["system"] for r in rows), "relatedness": "off"},
        rows=rows,
        per_query=per_query,
    )


def run_rerank_experiment(
    corpus: Sequence[Document],
    kg: KnowledgeGraph,
    queries: Mapping[str, str],
    qrels: Qrels,
    k: int,
    linker_mode: str = "gazetteer",
    gold_links: GoldAnnotations | None = None,
) -> EvalReport:
    """Embedding ranking versus QDR re-ranking of the same top-k candidates.

    Both systems share P and Recall by construction (the candidate set is
    identical); MAP@k and NDCG@k measure the ordering. Queries whose ideal
    DCG is zero (nothing judged relevant) are flagged in the notes. In gold
    mode, queries without annotations simply contribute no query entities.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k} (--k)")
    check_linker(linker_mode, gold_links)
    model = fit_embedder([doc.embedding_text for doc in corpus])
    index = build_index(corpus, model, gazetteer=kg.gazetteer)

    per_query: list[dict[str, object]] = []
    zero_idcg: list[str] = []
    for query_id, query_text in queries.items():
        query, _, candidates, reranked = _rank(
            index, query_id, query_text, k, kg, linker_mode, gold_links,
            expansion_on=False, relatedness="complement",
        )
        relevant = qrels.relevant_docs(query_id)
        grades = qrels.grades_for(query_id)
        if not any(g >= 1 for g in grades.values()):
            zero_idcg.append(query_id)
        for system, ranked in (
            ("embedding", [c.doc_id for c in candidates]),
            ("kg-qdr", [r.doc_id for r in reranked]),
        ):
            precision, recall = precision_recall(ranked, relevant)
            per_query.append(
                {
                    "system": system,
                    "query_id": query_id,
                    "ranking": ranked,
                    "query_entities": sorted(query.entity_ids),
                    "zero_idcg": query_id in zero_idcg,
                    "precision": precision,
                    "recall": recall,
                    "map_at_k": average_precision_at_k(ranked, relevant, k),
                    "ndcg_at_k": ndcg_at_k(ranked, grades, k),
                }
            )

    # Means over per_query in query order, added left to right: the built-in
    # sum compensates from Python 3.12 on, which would move the report bytes.
    n = len(queries)
    rows = []
    for system in ("embedding", "kg-qdr"):
        records = [r for r in per_query if r["system"] == system]
        means = {
            metric: reduce(add, (r[metric] for r in records), 0.0) / n if n else 0.0
            for metric in ("precision", "recall", "map_at_k", "ndcg_at_k")
        }
        rows.append({"system": system, **means})
    notes = []
    if zero_idcg:
        notes.append(f"queries with zero ideal DCG scored 0: {', '.join(zero_idcg)}")
    return EvalReport(
        experiment="rerank",
        config={
            "k": k,
            "linker": linker_mode,
            "expansion": "off",
            "relatedness": "complement",
        },
        rows=rows,
        per_query=per_query,
        notes=notes,
    )
