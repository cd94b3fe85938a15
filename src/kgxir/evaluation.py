"""Ranking metrics and the two experiment protocols.

Metrics are the standard IR set: precision and recall for retrieved sets,
and MAP@k / NDCG@k for ranking quality (binary relevance for AP, graded
2^g - 1 gains for NDCG). The runners reproduce the two evaluation protocols
on desk-scale fixtures: sentence retrieval with and without KG expansion,
and embedding-order versus QDR-order ranking on the same candidates. The
sentence runner reads the top result of :func:`~kgxir.explain.explain_query`
and the re-ranking runner shares its ranking step, so they measure exactly
what ``kgxir query`` serves, with the same linker modes and the same
gold-link policy. Each runner emits one
record per system and query; every aggregate row is the mean of a system's
per-query records (sentence-selection accuracy is the mean of its hits).
The judgments are plain data: :func:`load_qrels` returns query id -> doc id
-> grade, and a document is relevant when its grade is at least 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import add
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DataFormatError, UsageError, read, rows
from .explain import _rank, explain_query
from .kg import KnowledgeGraph
from .linking import LINKER_MODES, GoldLinks, check_linker
from .retrieval import Document, build_index


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


# A gain 2**g - 1 is then below 2**900, and a DCG of fewer than 2**63 of them
# stays far below the largest float (about 2**1024): NDCG@k is finite for any k.
MAX_GRADE = 900


def parse_qrels(lines: Iterable[str], source: str = "<qrels>") -> dict[str, dict[str, int]]:
    """TREC format: whitespace-separated ``query_id 0 doc_id grade``, as
    graded judgments: query id -> doc id -> grade, 0 to ``MAX_GRADE``."""
    grades: dict[str, dict[str, int]] = {}
    for lineno, (query_id, _, doc_id, grade_text) in rows(lines, source, 4, sep=None):
        try:
            grade = int(grade_text)
        except ValueError:
            raise DataFormatError(f"{source}:{lineno}: grade {grade_text!r} is not an integer") from None
        if not 0 <= grade <= MAX_GRADE:
            raise DataFormatError(f"{source}:{lineno}: grade {grade} is not in 0..{MAX_GRADE}")
        per_query = grades.setdefault(query_id, {})
        if doc_id in per_query:
            raise DataFormatError(
                f"{source}:{lineno}: duplicate judgment for ({query_id!r}, {doc_id!r})"
            )
        per_query[doc_id] = grade
    return grades


def load_qrels(path: str | Path) -> dict[str, dict[str, int]]:
    return read(path, parse_qrels)


class SentenceGold(NamedTuple):
    """For each query: the answer-bearing document and its correct sentence
    indices, each with the line of its first appearance (query id ->
    (doc id, {sentence index: line number})), and the file they came from."""

    answers: dict[str, tuple[str, dict[int, int]]]
    source: str


def parse_sentence_gold(lines: Iterable[str], source: str = "<sentence-gold>") -> SentenceGold:
    """``query_id<TAB>doc_id<TAB>sentence_index`` per line; several lines per
    query are allowed but must name the same document. A repeated index
    keeps the line of its first appearance."""
    answers: dict[str, tuple[str, dict[int, int]]] = {}
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
        answers.setdefault(query_id, (doc_id, {}))[1].setdefault(sentence_index, lineno)
    return SentenceGold(answers, source)


def load_sentence_gold(path: str | Path) -> SentenceGold:
    return read(path, parse_sentence_gold)


# ---------------------------------------------------------------------------
# Metrics


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
    idcg = _dcg(sorted(grades.values(), reverse=True)[:k])
    if idcg == 0.0:
        return 0.0
    return _dcg(grades.get(doc_id, 0) for doc_id in ranked[:k]) / idcg


def _dcg(ranked_grades: Iterable[int]) -> float:
    # Added left to right in rank order, as in _means.
    gains = ((2**g - 1) / math.log2(i + 1) for i, g in enumerate(ranked_grades, start=1))
    return reduce(add, gains, 0.0)


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

    def to_jsonl(self) -> str:
        """One JSON object per line for machine consumption: the config,
        the aggregate rows, the per-query rows, then the notes."""
        records: list[dict[str, object]] = [
            {"record": "config", "experiment": self.experiment, **self.config}
        ]
        records.extend({"record": "aggregate", **row} for row in self.rows)
        records.extend({"record": "query", **row} for row in self.per_query)
        records.extend({"record": "note", "message": note} for note in self.notes)
        return "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in records)


# ---------------------------------------------------------------------------
# Experiment runners


def _means(
    per_query: Sequence[Mapping[str, object]], system: str, columns: Mapping[str, str]
) -> dict[str, object]:
    """The aggregate row of ``system``: each column is the mean of a field
    over the system's per-query records (``{column: field}``), 0 when there
    are no queries."""
    # Added left to right in query order: the built-in sum compensates from
    # Python 3.12 on, which would move the report bytes.
    records = [r for r in per_query if r["system"] == system]
    row: dict[str, object] = {"system": system}
    for column, key in columns.items():
        row[column] = reduce(add, (r[key] for r in records), 0.0) / len(records) if records else 0.0
    return row


def compare_mis_modes(
    corpus: Sequence[Document],
    kg: KnowledgeGraph,
    queries: Mapping[str, str],
    sentence_gold: SentenceGold,
    gold_links: GoldLinks | None = None,
) -> EvalReport:
    """Sentence-retrieval protocol, one row per linker mode on a shared index.

    Per query: :func:`~kgxir.explain.explain_query` with expansion on and
    ``k=1``; its top result's document and most important sentence are the
    predictions. Reports passage accuracy (top-1 document is the
    answer-bearing one) and sentence accuracy (correct document and a
    correct sentence index). Gold is skipped when no
    annotations are supplied; a query without gold links expands nothing in
    gold mode. The sentence gold of every query is checked before the first
    one runs (a query missing from it before the index is built), and a
    problem is reported at the gold file's line that holds the bad value.
    """
    source = sentence_gold.source
    for query_id in queries:
        if query_id not in sentence_gold.answers:
            raise KeyError(f"{source}: no sentence gold for query id {query_id!r}")
    index = build_index(corpus)
    for query_id in queries:
        gold_doc, line_of = sentence_gold.answers[query_id]
        if gold_doc not in index.documents:
            raise ValueError(
                f"{source}:{min(line_of.values())}: sentence gold for {query_id!r} "
                f"names unknown document {gold_doc!r}"
            )
        n_sentences = len(index.sentences[gold_doc])
        bad = [i for i in line_of if i >= n_sentences]
        if bad:
            raise ValueError(
                f"{source}:{min(line_of[i] for i in bad)}: sentence gold for {query_id!r} "
                f"has out-of-range indices {sorted(bad)} for document {gold_doc!r} "
                f"({n_sentences} sentences)"
            )

    systems = [mode for mode in LINKER_MODES if mode != "gold" or gold_links is not None]
    per_query: list[dict[str, object]] = []
    for mode, (query_id, query_text) in product(systems, queries.items()):
        record = explain_query(
            index, query_text, query_id=query_id, k=1, kg=kg, linker=mode,
            gold_links=gold_links, expansion_on=True,
        )
        top, (gold_doc, gold_lines) = record.results[0], sentence_gold.answers[query_id]
        per_query.append(
            {
                "system": mode,
                "query_id": query_id,
                "case": record.expansion_case,
                "appended_terms": list(record.appended_terms),
                "top_doc": top.doc_id,
                "passage_hit": top.doc_id == gold_doc,
                "mis_index": top.mis_index,
                "sentence_hit": top.doc_id == gold_doc and top.mis_index in gold_lines,
            }
        )

    n = len(queries)
    hits = {"passage_accuracy": "passage_hit", "sentence_accuracy": "sentence_hit"}
    rows = [{**_means(per_query, mode, hits), "queries": n} for mode in systems]
    return EvalReport(
        experiment="mis",
        config={"k": 1, "linker": "|".join(systems), "relatedness": "off"},
        rows=rows,
        per_query=per_query,
    )


def run_rerank_experiment(
    corpus: Sequence[Document],
    kg: KnowledgeGraph,
    queries: Mapping[str, str],
    qrels: Mapping[str, Mapping[str, int]],
    k: int,
    linker_mode: str = "gazetteer",
    gold_links: GoldLinks | None = None,
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
    index = build_index(corpus, gazetteer=kg.gazetteer)

    per_query: list[dict[str, object]] = []
    zero_idcg: list[str] = []
    for query_id, query_text in queries.items():
        query, _, pairs = _rank(
            index, query_id, query_text, k, kg, linker_mode, gold_links,
            expansion_on=False, relatedness="complement",
        )
        grades = qrels.get(query_id, {})
        relevant = {doc for doc, grade in grades.items() if grade >= 1}
        if not relevant:
            zero_idcg.append(query_id)
        for system, ranked in (
            ("embedding", [doc.doc_id for doc, _ in sorted(pairs, key=lambda pair: pair[0].rank)]),
            ("kg-qdr", [doc.doc_id for doc, _ in pairs]),
        ):
            precision, recall = precision_recall(ranked, relevant)
            per_query.append(
                {
                    "system": system,
                    "query_id": query_id,
                    "ranking": ranked,
                    "query_entities": sorted(query.entity_ids),
                    "zero_idcg": not relevant,
                    "precision": precision,
                    "recall": recall,
                    "map_at_k": average_precision_at_k(ranked, relevant, k),
                    "ndcg_at_k": ndcg_at_k(ranked, grades, k),
                }
            )

    metrics = {m: m for m in ("precision", "recall", "map_at_k", "ndcg_at_k")}
    rows = [_means(per_query, system, metrics) for system in ("embedding", "kg-qdr")]
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
