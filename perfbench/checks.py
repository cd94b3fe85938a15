"""Independent checks of kgxir's outputs.

Nothing here imports ``kgxir``. Each check recomputes what the program
should have produced from the documented rules, stated in the docstrings
below, and from the truth the generator planted. A check returns a list of
problems; an empty list means the output is correct. Floating-point results
are compared within ``TOL``, because a different summation order may move
the last bits; orderings are then allowed to differ only among values that
tie within ``TOL``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

TOL = 1e-9
DESCRIPTION_TOKEN_CAP = 64
MIS_MODES = ("off", "gazetteer", "gold")
_TOKEN = re.compile(r"[^\W_]+")


def tokens(text: str) -> list[str]:
    """Maximal runs of Unicode letters and digits, lowercased."""
    return [t.lower() for t in _TOKEN.findall(text)]


class Tfidf:
    """TF-IDF over a corpus, with rows for documents and for sentences.

    Vocabulary: the sorted distinct tokens of the corpus texts. Weight of a
    term: its count in the text times idf = ln((1 + N) / (1 + df)) + 1, with
    N the number of corpus texts and df the number that contain the term.
    Each vector is L2-normalised (a vector with no vocabulary term stays
    zero), and a score is the dot product of two such vectors. Ranking is by
    descending score, then ascending document id.
    """

    def __init__(self, doc_ids: Sequence[str], doc_texts: Sequence[str]) -> None:
        counts = [Counter(tokens(text)) for text in doc_texts]
        df: Counter[str] = Counter()
        for c in counts:
            df.update(c.keys())
        self.vocabulary = sorted(df)
        self.term_index = {t: i for i, t in enumerate(self.vocabulary)}
        n = len(doc_texts)
        self.idf = np.log((1.0 + n) / (1.0 + np.array([df[t] for t in self.vocabulary], float))) + 1.0
        self.doc_ids = list(doc_ids)
        self.row_of = {doc_id: i for i, doc_id in enumerate(self.doc_ids)}
        # Position of each document in ascending id order, for the tie-break.
        self.id_rank = np.argsort(np.argsort(np.array(self.doc_ids, dtype=object)))
        self.docs = _Rows([self._weights(c) for c in counts])
        self.sentences: _Rows | None = None
        self.sentence_start: list[int] = []

    def _weights(self, counts: Mapping[str, int]) -> tuple[np.ndarray, np.ndarray]:
        pairs = sorted((self.term_index[t], n) for t, n in counts.items() if t in self.term_index)
        idx = np.array([p for p, _ in pairs], dtype=np.int64)
        w = np.array([n for _, n in pairs], dtype=float) * self.idf[idx]
        norm = math.sqrt(float(np.dot(w, w)))
        return idx, (w / norm if norm > 0.0 else w)

    def add_sentences(self, sentences_by_doc: Sequence[Sequence[str]]) -> None:
        """Sentence rows, document by document, in the documents' order."""
        rows = []
        for sentences in sentences_by_doc:
            self.sentence_start.append(len(rows))
            rows.extend(self._weights(Counter(tokens(s))) for s in sentences)
        self.sentence_start.append(len(rows))
        self.sentences = _Rows(rows)

    def query_vector(self, text: str) -> np.ndarray:
        idx, w = self._weights(Counter(tokens(text)))
        dense = np.zeros(len(self.vocabulary))
        dense[idx] = w
        return dense

    def scores(self, text: str) -> np.ndarray:
        return self.docs.dot(self.query_vector(text))

    def order(self, scores: np.ndarray) -> np.ndarray:
        """Row indices by descending score, then ascending document id."""
        return np.lexsort((self.id_rank, -scores))

    def sentence_scores(self, doc_id: str, query_vec: np.ndarray, all_scores=None) -> np.ndarray:
        d = self.row_of[doc_id]
        if all_scores is None:
            all_scores = self.sentences.dot(query_vec)
        return all_scores[self.sentence_start[d] : self.sentence_start[d + 1]]


class _Rows:
    """Sparse rows, stored as (row, column, weight) per entry; ``dot``
    scores every row against a dense vector in one pass."""

    def __init__(self, rows: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
        self.n = len(rows)
        lengths = np.array([len(idx) for idx, _ in rows], dtype=np.int64)
        self.row = np.repeat(np.arange(self.n), lengths)
        self.idx = np.concatenate([idx for idx, _ in rows]) if rows else np.zeros(0, np.int64)
        self.w = np.concatenate([w for _, w in rows]) if rows else np.zeros(0)

    def dot(self, dense: np.ndarray) -> np.ndarray:
        return np.bincount(self.row, weights=self.w * dense[self.idx], minlength=self.n)


def mis_argmax(sentence_scores: np.ndarray) -> int:
    """Index of the highest-scoring sentence; the lowest index wins ties."""
    return int(np.argmax(sentence_scores))


class LinkOverlap:
    """Link-overlap relatedness, complement form, from in-link sets.

    distance = (ln max(|A|, |B|) - ln |A & B|) / max(ln W - ln min(|A|, |B|),
    ln W - ln(W - 1)) with A, B the in-link sets and W the number of
    entities; relatedness = clamp(1 - distance, 0, 1), and 0 when the sets
    share nothing.
    """

    def __init__(self, in_links: Mapping[str, set[str]]) -> None:
        self.in_links = in_links
        self.log_w = math.log(len(in_links))
        self.floor = self.log_w - math.log(len(in_links) - 1)

    def __call__(self, a: str, b: str) -> float:
        in_a, in_b = self.in_links[a], self.in_links[b]
        shared = len(in_a & in_b)
        if shared == 0:
            return 0.0
        small, large = sorted((len(in_a), len(in_b)))
        distance = (math.log(large) - math.log(shared)) / max(self.log_w - math.log(small), self.floor)
        return min(max(1.0 - distance, 0.0), 1.0)


def qdr(query_entities, doc_entities, relatedness) -> tuple[float, list[tuple[str, float]]]:
    """QDR: for each distinct query entity, in id order, the mean relatedness
    to the distinct document entities (0 when the document has none); the
    value is the sum of these means."""
    doc_ids = sorted(set(doc_entities))
    breakdown = []
    for q in sorted(set(query_entities)):
        mean = sum(relatedness(q, d) for d in doc_ids) / len(doc_ids) if doc_ids else 0.0
        breakdown.append((q, mean))
    return sum(v for _, v in breakdown), breakdown


def ap_at_k(ranked: Sequence[str], grades: Mapping[str, int], k: int) -> float:
    """AP@k with relevance grade >= 1, divided by min(#relevant, k)."""
    relevant = np.array([grades.get(d, 0) >= 1 for d in ranked[:k]], dtype=float)
    n_relevant = sum(1 for g in grades.values() if g >= 1)
    if min(n_relevant, k) == 0:
        return 0.0
    precision_at = np.cumsum(relevant) / np.arange(1, len(relevant) + 1)
    return float(np.sum(precision_at * relevant)) / min(n_relevant, k)


def ndcg_at_k(ranked: Sequence[str], grades: Mapping[str, int], k: int) -> float:
    """NDCG@k: gain 2^grade - 1, discount log2(position + 1); the ideal
    ranking sorts all judged grades in descending order; 0 if it scores 0."""

    def dcg(gs) -> float:
        gs = np.asarray(gs, dtype=float)[:k]
        return float(np.sum((2.0**gs - 1.0) / np.log2(np.arange(2, len(gs) + 2))))

    ideal = dcg(sorted(grades.values(), reverse=True))
    return dcg([grades.get(d, 0) for d in ranked]) / ideal if ideal > 0 else 0.0


def precision_recall(ranked: Sequence[str], grades: Mapping[str, int]) -> tuple[float, float]:
    relevant = {d for d, g in grades.items() if g >= 1}
    hits = len(set(ranked) & relevant)
    return (hits / len(set(ranked)) if ranked else 0.0, hits / len(relevant) if relevant else 0.0)


# ---------------------------------------------------------------------------
# Record checks


class Truth:
    """What the generator planted, plus the oracles built from it.

    ``docs``: document id -> embedding text, sentences, planted entity ids.
    ``queries``: query id -> text, planted (kind, id) mentions in text
    order, and the gold (document, sentence). ``entities``: id -> label and
    description. ``out_links``: (source, relation) -> targets.
    ``in_links``: entity -> sources. ``qrels``: query id -> doc -> grade.
    """

    def __init__(self, docs, queries, entities, out_links, in_links, qrels, k: int) -> None:
        self.docs = docs
        self.queries = queries
        self.entities = entities
        self.out_links = out_links
        self.relatedness = LinkOverlap(in_links)
        self.qrels = qrels
        self.k = k
        ids = list(docs)
        self.tfidf = Tfidf(ids, [docs[d]["embedding_text"] for d in ids])
        self.tfidf.add_sentences([docs[d]["sentences"] for d in ids])

    def expansion(self, query_id: str) -> tuple[str, list[str]]:
        """Expected case and appended terms. A: labels of the targets of the
        query entities' out-edges over the query relations, in id order. B:
        the first 64 description tokens. C: the entity labels in mention
        order. none: nothing."""
        entity_ids = self.mentioned(query_id, "entity")
        relation_ids = self.mentioned(query_id, "relation")
        if not entity_ids:
            return "none", []
        if relation_ids:
            targets = set()
            for e in entity_ids:
                for r in relation_ids:
                    targets |= self.out_links.get((e, r), set())
            return "A", [self.entities[t]["label"] for t in sorted(targets)]
        if len(entity_ids) == 1:
            return "B", tokens(self.entities[entity_ids[0]]["description"])[:DESCRIPTION_TOKEN_CAP]
        return "C", [self.entities[e]["label"] for e in entity_ids]

    def mentioned(self, query_id: str, kind: str) -> list[str]:
        """Distinct planted ids of one kind, in mention order."""
        return list(dict.fromkeys(i for k, i in self.queries[query_id]["mentions"] if k == kind))

    def expanded_text(self, query_id: str, appended: Sequence[str]) -> str:
        text = self.queries[query_id]["text"]
        return text + " " + " ".join(appended) if appended else text


def check_ranking(
    ranked: Sequence[str], scores: np.ndarray, tfidf: Tfidf, k: int, given=None
) -> list[str]:
    """``ranked`` must be the top-k by the oracle ``scores``: the same score
    at every position within TOL (so the same set and order up to ties
    within TOL), no duplicates, zero-score ties by ascending id. With ``given``
    (the program's own scores), each must match the oracle, be
    non-increasing, and exact ties must be in ascending id order."""
    problems = []
    expected = tfidf.order(scores)[:k]
    if len(ranked) != len(expected):
        return [f"ranking has {len(ranked)} documents, expected {len(expected)}"]
    if len(set(ranked)) != len(ranked):
        return ["ranking repeats a document"]
    if any(d not in tfidf.row_of for d in ranked):
        return ["ranking names an unknown document"]
    got = np.array([scores[tfidf.row_of[d]] for d in ranked])
    want = scores[expected]
    bad = np.nonzero(np.abs(got - want) > TOL)[0]
    if len(bad):
        i = int(bad[0])
        problems.append(
            f"rank {i + 1}: {ranked[i]} scores {got[i]!r}, expected a document scoring {want[i]!r}"
        )
    # A zero score is exact on both sides (no shared term), so the zero-score
    # tail must be exactly the lowest ids, in order.
    zero_tail = [d for d, g in zip(ranked, got) if g == 0.0]
    if zero_tail != [tfidf.doc_ids[i] for i in expected if scores[i] == 0.0]:
        problems.append("zero-score documents are not the lowest ids in id order")
    if given is not None:
        given = np.asarray(given, dtype=float)
        off = np.nonzero(np.abs(given - got) > TOL)[0]
        if len(off):
            i = int(off[0])
            problems.append(f"rank {i + 1}: reported score {given[i]!r}, oracle {got[i]!r}")
        for i in range(len(ranked) - 1):
            if given[i] < given[i + 1]:
                problems.append(f"ranks {i + 1}-{i + 2}: scores increase")
            elif given[i] == given[i + 1] and ranked[i] > ranked[i + 1]:
                problems.append(f"ranks {i + 1}-{i + 2}: tie not broken by ascending id")
    return problems


def check_rerank_order(
    reranked: Sequence[str],
    embedding_order: Sequence[str],
    values: Mapping[str, float],
    entity_sets: Mapping[str, frozenset],
    given=None,
) -> list[str]:
    """``reranked`` must be ``embedding_order`` stably sorted by descending
    QDR. Oracle values within TOL may come in either order, except that
    exact ties (the same document entity sets, or both zero) keep the
    embedding order. With ``given`` (the program's values, checked against
    the oracle elsewhere), exact ties in them must keep embedding order."""
    if sorted(reranked) != sorted(embedding_order):
        return ["re-ranking changed the candidate set"]
    position = {d: i for i, d in enumerate(embedding_order)}
    problems = []
    for i in range(len(reranked) - 1):
        a, b = reranked[i], reranked[i + 1]
        va, vb = values[a], values[b]
        exact_tie = va == vb == 0.0 or entity_sets[a] == entity_sets[b]
        if given is not None:
            exact_tie = exact_tie or given[i] == given[i + 1]
            if given[i] < given[i + 1]:
                problems.append(f"final ranks {i + 1}-{i + 2}: qdr_value increases")
        if va < vb - TOL:
            problems.append(f"final ranks {i + 1}-{i + 2}: {a} has lower QDR than {b}")
        elif exact_tie and position[a] > position[b]:
            problems.append(f"final ranks {i + 1}-{i + 2}: tie not kept in embedding order")
    return problems


def check_mis(
    truth: Truth, doc_id: str, query_vec, all_sentence_scores, index, score=None, text=None
) -> list[str]:
    """The MIS must be the oracle argmax (a different index is accepted only
    when its score ties the argmax within TOL), with matching score and
    text."""
    s = truth.tfidf.sentence_scores(doc_id, query_vec, all_sentence_scores)
    best = mis_argmax(s)
    if not isinstance(index, int) or not 0 <= index < len(s):
        return [f"{doc_id}: mis_index {index!r} out of range"]
    problems = []
    if index != best and abs(s[index] - s[best]) > TOL:
        problems.append(f"{doc_id}: mis_index {index}, expected {best}")
    if score is not None and abs(score - s[index]) > TOL:
        problems.append(f"{doc_id}: mis_score {score!r}, oracle {s[index]!r}")
    if text is not None and text != truth.docs[doc_id]["sentences"][index]:
        problems.append(f"{doc_id}: mis_text is not sentence {index}")
    return problems


def check_explain(truth: Truth, record: Mapping) -> list[str]:
    """One explained query (gazetteer linker, expansion on, complement QDR,
    MIS on): expansion matches the plant; the embedding top-k and scores
    match the oracle for the expanded text; the final order is the top-k
    stably sorted by QDR; each qdr_value is the sum of its breakdown and
    each entry the mean relatedness to the planted document entities; each
    MIS is the oracle argmax."""
    qid = record["query_id"]
    problems = []
    case, appended = truth.expansion(qid)
    entities = truth.mentioned(qid, "entity")
    relations = truth.mentioned(qid, "relation")
    if record["expansion_case"] != case:
        problems.append(f"expansion case {record['expansion_case']!r}, planted {case!r}")
    if list(record["appended_terms"]) != appended:
        problems.append("appended terms differ from the planted expansion")
    if list(record["entity_ids"]) != entities or list(record["relation_ids"]) != relations:
        problems.append("linked ids differ from the planted mentions")
    text = truth.expanded_text(qid, appended)
    scores = truth.tfidf.scores(text)
    results = record["results"]
    if [r["final_rank"] for r in results] != list(range(1, len(results) + 1)):
        problems.append("final ranks are not 1..n")
    by_embedding = sorted(results, key=lambda r: r["embedding_rank"])
    if [r["embedding_rank"] for r in by_embedding] != list(range(1, len(results) + 1)):
        problems.append("embedding ranks are not 1..n")
    embedding_ids = [r["doc_id"] for r in by_embedding]
    problems += check_ranking(
        embedding_ids, scores, truth.tfidf, truth.k, given=[r["embedding_score"] for r in by_embedding]
    )
    if problems:
        return problems
    values = {}
    for r in results:
        value, breakdown = qdr(entities, truth.docs[r["doc_id"]]["entities"], truth.relatedness)
        values[r["doc_id"]] = value
        got = r["qdr_breakdown"] or []
        if [e for e, _ in got] != [e for e, _ in breakdown]:
            problems.append(f"{r['doc_id']}: breakdown entities differ")
        elif any(abs(v - w) > TOL for (_, v), (_, w) in zip(got, breakdown)):
            problems.append(f"{r['doc_id']}: breakdown entry differs from the mean relatedness")
        if r["qdr_value"] is None or abs(r["qdr_value"] - sum(v for _, v in got)) > TOL:
            problems.append(f"{r['doc_id']}: qdr_value is not the sum of its breakdown")
        elif abs(r["qdr_value"] - value) > TOL:
            problems.append(f"{r['doc_id']}: qdr_value {r['qdr_value']!r}, oracle {value!r}")
    entity_sets = {d: frozenset(truth.docs[d]["entities"]) for d in embedding_ids}
    problems += check_rerank_order(
        [r["doc_id"] for r in results],
        embedding_ids,
        values,
        entity_sets,
        given=[r["qdr_value"] for r in results],
    )
    query_vec = truth.tfidf.query_vector(text)
    sentence_scores = truth.tfidf.sentences.dot(query_vec)
    for r in results:
        problems += check_mis(
            truth, r["doc_id"], query_vec, sentence_scores, r["mis_index"], r["mis_score"], r["mis_text"]
        )
    return problems


def check_eval_mis(truth: Truth, records: Sequence[Mapping]) -> list[str]:
    """``kgxir eval-mis --out`` records: per mode and query, the expansion
    (none when the linker is off), the top-1 document for the expanded text,
    its MIS, the hit flags against the sentence gold, and each mode's
    accuracies as the mean of its hit flags."""
    problems = []
    rows = {r["system"]: r for r in records if r["record"] == "aggregate"}
    per_query = [r for r in records if r["record"] == "query"]
    if list(rows) != list(MIS_MODES):
        return [f"aggregate rows {list(rows)}, expected {list(MIS_MODES)}"]
    for mode in MIS_MODES:
        mine = [r for r in per_query if r["system"] == mode]
        if [r["query_id"] for r in mine] != list(truth.queries):
            problems.append(f"{mode}: query records do not cover the queries in order")
            continue
        for r in mine:
            qid = r["query_id"]
            case, appended = ("none", []) if mode == "off" else truth.expansion(qid)
            if r["case"] != case or list(r["appended_terms"]) != appended:
                problems.append(f"{mode} {qid}: expansion differs from the plant")
                continue
            text = truth.expanded_text(qid, appended)
            scores = truth.tfidf.scores(text)
            found = check_ranking([r["top_doc"]], scores, truth.tfidf, 1)
            if not found:
                vec = truth.tfidf.query_vector(text)
                found = check_mis(truth, r["top_doc"], vec, None, r["mis_index"])
            problems += [f"{mode} {qid}: {p}" for p in found]
            gold_doc, gold_sentence = truth.queries[qid]["gold"]
            passage = r["top_doc"] == gold_doc
            sentence = passage and r["mis_index"] == gold_sentence
            if r["passage_hit"] != passage or r["sentence_hit"] != sentence:
                problems.append(f"{mode} {qid}: hit flags disagree with the sentence gold")
        n = len(mine)
        row = rows[mode]
        for key, flag in (("passage_accuracy", "passage_hit"), ("sentence_accuracy", "sentence_hit")):
            if n and abs(row[key] - sum(r[flag] for r in mine) / n) > TOL:
                problems.append(f"{mode}: {key} is not the mean of its hit flags")
    return problems


def check_eval_rerank(truth: Truth, records: Sequence[Mapping]) -> list[str]:
    """``kgxir eval-rerank --out`` records (gazetteer linker, complement
    QDR, no expansion): the embedding ranking is the oracle top-k for the
    raw query; the kg-qdr ranking is it stably sorted by QDR; query entities
    are the planted ones; P, R, AP@k and NDCG@k recomputed from each ranking
    and the qrels; P and R equal between the two systems; each aggregate
    row the mean of its queries."""
    problems = []
    k = truth.k
    per_query = {(r["system"], r["query_id"]): r for r in records if r["record"] == "query"}
    rows = {r["system"]: r for r in records if r["record"] == "aggregate"}
    if set(rows) != {"embedding", "kg-qdr"} or len(per_query) != 2 * len(truth.queries):
        return ["records do not hold both systems for every query"]
    for qid in truth.queries:
        base, ranked = per_query[("embedding", qid)], per_query[("kg-qdr", qid)]
        scores = truth.tfidf.scores(truth.queries[qid]["text"])
        problems += [f"{qid}: {p}" for p in check_ranking(base["ranking"], scores, truth.tfidf, k)]
        entities = truth.mentioned(qid, "entity")
        if ranked["query_entities"] != sorted(set(entities)):
            problems.append(f"{qid}: query entities differ from the plant")
        if all(d in truth.docs for d in base["ranking"]):
            values = {
                d: qdr(entities, truth.docs[d]["entities"], truth.relatedness)[0] for d in base["ranking"]
            }
            entity_sets = {d: frozenset(truth.docs[d]["entities"]) for d in values}
            found = check_rerank_order(ranked["ranking"], base["ranking"], values, entity_sets)
            problems += [f"{qid}: {p}" for p in found]
        grades = truth.qrels.get(qid, {})
        for r in (base, ranked):
            p, rec = precision_recall(r["ranking"], grades)
            want = {
                "precision": p,
                "recall": rec,
                "map_at_k": ap_at_k(r["ranking"], grades, k),
                "ndcg_at_k": ndcg_at_k(r["ranking"], grades, k),
            }
            for key, value in want.items():
                if abs(r[key] - value) > TOL:
                    problems.append(f"{r['system']} {qid}: {key} {r[key]!r}, recomputed {value!r}")
        if (base["precision"], base["recall"]) != (ranked["precision"], ranked["recall"]):
            problems.append(f"{qid}: P/R differ between embedding and kg-qdr")
    for system, row in rows.items():
        mine = [per_query[(system, q)] for q in truth.queries]
        for key in ("precision", "recall", "map_at_k", "ndcg_at_k"):
            if abs(row[key] - sum(r[key] for r in mine) / len(mine)) > TOL:
                problems.append(f"{system}: aggregate {key} is not the mean over queries")
    return problems
