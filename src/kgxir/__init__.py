"""kgxir: explainable text retrieval with a knowledge graph.

A small, deterministic retrieval engine that keeps its reasoning visible:
queries are expanded with entity knowledge from a KG, every retrieved
document is paired with its most important sentence, and candidates can be
re-ranked by an auditable query-document relatedness feature computed from
link overlap on the graph. An evaluation harness reproduces the sentence
retrieval and re-ranking protocols on local fixtures.
"""

from .errors import DataFormatError, RelatednessUndefinedError
from .expansion import DESCRIPTION_TOKEN_CAP, ExpandedQuery, ExpansionCase, classify, expand
from .explain import DocExplanation, ExplanationRecord, explain_query
from .kg import Edge, Entity, KnowledgeGraph, RelationType, load_kg
from .linking import (
    Gazetteer,
    GoldAnnotations,
    LinkedMention,
    build_gazetteer,
    link,
    link_gold,
    load_gold_annotations,
)
from .rerank import QdrScore, RerankedDoc, qdr, rerank
from .retrieval import (
    Document,
    DocumentIndex,
    MisResult,
    ScoredDoc,
    build_index,
    load_corpus,
    retrieve,
    select_mis,
)
from .evaluation import (
    EvalReport,
    Qrels,
    SentenceGold,
    accuracy,
    average_precision_at_k,
    compare_mis_modes,
    load_qrels,
    load_queries,
    load_sentence_gold,
    mean_average_precision_at_k,
    mean_ndcg_at_k,
    ndcg_at_k,
    precision_recall,
    run_rerank_experiment,
)
from .text import (
    EmbedderModel,
    SentenceSpan,
    embed,
    fit_embedder,
    split_sentences,
    tokenize,
)
from .artifacts import load_index, save_index

__version__ = "0.1.0"

__all__ = [
    "DataFormatError",
    "RelatednessUndefinedError",
    "DESCRIPTION_TOKEN_CAP",
    "ExpandedQuery",
    "ExpansionCase",
    "classify",
    "expand",
    "DocExplanation",
    "ExplanationRecord",
    "explain_query",
    "Edge",
    "Entity",
    "KnowledgeGraph",
    "RelationType",
    "load_kg",
    "Gazetteer",
    "GoldAnnotations",
    "LinkedMention",
    "build_gazetteer",
    "link",
    "link_gold",
    "load_gold_annotations",
    "QdrScore",
    "RerankedDoc",
    "qdr",
    "rerank",
    "Document",
    "DocumentIndex",
    "MisResult",
    "ScoredDoc",
    "build_index",
    "load_corpus",
    "retrieve",
    "select_mis",
    "EvalReport",
    "Qrels",
    "SentenceGold",
    "accuracy",
    "average_precision_at_k",
    "compare_mis_modes",
    "load_qrels",
    "load_queries",
    "load_sentence_gold",
    "mean_average_precision_at_k",
    "mean_ndcg_at_k",
    "ndcg_at_k",
    "precision_recall",
    "run_rerank_experiment",
    "EmbedderModel",
    "SentenceSpan",
    "embed",
    "fit_embedder",
    "split_sentences",
    "tokenize",
    "load_index",
    "save_index",
    "__version__",
]
