"""kgxir: explainable text retrieval with a knowledge graph.

A small, deterministic retrieval engine that keeps its reasoning visible:
queries are expanded with entity knowledge from a KG, every retrieved
document is paired with its most important sentence, and candidates can be
re-ranked by an auditable query-document relatedness feature computed from
link overlap on the graph. An evaluation harness reproduces the sentence
retrieval and re-ranking protocols on local fixtures.

The names below are the documented surface; everything else is reached
through its module (``kgxir.retrieval.retrieve``, ...). Importing the
package imports every module but :mod:`kgxir.cli`.
"""

from .artifacts import load_index
from .errors import DataFormatError, RelatednessUndefinedError, UsageError
from .evaluation import (
    compare_mis_modes,
    load_qrels,
    load_queries,
    load_sentence_gold,
    run_rerank_experiment,
)
from .expansion import expand
from .explain import explain_query
from .kg import load_kg
from .linking import build_gazetteer, link, load_gold_annotations
from .retrieval import build_index, load_corpus
from .text import fit_embedder

__version__ = "0.1.0"

__all__ = [
    "DataFormatError",
    "RelatednessUndefinedError",
    "UsageError",
    "build_gazetteer",
    "build_index",
    "compare_mis_modes",
    "expand",
    "explain_query",
    "fit_embedder",
    "link",
    "load_corpus",
    "load_gold_annotations",
    "load_index",
    "load_kg",
    "load_qrels",
    "load_queries",
    "load_sentence_gold",
    "run_rerank_experiment",
    "__version__",
]
