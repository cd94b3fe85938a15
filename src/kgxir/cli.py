"""Command-line surface: build an index, ask explained queries, run the two
evaluation protocols, and lint a knowledge graph.

Exit codes: 0 success, 1 usage/config error (bad flags, a request the
library refuses with :class:`~kgxir.errors.UsageError`, a path that cannot
be opened), 2 data/format error (malformed fixture lines, bad ids, a file
that is not UTF-8). All commands are deterministic given identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .artifacts import load_index, save_index
from .errors import UsageError
from .evaluation import (
    EvalReport,
    compare_mis_modes,
    load_qrels,
    load_queries,
    load_sentence_gold,
    run_rerank_experiment,
)
from .explain import explain_query
from .kg import KnowledgeGraph, load_kg
from .linking import GoldAnnotations, load_gold_annotations
from .retrieval import build_index, load_corpus
from .text import fit_embedder


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_kg_flags(parser: argparse.ArgumentParser, required: bool = False) -> None:
    parser.add_argument("--kg-entities", metavar="PATH", required=required)
    parser.add_argument("--kg-relations", metavar="PATH", required=required)
    parser.add_argument("--kg-edges", metavar="PATH", required=required)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgxir", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", parents=[], help="build and persist a document index")
    p_index.add_argument("--corpus", metavar="PATH", required=True)
    p_index.add_argument("--index", metavar="PATH", required=True, help="output artifact path")
    _add_kg_flags(p_index)

    p_query = sub.add_parser("query", help="run one explained query against a persisted index")
    p_query.add_argument("query_text", metavar="QUERY")
    p_query.add_argument("--index", metavar="PATH", required=True)
    _add_kg_flags(p_query)
    p_query.add_argument("--linker", choices=["gazetteer", "gold", "off"], default="off")
    p_query.add_argument("--gold-links", metavar="PATH")
    p_query.add_argument("--expand", choices=["on", "off"], default="off")
    p_query.add_argument("--relatedness", choices=["complement", "off"], default="off")
    p_query.add_argument("--k", type=int, default=10)
    p_query.add_argument("--query-id", default="q", help="query id, used for gold links lookup")
    p_query.add_argument("--out", metavar="PATH", help="also write the JSON record here")
    p_query.add_argument("--json", action="store_true", help="print the JSON record, not the block")

    p_mis = sub.add_parser("eval-mis", help="sentence-retrieval experiment across linker modes")
    p_mis.add_argument("--corpus", metavar="PATH", required=True)
    _add_kg_flags(p_mis, required=True)
    p_mis.add_argument("--queries", metavar="PATH", required=True)
    p_mis.add_argument("--sentence-gold", metavar="PATH", required=True)
    p_mis.add_argument("--gold-links", metavar="PATH")
    p_mis.add_argument("--out", metavar="PATH", help="write line-delimited records here")
    p_mis.add_argument("--json", action="store_true", help="print records instead of the table")

    p_rerank = sub.add_parser("eval-rerank", help="embedding order vs QDR re-ranking experiment")
    p_rerank.add_argument("--corpus", metavar="PATH", required=True)
    _add_kg_flags(p_rerank, required=True)
    p_rerank.add_argument("--queries", metavar="PATH", required=True)
    p_rerank.add_argument("--qrels", metavar="PATH", required=True)
    p_rerank.add_argument("--k", type=int, default=10)
    p_rerank.add_argument("--linker", choices=["gazetteer", "gold", "off"], default="gazetteer")
    p_rerank.add_argument("--gold-links", metavar="PATH")
    p_rerank.add_argument("--out", metavar="PATH", help="write line-delimited records here")
    p_rerank.add_argument("--json", action="store_true", help="print records instead of the table")

    p_validate = sub.add_parser("kg-validate", help="load a KG and report diagnostics")
    _add_kg_flags(p_validate, required=True)

    return parser


def _load_kg_from_args(args: argparse.Namespace) -> KnowledgeGraph | None:
    flags = (args.kg_entities, args.kg_relations, args.kg_edges)
    if all(f is None for f in flags):
        return None
    if any(f is None for f in flags):
        raise UsageError("--kg-entities, --kg-relations and --kg-edges must be given together")
    return load_kg(*flags)


def _load_gold(args: argparse.Namespace, kg: KnowledgeGraph | None) -> GoldAnnotations | None:
    if args.gold_links is None or kg is None:
        return None
    return load_gold_annotations(args.gold_links, kg)


def _emit_report(report: EvalReport, args: argparse.Namespace) -> None:
    if args.out:
        report.write_records(args.out)
    if args.json:
        for record in report.to_records():
            print(json.dumps(record, sort_keys=True, ensure_ascii=False))
    else:
        print(report.format_table(), end="")


def cmd_index(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    kg = _load_kg_from_args(args)
    model = fit_embedder([doc.embedding_text for doc in corpus])
    index = build_index(corpus, model, gazetteer=kg.gazetteer if kg is not None else None)
    save_index(index, args.index)
    print(
        f"indexed {len(index.documents)} documents "
        f"({index.model.dimension} terms) -> {args.index}"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    query_text = args.query_text.strip()
    if not query_text:
        raise UsageError("query text must not be empty")
    index = load_index(args.index)
    kg = _load_kg_from_args(args)
    gold = _load_gold(args, kg)
    record = explain_query(
        index,
        query_text,
        query_id=args.query_id,
        k=args.k,
        kg=kg,
        linker=args.linker,
        gold_links=gold,
        expansion_on=args.expand == "on",
        relatedness=args.relatedness,
    )
    if args.out:
        Path(args.out).write_text(record.to_json() + "\n", encoding="utf-8")
    if args.json:
        print(record.to_json())
    else:
        print(record.format_block(), end="")
    return 0


def cmd_eval_mis(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    kg = _load_kg_from_args(args)
    gold = _load_gold(args, kg)
    queries = load_queries(args.queries)
    sentence_gold = load_sentence_gold(args.sentence_gold)
    report = compare_mis_modes(corpus, kg, queries, sentence_gold, gold_links=gold)
    _emit_report(report, args)
    return 0


def cmd_eval_rerank(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    kg = _load_kg_from_args(args)
    gold = _load_gold(args, kg)
    queries = load_queries(args.queries)
    qrels = load_qrels(args.qrels)
    report = run_rerank_experiment(
        corpus,
        kg,
        queries,
        qrels,
        k=args.k,
        linker_mode=args.linker,
        gold_links=gold,
    )
    _emit_report(report, args)
    return 0


def cmd_kg_validate(args: argparse.Namespace) -> int:
    kg = _load_kg_from_args(args)
    diagnostics = kg.validate() + kg.gazetteer.diagnostics
    for message in diagnostics:
        print(f"warning: {message}")
    if not diagnostics:
        print(f"ok: {kg.node_count} entities, {len(kg.relations)} relations, {len(kg.edges)} edges")
    return 0


_COMMANDS = {
    "index": cmd_index,
    "query": cmd_query,
    "eval-mis": cmd_eval_mis,
    "eval-rerank": cmd_eval_rerank,
    "kg-validate": cmd_kg_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"kgxir: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input that cannot be read or an output that cannot be written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"kgxir: error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:  # DataFormatError and the library's data checks
        message = exc.args[0] if exc.args else exc
        print(f"kgxir: data error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
