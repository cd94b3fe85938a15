"""Walk one query through the whole pipeline, printing what happens at each
step: linking, expansion, retrieval, re-ranking, and the most important
sentence of every result.

Run from the repository root:

    python3 demos/explain_a_query.py
"""

from pathlib import Path

from kgxir import (
    build_index,
    expand,
    explain_query,
    fit_embedder,
    link,
    load_corpus,
    load_kg,
)
from kgxir.retrieval import select_mis

DATA = Path(__file__).parent / "data"

# --- 1. Load the knowledge graph and the corpus ----------------------------

kg = load_kg(DATA / "kg_entities.tsv", DATA / "kg_relations.tsv", DATA / "kg_edges.tsv")
corpus = load_corpus(DATA / "corpus.jsonl")
print(f"KG: {kg.node_count} entities, {len(kg.relations)} relation types, {kg.edge_count} edges")
print(f"corpus: {len(corpus)} documents\n")

# --- 2. Link the query against the graph ------------------------------------

query = "cause of heart disease"
gazetteer = kg.gazetteer  # built on first use, then kept with the graph
mentions = link(query, gazetteer)
print(f"query: {query!r}")
for kind, kg_id in mentions:
    label = (kg.entities if kind == "entity" else kg.relations)[kg_id].label
    print(f"  mention {kind} {kg_id} ({label})")

# --- 3. Expand it ------------------------------------------------------------
# "cause" is an alias of the contributing-factor relation, and "heart disease"
# is an entity with outgoing edges over it, so the neighbor labels get
# appended to the query.

expanded = expand(query, mentions, kg)
print(f"\nexpansion case: {expanded.case.value}")
print(f"appended terms: {list(expanded.appended_terms)}")
print(f"expanded query: {expanded.text!r}\n")

# --- 4. Retrieve, re-rank, and explain ---------------------------------------
# explain_query bundles the steps above with retrieval, QDR re-ranking and
# MIS selection, and returns a record that serializes to canonical JSON.

model = fit_embedder([doc.embedding_text for doc in corpus])
index = build_index(corpus, model, gazetteer=gazetteer)

record = explain_query(
    index,
    query,
    query_id="demo",
    k=4,
    kg=kg,
    linker="gazetteer",
    expansion_on=True,
    relatedness="complement",
)
print(record.format_block())

# Every number needed to audit the ranking is in the record itself: the
# final order is exactly descending QDR with embedding rank breaking ties.
resorted = sorted(record.results, key=lambda r: (-r.qdr_value, r.embedding_rank))
assert [r.doc_id for r in resorted] == [r.doc_id for r in record.results]
print("audit: re-sorting the record's own scores reproduces the printed order")

# A result's MIS is the one its document gives on its own: select_mis picks
# the sentence of one document that best matches a query.
top = record.results[0]
mis = select_mis(index, top.doc_id, expanded.text)
assert (mis.index, mis.text, mis.score) == (top.mis_index, top.mis_text, top.mis_score)
print(f"audit: select_mis({top.doc_id!r}) gives the top result's MIS, sentence {mis.index}")
