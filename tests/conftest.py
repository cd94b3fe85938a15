"""Shared fixtures: a hand-built 10-node KG, a small medical corpus with a
matching graph, and generators for the larger synthetic evaluation fixtures.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from kgxir.kg import KnowledgeGraph, parse_edges, parse_entities, parse_relations
from kgxir.linking import GoldAnnotations
from kgxir.retrieval import Document

# ---------------------------------------------------------------------------
# Toy 10-node KG. In-link sets (targets <- sources):
#   n01 <- {n03, n04, n05}      n02 <- {n04, n05, n06}   (overlap {n04, n05})
#   n03 <- {n01, n04}           n04 <- {n01, n02, n03, n05, n06}
#   n05 <- {n06}                n06 <- {n04, n05}
#   n07 <- {n08}                n08 <- {n07}
#   n09 <- {}                   n10 <- {n09}

TOY_ENTITY_LINES = [
    "# id\tlabel\taliases\tdescription",
    "n01\talpha topic\t\tfirst subject of the toy graph",
    "n02\tbeta topic\t\tsecond subject of the toy graph",
    "n03\tgamma topic\t\t",
    "n04\tdelta hub\t\twell connected node",
    "n05\tepsilon topic\t\t",
    "n06\tzeta topic\t\t",
    "n07\teta twin\t\t",
    "n08\ttheta twin\t\t",
    "n09\tiota source\t\t",
    "n10\tkappa sink\t\t",
]

TOY_RELATION_LINES = [
    "r-link\tlinks to\tpoints at",
]

TOY_EDGE_LINES = [
    "n03\tr-link\tn01",
    "n04\tr-link\tn01",
    "n05\tr-link\tn01",
    "n04\tr-link\tn02",
    "n05\tr-link\tn02",
    "n06\tr-link\tn02",
    "n01\tr-link\tn03",
    "n04\tr-link\tn03",
    "n01\tr-link\tn04",
    "n02\tr-link\tn04",
    "n03\tr-link\tn04",
    "n05\tr-link\tn04",
    "n06\tr-link\tn04",
    "n06\tr-link\tn05",
    "n04\tr-link\tn06",
    "n05\tr-link\tn06",
    "n08\tr-link\tn07",
    "n07\tr-link\tn08",
    "n09\tr-link\tn10",
]


def build_toy_kg() -> KnowledgeGraph:
    entities = parse_entities(TOY_ENTITY_LINES)
    relations = parse_relations(TOY_RELATION_LINES)
    edges = parse_edges(TOY_EDGE_LINES, entities, relations)
    return KnowledgeGraph(entities=entities, relations=relations, edges=edges)


@pytest.fixture(scope="session")
def toy_kg() -> KnowledgeGraph:
    return build_toy_kg()


# ---------------------------------------------------------------------------
# Link-overlap relatedness written out from the edge list, independent of the
# in-link arrays and of the table that ``KnowledgeGraph.relatedness`` reads,
# and small graphs to compare the two on.


def relatedness_oracle(kg, a, b):
    """Raw-mode relatedness by direct formula evaluation from a fresh rescan
    of the edge list, or ``None`` for a pair with no shared in-link."""
    in_a = {e.source for e in kg.edges if e.target == a}
    in_b = {e.source for e in kg.edges if e.target == b}
    overlap = len(in_a & in_b)
    if overlap == 0:
        return None
    log_w = math.log(kg.node_count)
    numerator = math.log(max(len(in_a), len(in_b))) - math.log(overlap)
    denominator = log_w - math.log(min(len(in_a), len(in_b)))
    floor = log_w - math.log(kg.node_count - 1)
    return numerator / max(denominator, floor)


def complement_oracle(kg, a, b):
    """Complement-mode relatedness: clamp(1 - distance, 0, 1), 0 with no overlap."""
    distance = relatedness_oracle(kg, a, b)
    return 0.0 if distance is None else min(max(1.0 - distance, 0.0), 1.0)


def graph(n_nodes, edges):
    """A graph of entities e0..e{n-1} and one relation, from (source, target)
    position pairs."""
    entities = parse_entities([f"e{i}\te{i}\t\t" for i in range(n_nodes)])
    relations = parse_relations(["r\tr\t"])
    codes = [(s, 0, t) for s, t in edges]
    return KnowledgeGraph(entities, relations, np.array(codes, dtype=np.int64).reshape(-1, 3).T)


# ---------------------------------------------------------------------------
# Medical mini-fixture: a disease entity with two contributing factors, plus
# an unrelated measurement entity, and a corpus to retrieve from.

MEDICAL_ENTITY_LINES = [
    "Q1\theart disease\tcardiopathy|cardiac disease\tdisorder of the heart",
    "Q2\tatherosclerosis\t\thardening of the arteries",
    "Q3\tobesity\t\texcessive body fat accumulation",
    "Q4\ttablespoon\t\tlarge spoon used as a unit of volume in cooking",
    "Q5\tsmoking\t\tinhalation of tobacco smoke",
]

MEDICAL_RELATION_LINES = [
    "P1\tcontributing factor\tcause|caused by|causes",
]

MEDICAL_EDGE_LINES = [
    "Q1\tP1\tQ3",
    "Q1\tP1\tQ2",
    "Q1\tP1\tQ5",
]


def build_medical_kg() -> KnowledgeGraph:
    entities = parse_entities(MEDICAL_ENTITY_LINES)
    relations = parse_relations(MEDICAL_RELATION_LINES)
    edges = parse_edges(MEDICAL_EDGE_LINES, entities, relations)
    return KnowledgeGraph(entities=entities, relations=relations, edges=edges)


MEDICAL_DOCS = [
    Document(
        id="d-heart",
        title="Heart disease",
        text=(
            "Heart disease covers a range of disorders of the heart. "
            "Obesity and atherosclerosis raise the risk substantially. "
            "Regular checkups help with early detection."
        ),
    ),
    Document(
        id="d-diet",
        title="Diet and weight",
        text=(
            "Obesity develops when energy intake exceeds energy use. "
            "A balanced diet keeps body fat in a healthy range."
        ),
    ),
    Document(
        id="d-tbsp",
        title="Tablespoon",
        text=(
            "The tablespoon appeared in European kitchens centuries ago. "
            "A tablespoon is a large spoon used for serving or eating. "
            "The capacity of a tablespoon is about fifteen millilitres."
        ),
    ),
    Document(
        id="d-smoke",
        title="Smoking",
        text=(
            "Smoking damages blood vessels over time. "
            "Quitting lowers the risk of many disorders."
        ),
    ),
]


@pytest.fixture(scope="session")
def medical_kg() -> KnowledgeGraph:
    return build_medical_kg()


@pytest.fixture(scope="session")
def medical_corpus() -> list[Document]:
    return list(MEDICAL_DOCS)


# ---------------------------------------------------------------------------
# Disambiguation fixture: per group, two entities share one surface form, so
# the gazetteer always resolves to the wrong sense (smaller id). Gold links
# point at the right sense. Queries are authored so that expansion with the
# right description is decisive, expansion with the wrong one is harmful, and
# the bare query wins only in the "easy" groups (those with the marker term).


def build_disambiguation_fixture(n_groups: int = 20, easy_every: int = 3):
    entity_lines = []
    corpus: list[Document] = []
    queries: dict[str, str] = {}
    gold_sentences: list[str] = []
    gold_links: dict[str, list[tuple[str, str]]] = {}

    for i in range(n_groups):
        surface = f"amb{i}"
        wrong_id = f"Q{100 + 2 * i}"
        right_id = f"Q{101 + 2 * i}"
        wrong_desc = [f"riverbed{i}", f"mudflat{i}", f"erosion{i}", f"sediment{i}"]
        right_desc = [f"fretboard{i}", f"amplifier{i}", f"rhythm{i}", f"plucking{i}"]
        marker = f"marker{i}"
        trap = f"trivia{i}"

        entity_lines.append(f"{wrong_id}\t{surface}\t\t{' '.join(wrong_desc)}")
        entity_lines.append(f"{right_id}\t{surface}\t\t{' '.join(right_desc)}")

        wrong_doc = Document(
            id=f"d-wrong-{i}",
            text=(
                f"The {surface} area shows {wrong_desc[0]} and {wrong_desc[1]} layers. "
                f"Its {wrong_desc[2]} and {wrong_desc[3]} patterns shift yearly. "
                f"Common {trap} notes mention the {surface} region often."
            ),
        )
        right_doc = Document(
            id=f"d-right-{i}",
            text=(
                f"Players value its warm tone and feel. "
                f"The {surface} {marker} pairs a {right_desc[0]} with an {right_desc[1]} "
                f"and {right_desc[2]} {right_desc[3]} control. "
                f"Lessons cover care and storage."
            ),
        )
        corpus.extend([wrong_doc, right_doc])

        query_id = f"q{i:02d}"
        easy = i % easy_every == 0
        queries[query_id] = f"{surface} {marker}" if easy else f"{surface} {trap}"
        gold_sentences.append(f"{query_id}\t{right_doc.id}\t1")
        gold_links[query_id] = [("entity", right_id)]

    entities = parse_entities(entity_lines)
    relations = parse_relations(["R1\trelated to\t"])
    kg = KnowledgeGraph(entities=entities, relations=relations, edges=[])
    return corpus, kg, queries, gold_sentences, GoldAnnotations(links=gold_links)


# ---------------------------------------------------------------------------
# Randomized rerank fixture: documents and queries share a plain-word
# vocabulary and mention single-token entity labels; the KG gets random
# in-link structure so relatedness varies across entity pairs.


def build_rerank_fixture(
    seed: int = 7,
    n_docs: int = 120,
    n_queries: int = 24,
    n_entities: int = 40,
    n_words: int = 300,
    doc_words: tuple[int, int] = (30, 80),
):
    rng = random.Random(seed)
    words = [f"w{j:03d}" for j in range(n_words)]
    entity_ids = [f"ent{j:03d}" for j in range(n_entities)]
    entity_lines = [f"{eid}\ttopic{j:03d}\t\tsubject number {j}" for j, eid in enumerate(entity_ids)]
    relation_lines = ["rel-ref\trefers to\t"]
    edge_lines = []
    for eid in entity_ids:
        sources = rng.sample([e for e in entity_ids if e != eid], rng.randint(2, 6))
        edge_lines.extend(f"{src}\trel-ref\t{eid}" for src in sources)

    entities = parse_entities(entity_lines)
    relations = parse_relations(relation_lines)
    edges = parse_edges(edge_lines, entities, relations)
    kg = KnowledgeGraph(entities=entities, relations=relations, edges=edges)

    label_of = {eid: entities[eid].label for eid in entity_ids}
    corpus = []
    for d in range(n_docs):
        tokens = rng.choices(words, k=rng.randint(*doc_words))
        for eid in rng.sample(entity_ids, rng.randint(1, 4)):
            tokens.insert(rng.randrange(len(tokens) + 1), label_of[eid])
        corpus.append(Document(id=f"doc{d:03d}", text=" ".join(tokens) + "."))

    queries = {}
    qrel_lines = []
    for q in range(n_queries):
        query_id = f"rq{q:02d}"
        tokens = rng.choices(words, k=rng.randint(3, 6))
        for eid in rng.sample(entity_ids, rng.randint(1, 2)):
            tokens.append(label_of[eid])
        queries[query_id] = " ".join(tokens)
        judged = rng.sample(corpus, rng.randint(8, 14))
        for doc in judged:
            qrel_lines.append(f"{query_id} 0 {doc.id} {rng.choice([0, 1, 1, 2])}")

    return corpus, kg, queries, qrel_lines


# ---------------------------------------------------------------------------
# File-level fixture writers for CLI tests.


def write_corpus(path: Path, corpus) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for doc in corpus:
            record = {"id": doc.id, "text": doc.text}
            if doc.title:
                record["title"] = doc.title
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


def write_lines(path: Path, lines) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_medical_files(dirpath: Path) -> dict[str, Path]:
    paths = {
        "corpus": write_corpus(dirpath / "corpus.jsonl", MEDICAL_DOCS),
        "entities": write_lines(dirpath / "entities.tsv", MEDICAL_ENTITY_LINES),
        "relations": write_lines(dirpath / "relations.tsv", MEDICAL_RELATION_LINES),
        "edges": write_lines(dirpath / "edges.tsv", MEDICAL_EDGE_LINES),
        "queries": write_lines(
            dirpath / "queries.tsv",
            ["q1\tcause of heart disease", "q2\tcapacity of a tablespoon"],
        ),
        "sentence_gold": write_lines(
            dirpath / "sentence_gold.tsv", ["q1\td-heart\t1", "q2\td-tbsp\t2"]
        ),
        "qrels": write_lines(
            dirpath / "qrels.txt",
            ["q1 0 d-heart 2", "q1 0 d-diet 1", "q1 0 d-tbsp 0", "q2 0 d-tbsp 2"],
        ),
        "gold_links": write_lines(
            dirpath / "gold_links.tsv",
            ["q1\tentity\tQ1", "q1\trelation\tP1", "q2\tentity\tQ4"],
        ),
    }
    return paths


def write_disambiguation_files(dirpath: Path, n_groups: int = 20) -> dict[str, Path]:
    corpus, kg, queries, gold_lines, gold_links = build_disambiguation_fixture(n_groups)
    entity_lines = [
        f"{e.id}\t{e.label}\t{'|'.join(e.aliases)}\t{e.description}"
        for e in kg.entities.values()
    ]
    link_lines = [
        f"{qid}\t{kind}\t{kg_id}"
        for qid, links in gold_links.links.items()
        for kind, kg_id in links
    ]
    return {
        "corpus": write_corpus(dirpath / "corpus.jsonl", corpus),
        "entities": write_lines(dirpath / "entities.tsv", entity_lines),
        "relations": write_lines(dirpath / "relations.tsv", ["R1\trelated to\t"]),
        "edges": write_lines(dirpath / "edges.tsv", ["# no edges"]),
        "queries": write_lines(
            dirpath / "queries.tsv", [f"{qid}\t{text}" for qid, text in queries.items()]
        ),
        "sentence_gold": write_lines(dirpath / "sentence_gold.tsv", gold_lines),
        "gold_links": write_lines(dirpath / "gold_links.tsv", link_lines),
    }


def write_rerank_files(dirpath: Path, **kwargs) -> dict[str, Path]:
    corpus, kg, queries, qrel_lines = build_rerank_fixture(**kwargs)
    entity_lines = [
        f"{e.id}\t{e.label}\t{'|'.join(e.aliases)}\t{e.description}"
        for e in kg.entities.values()
    ]
    edge_lines = [f"{e.source}\t{e.relation}\t{e.target}" for e in kg.edges]
    return {
        "corpus": write_corpus(dirpath / "corpus.jsonl", corpus),
        "entities": write_lines(dirpath / "entities.tsv", entity_lines),
        "relations": write_lines(dirpath / "relations.tsv", ["rel-ref\trefers to\t"]),
        "edges": write_lines(dirpath / "edges.tsv", edge_lines),
        "queries": write_lines(
            dirpath / "queries.tsv", [f"{qid}\t{text}" for qid, text in queries.items()]
        ),
        "qrels": write_lines(dirpath / "qrels.txt", qrel_lines),
    }
