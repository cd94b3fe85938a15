"""Seeded input generator with planted truth for the kgxir benchmark.

Everything here is independent of ``src/kgxir`` and of ``tests/``: the
benchmark's inputs depend only on the shape and the seed given here.

The generator plants its own ground truth, so the checks never need the
program to tell them what the right answer is:

* Every word is drawn once from a pool of unique synthetic words, which is
  partitioned between filler text, entity surfaces and relation surfaces.
  Each entity label and alias, and each relation label and alias, uses
  tokens that no other surface and no filler word uses. A greedy longest
  match over the text can therefore only find the planted mentions, and
  the planted entity and relation ids are the linking truth.
* Entities fall into clusters; most edges stay inside a cluster, so the
  in-link sets of entities in one cluster overlap and link-overlap
  relatedness is non-trivial.
* Each document plants mentions of a few entities of one cluster. Each
  query is written from one sentence of one document (the sentence gold)
  and plants the mentions that select its expansion case: ``A`` (an entity
  and a relation it has out-edges over), ``B`` (one entity), ``C`` (two
  entities) or ``none`` (a relation alone). Every query therefore has at
  least one gold link.

Same shape and seed give identical files, byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

_ONSETS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
CASES = ("A", "B", "C", "none")


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's inputs."""

    n_docs: int
    sentences_per_doc: int
    words_per_sentence: int
    n_filler: int
    n_entities: int
    cluster_size: int
    n_relations: int
    edges_per_entity: int
    entities_per_doc: int
    n_queries: int
    aliases_per_entity: int = 1


@dataclass(frozen=True)
class Entity:
    id: str
    label: str
    aliases: tuple[str, ...]
    description: str


@dataclass(frozen=True)
class Relation:
    id: str
    label: str
    aliases: tuple[str, ...]


@dataclass(frozen=True)
class Doc:
    id: str
    title: str
    sentences: tuple[str, ...]
    entities: tuple[str, ...]  # planted entity ids, first-occurrence order

    @property
    def text(self) -> str:
        return " ".join(self.sentences)

    @property
    def embedding_text(self) -> str:
        return self.title + " " + self.text


@dataclass(frozen=True)
class Query:
    id: str
    text: str
    case: str
    mentions: tuple[tuple[str, str], ...]  # (kind, id) in text order
    gold_doc: str
    gold_sentence: int


@dataclass
class Dataset:
    entities: list[Entity]
    relations: list[Relation]
    edges: list[tuple[str, str, str]]
    docs: list[Doc]
    queries: list[Query]
    qrels: dict[str, dict[str, int]]

    def in_links(self) -> dict[str, set[str]]:
        incoming: dict[str, set[str]] = {e.id: set() for e in self.entities}
        for source, _, target in self.edges:
            incoming[target].add(source)
        return incoming

    def out_links(self) -> dict[tuple[str, str], set[str]]:
        """(source, relation) -> targets."""
        out: dict[tuple[str, str], set[str]] = {}
        for source, relation, target in self.edges:
            out.setdefault((source, relation), set()).add(target)
        return out


class _Words:
    """Draws unique synthetic lowercase words, never repeating one."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.seen: set[str] = set()

    def take(self, n: int) -> list[str]:
        words = []
        while len(words) < n:
            syllables = self.rng.randint(2, 4)
            word = "".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS) for _ in range(syllables)
            )
            if word not in self.seen:
                self.seen.add(word)
                words.append(word)
        return words


def generate(shape: Shape, seed: int, name: str) -> Dataset:
    # String seeding hashes with SHA-512, independent of PYTHONHASHSEED.
    rng = random.Random(f"kgxir-bench:{name}:{seed}")
    words = _Words(rng)
    filler = words.take(shape.n_filler)
    # Zipf-like filler frequencies give idf weights a realistic spread.
    cum_weights = list(accumulate(1.0 / (rank + 1) ** 0.9 for rank in range(len(filler))))

    def filler_words(n: int) -> list[str]:
        return rng.choices(filler, cum_weights=cum_weights, k=n)

    entities = []
    for i in range(shape.n_entities):
        aliases = tuple(" ".join(words.take(2)) for _ in range(shape.aliases_per_entity))
        entities.append(
            Entity(
                id=f"E{i:05d}",
                label=" ".join(words.take(2)),
                aliases=aliases,
                description=" ".join(filler_words(8)),
            )
        )
    relations = [
        Relation(id=f"R{i:02d}", label=" ".join(words.take(2)), aliases=(words.take(1)[0],))
        for i in range(shape.n_relations)
    ]

    n_clusters = max(1, shape.n_entities // shape.cluster_size)
    clusters = [entities[c::n_clusters] for c in range(n_clusters)]
    cluster_of = {e.id: c for c, members in enumerate(clusters) for e in members}

    edges: dict[tuple[str, str, str], None] = {}
    for entity in entities:
        members = clusters[cluster_of[entity.id]]
        for _ in range(shape.edges_per_entity):
            pool = members if rng.random() < 0.85 and len(members) > 1 else entities
            target = rng.choice(pool)
            if target.id != entity.id:
                relation = rng.choice(relations)
                edges.setdefault((entity.id, relation.id, target.id))
    edge_list = list(edges)

    def surface(item: Entity | Relation) -> str:
        return rng.choice((item.label, *item.aliases))

    docs = []
    doc_placements = []  # per document: (sentence index, entity) of each mention
    for d in range(shape.n_docs):
        members = clusters[rng.randrange(n_clusters)]
        planted = rng.sample(members, min(shape.entities_per_doc, len(members)))
        sentences = [filler_words(shape.words_per_sentence) for _ in range(shape.sentences_per_doc)]
        placements = []
        planted_surfaces: dict[str, str] = {}
        for j, entity in enumerate(planted):
            s = j % shape.sentences_per_doc
            placements.append((s, entity))
            mention = surface(entity)
            planted_surfaces[mention] = entity.id
            sentences[s].insert(rng.randint(1, len(sentences[s])), mention)
        first_seen = dict.fromkeys(
            planted_surfaces[w] for words_ in sentences for w in words_ if w in planted_surfaces
        )
        docs.append(
            Doc(
                id=f"d{d:05d}",
                title=" ".join(filler_words(3)).capitalize(),
                sentences=tuple(" ".join(words_).capitalize() + "." for words_ in sentences),
                entities=tuple(first_seen),
            )
        )
        doc_placements.append(placements)

    out_relations: dict[str, list[str]] = {}
    for source, relation, _ in edge_list:
        out_relations.setdefault(source, [])
        if relation not in out_relations[source]:
            out_relations[source].append(relation)

    relation_by_id = {r.id: r for r in relations}
    filler_set = set(filler)
    queries = []
    qrels: dict[str, dict[str, int]] = {}
    for q in range(shape.n_queries):
        case = CASES[q % len(CASES)]
        while True:
            d = rng.randrange(len(docs))
            doc, placements = docs[d], doc_placements[d]
            if case == "C" and len(doc.entities) < 2:
                continue
            if case == "A" and not any(e.id in out_relations for _, e in placements):
                continue
            break
        if case == "A":
            s, entity = rng.choice([p for p in placements if p[1].id in out_relations])
            relation_id = rng.choice(out_relations[entity.id])
            chosen = [("entity", entity), ("relation", relation_by_id[relation_id])]
        elif case == "B":
            s, entity = rng.choice(placements)
            chosen = [("entity", entity)]
        elif case == "C":
            (s, first), (_, second) = rng.sample(placements, 2)
            chosen = [("entity", first), ("entity", second)]
        else:
            s = rng.randrange(shape.sentences_per_doc)
            chosen = [("relation", rng.choice(relations))]
        sentence_words = [w.lower() for w in doc.sentences[s].rstrip(".").split()]
        text_words = rng.sample(sorted(set(sentence_words) & filler_set), 4)
        for position, (_, item) in zip((1, 3), chosen):
            text_words.insert(position, surface(item))
        queries.append(
            Query(
                id=f"q{q:04d}",
                text=" ".join(text_words),
                case=case,
                mentions=tuple((kind, item.id) for kind, item in chosen),
                gold_doc=doc.id,
                gold_sentence=s,
            )
        )
        grades = {doc.id: 2}
        for other in rng.sample(docs, 3):
            grades.setdefault(other.id, 1 if len(grades) < 3 else 0)
        qrels[queries[-1].id] = grades

    return Dataset(
        entities=entities, relations=relations, edges=edge_list, docs=docs, queries=queries, qrels=qrels
    )


def write(data: Dataset, directory: Path) -> dict[str, Path]:
    """Write the dataset in the program's input formats; returns the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        name: directory / name
        for name in (
            "corpus.jsonl",
            "kg_entities.tsv",
            "kg_relations.tsv",
            "kg_edges.tsv",
            "queries.tsv",
            "qrels.txt",
            "sentence_gold.tsv",
            "gold_links.tsv",
        )
    }

    def put(name: str, lines) -> None:
        paths[name].write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    put(
        "corpus.jsonl",
        (
            json.dumps({"id": d.id, "title": d.title, "text": d.text}, sort_keys=True)
            for d in data.docs
        ),
    )
    put(
        "kg_entities.tsv",
        (f"{e.id}\t{e.label}\t{'|'.join(e.aliases)}\t{e.description}" for e in data.entities),
    )
    put("kg_relations.tsv", (f"{r.id}\t{r.label}\t{'|'.join(r.aliases)}" for r in data.relations))
    put("kg_edges.tsv", ("\t".join(edge) for edge in data.edges))
    put("queries.tsv", (f"{q.id}\t{q.text}" for q in data.queries))
    put(
        "qrels.txt",
        (f"{qid} 0 {doc} {grade}" for qid, grades in data.qrels.items()
         for doc, grade in grades.items()),
    )
    put("sentence_gold.tsv", (f"{q.id}\t{q.gold_doc}\t{q.gold_sentence}" for q in data.queries))
    put(
        "gold_links.tsv",
        (f"{q.id}\t{kind}\t{kg_id}" for q in data.queries for kind, kg_id in q.mentions),
    )
    return paths
