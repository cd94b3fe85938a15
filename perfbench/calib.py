"""Reference work that measures how fast the machine runs during a run.

The benchmark machine is a shared VM whose speed shifts by up to a factor
of two for minutes at a time, while process CPU time keeps tracking wall
time. A run therefore samples this fixed piece of work before each of its
operations, and reports each timing scaled to reference speed:

    reported = measured * (REFERENCE_MS / median(calibration samples)) ** EXPONENT

A machine that runs this work in ``REFERENCE_MS`` reports wall time. The
work mixes what kgxir itself spends its time on: regex tokenising,
counting and dict lookups, numpy products over many vectors, building many
small objects, a JSON round trip and fresh pages. The collector is paused
while it runs, so the size of the program's heap does not move it, and it
never calls kgxir, so no change to kgxir can move it.

How much kgxir's operations slow down when this work slows depends on the
operation and on the period: over 14 runs per workload in one period the
smallest worst-case spread came with ``EXPONENT`` 0.7, over 20 in a later
period with 0.85 to 1.0 (numpy-heavy scoring follows the machine less
than pure-Python linking does). 0.85 serves both (README, "Steadiness").
A single calibration sample does not track the machine's faster flickers;
only the median over a whole run is used.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import dataclass

import numpy as np

import checks
import gen

REFERENCE_MS = 20.0
EXPONENT = 0.85


def scale(samples_ms: list[float]) -> float:
    """Factor that brings the times of a run to reference speed, from the
    run's calibration samples; rates are divided by it."""
    return (REFERENCE_MS / statistics.median(samples_ms)) ** EXPONENT


@dataclass(frozen=True)
class _Edge:
    source: str
    relation: str
    target: str


class Calibration:
    def __init__(self) -> None:
        shape = gen.Shape(
            n_docs=100, sentences_per_doc=5, words_per_sentence=12, n_filler=600,
            n_entities=20, cluster_size=5, n_relations=2, edges_per_entity=3,
            entities_per_doc=2, n_queries=8,
        )
        data = gen.generate(shape, 0, "calibration")
        self.ids = [d.id for d in data.docs]
        self.texts = [d.embedding_text for d in data.docs]
        self.queries = [q.text for q in data.queries]
        self.payload = [{"id": d.id, "text": d.text, "entities": list(d.entities)} for d in data.docs]
        self.lines = [f"E{i}\tR{i % 7}\tE{(i * 7) % 3001}" for i in range(4000)]
        rng = np.random.default_rng(0)
        self.rows = [rng.random(5000) for _ in range(800)]

    def _text(self) -> None:
        tfidf = checks.Tfidf(self.ids, self.texts)
        for text in self.queries:
            tfidf.order(tfidf.scores(text))

    def _json(self) -> None:
        json.loads(json.dumps(self.payload, sort_keys=True))

    def _objects(self) -> None:
        edges: dict[_Edge, None] = {}
        for line in self.lines:
            edges.setdefault(_Edge(*line.split("\t")))
        incoming: dict[str, set[str]] = {}
        for edge in edges:
            incoming.setdefault(edge.target, set()).add(edge.source)

    def _memory(self) -> None:
        query = self.rows[0]
        sorted((float(np.dot(row, query)), i) for i, row in enumerate(self.rows))
        np.ones(1 << 19).sum()  # 4 MB of fresh pages

    def sample_ms(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._text()
            self._json()
            self._objects()
            self._memory()
            return (time.perf_counter() - start) * 1000.0
        finally:
            if enabled:
                gc.enable()
