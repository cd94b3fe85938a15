"""Spans around kgxir's public functions, recorded from outside the program.

``Tracer.install`` wraps each function in ``LAYERS``. kgxir's modules
import each other's functions by name (``explain.retrieve``,
``cli.load_index``, ...), so every binding of the function object in every
``kgxir`` module namespace is replaced, not only the defining one. A name
that no longer exists is recorded in ``absent`` and skipped, so a later
rename does not stop a run. ``uninstall`` restores every binding.

A span is (name, start_ns, end_ns, parent span id, operation id). Spans are
kept in memory; ``write_jsonl`` writes them out when the run ends. A span's
self time is its duration minus the durations of its direct children (the
program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path) of every traced public function.
LAYERS = (
    ("text", "embed"),
    ("text", "fit_embedder"),
    ("text", "split_sentences"),
    ("kg", "load_kg"),
    ("kg", "KnowledgeGraph.neighbors"),
    ("kg", "KnowledgeGraph.relatedness"),
    ("linking", "build_gazetteer"),
    ("linking", "link"),
    ("expansion", "expand"),
    ("retrieval", "load_corpus"),
    ("retrieval", "build_index"),
    ("retrieval", "retrieve"),
    ("retrieval", "select_mis"),
    ("rerank", "rerank"),
    ("rerank", "qdr"),
    ("artifacts", "save_index"),
    ("artifacts", "load_index"),
    ("explain", "explain_query"),
    ("evaluation", "run_rerank_experiment"),
    ("evaluation", "compare_mis_modes"),
    ("cli", "main"),
)


def layer_name(module: str, attribute: str) -> str:
    """``kg.KnowledgeGraph.neighbors`` is reported as ``kg.neighbors``."""
    return f"{module}.{attribute.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.operation = ""
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, start, end, parent, self.operation)

        return traced

    def install(self, package: str = "kgxir") -> None:
        modules = [
            module for name, module in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")
        ]
        for module_name, attribute in LAYERS:
            name = layer_name(module_name, attribute)
            owner = sys.modules.get(f"{package}.{module_name}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name)
            if path:  # a method: replace it on its class
                self._restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for owner, binding, original in reversed(self._restore):
            setattr(owner, binding, original)
        self._restore.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time (ms) and call count per layer, over the spans
        that belong to an operation."""
        child_ns = defaultdict(int)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span_id, span in enumerate(self.spans):
            if span is None or not span[4]:
                continue
            self_ms[span[0]] += (span[2] - span[1] - child_ns[span_id]) / 1e6
            calls[span[0]] += 1
        return dict(self_ms), dict(calls)

    def write_jsonl(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span_id, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, operation = span
                record = {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "op": operation}
                fh.write(json.dumps(record) + "\n")
