"""Byte-for-byte outputs on the demo data, pinned under ``tests/golden/``.

Each case runs one ``kgxir`` command in-process and compares what it
produced with the stored file: the stdout of ``query --json`` and of the
two eval commands with ``--json``, and the artifact that ``index`` writes.
The stored files were written by these same cases before the query path
was unified, so any change in a record, a report or an artifact shows up
here as a byte difference.

To rewrite the files after an intended change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from kgxir.cli import main

DATA = Path(__file__).parent.parent / "demos" / "data"
GOLDEN = Path(__file__).parent / "golden"

KG_FLAGS = [
    "--kg-entities", str(DATA / "kg_entities.tsv"),
    "--kg-relations", str(DATA / "kg_relations.tsv"),
    "--kg-edges", str(DATA / "kg_edges.tsv"),
]
GOLD_FLAGS = ["--gold-links", str(DATA / "gold_links.tsv")]
EVAL_FLAGS = [
    "--corpus", str(DATA / "corpus.jsonl"), *KG_FLAGS, "--queries", str(DATA / "queries.tsv"),
]
QUERIES = [
    line.split("\t") for line in (DATA / "queries.tsv").read_text(encoding="utf-8").splitlines()
]


def index_argv(path: Path, with_kg: bool) -> list[str]:
    kg_flags = KG_FLAGS if with_kg else []
    return ["index", "--corpus", str(DATA / "corpus.jsonl"), "--index", str(path), *kg_flags]


def stdout_cases() -> dict[str, list[str]]:
    """Golden file name -> argv (``{index}`` stands for an index built with ``--kg-*``)."""
    cases: dict[str, list[str]] = {}
    for query_id, text in QUERIES:
        for linker in ("gazetteer", "gold", "off"):
            for relatedness in ("complement", "off"):
                cases[f"query-{query_id}-{linker}-{relatedness}.json"] = [
                    "query", text, "--index", "{index}", *KG_FLAGS, *GOLD_FLAGS,
                    "--linker", linker, "--expand", "on", "--relatedness", relatedness,
                    "--k", "4", "--query-id", query_id, "--json",
                ]
    cases["eval-mis.jsonl"] = [
        "eval-mis", *EVAL_FLAGS, "--sentence-gold", str(DATA / "sentence_gold.tsv"), "--json",
    ]
    cases["eval-mis-gold.jsonl"] = cases["eval-mis.jsonl"] + GOLD_FLAGS
    for linker in ("gazetteer", "gold", "off"):
        cases[f"eval-rerank-{linker}.jsonl"] = [
            "eval-rerank", *EVAL_FLAGS, "--qrels", str(DATA / "qrels.txt"), "--k", "4",
            "--linker", linker, *GOLD_FLAGS, "--json",
        ]
    return cases


def run(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


def produce(name: str, argv: list[str], workdir: Path) -> bytes:
    index = workdir / "index.json"
    if not index.exists():
        run(index_argv(index, with_kg=True))
    return run([str(index) if arg == "{index}" else arg for arg in argv])


def artifact(workdir: Path, with_kg: bool) -> bytes:
    path = workdir / f"artifact-{with_kg}.json"
    run(index_argv(path, with_kg))
    return path.read_bytes()


ARTIFACTS = {"index-kg.json": True, "index-no-kg.json": False}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", sorted(stdout_cases()))
def test_output_is_byte_identical(name, workdir):
    assert produce(name, stdout_cases()[name], workdir) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_artifact_is_byte_identical(name, workdir):
    assert artifact(workdir, ARTIFACTS[name]) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in stdout_cases().items():
            (GOLDEN / name).write_bytes(produce(name, argv, Path(tmp)))
        for name, with_kg in ARTIFACTS.items():
            (GOLDEN / name).write_bytes(artifact(Path(tmp), with_kg))
