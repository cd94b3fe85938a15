"""Byte-for-byte outputs on the demo data, pinned under ``tests/golden/``.

Each case runs one ``kgxir`` command and compares what it
produced with the stored file: the stdout of ``query --json`` and of the
two eval commands with ``--json``, and the artifact that ``index`` writes.
Any change in a record, a report or an artifact shows up here as a byte
difference. The artifacts and eval reports are produced in process, and
again under each other OpenBLAS kernel in child processes, and must give
the same bytes. The ``embedding_score`` and ``mis_score`` of query records
are ``np.dot`` results, whose last bits follow the kernel, so the query
records are produced and pinned under one named kernel that every x86-64
CPU runs: Prescott (SSE3).

To rewrite the files after an intended change of output (under Prescott)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from kgxir.cli import main
from kgxir.retrieval import load_corpus
from kgxir.text import embed, fit_embedder, split_sentences

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1.x: which kernels the CPU runs is not known
    CPU_FEATURES = {}

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


@pytest.fixture(scope="module")
def prescott_records(tmp_path_factory):
    """Every query record, produced in one child process under Prescott."""
    if reason := cannot_force("Prescott"):
        pytest.skip(reason)
    directory = tmp_path_factory.mktemp("prescott")
    write_under("Prescott", directory, [n for n in stdout_cases() if n.startswith("query-")])
    return directory


@pytest.mark.parametrize("name", sorted(stdout_cases()))
def test_output_is_byte_identical(name, workdir, request):
    if name.startswith("query-"):
        output = (request.getfixturevalue("prescott_records") / name).read_bytes()
    else:
        output = produce(name, stdout_cases()[name], workdir)
    assert output == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_artifact_is_byte_identical(name, workdir):
    assert artifact(workdir, ARTIFACTS[name]) == (GOLDEN / name).read_bytes()


# The kernels OpenBLAS can be forced to on x86-64, each with the CPU
# feature it needs.
BLAS_KERNELS = {"Haswell": "AVX2", "Sandybridge": "AVX", "Prescott": "SSE3"}


def uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 cannot say
        return False
    return "openblas" in blas


def cannot_force(kernel: str) -> str | None:
    """Why a child process cannot be forced to ``kernel`` here, or None."""
    if platform.machine() not in ("x86_64", "AMD64") or not uses_openblas():
        return "OPENBLAS_CORETYPE needs numpy on OpenBLAS on x86-64"
    if not CPU_FEATURES.get(BLAS_KERNELS[kernel]):
        return f"this CPU cannot run the {kernel} kernel"
    return None


@pytest.mark.parametrize("kernel", sorted(BLAS_KERNELS))
def test_artifacts_and_reports_are_byte_identical_under_each_blas_kernel(kernel, tmp_path):
    """The index artifacts and the eval reports are produced again in a
    child process whose OpenBLAS is forced to ``kernel`` and must equal the
    golden files. Artifacts store integer counts and reports come from
    rankings and left-to-right sums, so neither follows BLAS rounding. Nor
    do the TF-IDF weights, which are normalized without BLAS: the child's
    ``embed`` of every demo text must give the bytes it gives here.

    Query records are checked under Prescott only (see
    ``prescott_records``): 6 of the 18 differ under each other kernel.
    """
    if reason := cannot_force(kernel):
        pytest.skip(reason)
    reports = [name for name in sorted(stdout_cases()) if name.startswith("eval-")]
    names = sorted(ARTIFACTS) + reports
    assert write_under(kernel, tmp_path, names) == embed_digest(), f"embed differs under {kernel}"
    differ = [
        name for name in names if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()
    ]
    assert differ == [], f"differ under {kernel}"


def embed_digest() -> str:
    """sha256 over the bytes of ``embed`` of every demo document, sentence
    and query, under the model fitted on the demo corpus."""
    corpus = load_corpus(DATA / "corpus.jsonl")
    model = fit_embedder(doc.embedding_text for doc in corpus)
    texts = [doc.embedding_text for doc in corpus]
    texts += [span.text_of(doc.text) for doc in corpus for span in split_sentences(doc.text)]
    texts += [text for _, text in QUERIES]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(embed(text, model).tobytes())
    return digest.hexdigest()


def write_under(kernel: str, directory: Path, names: list[str]) -> str:
    """Produce the named golden files into ``directory`` in a child process
    whose OpenBLAS is forced to ``kernel``; return the child's
    :func:`embed_digest`."""
    program = (
        "import sys\nfrom pathlib import Path\n"
        "from test_golden import embed_digest, write_goldens\n"
        "write_goldens(Path(sys.argv[1]), sys.argv[2:])\nprint(embed_digest())\n"
    )
    # Only the child's environment names the kernel; its import path is ours.
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, "-c", program, str(directory), *names],
        env=env, check=True, timeout=300, stdout=subprocess.PIPE, text=True,
    )
    return child.stdout.strip()


def write_goldens(directory: Path, names: list[str]) -> None:
    """Produce the named golden files into ``directory``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            if name in ARTIFACTS:
                output = artifact(Path(tmp), ARTIFACTS[name])
            else:
                output = produce(name, stdout_cases()[name], Path(tmp))
            (directory / name).write_bytes(output)


if __name__ == "__main__":
    if reason := cannot_force("Prescott"):
        sys.exit(f"the goldens are written under OpenBLAS's Prescott kernel: {reason}")
    GOLDEN.mkdir(exist_ok=True)
    write_under("Prescott", GOLDEN, [*stdout_cases(), *ARTIFACTS])
