"""Byte-for-byte outputs on the demo data, pinned under ``tests/golden/``.

Each case runs one ``kgxir`` command in-process and compares what it
produced with the stored file: the stdout of ``query --json`` and of the
two eval commands with ``--json``, and the artifact that ``index`` writes.
The stored files were written by these same cases before the query path
was unified, so any change in a record, a report or an artifact shows up
here as a byte difference. The artifacts and eval reports are also
produced under each other OpenBLAS kernel, in child processes, and must
give the same bytes; query records follow the kernel (see that test).

To rewrite the files after an intended change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
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


@pytest.mark.parametrize("name", sorted(stdout_cases()))
def test_output_is_byte_identical(name, workdir):
    assert produce(name, stdout_cases()[name], workdir) == (GOLDEN / name).read_bytes()


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


@pytest.mark.parametrize("kernel", sorted(BLAS_KERNELS))
def test_artifacts_and_reports_are_byte_identical_under_each_blas_kernel(kernel, tmp_path):
    """The index artifacts and the eval reports are produced again in a
    child process whose OpenBLAS is forced to ``kernel`` and must equal the
    golden files. Artifacts store integer counts and reports come from
    rankings and left-to-right sums, so neither follows BLAS rounding.

    Query records are not checked here: their ``embedding_score`` and
    ``mis_score`` come from ``np.dot`` and ``np.linalg.norm``, whose
    summation order follows the kernel, and 10 of the 18 differ under
    Haswell or Sandybridge and 12 under Prescott. Their golden files hold
    the rounding of the kernel OpenBLAS picks on an AVX-512 CPU (SkylakeX).
    """
    if platform.machine() not in ("x86_64", "AMD64") or not uses_openblas():
        pytest.skip("OPENBLAS_CORETYPE needs numpy on OpenBLAS on x86-64")
    if not CPU_FEATURES.get(BLAS_KERNELS[kernel]):
        pytest.skip(f"this CPU cannot run the {kernel} kernel")
    reports = [name for name in sorted(stdout_cases()) if name.startswith("eval-")]
    names = sorted(ARTIFACTS) + reports
    program = (
        "import sys\nfrom pathlib import Path\nfrom test_golden import write_goldens\n"
        "write_goldens(Path(sys.argv[1]), sys.argv[2:])\n"
    )
    # Only the child's environment names the kernel; its import path is ours.
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run(
        [sys.executable, "-c", program, str(tmp_path), *names], env=env, check=True, timeout=300
    )
    differ = [
        name for name in names if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()
    ]
    assert differ == [], f"differ under {kernel}"


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
    GOLDEN.mkdir(exist_ok=True)
    write_goldens(GOLDEN, [*stdout_cases(), *ARTIFACTS])
