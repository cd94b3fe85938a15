import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import kgxir

ROOT = Path(__file__).parent.parent

# The names README, demos/ and perfbench/ take from the package, plus the
# exception types; everything else is reached through its module.
PUBLIC = [
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


def test_all_is_pinned_and_every_name_resolves():
    assert kgxir.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(kgxir, name) is not None, name


def test_docs_demos_and_benchmark_use_only_public_names():
    used = set()
    for path in [ROOT / "README.md", *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]:
        text = path.read_text(encoding="utf-8")
        for block in re.findall(r"from kgxir import \(([^)]*)\)|from kgxir import ([^\n(]+)", text):
            used.update(name.strip() for name in ",".join(block).split(",") if name.strip())
        used.update(re.findall(r"\bkgxir\.(\w+)", text))  # kgxir.load_kg, kgxir.cli, ...
    submodules = {p.stem for p in (ROOT / "src" / "kgxir").glob("*.py")}
    assert used - submodules - {"__all__"} <= set(PUBLIC)


def test_import_kgxir_imports_every_module_but_the_cli():
    modules = sorted(p.stem for p in (ROOT / "src" / "kgxir").glob("*.py") if p.stem[0] != "_")
    code = (
        "import sys, kgxir\n"
        "print(' '.join(sorted(m[6:] for m in sys.modules if m.startswith('kgxir.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout.split()
    assert out == [m for m in modules if m != "cli"]


def test_retrieval_imports_neither_expansion_nor_explain():
    # Retrieval sits below query expansion and the explanation pipeline, and
    # leaves text analysis to ``text``: it counts terms only through it.
    tree = ast.parse((ROOT / "src" / "kgxir" / "retrieval.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & {"expansion", "explain", "tokenize"}


SRC = ROOT / "src" / "kgxir"


def test_no_module_has_an_unused_import():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":  # it imports to re-export
            continue
        imported, read = set(), set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name):
                read.add(node.id)
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


def test_every_top_level_definition_is_used_outside_the_tests():
    # A name counts as used where it is read, bare (``link``) or as an
    # attribute (``kgxir.load_kg``, ``record.to_json``); importing it alone
    # does not count. Methods count too, except dunders and the methods of
    # a class built on a base from outside kgxir, which may be that base's
    # hooks (``_Parser.error`` is argparse's).
    used = set()
    for path in [*SRC.glob("*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
    }
    classes = {
        node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)
    }
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef) and all(
                isinstance(base, ast.Name) and base.id in classes for base in node.bases
            ):
                defined += [
                    (module, f"{node.name}.{method.name}")
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
                ]
    unused = [f"{module}: {name}" for module, name in defined if name.split(".")[-1] not in used]
    assert unused == []
