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


# Read only by the acceptance suite, which must pass unchanged: each name
# with the criterion that calls it.
PINNED = {
    "KnowledgeGraph.incoming": "criterion 3, relatedness oracle equivalence",
    "qdr": "criterion 4, QDR oracle equivalence",
}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def uses(path):
    """The attribute names the file at ``path`` loads, and the bare names it
    loads that it defines in ``src/`` or imports from kgxir, unless a
    parameter or local of a function or comprehension around them hides
    them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    known = set()
    if path.parent == SRC:
        known.update(n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("kgxir")):
            known.update(alias.asname or alias.name for alias in node.names)
    attributes, names = set(), set()

    def visit(node, hidden):
        if isinstance(node, SCOPES):  # its parameters and every name bound inside it
            inner = list(ast.walk(node))
            hidden = hidden | {n.arg for n in inner if isinstance(n, ast.arg)} | {
                n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.update({node.id} - hidden)
        for child in ast.iter_child_nodes(node):
            visit(child, hidden)

    visit(tree, frozenset())
    return attributes, names & known


def test_every_top_level_definition_is_used_outside_the_tests():
    # A function or class counts as used where it is loaded as an attribute
    # (``kgxir.load_kg``), or as a bare name in its own module or in one that
    # imports it from kgxir, where no parameter or local of the same name
    # hides it (``link(...)``, not a variable ``link``); a method only as a
    # loaded attribute (``record.to_json``). Importing a name alone does not
    # count. Dunders are exempt, and so are the methods of a class built on
    # a base from outside kgxir, which may be that base's hooks
    # (``_Parser.error`` is argparse's).
    attributes, names = set(), set()
    for path in [*SRC.glob("*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]:
        found_attributes, found_names = uses(path)
        attributes |= found_attributes
        names |= found_names
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    classes = {node.name for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node.name in attributes | names))
            if isinstance(node, ast.ClassDef) and all(
                isinstance(base, ast.Name) and base.id in classes for base in node.bases
            ):
                defined += [
                    (f"{node.name}.{method.name}", method.name in attributes)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
                ]
    # A pinned name that gains a reader outside the tests leaves the list.
    assert sorted(name for name, used in defined if not used) == sorted(PINNED)
