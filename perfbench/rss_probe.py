"""Peak resident memory of one round of a workload's kgxir operations.

    python3 perfbench/rss_probe.py --inputs DIR --work DIR --k K

``run.py`` starts this in a fresh process after its timed rounds, with the
inputs of its first set-up, so that ``peak_rss_mb`` counts what kgxir
holds and not the benchmark's own state (its oracles, calibration arrays
and samples). In the order of a round, and with the same settings, it runs
``kgxir index`` into ``DIR/artifact/``, loads the artifact and the KG,
explains every query once with ``explain_query`` (a repeated query holds no
more memory), then runs ``kgxir query``, ``kgxir eval-rerank`` and
``kgxir eval-mis`` while the loaded artifact is still held, as in the
benchmark's own process. Outputs are not checked here; ``run.py`` checks
the same operations. The figure includes the interpreter, numpy and the
benchmark's small modules that this script imports.

Prints one JSON object: the exit code of each kgxir command and the peak
resident set of this process in MB of 10^6 bytes. The peak is ``VmHWM``
from ``/proc/self/status`` (Linux), not ``getrusage``: Linux keeps
``ru_maxrss`` across ``execve``, so a process started by the large
benchmark process would report that process's peak as its own.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident set of this process's address space, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--k", type=int, required=True)
    args = parser.parse_args(argv)

    import kgxir
    import kgxir.cli

    paths = {path.name: path for path in args.inputs.iterdir() if path.is_file()}
    shutil.rmtree(args.work, ignore_errors=True)
    (args.work / "artifact").mkdir(parents=True)
    index_path = args.work / "artifact" / "index.json"
    with paths["queries.tsv"].open(encoding="utf-8") as fh:
        queries = [line.rstrip("\n").split("\t", 1) for line in fh]

    codes = {}
    codes["index"], _ = run.cli_main(kgxir.cli, run.index_argv(paths, index_path))
    index = kgxir.load_index(index_path)
    kg = kgxir.load_kg(paths["kg_entities.tsv"], paths["kg_relations.tsv"], paths["kg_edges.tsv"])
    for query_id, text in queries:
        kgxir.explain_query(index, text, query_id=query_id, k=args.k, kg=kg, **run.QUERY_MODE).to_json()
    query_id, text = queries[0]
    codes["query"], _ = run.cli_main(kgxir.cli, run.query_argv(paths, index_path, query_id, text, args.k))
    codes["eval-rerank"], _ = run.cli_main(kgxir.cli, run.eval_rerank_argv(paths, args.k, args.work / "rerank.jsonl"))
    codes["eval-mis"], _ = run.cli_main(kgxir.cli, run.eval_mis_argv(paths, args.work / "mis.jsonl"))
    print(json.dumps({"exit_codes": codes, "peak_rss_mb": peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
