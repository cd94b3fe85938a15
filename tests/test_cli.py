import json
from pathlib import Path

import pytest

from kgxir.cli import main

from conftest import write_lines, write_medical_files, write_rerank_files


DEMO = Path(__file__).parent.parent / "demos" / "data"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def medical_files(tmp_path):
    return write_medical_files(tmp_path)


def kg_flags(files):
    return [
        "--kg-entities", str(files["entities"]),
        "--kg-relations", str(files["relations"]),
        "--kg-edges", str(files["edges"]),
    ]


class TestIndexCommand:
    def test_builds_artifact(self, capsys, tmp_path, medical_files):
        index_path = tmp_path / "index.json"
        code, out, _ = run_cli(
            capsys, "index", "--corpus", str(medical_files["corpus"]), "--index", str(index_path)
        )
        assert code == 0
        assert index_path.exists()
        assert "indexed 4 documents" in out

    def test_missing_corpus_exits_one_with_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "index", "--corpus", str(tmp_path / "nope.jsonl"), "--index", "x.json"
        )
        assert code == 1
        assert "nope.jsonl" in err

    def test_rerun_is_byte_identical(self, capsys, tmp_path, medical_files):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys,
                "index",
                "--corpus", str(medical_files["corpus"]),
                "--index", str(path),
                *kg_flags(medical_files),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_corpus_exits_two(self, capsys, tmp_path, medical_files):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "d1", "text": "ok"}\n{broken\n', encoding="utf-8")
        code, _, err = run_cli(
            capsys, "index", "--corpus", str(bad), "--index", str(tmp_path / "i.json")
        )
        assert code == 2
        assert ":2:" in err

    def test_numeric_corpus_id_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "d1", "text": "ok"}\n{"id": 2, "text": "two"}\n', encoding="utf-8")
        index = tmp_path / "i.json"
        code, _, err = run_cli(capsys, "index", "--corpus", str(bad), "--index", str(index))
        assert code == 2
        assert f"{bad}:2: id: 2 is not a string" in err
        assert not index.exists()

    def test_duplicate_corpus_id_exits_two_with_line(self, capsys, tmp_path):
        bad = tmp_path / "dup.jsonl"
        bad.write_text(
            '{"id": "d1", "text": "one"}\n{"id": "d1", "text": "two"}\n', encoding="utf-8"
        )
        index = tmp_path / "i.json"
        code, _, err = run_cli(capsys, "index", "--corpus", str(bad), "--index", str(index))
        assert code == 2
        assert f"{bad}:2: id: duplicate document id 'd1'" in err
        assert not index.exists()


class TestQueryCommand:
    @pytest.fixture()
    def index_path(self, capsys, tmp_path, medical_files):
        path = tmp_path / "index.json"
        run_cli(
            capsys,
            "index",
            "--corpus", str(medical_files["corpus"]),
            "--index", str(path),
            *kg_flags(medical_files),
        )
        return path

    def test_explained_query_full_pipeline(self, capsys, tmp_path, medical_files, index_path):
        code, out, _ = run_cli(
            capsys,
            "query",
            "cause of heart disease",
            "--index", str(index_path),
            *kg_flags(medical_files),
            "--linker", "gazetteer",
            "--expand", "on",
            "--relatedness", "complement",
            "--k", "3",
        )
        assert code == 0
        assert "case A" in out
        assert "atherosclerosis obesity smoking" in out
        assert "MIS[" in out

    def test_json_record_parses_and_audits(self, capsys, tmp_path, medical_files, index_path):
        out_path = tmp_path / "record.json"
        code, out, _ = run_cli(
            capsys,
            "query",
            "cause of heart disease",
            "--index", str(index_path),
            *kg_flags(medical_files),
            "--linker", "gazetteer",
            "--expand", "on",
            "--relatedness", "complement",
            "--k", "3",
            "--json",
            "--out", str(out_path),
        )
        assert code == 0
        record = json.loads(out)
        assert record["expansion_case"] == "A"
        results = record["results"]
        resorted = sorted(results, key=lambda r: (-r["qdr_value"], r["embedding_rank"]))
        assert [r["doc_id"] for r in resorted] == [r["doc_id"] for r in results]
        assert json.loads(out_path.read_text(encoding="utf-8")) == record

    def test_expansion_off_shows_none(self, capsys, medical_files, index_path):
        code, out, _ = run_cli(
            capsys, "query", "heart disease", "--index", str(index_path), "--json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["expansion_case"] == "none"
        assert record["appended_terms"] == []

    def test_empty_query_is_usage_error(self, capsys, index_path):
        code, _, err = run_cli(capsys, "query", "   ", "--index", str(index_path))
        assert code == 1
        assert "empty" in err

    def test_missing_index_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "query", "anything", "--index", str(tmp_path / "missing.json")
        )
        assert code == 1
        assert "missing.json" in err

    def test_gold_linker_without_links_is_usage_error(self, capsys, medical_files, index_path):
        code, _, err = run_cli(
            capsys,
            "query",
            "heart disease",
            "--index", str(index_path),
            *kg_flags(medical_files),
            "--linker", "gold",
        )
        assert code == 1
        assert "gold" in err

    def test_raw_relatedness_is_usage_error(self, capsys, medical_files, index_path):
        code, _, err = run_cli(
            capsys, "query", "heart disease", "--index", str(index_path),
            *kg_flags(medical_files), "--relatedness", "raw",
        )
        assert code == 1
        assert "raw" in err

    def test_reranking_without_entity_cache_exits_one(self, capsys, tmp_path, medical_files):
        bare = tmp_path / "bare.json"
        run_cli(capsys, "index", "--corpus", str(medical_files["corpus"]), "--index", str(bare))
        code, out, err = run_cli(
            capsys, "query", "heart disease", "--index", str(bare),
            *kg_flags(medical_files), "--relatedness", "complement",
        )
        assert code == 1
        assert out == ""
        assert "kgxir index --kg-" in err

    def test_entity_cache_unknown_to_the_kg_exits_two(self, capsys, tmp_path):
        """An index whose cached entities the KG lacks is named, with the
        document, even when the query links no entity of its own."""
        index = tmp_path / "index.json"
        files = {name: str(DEMO / f"kg_{name}.tsv") for name in ("entities", "relations", "edges")}
        code, _, _ = run_cli(
            capsys, "index", "--corpus", str(DEMO / "corpus.jsonl"), "--index", str(index),
            *kg_flags(files),
        )
        assert code == 0
        for name in ("entities", "edges"):
            rows = (DEMO / f"kg_{name}.tsv").read_text(encoding="utf-8").splitlines()
            kept = [row for row in rows if "Q1" not in row.split("\t")]
            files[name] = tmp_path / f"kg_{name}.tsv"
            write_lines(files[name], kept)
        for query in ("atherosclerosis", "heart"):
            code, out, err = run_cli(
                capsys, "query", query, "--index", str(index), *kg_flags(files),
                "--linker", "gazetteer", "--relatedness", "complement", "--k", "2",
            )
            assert code == 2
            assert out == ""
            assert "document 'd-heart': cached entity id 'Q1' is not in the KG" in err
            assert "rebuild the index with this KG" in err


class TestEvalMisCommand:
    def test_query_without_gold_link_expands_nothing(self, capsys, tmp_path):
        partial = tmp_path / "gold_links.tsv"
        lines = (DEMO / "gold_links.tsv").read_text(encoding="utf-8").splitlines()
        write_lines(partial, lines[:3])
        assert not any(line.startswith("q3\t") for line in lines[:3])
        code, out, err = run_cli(
            capsys,
            "eval-mis",
            "--corpus", str(DEMO / "corpus.jsonl"),
            "--kg-entities", str(DEMO / "kg_entities.tsv"),
            "--kg-relations", str(DEMO / "kg_relations.tsv"),
            "--kg-edges", str(DEMO / "kg_edges.tsv"),
            "--queries", str(DEMO / "queries.tsv"),
            "--sentence-gold", str(DEMO / "sentence_gold.tsv"),
            "--gold-links", str(partial),
            "--json",
        )
        assert code == 0, err
        records = [json.loads(line) for line in out.splitlines()]
        (q3,) = [
            r for r in records
            if r["record"] == "query" and r["system"] == "gold" and r["query_id"] == "q3"
        ]
        assert q3["case"] == "none"
        assert q3["appended_terms"] == []

    def test_three_row_report(self, capsys, medical_files):
        code, out, _ = run_cli(
            capsys,
            "eval-mis",
            "--corpus", str(medical_files["corpus"]),
            *kg_flags(medical_files),
            "--queries", str(medical_files["queries"]),
            "--sentence-gold", str(medical_files["sentence_gold"]),
            "--gold-links", str(medical_files["gold_links"]),
        )
        assert code == 0
        for mode in ("off", "gazetteer", "gold"):
            assert mode in out
        assert "passage_accuracy" in out

    def test_records_written_to_out(self, capsys, tmp_path, medical_files):
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run_cli(
            capsys,
            "eval-mis",
            "--corpus", str(medical_files["corpus"]),
            *kg_flags(medical_files),
            "--queries", str(medical_files["queries"]),
            "--sentence-gold", str(medical_files["sentence_gold"]),
            "--out", str(out_path),
        )
        assert code == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        kinds = {r["record"] for r in records}
        assert {"config", "aggregate", "query"} <= kinds

    def test_malformed_sentence_gold_cites_line(self, capsys, tmp_path, medical_files):
        bad = write_lines(tmp_path / "bad_gold.tsv", ["q1\td-heart\t0", "q2\tbroken"])
        code, _, err = run_cli(
            capsys,
            "eval-mis",
            "--corpus", str(medical_files["corpus"]),
            *kg_flags(medical_files),
            "--queries", str(medical_files["queries"]),
            "--sentence-gold", str(bad),
        )
        assert code == 2
        assert ":2:" in err

    @pytest.mark.parametrize(
        "lines, location, message",
        [
            (["q1\td-nowhere\t0", "q2\td-tbsp\t2", "q3\td-hyper\t2"], ":1: ",
             "sentence gold for 'q1' names unknown document 'd-nowhere'"),
            (["q1\td-heart\t1", "q2\td-tbsp\t2", "q2\td-tbsp\t99", "q3\td-hyper\t2"],
             ":3: ", "sentence gold for 'q2' has out-of-range indices [99]"),
            (["q1\td-heart\t1", "q2\td-tbsp\t2"], ": ", "no sentence gold for query id 'q3'"),
        ],
        ids=["unknown-document", "out-of-range-index", "missing-query"],
    )
    def test_sentence_gold_errors_name_the_file_and_line(
        self, capsys, tmp_path, lines, location, message
    ):
        gold = write_lines(tmp_path / "gold.tsv", lines)
        code, out, err = run_cli(
            capsys,
            "eval-mis",
            "--corpus", str(DEMO / "corpus.jsonl"),
            "--kg-entities", str(DEMO / "kg_entities.tsv"),
            "--kg-relations", str(DEMO / "kg_relations.tsv"),
            "--kg-edges", str(DEMO / "kg_edges.tsv"),
            "--queries", str(DEMO / "queries.tsv"),
            "--sentence-gold", str(gold),
        )
        assert code == 2
        assert out == ""
        assert f"kgxir: data error: {gold}{location}{message}" in err


class TestEvalRerankCommand:
    def test_two_row_report_with_equal_p_and_recall(self, capsys, tmp_path):
        files = write_rerank_files(tmp_path, n_docs=40, n_queries=6)
        code, out, _ = run_cli(
            capsys,
            "eval-rerank",
            "--corpus", str(files["corpus"]),
            *kg_flags(files),
            "--queries", str(files["queries"]),
            "--qrels", str(files["qrels"]),
            "--k", "5",
        )
        assert code == 0
        assert "embedding" in out
        assert "kg-qdr" in out
        assert "MAP@5" in out

    def test_negative_grade_exits_two_with_line(self, capsys, tmp_path, medical_files):
        bad = write_lines(tmp_path / "bad_qrels.txt", ["q1 0 d-heart 1", "q1 0 d-diet -2"])
        code, _, err = run_cli(
            capsys,
            "eval-rerank",
            "--corpus", str(medical_files["corpus"]),
            *kg_flags(medical_files),
            "--queries", str(medical_files["queries"]),
            "--qrels", str(bad),
        )
        assert code == 2
        assert ":2:" in err

    def test_relatedness_flag_is_gone(self, capsys, medical_files):
        code, _, err = run_cli(
            capsys,
            "eval-rerank",
            "--corpus", str(medical_files["corpus"]),
            *kg_flags(medical_files),
            "--queries", str(medical_files["queries"]),
            "--qrels", str(medical_files["qrels"]),
            "--relatedness", "raw",
        )
        assert code == 1
        assert "--relatedness" in err

    def test_k_zero_is_usage_error(self, capsys, medical_files):
        code, _, _ = run_cli(
            capsys,
            "eval-rerank",
            "--corpus", str(medical_files["corpus"]),
            *kg_flags(medical_files),
            "--queries", str(medical_files["queries"]),
            "--qrels", str(medical_files["qrels"]),
            "--k", "0",
        )
        assert code == 1


class TestKgValidateCommand:
    def test_clean_graph_reports_ok(self, capsys, tmp_path):
        write_lines(tmp_path / "e.tsv", ["A\talpha\t\t", "B\tbeta\t\t"])
        write_lines(tmp_path / "r.tsv", ["r\trel\t"])
        write_lines(tmp_path / "g.tsv", ["A\tr\tB", "B\tr\tA"])
        code, out, _ = run_cli(
            capsys,
            "kg-validate",
            "--kg-entities", str(tmp_path / "e.tsv"),
            "--kg-relations", str(tmp_path / "r.tsv"),
            "--kg-edges", str(tmp_path / "g.tsv"),
        )
        assert code == 0
        assert out.startswith("ok:")

    def test_warnings_printed_but_exit_zero(self, capsys, tmp_path):
        write_lines(tmp_path / "e.tsv", ["A\t\t\t", "B\tbank\t\t", "C\tbank\t\t"])
        write_lines(tmp_path / "r.tsv", ["r\trel\t"])
        write_lines(tmp_path / "g.tsv", ["# none"])
        code, out, _ = run_cli(
            capsys,
            "kg-validate",
            "--kg-entities", str(tmp_path / "e.tsv"),
            "--kg-relations", str(tmp_path / "r.tsv"),
            "--kg-edges", str(tmp_path / "g.tsv"),
        )
        assert code == 0
        assert "empty label" in out
        assert "isolated" in out
        assert "ambiguous" in out

    def test_surfaces_without_tokens_warned(self, capsys, tmp_path):
        write_lines(tmp_path / "e.tsv", ["Q1\t???\tcardio--\t", "Q2\theart\t!!\t"])
        write_lines(tmp_path / "r.tsv", ["P1\tcause\t"])
        write_lines(tmp_path / "g.tsv", ["Q1\tP1\tQ2"])
        code, out, _ = run_cli(
            capsys,
            "kg-validate",
            "--kg-entities", str(tmp_path / "e.tsv"),
            "--kg-relations", str(tmp_path / "r.tsv"),
            "--kg-edges", str(tmp_path / "g.tsv"),
        )
        assert code == 0
        assert out.splitlines() == [
            "warning: entity 'Q1' surface '???' has no tokens; it can never be linked",
            "warning: entity 'Q2' surface '!!' has no tokens; it can never be linked",
        ]

    def test_empty_relation_label_warned(self, capsys, tmp_path):
        write_lines(tmp_path / "e.tsv", ["Q1\theart\t\tan organ", "Q2\tlung\t\t"])
        write_lines(tmp_path / "r.tsv", ["P1\t\t", "P2\tpart of\t"])
        write_lines(tmp_path / "g.tsv", ["Q1\tP2\tQ2", "Q2\tP1\tQ1"])
        code, out, _ = run_cli(
            capsys,
            "kg-validate",
            "--kg-entities", str(tmp_path / "e.tsv"),
            "--kg-relations", str(tmp_path / "r.tsv"),
            "--kg-edges", str(tmp_path / "g.tsv"),
        )
        assert code == 0
        assert out.splitlines() == ["warning: relation 'P1' has an empty label"]

    def test_duplicate_entity_id_exits_two(self, capsys, tmp_path):
        write_lines(tmp_path / "e.tsv", ["A\ta\t\t", "A\ta\t\t"])
        write_lines(tmp_path / "r.tsv", ["r\trel\t"])
        write_lines(tmp_path / "g.tsv", ["# none"])
        code, _, err = run_cli(
            capsys,
            "kg-validate",
            "--kg-entities", str(tmp_path / "e.tsv"),
            "--kg-relations", str(tmp_path / "r.tsv"),
            "--kg-edges", str(tmp_path / "g.tsv"),
        )
        assert code == 2
        assert "duplicate entity id" in err


class TestUsageErrors:
    def test_unknown_command_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "index", "--corpus", "x.jsonl")
        assert code == 1

    def test_partial_kg_flags_rejected(self, capsys, tmp_path, medical_files):
        index_path = tmp_path / "i.json"
        run_cli(
            capsys, "index", "--corpus", str(medical_files["corpus"]), "--index", str(index_path)
        )
        code, _, err = run_cli(
            capsys,
            "query",
            "heart",
            "--index", str(index_path),
            "--kg-entities", str(medical_files["entities"]),
            "--linker", "gazetteer",
        )
        assert code == 1
        assert "together" in err


def demo(name):
    return str(DEMO / name)


DEMO_KG = [
    "--kg-entities", demo("kg_entities.tsv"),
    "--kg-relations", demo("kg_relations.tsv"),
    "--kg-edges", demo("kg_edges.tsv"),
]
KG_FLAGS = ("--kg-entities", "--kg-relations", "--kg-edges")
FILE_FLAGS = {
    "index": ("--corpus", *KG_FLAGS),
    "query": ("--index", *KG_FLAGS, "--gold-links"),
    "eval-mis": ("--corpus", *KG_FLAGS, "--queries", "--sentence-gold", "--gold-links"),
    "eval-rerank": ("--corpus", *KG_FLAGS, "--queries", "--qrels", "--gold-links"),
    "kg-validate": KG_FLAGS,
}


@pytest.fixture(scope="module")
def demo_index(tmp_path_factory):
    path = tmp_path_factory.mktemp("demo") / "index.json"
    assert main(["index", "--corpus", demo("corpus.jsonl"), "--index", str(path), *DEMO_KG]) == 0
    return path


def demo_command(command, index_path, out_dir):
    """A command on the demo data that reads every file flag of ``command``."""
    return {
        "index": ["index", "--corpus", demo("corpus.jsonl"), "--index", str(out_dir / "i.json"),
                  *DEMO_KG],
        "query": ["query", "heart disease", "--index", str(index_path), *DEMO_KG,
                  "--linker", "gold", "--gold-links", demo("gold_links.tsv"), "--query-id", "q1"],
        "eval-mis": ["eval-mis", "--corpus", demo("corpus.jsonl"), *DEMO_KG,
                     "--queries", demo("queries.tsv"), "--sentence-gold", demo("sentence_gold.tsv"),
                     "--gold-links", demo("gold_links.tsv")],
        "eval-rerank": ["eval-rerank", "--corpus", demo("corpus.jsonl"), *DEMO_KG,
                        "--queries", demo("queries.tsv"), "--qrels", demo("qrels.txt"),
                        "--linker", "gold", "--gold-links", demo("gold_links.tsv")],
        "kg-validate": ["kg-validate", *DEMO_KG],
    }[command]


def bad_path(kind, tmp_path):
    if kind == "missing":
        return tmp_path / "missing.tsv"
    if kind == "directory":
        path = tmp_path / "a-directory"
        path.mkdir()
        return path
    path = tmp_path / "latin1.tsv"
    path.write_bytes("q1\tcaf\xe9\n".encode("latin-1"))
    return path


class TestFilePaths:
    @pytest.mark.parametrize("command", sorted(FILE_FLAGS))
    def test_demo_command_succeeds(self, capsys, tmp_path, demo_index, command):
        code, _, err = run_cli(capsys, *demo_command(command, demo_index, tmp_path))
        assert code == 0, err

    @pytest.mark.parametrize("kind, expected", [("missing", 1), ("directory", 1), ("non-utf8", 2)])
    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c in sorted(FILE_FLAGS) for f in FILE_FLAGS[c]]
    )
    def test_unreadable_input_names_the_path(
        self, capsys, tmp_path, demo_index, command, flag, kind, expected
    ):
        argv = demo_command(command, demo_index, tmp_path)
        path = bad_path(kind, tmp_path)
        argv[argv.index(flag) + 1] = str(path)
        code, _, err = run_cli(capsys, *argv)
        assert code == expected
        assert str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["index", "query", "eval-mis", "eval-rerank"])
    def test_output_to_a_directory_exits_one(self, capsys, tmp_path, demo_index, command):
        argv = demo_command(command, demo_index, tmp_path)
        out = tmp_path / "out-dir"
        out.mkdir()
        if command == "index":
            argv[argv.index("--index") + 1] = str(out)
        else:
            argv += ["--out", str(out)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert f"{out}: Is a directory" in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("command", ["query", "eval-mis", "eval-rerank"])
    def test_failed_out_prints_nothing(self, capsys, tmp_path, demo_index, command, json_flag):
        out = tmp_path / "out-dir"
        out.mkdir()
        argv = [*demo_command(command, demo_index, tmp_path), *json_flag, "--out", str(out)]
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 1
        assert stdout == ""
