import pytest

from kgxir.errors import DataFormatError, UsageError, read, rows
from kgxir.evaluation import parse_qrels, run_rerank_experiment
from kgxir.explain import explain_query
from kgxir.kg import load_kg
from kgxir.linking import query_mentions
from kgxir.retrieval import build_index, retrieve
from kgxir.text import fit_embedder

from conftest import write_lines


class TestRows:
    def test_skips_blanks_and_comments_and_keeps_line_numbers(self):
        lines = ["# header\n", "a\tb\n", "\n", "   \n", "c\td\n"]
        assert list(rows(lines, "f.tsv", 2)) == [(2, ["a", "b"]), (5, ["c", "d"])]

    def test_wrong_field_count_names_source_and_line(self):
        message = r"^f\.tsv:2: expected 2 tab-separated fields, got 3$"
        with pytest.raises(DataFormatError, match=message):
            list(rows(["a\tb", "a\tb\tc"], "f.tsv", 2))

    def test_tab_split_keeps_empty_and_spaced_fields(self):
        assert list(rows(["a b\t\n"], "f.tsv", 2)) == [(1, ["a b", ""])]

    def test_whitespace_split_strips_the_line(self):
        lines = ["  q1   0\td1 2  \n", "  # indented comment\n"]
        assert list(rows(lines, "qrels", 4, sep=None)) == [(1, ["q1", "0", "d1", "2"])]
        with pytest.raises(DataFormatError, match="expected 4 whitespace-separated fields, got 3"):
            list(rows(["q1 0 d1"], "qrels", 4, sep=None))


class TestRead:
    def test_passes_handle_extra_arguments_and_source(self, tmp_path):
        path = write_lines(tmp_path / "x.tsv", ["a\tb"])
        parsed = read(path, lambda fh, tag, source: (tag, source, fh.read()), "t")
        assert parsed == ("t", str(path), "a\tb\n")

    def test_non_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("q1\tcaf\xe9\n".encode("latin-1"))
        with pytest.raises(DataFormatError, match="latin1.tsv: not UTF-8 text"):
            read(path, lambda fh, source: fh.read())

    def test_open_errors_propagate(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read(tmp_path / "missing.tsv", lambda fh, source: None)
        with pytest.raises(IsADirectoryError):
            read(tmp_path, lambda fh, source: None)

    def test_loaders_report_bad_bytes_with_the_file(self, tmp_path):
        entities = write_lines(tmp_path / "e.tsv", ["A\ta\t\t"])
        relations = write_lines(tmp_path / "r.tsv", ["r\trel\t"])
        edges = tmp_path / "g.tsv"
        edges.write_bytes(b"A\tr\t\xffA\n")
        with pytest.raises(DataFormatError, match="g.tsv: not UTF-8 text"):
            load_kg(entities, relations, edges)


@pytest.fixture(scope="module")
def plain_index(medical_corpus):
    return build_index(medical_corpus, fit_embedder([d.embedding_text for d in medical_corpus]))


class TestCallerMistakesRaiseUsageError:
    """Each is a ValueError too, and ``kgxir`` exits 1 on it, naming the flag."""

    def test_unknown_linker_mode(self, medical_kg):
        with pytest.raises(UsageError, match=r"\(--linker\)"):
            query_mentions("q1", "heart disease", "fuzzy", medical_kg)

    def test_unknown_relatedness_mode(self, plain_index, medical_kg):
        with pytest.raises(UsageError, match=r"\(--relatedness\)"):
            explain_query(plain_index, "heart", kg=medical_kg, relatedness="raw")

    def test_missing_kg(self, plain_index):
        with pytest.raises(UsageError, match=r"\(--kg-entities"):
            explain_query(plain_index, "heart", expansion_on=True)

    def test_gold_linker_without_annotations(self, medical_kg):
        with pytest.raises(UsageError, match=r"\(--gold-links\)"):
            query_mentions("q1", "heart disease", "gold", medical_kg)

    def test_reranking_without_entity_cache(self, plain_index, medical_kg):
        with pytest.raises(UsageError, match="kgxir index --kg-"):
            explain_query(plain_index, "heart", kg=medical_kg, relatedness="complement")

    def test_retrieve_k_below_one(self, plain_index):
        with pytest.raises(UsageError, match=r"got 0 \(--k\)"):
            retrieve(plain_index, "heart", 0)

    def test_rerank_experiment_k_below_one(self, medical_corpus, medical_kg):
        qrels = parse_qrels(["q1 0 d-heart 1"])
        with pytest.raises(UsageError, match=r"got 0 \(--k\)"):
            run_rerank_experiment(medical_corpus, medical_kg, {"q1": "heart"}, qrels, k=0)
