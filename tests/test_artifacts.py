import copy
import json
import random
import re

import numpy as np
import pytest

from kgxir.artifacts import index_from_payload, load_index, save_index
from kgxir.cli import main
from kgxir.errors import DataFormatError
from kgxir.linking import build_gazetteer
from kgxir.retrieval import build_index, retrieve, select_mis
from kgxir.text import embed, fit_embedder


def make_index(corpus, kg=None):
    model = fit_embedder([d.embedding_text for d in corpus])
    gazetteer = build_gazetteer(kg) if kg is not None else None
    return build_index(corpus, model, gazetteer=gazetteer)


class TestRoundTrip:
    def test_vectors_survive_bit_exactly(self, medical_corpus, tmp_path):
        index = make_index(medical_corpus)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert list(loaded.documents) == list(index.documents)
        assert np.array_equal(loaded.doc_counts, index.doc_counts)
        for row, doc_id in enumerate(index.documents):
            expected = embed(index.documents[doc_id].embedding_text, index.model)
            for candidate in (index, loaded):
                start, end = candidate.doc_ptr[row], candidate.doc_ptr[row + 1]
                terms = candidate.doc_terms[start:end]
                assert terms.tolist() == np.flatnonzero(expected).tolist()
                assert candidate.doc_weights[start:end].tobytes() == expected[terms].tobytes()
            assert loaded.sentences[doc_id] == index.sentences[doc_id]
            assert loaded.documents[doc_id] == index.documents[doc_id]

    def test_artifact_stores_counts_and_no_spans(self, medical_corpus, tmp_path):
        path = tmp_path / "index.json"
        save_index(make_index(medical_corpus), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 3
        for record in payload["documents"]:
            assert "sentences" not in record and "vector" not in record
            terms, counts = record["terms"], record["counts"]
            assert terms and len(counts) == len(terms)
            assert all(type(term) is int for term in terms) and terms == sorted(set(terms))
            assert all(type(count) is int and count > 0 for count in counts)

    def test_model_round_trips(self, medical_corpus, tmp_path):
        index = make_index(medical_corpus)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.model.vocabulary == index.model.vocabulary
        assert loaded.model.document_frequency == index.model.document_frequency
        assert loaded.model.n_docs == index.model.n_docs
        assert np.array_equal(loaded.model.idf, index.model.idf)

    def test_entity_cache_round_trips(self, medical_corpus, medical_kg, tmp_path):
        index = make_index(medical_corpus, medical_kg)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.entities_by_doc == index.entities_by_doc

    def test_no_entity_cache_stays_absent(self, medical_corpus, tmp_path):
        index = make_index(medical_corpus)
        save_index(index, tmp_path / "index.json")
        assert load_index(tmp_path / "index.json").entities_by_doc is None

    def test_loaded_index_answers_queries_identically(self, medical_corpus, tmp_path):
        index = make_index(medical_corpus)
        save_index(index, tmp_path / "index.json")
        loaded = load_index(tmp_path / "index.json")
        for query in ["heart disease", "capacity of a tablespoon"]:
            assert retrieve(loaded, query, 4) == retrieve(index, query, 4)
            assert select_mis(loaded, "d-tbsp", query) == select_mis(index, "d-tbsp", query)


class TestDeterminism:
    def test_rebuild_from_same_inputs_is_byte_identical(self, medical_corpus, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save_index(make_index(medical_corpus), first)
        save_index(make_index(medical_corpus), second)
        assert first.read_bytes() == second.read_bytes()


class TestFormatChecks:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(DataFormatError, match="not a"):
            load_index(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format": "kgxir-index", "version": 999, "embedder": {}, "documents": []}',
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="version"):
            load_index(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_index(path)


def first_bad_pair(payload, dimension):
    """The message for the first bad (term id, count) pair, found pair by
    pair in file order; None when every pair is good."""
    for position, record in enumerate(payload["documents"]):
        previous = -1
        for term, count in zip(record["terms"], record["counts"]):
            if type(term) is not int:
                return f"documents[{position}].terms: term id {term!r} is not an integer"
            if not 0 <= term < dimension:
                return (
                    f"documents[{position}].terms: term id {term} is outside the vocabulary "
                    f"(0..{dimension - 1})"
                )
            if term <= previous:
                return (
                    f"documents[{position}].terms: term id {term} follows term id {previous}; "
                    "term ids must be strictly ascending"
                )
            if not (type(count) is int and 0 < count < 2**63):
                return (
                    f"documents[{position}].counts: term id {term} has count {count!r}; "
                    "counts must be positive integers below 2**63"
                )
            previous = term
    return None


class TestCorruptArtifacts:
    """Each corruption is a DataFormatError naming the file and the JSON path,
    so ``kgxir`` exits 2 instead of failing late or loading a wrong index."""

    @pytest.fixture()
    def payload(self, medical_corpus, tmp_path):
        path = tmp_path / "index.json"
        save_index(make_index(medical_corpus), path)
        return json.loads(path.read_text(encoding="utf-8"))

    def corrupt(self, payload, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_term_id_past_the_vocabulary(self, payload, tmp_path):
        payload["documents"][1]["terms"][0] = 999999
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: documents\[1\]\.terms: term id 999999 is outside"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_negative_term_id(self, payload, tmp_path):
        payload["documents"][0]["terms"][0] = -1
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"documents\[0\]\.terms: term id -1 is outside"):
            load_index(path)

    def test_repeated_or_unordered_term_ids(self, payload, tmp_path):
        terms = payload["documents"][1]["terms"]
        first, second = terms[0], terms[1]
        for ids, previous, term in (
            ([first, first, *terms[2:]], first, first),  # repeated
            ([second, first, *terms[2:]], second, first),  # unordered
        ):
            payload["documents"][1]["terms"] = ids
            path = self.corrupt(payload, tmp_path)
            message = (
                rf"corrupt\.json: documents\[1\]\.terms: term id {term} follows term id "
                rf"{previous}; term ids must be strictly ascending"
            )
            with pytest.raises(DataFormatError, match=message):
                load_index(path)

    def test_term_id_must_be_an_integer(self, payload, tmp_path):
        payload["documents"][0]["terms"][0] = 2.5
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"terms: term id 2\.5 is not an integer"):
            load_index(path)

    @pytest.mark.parametrize("count", [-1, 0, 2.5, True, None], ids=repr)
    def test_count_must_be_a_positive_integer(self, payload, tmp_path, count):
        term = payload["documents"][2]["terms"][1]
        payload["documents"][2]["counts"][1] = count
        path = self.corrupt(payload, tmp_path)
        message = (
            rf"corrupt\.json: documents\[2\]\.counts: term id {term} has count "
            rf"{re.escape(repr(count))}; counts must be positive integers"
        )
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    @pytest.mark.parametrize("field", ["terms", "counts"])
    def test_value_past_int64_is_located(self, payload, tmp_path, capsys, field):
        # A term id or count of 2**63 or more once ended the loader with an
        # OverflowError traceback and exit 1.
        term = payload["documents"][2]["terms"][1]
        payload["documents"][2][field][1] = 10**20
        path = self.corrupt(payload, tmp_path)
        if field == "terms":
            problem = f"terms: term id {10**20} is outside the vocabulary"
        else:
            problem = (
                f"counts: term id {term} has count {10**20}; "
                "counts must be positive integers below 2**63"
            )
        message = f"{path}: documents[2].{problem}"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_index(path)
        assert main(["query", "heart disease", "--index", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_counts_must_pair_with_the_term_ids(self, payload, tmp_path):
        record = payload["documents"][1]
        size = len(record["terms"])
        message = rf"corrupt\.json: documents\[1\]\.counts: not a list of {size} counts"
        for counts in (record["counts"][:-1], [*record["counts"], 1], {"0": 1}):
            record["counts"] = counts
            path = self.corrupt(payload, tmp_path)
            with pytest.raises(DataFormatError, match=message):
                load_index(path)

    def test_missing_or_malformed_term_ids(self, payload, tmp_path):
        record = payload["documents"][1]
        record["terms"] = "0"
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: documents\[1\]\.terms: not a list of term ids"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)
        del record["terms"]
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: documents\[1\]\.terms: missing"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_first_bad_pair_in_file_order_is_reported(self, payload):
        # The check runs over all documents at once, but reports what a
        # loop over the pairs in file order meets first, a term id before
        # its count. Random corruptions are checked against such a loop.
        dimension = len(payload["embedder"]["vocabulary"])
        values = [-(10**20), -1, 0, 1, 2.5, True, None, "7", [1], dimension - 1, dimension, 10**20]
        rng = random.Random(0)
        for _ in range(300):
            corrupted = copy.deepcopy(payload)
            records = corrupted["documents"]
            if rng.random() < 0.2:  # an empty row before the others
                records[0]["terms"], records[0]["counts"] = [], []
            for _ in range(rng.randint(1, 3)):
                record = rng.choice(records[1:])
                field = rng.choice(["terms", "counts"])
                record[field][rng.randrange(len(record[field]))] = rng.choice(values)
            expected = first_bad_pair(corrupted, dimension)
            if expected is None:
                index_from_payload(corrupted, source="p.json")
                continue
            with pytest.raises(DataFormatError) as caught:
                index_from_payload(corrupted, source="p.json")
            assert str(caught.value) == f"p.json: {expected}"

    @pytest.mark.parametrize("n_docs", [-1, 0, 2.5, "3", True, None], ids=repr)
    def test_corpus_size_must_be_a_positive_integer(self, payload, tmp_path, n_docs):
        payload["embedder"]["n_docs"] = n_docs
        path = self.corrupt(payload, tmp_path)
        message = rf"corrupt\.json: embedder\.n_docs: {re.escape(repr(n_docs))} is not an integer"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    @pytest.mark.parametrize("df", [-5, 0, "n_docs + 1", "3", True, 1.0], ids=repr)
    def test_document_frequency_must_be_in_range(self, payload, tmp_path, df):
        n_docs = payload["embedder"]["n_docs"]
        df = n_docs + 1 if df == "n_docs + 1" else df
        payload["embedder"]["document_frequency"][4] = df
        path = self.corrupt(payload, tmp_path)
        message = (
            rf"corrupt\.json: embedder\.document_frequency\[4\]: {re.escape(repr(df))} is not "
            rf"an integer in 1\.\.{n_docs}"
        )
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_vocabulary_terms_must_be_strings(self, payload, tmp_path):
        payload["embedder"]["vocabulary"][3] = 5
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: embedder\.vocabulary\[3\]: 5 is not a string"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)
        # A string of ascending characters is not a vocabulary either.
        size = len(payload["embedder"]["document_frequency"])
        payload["embedder"]["vocabulary"] = "".join(chr(0x100 + i) for i in range(size))
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: embedder\.vocabulary: not a list of terms"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_repeated_or_unordered_vocabulary_terms(self, payload, tmp_path):
        vocabulary = payload["embedder"]["vocabulary"]
        third, fourth = vocabulary[3], vocabulary[4]
        for terms, term, previous in (
            ([*vocabulary[:4], third, *vocabulary[5:]], third, third),  # repeated
            ([*vocabulary[:3], fourth, third, *vocabulary[5:]], third, fourth),  # unordered
        ):
            payload["embedder"]["vocabulary"] = terms
            path = self.corrupt(payload, tmp_path)
            message = (
                rf"corrupt\.json: embedder\.vocabulary\[4\]: {term!r} follows {previous!r}; "
                r"terms must be strictly ascending"
            )
            with pytest.raises(DataFormatError, match=message):
                load_index(path)

    def test_repeated_vocabulary_term_fails_the_query_command(self, payload, tmp_path, capsys):
        # A repeated term once loaded: its query weight went to the last
        # copy while documents counted it at the first, and the query
        # ranked silently wrong and exited 0.
        vocabulary = payload["embedder"]["vocabulary"]
        vocabulary[4] = vocabulary[3]
        path = self.corrupt(payload, tmp_path)
        assert main(["query", "heart disease", "--index", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: embedder.vocabulary[4]: {vocabulary[3]!r} follows" in err

    def test_bad_corpus_size_fails_the_query_command(self, payload, tmp_path, capsys):
        # A negative corpus size once made every idf NaN, and the query
        # ranked with NaN scores and exited 0.
        payload["embedder"]["n_docs"] = -1
        path = self.corrupt(payload, tmp_path)
        assert main(["query", "heart disease", "--index", str(path)]) == 2
        assert f"{path}: embedder.n_docs: -1" in capsys.readouterr().err

    def test_version_1_artifact_is_rejected_with_a_rebuild_hint(self, payload, tmp_path, capsys):
        # Version 1 stored float weights and sentence spans, version 2
        # [term id, count] pairs; neither has a reader.
        for record in payload["documents"]:
            pairs = zip(record.pop("terms"), record.pop("counts"))
            record["vector"] = [list(pair) for pair in pairs]
        for version in (2, 1):
            if version == 1:
                for record in payload["documents"]:
                    record["sentences"] = [[0, len(record["text"])]]
                    record["vector"] = [[term, 0.5] for term, _ in record["vector"]]
            payload["version"] = version
            path = self.corrupt(payload, tmp_path)
            assert main(["query", "heart disease", "--index", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"{path}: unsupported artifact version {version} (expected 3)" in err
            assert "rebuild it with `kgxir index`" in err

    def test_missing_embedder(self, payload, tmp_path):
        del payload["embedder"]
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"corrupt\.json: embedder: missing"):
            load_index(path)

    def test_document_id_must_be_a_string(self, payload, tmp_path):
        payload["documents"][0]["id"] = 5
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: documents\[0\]\.id: 5 is not a string"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_entities_must_be_a_list_of_ids(self, payload, tmp_path):
        payload["documents"][0]["entities"] = "Q1"
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: documents\[0\]\.entities: not a list of entity ids"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    @pytest.mark.parametrize(
        "nulled, reported, shape",
        [(0, 1, "a list"), (2, 2, "null")],
        ids=["null-then-list", "list-then-null"],
    )
    def test_entity_cache_must_cover_every_document_or_none(
        self, medical_corpus, medical_kg, tmp_path, nulled, reported, shape
    ):
        path = tmp_path / "index.json"
        save_index(make_index(medical_corpus, medical_kg), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["documents"][nulled]["entities"] = None
        path = self.corrupt(payload, tmp_path)
        message = (
            rf"corrupt\.json: documents\[{reported}\]\.entities: {shape} where "
            r"documents\[0\]\.entities is not"
        )
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_duplicate_document_id(self, payload, tmp_path):
        payload["documents"][3]["id"] = payload["documents"][0]["id"]
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"documents\[3\]\.id: duplicate document id"):
            load_index(path)

    def test_wrong_shape_names_the_json_path(self, payload, tmp_path):
        del payload["documents"][1]["text"]
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"documents\[1\]\.text: missing"):
            load_index(path)
        payload["documents"] = 5
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"corrupt\.json: documents: malformed"):
            load_index(path)

    def test_non_utf8_artifact_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"format": "caf\xe9"}'.encode("latin-1"))
        with pytest.raises(DataFormatError, match=r"latin1\.json: not UTF-8"):
            load_index(path)

    def test_frequencies_must_match_the_vocabulary(self, payload, tmp_path):
        payload["embedder"]["document_frequency"].pop()
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"embedder\.document_frequency: \d+ values for"):
            load_index(path)
