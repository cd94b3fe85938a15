import json

import numpy as np
import pytest

from kgxir.artifacts import load_index, save_index
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
        for row, doc_id in enumerate(index.documents):
            expected = embed(index.documents[doc_id].embedding_text, index.model)
            assert np.array_equal(loaded.dense_row(row), expected)
            assert loaded.sentences[doc_id] == index.sentences[doc_id]
            assert loaded.documents[doc_id] == index.documents[doc_id]

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
        payload["documents"][1]["vector"][0][0] = 999999
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: documents\[1\]\.vector: term id 999999 is outside"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_negative_term_id(self, payload, tmp_path):
        payload["documents"][0]["vector"][0][0] = -1
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"documents\[0\]\.vector: term id -1 is outside"):
            load_index(path)

    def test_repeated_or_unordered_term_ids(self, payload, tmp_path):
        vector = payload["documents"][1]["vector"]
        first, second = vector[0][0], vector[1][0]
        for pairs, previous, term in (
            ([vector[0], vector[0], *vector[1:]], first, first),  # repeated
            ([vector[1], vector[0], *vector[2:]], second, first),  # unordered
        ):
            payload["documents"][1]["vector"] = pairs
            path = self.corrupt(payload, tmp_path)
            message = (
                rf"corrupt\.json: documents\[1\]\.vector: term id {term} follows term id "
                rf"{previous}; term ids must be strictly ascending"
            )
            with pytest.raises(DataFormatError, match=message):
                load_index(path)

    def test_term_id_and_weight_must_be_numbers(self, payload, tmp_path):
        payload["documents"][0]["vector"][0][0] = 2.5
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"vector: term id 2\.5 is not an integer"):
            load_index(path)
        payload["documents"][0]["vector"][0] = [0, None]
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"documents: a vector weight is not a number"):
            load_index(path)

    def test_missing_embedder(self, payload, tmp_path):
        del payload["embedder"]
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"corrupt\.json: embedder: missing"):
            load_index(path)

    def test_inverted_sentence_span(self, payload, tmp_path):
        payload["documents"][2]["sentences"][0] = [5, 2]
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"documents\[2\]\.sentences\[0\]: \[5, 2\]"):
            load_index(path)

    def test_span_bounds_must_be_integers(self, payload, tmp_path):
        payload["documents"][0]["sentences"][0] = [0.5, 55]
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: documents\[0\]\.sentences\[0\]: \[0\.5, 55\]"
        with pytest.raises(DataFormatError, match=message):
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
