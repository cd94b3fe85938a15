import copy
import json
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgxir.artifacts import _column, _spelled, index_from_payload, load_index, save_index
from kgxir.cli import main
from kgxir.errors import DataFormatError, UsageError
from kgxir.linking import build_gazetteer
from kgxir.retrieval import build_index, retrieve, select_mis
from kgxir.text import EmbedderModel, embed, fit_embedder

from conftest import build_rerank_fixture, write_medical_files

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent.parent / "demos" / "data"


def make_index(corpus, kg=None):
    model = fit_embedder([d.embedding_text for d in corpus])
    gazetteer = build_gazetteer(kg) if kg is not None else None
    return build_index(corpus, model, gazetteer=gazetteer)


def ints(column):
    """The integers of an integer column string, ``"0 3 6 15"``."""
    return [int(token) for token in column.split(" ")] if column else []


def put(columns, field, i, value):
    """Write ``str(value)`` over the ``i``-th token of an integer column."""
    tokens = columns[field].split(" ")
    tokens[i] = str(value)
    columns[field] = " ".join(tokens)


def shown(token):
    """A token as a load error names it: as written, or quoted when empty
    or unprintable."""
    return token if token.isprintable() and token else repr(token)


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
        assert sorted(payload) == ["documents", "format", "version", "vocabulary"]
        assert payload["version"] == 6
        columns = payload["documents"]
        assert sorted(columns) == ["counts", "entities", "id", "ptr", "terms", "text", "title"]
        # Each integer list is one string of decimals and single spaces.
        lists = [columns["ptr"], columns["terms"], columns["counts"]]
        for column in lists:
            assert type(column) is str and column == " ".join(map(str, ints(column)))
        ptr, counts = ints(columns["ptr"]), ints(columns["counts"])
        assert ptr[0] == 0 and ptr[-1] == len(ints(columns["terms"])) == len(counts)
        assert len(ptr) == len(columns["id"]) + 1
        for start, end in zip(ptr, ptr[1:]):
            terms = ints(columns["terms"])[start:end]
            assert terms == sorted(set(terms))
            assert terms
        assert all(count > 0 for count in counts)

    def test_model_round_trips(self, medical_corpus, tmp_path):
        for corpus in (medical_corpus, build_rerank_fixture(n_docs=1000)[0]):
            index = make_index(corpus)
            path = tmp_path / "index.json"
            save_index(index, path)
            loaded = load_index(path)
            assert loaded.model.vocabulary == index.model.vocabulary
            assert loaded.model.document_frequency == index.model.document_frequency
            assert loaded.model.n_docs == index.model.n_docs
            assert loaded.model.idf.tobytes() == index.model.idf.tobytes()

    def test_model_fit_on_other_documents_is_not_saved(self, medical_corpus, tmp_path):
        # A load derives the model from the rows, so it could not be read back.
        subset = fit_embedder([d.embedding_text for d in medical_corpus[:-1]])
        fitted = fit_embedder([d.embedding_text for d in medical_corpus])
        unused = EmbedderModel(  # one more term, in no document
            [*fitted.vocabulary, "zzz"], [*fitted.document_frequency, 0], fitted.n_docs
        )
        for model in (subset, unused):
            with pytest.raises(UsageError, match="not fit on its own documents"):
                save_index(build_index(medical_corpus, model), tmp_path / "index.json")
        assert not (tmp_path / "index.json").exists()

    def test_entity_cache_round_trips(self, medical_corpus, medical_kg, tmp_path):
        index = make_index(medical_corpus, medical_kg)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.entities == index.entities

    def test_no_entity_cache_stays_absent(self, medical_corpus, tmp_path):
        index = make_index(medical_corpus)
        save_index(index, tmp_path / "index.json")
        assert load_index(tmp_path / "index.json").entities is None

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

    def test_saving_a_loaded_index_gives_the_same_bytes(self, medical_corpus, medical_kg, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_index(make_index(medical_corpus, medical_kg), first)
        save_index(load_index(first), second)
        assert first.read_bytes() == second.read_bytes()


# The strings a fuzzed column is built from: digits, the separator, what a
# number may hold elsewhere (sign, point, exponent), other whitespace and
# digits that ``int`` accepts but the format does not.
COLUMN_ALPHABET = "0123456789 -+.e\t\n\u0663\uff13"


def canonical(token):
    """Whether ``token`` is a decimal in 0..2**63 - 1 as ``str`` writes it."""
    # 2**63 - 1 has 19 digits, and ``int`` refuses a string of thousands.
    if not (token.isascii() and token.isdigit() and len(token) <= 19):
        return False
    return str(int(token)) == token and int(token) < 2**63


def writable(text):
    """Whether ``save_index`` could write ``text``: empty, or canonical
    decimals separated by single spaces."""
    return all(map(canonical, text.split(" "))) if text else True


def counts_payload(counts):
    """A one-document artifact whose ``counts`` column is ``counts`` and
    whose term ids are 0, 1, ... one per token, so only a count can be bad."""
    size = len(counts.split(" ")) if counts else 0
    return {
        "format": "kgxir-index",
        "version": 6,
        "vocabulary": [f"t{i:03d}" for i in range(size)],
        "documents": {
            "id": ["d"],
            "title": [""],
            "text": [""],
            "ptr": f"0 {size}",
            "terms": " ".join(map(str, range(size))),
            "counts": counts,
            "entities": None,
        },
    }


class TestColumnCodec:
    """An integer column round-trips exactly, and a string that
    ``save_index`` could not have written is a located error: never a
    traceback, a warning, or a value clamped or cut short."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1)))
    @example([])
    @example([0])
    @example([2**63 - 1])
    @example([10**18, 2**63 - 1, 0, 9_999_999_999_999_999])
    def test_integers_round_trip(self, values):
        text = _spelled(values)
        assert text == " ".join(map(str, values))
        decoded = _column(text)
        assert decoded.dtype == np.int64 and decoded.tolist() == values
        assert _spelled(decoded.tolist()) == text

    @settings(derandomize=True, deadline=None, max_examples=1000)
    @given(
        st.one_of(
            st.text(alphabet=COLUMN_ALPHABET, max_size=24),
            st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=6).map(_spelled),
        )
    )
    @example("")
    @example("0")
    @example("9223372036854775807")
    @example("9223372036854775808")
    @example("10000000000000000000")
    @example("1" * 5000)
    @example("-0")
    @example("-1")
    @example("01")
    @example("1  2")
    @example(" 1")
    @example("1 ")
    @example(" ")
    @example("+1")
    @example("1.0")
    @example("1e3")
    @example("1\t2")
    @example("2\n")
    @example("\u0663")
    @example("\uff13")
    def test_fuzzed_counts_decode_or_are_located(self, counts):
        payload = counts_payload(counts)
        tokens = counts.split(" ") if counts else []
        values = [int(t) if canonical(t) else 0 for t in tokens]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if writable(counts):
                assert _column(counts).tolist() == values
            bad = [i for i, value in enumerate(values) if value < 1]
            if not bad:
                index = index_from_payload(payload, source="p.json")
                assert index.doc_counts.tolist() == values
                return
            with pytest.raises(DataFormatError) as caught:
                index_from_payload(payload, source="p.json")
        i = bad[0]
        assert str(caught.value) == (
            f"p.json: documents.counts[{i}] (document 'd'): term id {i} has count "
            f"{shown(tokens[i])}; counts must be positive integers below 2**63"
        )


class TestFormatChecks:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(DataFormatError, match="not a"):
            load_index(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format": "kgxir-index", "version": 999, "vocabulary": [], "documents": []}',
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="version"):
            load_index(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_index(path)

    def test_deeply_nested_json_rejected(self, tmp_path):
        # The decoder's RecursionError once escaped as a traceback.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000, encoding="utf-8")
        with pytest.raises(DataFormatError) as raised:
            load_index(path)
        assert str(raised.value) == f"{path}: invalid JSON (nested too deeply)"

    def test_integer_past_the_digit_limit_rejected(self, tmp_path):
        # CPython refuses to decode an integer of more than 4,300 digits with
        # a plain ValueError, which once reached the user without the file.
        path = tmp_path / "long.json"
        path.write_text('{"format": "kgxir-index", "version": 6, "n": ' + "1" * 5000 + "}")
        with pytest.raises(DataFormatError) as raised:
            load_index(path)
        assert str(raised.value).startswith(f"{path}: invalid JSON (Exceeds the limit (4300 ")


def integer(token):
    """The value of a token written as JSON writes an integer (of any size,
    and with a minus sign too), else None."""
    digits = token.removeprefix("-")
    if token.isascii() and digits.isdigit() and str(int(digits)) == digits and token != "-0":
        return int(token)
    return None


def first_bad_pair(payload, dimension):
    """The message for the first bad (term id, count) pair, found pair by
    pair in file order, or else for the first vocabulary term that no pair
    holds; None when every pair is good and every term held."""
    columns = payload["documents"]
    held = set()
    ptr = ints(columns["ptr"])
    all_terms, all_counts = columns["terms"].split(" "), columns["counts"].split(" ")
    for row, doc_id in enumerate(columns["id"]):
        previous = -1
        for i in range(ptr[row], ptr[row + 1]):
            token, count = all_terms[i], all_counts[i]
            pair = f"[{i}] (document {doc_id!r})"
            term = integer(token)
            if term is None:
                return f"documents.terms{pair}: term id {shown(token)} is not an integer"
            if not 0 <= term < dimension:
                return (
                    f"documents.terms{pair}: term id {term} is outside the vocabulary "
                    f"(0..{dimension - 1})"
                )
            if term <= previous:
                return (
                    f"documents.terms{pair}: term id {term} follows term id {previous}; "
                    "term ids must be strictly ascending"
                )
            if not (canonical(count) and int(count) > 0):
                return (
                    f"documents.counts{pair}: term id {term} has count {shown(count)}; "
                    "counts must be positive integers below 2**63"
                )
            previous = term
            held.add(term)
    vocabulary = payload["vocabulary"]
    for i, term in enumerate(vocabulary):
        if i not in held:
            return f"vocabulary[{i}]: {term!r} is in no document"
    return None


def located(payload, field, row, k):
    """The flat index of the ``k``-th pair of document ``row``, and the JSON
    path and document that an error about it names."""
    columns = payload["documents"]
    i = ints(columns["ptr"])[row] + k
    return i, f"documents.{field}[{i}] (document {columns['id'][row]!r})"


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
        i, where = located(payload, "terms", 1, 0)
        put(payload["documents"], "terms", i, 999999)
        path = self.corrupt(payload, tmp_path)
        message = f"corrupt.json: {where}: term id 999999 is outside"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_index(path)

    def test_negative_term_id(self, payload, tmp_path):
        i, where = located(payload, "terms", 0, 0)
        put(payload["documents"], "terms", i, -1)
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=re.escape(f"{where}: term id -1 is outside")):
            load_index(path)

    def test_repeated_or_unordered_term_ids(self, payload, tmp_path):
        i, where = located(payload, "terms", 1, 1)
        terms = ints(payload["documents"]["terms"])
        first, second = terms[i - 1], terms[i]
        for pair, previous, term in (
            ([first, first], first, first),  # repeated
            ([second, first], second, first),  # unordered
        ):
            terms[i - 1 : i + 1] = pair
            payload["documents"]["terms"] = " ".join(map(str, terms))
            path = self.corrupt(payload, tmp_path)
            message = (
                f"corrupt.json: {where}: term id {term} follows term id "
                f"{previous}; term ids must be strictly ascending"
            )
            with pytest.raises(DataFormatError, match=re.escape(message)):
                load_index(path)

    def test_term_id_must_be_an_integer(self, payload, tmp_path):
        i, where = located(payload, "terms", 0, 0)
        put(payload["documents"], "terms", i, 2.5)
        path = self.corrupt(payload, tmp_path)
        message = f"{where}: term id 2.5 is not an integer"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_index(path)

    @pytest.mark.parametrize("count", [-1, 0, 2.5, True, None], ids=repr)
    def test_count_must_be_a_positive_integer(self, payload, tmp_path, count):
        i, where = located(payload, "counts", 2, 1)
        term = ints(payload["documents"]["terms"])[i]
        put(payload["documents"], "counts", i, count)
        path = self.corrupt(payload, tmp_path)
        message = (
            f"corrupt.json: {where}: term id {term} has count "
            f"{count!r}; counts must be positive integers"
        )
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_index(path)

    @pytest.mark.parametrize("field", ["terms", "counts"])
    def test_value_past_int64_is_located(self, payload, tmp_path, capsys, field):
        # A term id or count of 2**63 or more once ended the loader with an
        # OverflowError traceback and exit 1.
        i, where = located(payload, field, 2, 1)
        term = ints(payload["documents"]["terms"])[i]
        put(payload["documents"], field, i, 10**20)
        path = self.corrupt(payload, tmp_path)
        if field == "terms":
            problem = f"term id {10**20} is outside the vocabulary"
        else:
            problem = (
                f"term id {term} has count {10**20}; "
                "counts must be positive integers below 2**63"
            )
        message = f"{path}: {where}: {problem}"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_index(path)
        assert main(["query", "heart disease", "--index", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_counts_must_pair_with_the_term_ids(self, payload, tmp_path):
        columns = payload["documents"]
        size = len(ints(columns["terms"]))
        message = rf"corrupt\.json: documents\.counts: not a list of {size} counts"
        good = columns["counts"]
        # One count short, one too many, the integer list of format 4, an object.
        for counts in (good.rsplit(" ", 1)[0], good + " 1", ints(good), {"0": 1}):
            columns["counts"] = counts
            path = self.corrupt(payload, tmp_path)
            with pytest.raises(DataFormatError, match=message):
                load_index(path)

    def test_missing_or_malformed_term_ids(self, payload, tmp_path):
        columns = payload["documents"]
        columns["terms"] = ints(columns["terms"])  # the integer list of format 4
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: documents\.terms: not a list of term ids"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)
        del columns["terms"]
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: documents\.terms: missing"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_row_starts_must_run_from_0_to_the_term_count(self, payload, tmp_path):
        columns = payload["documents"]
        ptr, size = ints(columns["ptr"]), len(ints(columns["terms"]))
        message = (
            rf"corrupt\.json: documents\.ptr: not {len(ptr)} row starts running from 0 to "
            rf"{size} \(the number of term ids\) without decreasing"
        )
        for bad in (
            ptr[:-1],  # one row start short
            [*ptr, size],  # one too many
            [1, *ptr[1:]],  # not from 0
            [*ptr[:-1], size - 1],  # not to the end
            [0, ptr[2], ptr[1], *ptr[3:]],  # decreasing
            [0, float(ptr[1]), *ptr[2:]],  # not an integer
            [0, f"0{ptr[1]}", *ptr[2:]],  # a leading zero
            [0, 2**63, *ptr[2:]],  # past int64
        ):
            columns["ptr"] = " ".join(map(str, bad))
            path = self.corrupt(payload, tmp_path)
            with pytest.raises(DataFormatError, match=message):
                load_index(path)
        for bad in (ptr, 0):  # the integer list of format 4, and a number
            columns["ptr"] = bad
            path = self.corrupt(payload, tmp_path)
            with pytest.raises(DataFormatError, match=message):
                load_index(path)

    @pytest.mark.parametrize("name", ["title", "text"])
    def test_columns_must_have_one_string_per_document(self, payload, tmp_path, name):
        columns = payload["documents"]
        column = columns[name]
        message = (
            rf"corrupt\.json: documents\.{name}: not a list of {len(column)} strings, "
            "one per document"
        )
        for bad in (column[:-1], [*column, "extra"], "".join(column)):
            columns[name] = bad
            path = self.corrupt(payload, tmp_path)
            with pytest.raises(DataFormatError, match=message):
                load_index(path)
        columns[name] = [*column[:2], None, *column[3:]]
        path = self.corrupt(payload, tmp_path)
        message = rf"corrupt\.json: documents\.{name}\[2\]: None is not a string"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_first_bad_pair_in_file_order_is_reported(self, payload):
        # The check runs over all documents at once, but reports what a
        # loop over the pairs in file order meets first, a term id before
        # its count. Random corruptions are checked against such a loop.
        dimension = len(payload["vocabulary"])
        values = [-(10**20), -1, 0, 1, 2.5, True, None, "'7'", [1], dimension - 1, dimension]
        values += [10**20, "", "-0", "07", "+7", "1e3", "7\t", "\u0663", 2**63 - 1, 2**63]
        rng = random.Random(0)
        for _ in range(300):
            corrupted = copy.deepcopy(payload)
            columns = corrupted["documents"]
            ptr = ints(columns["ptr"])
            if rng.random() < 0.2:  # an empty row before the others
                for field in ("terms", "counts"):
                    columns[field] = " ".join(columns[field].split(" ")[ptr[1] :])
                ptr[1:] = [start - ptr[1] for start in ptr[1:]]
                columns["ptr"] = " ".join(map(str, ptr))
            for _ in range(rng.randint(1, 3)):
                row = rng.randrange(1, len(ptr) - 1)
                field = rng.choice(["terms", "counts"])
                put(columns, field, rng.randrange(ptr[row], ptr[row + 1]), rng.choice(values))
            expected = first_bad_pair(corrupted, dimension)
            if expected is None:
                index_from_payload(corrupted, source="p.json")
                continue
            with pytest.raises(DataFormatError) as caught:
                index_from_payload(corrupted, source="p.json")
            assert str(caught.value) == f"p.json: {expected}"

    def test_vocabulary_terms_must_be_strings(self, payload, tmp_path):
        payload["vocabulary"][3] = 5
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: vocabulary\[3\]: 5 is not a string"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)
        # A string of ascending characters is not a vocabulary either.
        size = len(payload["vocabulary"])
        payload["vocabulary"] = "".join(chr(0x100 + i) for i in range(size))
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: vocabulary: not a list of terms"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_repeated_or_unordered_vocabulary_terms(self, payload, tmp_path):
        vocabulary = payload["vocabulary"]
        third, fourth = vocabulary[3], vocabulary[4]
        for terms, term, previous in (
            ([*vocabulary[:4], third, *vocabulary[5:]], third, third),  # repeated
            ([*vocabulary[:3], fourth, third, *vocabulary[5:]], third, fourth),  # unordered
        ):
            payload["vocabulary"] = terms
            path = self.corrupt(payload, tmp_path)
            message = (
                rf"corrupt\.json: vocabulary\[4\]: {term!r} follows {previous!r}; "
                r"terms must be strictly ascending"
            )
            with pytest.raises(DataFormatError, match=message):
                load_index(path)

    def test_repeated_vocabulary_term_fails_the_query_command(self, payload, tmp_path, capsys):
        # A repeated term once loaded: its query weight went to the last
        # copy while documents counted it at the first, and the query
        # ranked silently wrong and exited 0.
        vocabulary = payload["vocabulary"]
        vocabulary[4] = vocabulary[3]
        path = self.corrupt(payload, tmp_path)
        assert main(["query", "heart disease", "--index", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: vocabulary[4]: {vocabulary[3]!r} follows" in err

    def test_vocabulary_term_in_no_document_is_refused(self, payload, tmp_path, capsys):
        # Its df would be 0: a term the rows do not fit.
        vocabulary = payload["vocabulary"]
        vocabulary.append(vocabulary[-1] + "z")
        path = self.corrupt(payload, tmp_path)
        message = f"{path}: vocabulary[{len(vocabulary) - 1}]: {vocabulary[-1]!r} is in no document"
        with pytest.raises(DataFormatError) as caught:
            load_index(path)
        assert str(caught.value) == message
        assert main(["query", "heart disease", "--index", str(path)]) == 2
        assert capsys.readouterr().err == f"kgxir: data error: {message}\n"

    def test_version_1_artifact_is_rejected_with_a_rebuild_hint(self, payload, tmp_path, capsys):
        # Version 1 stored float weights and sentence spans, version 2
        # [term id, count] pairs, version 3 one record per document with
        # its terms and counts, version 4 each integer column as a JSON
        # list and version 5 the embedder's document frequencies and
        # corpus size; none has a reader.
        columns = payload["documents"]
        df = np.bincount(ints(columns["terms"]), minlength=len(payload["vocabulary"]))
        embedder = {
            "n_docs": len(columns["id"]),
            "vocabulary": payload.pop("vocabulary"),
            "document_frequency": " ".join(map(str, df.tolist())),
        }
        payload["embedder"] = embedder
        for version in (5, 4):
            if version == 4:
                embedder["document_frequency"] = ints(embedder["document_frequency"])
                for field in ("ptr", "terms", "counts"):
                    columns[field] = ints(columns[field])
            payload["version"] = version
            path = self.corrupt(payload, tmp_path)
            assert main(["query", "heart disease", "--index", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"{path}: unsupported artifact version {version} (expected 6)" in err
            assert "rebuild it with `kgxir index`" in err
        ptr = columns["ptr"]
        fields = zip(columns["id"], columns["title"], columns["text"], ptr, ptr[1:])
        payload["documents"] = [
            {
                "id": doc_id,
                "title": title,
                "text": text,
                "terms": columns["terms"][start:end],
                "counts": columns["counts"][start:end],
                "entities": None,
            }
            for doc_id, title, text, start, end in fields
        ]
        for version in (3, 2, 1):
            if version == 2:
                for record in payload["documents"]:
                    pairs = zip(record.pop("terms"), record.pop("counts"))
                    record["vector"] = [list(pair) for pair in pairs]
            if version == 1:
                for record in payload["documents"]:
                    record["sentences"] = [[0, len(record["text"])]]
                    record["vector"] = [[term, 0.5] for term, _ in record["vector"]]
            payload["version"] = version
            path = self.corrupt(payload, tmp_path)
            assert main(["query", "heart disease", "--index", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"{path}: unsupported artifact version {version} (expected 6)" in err
            assert "rebuild it with `kgxir index`" in err

    def test_missing_vocabulary(self, payload, tmp_path):
        del payload["vocabulary"]
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"corrupt\.json: vocabulary: missing"):
            load_index(path)

    def test_document_id_must_be_a_string(self, payload, tmp_path):
        payload["documents"]["id"][0] = 5
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: documents\.id\[0\]: 5 is not a string"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_entities_must_be_a_list_of_ids(self, payload, tmp_path):
        columns = payload["documents"]
        columns["entities"] = [[] for _ in columns["id"]]
        columns["entities"][0] = "Q1"
        path = self.corrupt(payload, tmp_path)
        message = r"corrupt\.json: documents\.entities\[0\]: not a list of entity ids"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    @pytest.mark.parametrize("nulled", [0, 2], ids=["null-then-list", "list-then-null"])
    def test_entity_cache_must_cover_every_document_or_none(
        self, medical_corpus, medical_kg, tmp_path, nulled
    ):
        # The cache is null as a whole or a list for every document: one
        # null entry among lists is refused where it stands.
        path = tmp_path / "index.json"
        save_index(make_index(medical_corpus, medical_kg), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["documents"]["entities"][nulled] = None
        path = self.corrupt(payload, tmp_path)
        message = rf"corrupt\.json: documents\.entities\[{nulled}\]: not a list of entity ids"
        with pytest.raises(DataFormatError, match=message):
            load_index(path)

    def test_entity_cache_must_have_one_list_per_document(
        self, medical_corpus, medical_kg, tmp_path
    ):
        path = tmp_path / "index.json"
        save_index(make_index(medical_corpus, medical_kg), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        entities = payload["documents"]["entities"]
        n = len(entities)
        message = rf"corrupt\.json: documents\.entities: not null or {n} lists, one per document"
        for bad in (entities[:-1], [*entities, []]):
            payload["documents"]["entities"] = bad
            path = self.corrupt(payload, tmp_path)
            with pytest.raises(DataFormatError, match=message):
                load_index(path)

    def test_artifact_without_documents_is_refused(self, payload, tmp_path, capsys):
        # An artifact with no documents once loaded: a query printed an
        # empty result and exited 0, and re-ranking blamed a missing entity
        # cache (exit 1).
        files = write_medical_files(tmp_path)
        columns = payload["documents"]
        columns.update(id=[], title=[], text=[], ptr="0", terms="", counts="", entities=[])
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"corrupt\.json: documents: no documents"):
            load_index(path)
        kg = [f"--kg-{name}={files[name]}" for name in ("entities", "relations", "edges")]
        argv = ["query", "heart disease", "--index", str(path), *kg, "--relatedness", "complement"]
        assert main(argv) == 2
        assert f"{path}: documents: no documents" in capsys.readouterr().err

    def test_duplicate_document_id(self, payload, tmp_path):
        ids = payload["documents"]["id"]
        ids[3] = ids[0]
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"documents\.id\[3\]: duplicate document id"):
            load_index(path)

    def test_wrong_shape_names_the_json_path(self, payload, tmp_path):
        del payload["documents"]["text"]
        path = self.corrupt(payload, tmp_path)
        with pytest.raises(DataFormatError, match=r"documents\.text: missing"):
            load_index(path)
        for documents in (5, []):
            payload["documents"] = documents
            path = self.corrupt(payload, tmp_path)
            with pytest.raises(DataFormatError, match=r"corrupt\.json: documents: malformed"):
                load_index(path)

    def test_non_utf8_artifact_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"format": "caf\xe9"}'.encode("latin-1"))
        with pytest.raises(DataFormatError, match=r"latin1\.json: not UTF-8"):
            load_index(path)


# What a mutation writes over a value: each of JSON's kinds, integers out of
# range, and strings that an integer list must not hold.
MUTANTS = [None, True, -1, 2**63, 1.5, "", "01", "1  2", [], {}, [[]]]
RERANKED = [
    *(f"--kg-{name}={DATA / f'kg_{name}.tsv'}" for name in ("entities", "relations", "edges")),
    "--linker", "gazetteer", "--expand", "on", "--relatedness", "complement",
]


def mutated(payload, rng):
    """A copy of ``payload`` with the value at a random JSON path, below the
    top level, replaced by one of ``MUTANTS`` or deleted."""
    payload = copy.deepcopy(payload)
    parent, key = payload, rng.choice(["format", "version", "vocabulary", *["documents"] * 3])
    while isinstance(child := parent[key], (dict, list)) and child and rng.random() < 0.75:
        parent, key = child, rng.choice(list(child) if isinstance(child, dict) else range(len(child)))
    if rng.random() < 0.3:
        del parent[key]
    else:
        parent[key] = rng.choice(MUTANTS)
    return payload


def test_mutated_golden_artifact_is_answered_or_located(tmp_path, capsys):
    """A query on the golden artifact with any one value replaced or deleted
    exits 0, or 2 with one located line; never a traceback. Exit 1 is left
    for a re-ranked query on a valid artifact without an entity cache."""
    golden = json.loads((GOLDEN / "index-kg.json").read_text(encoding="utf-8"))
    rng = random.Random(6)
    path = tmp_path / "mutant.json"
    for _ in range(250):
        payload = mutated(golden, rng)
        path.write_text(json.dumps(payload), encoding="utf-8")
        for flags in ([], RERANKED):
            code = main(["query", "heart disease", "--index", str(path), *flags])
            err = capsys.readouterr().err
            if code == 0:
                continue
            assert err.count("\n") == 1 and err.endswith("\n"), err
            if code == 1:
                assert flags and payload["documents"]["entities"] is None, err
                assert err.startswith("kgxir: error: re-ranking needs the index's per-document")
                continue
            located = (f"kgxir: data error: {path}: ",)
            if flags:  # the KG is read after the artifact: a cached id it lacks names its document
                located += ("kgxir: data error: document ",)
            assert code == 2 and err.startswith(located), err
