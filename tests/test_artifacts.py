import copy
import json
import random
import re
import tempfile
import warnings
from collections import Counter
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgxir.artifacts import _column, _spelled, index_from_payload, load_index, save_index
from kgxir.cli import main
from kgxir.errors import DataFormatError, UsageError
from kgxir.kg import load_kg
from kgxir.linking import build_gazetteer
from kgxir.retrieval import Document, build_index, load_corpus, retrieve, select_mis
from kgxir.text import EmbedderModel, embed, fit_embedder

from conftest import arrays_of, build_rerank_fixture, write_medical_files

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


def running_sums(column, ptr):
    """Each row's term ids, once per count, read from the gap tokens of
    ``column`` one by one."""
    tokens = ints(column)
    return [list(accumulate(tokens[start:end])) for start, end in zip(ptr, ptr[1:])]


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
        index = make_index(medical_corpus)
        path = tmp_path / "index.json"
        save_index(index, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(payload) == ["documents", "format", "version", "vocabulary"]
        assert payload["version"] == 7
        columns = payload["documents"]
        assert sorted(columns) == ["entities", "id", "ptr", "terms", "text", "title"]
        # Each integer list is one string of decimals and single spaces.
        for column in (columns["ptr"], columns["terms"]):
            assert type(column) is str and column == " ".join(map(str, ints(column)))
        ptr = ints(columns["ptr"])
        assert ptr[0] == 0 and ptr[-1] == len(ints(columns["terms"]))
        assert len(ptr) == len(columns["id"]) + 1
        # A row's running sums are its term ids, once per count: the runs
        # are the index's terms and counts.
        for row, sums in enumerate(running_sums(columns["terms"], ptr)):
            start, end = index.doc_ptr[row], index.doc_ptr[row + 1]
            assert sums and sums == sorted(sums)
            runs = Counter(sums)
            assert list(runs) == index.doc_terms[start:end].tolist()
            assert list(runs.values()) == index.doc_counts[start:end].tolist()

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


def word(term):
    """The text of term id ``term``: the ids sort as their words do."""
    return f"w{term:05d}"


class TestGapCoding:
    """Each row is written as its term ids, once per count, gap-coded; a
    load gives back the built index's arrays, bit for bit, and saving it
    again the same bytes."""

    def test_rows_are_written_as_first_term_id_then_gaps(self, tmp_path):
        # Term ids 3 x 2, 7 and 9 x 3, then an empty row and term 0 twice.
        docs = [Document("a", "d d h j j j"), Document("b", "?!"), Document("c", "a a")]
        words = [Document("words", " ".join("abcdefghij"))]
        index = build_index(words + docs)
        save_index(index, tmp_path / "index.json")
        columns = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))["documents"]
        assert columns["terms"] == "0 1 1 1 1 1 1 1 1 1 3 0 4 2 0 0 0 0"
        assert columns["ptr"] == "0 10 16 16 18"
        loaded = load_index(tmp_path / "index.json")
        assert loaded.doc_counts[10:].tolist() == [2, 1, 3, 2]

    @pytest.mark.parametrize("name", ["index-kg.json", "index-no-kg.json"])
    def test_golden_artifact_loads_as_built(self, tmp_path, name):
        files = [DATA / f"kg_{part}.tsv" for part in ("entities", "relations", "edges")]
        kg = load_kg(*files) if name == "index-kg.json" else None
        built = make_index(load_corpus(DATA / "corpus.jsonl"), kg)
        loaded = load_index(GOLDEN / name)
        assert arrays_of(loaded) == arrays_of(built)
        assert loaded.entities == built.entities
        save_index(loaded, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        st.sampled_from([0, 1, 2, 255, 256, 257]),  # ids of 8 bits up to 256 terms
        st.lists(
            st.dictionaries(st.integers(0, 2**16), st.integers(1, 300), max_size=6),
            min_size=1,
            max_size=6,
        ),
        st.booleans(),
    )
    @example(0, [{}, {}, {}], False)  # every row empty, and no vocabulary
    @example(256, [{255: 300, 0: 1}, {}, {128: 2}], True)
    @example(65_535, [{}, {65_534: 300, 0: 1, 255: 2}, {}], False)
    @example(65_536, [{65_535: 1, 65_534: 299}, {256: 300}, {}], True)
    @example(65_537, [{65_536: 3}, {}], False)
    def test_rows_round_trip(self, size, drawn, vocabulary_first):
        rows = [Counter({t % size: c for t, c in row.items()}) if size else Counter() for row in drawn]
        # A document holding every term once makes the vocabulary ``size`` terms.
        everything = [Counter(range(size))] if size else []
        rows = everything + rows if vocabulary_first else rows + everything
        docs = [
            Document(f"d{i}", " ".join(" ".join([word(t)] * c) for t, c in row.items()) or "?!")
            for i, row in enumerate(rows)
        ]
        built = build_index(docs)
        assert built.model.dimension == size
        with tempfile.TemporaryDirectory() as directory:
            first, second = Path(directory) / "first.json", Path(directory) / "second.json"
            save_index(built, first)
            loaded = load_index(first)
            save_index(loaded, second)
            assert first.read_bytes() == second.read_bytes()
            columns = json.loads(first.read_text(encoding="utf-8"))["documents"]
        assert arrays_of(loaded) == arrays_of(built)
        # The tokens, written out: a row's first term id, then each gap.
        tokens, ptr = [], [0]
        for row in rows:
            ids = [t for t in sorted(row) for _ in range(row[t])]
            tokens += [b - a for a, b in zip([0, *ids], ids)]
            ptr.append(len(tokens))
        assert columns["terms"] == " ".join(map(str, tokens))
        assert columns["ptr"] == " ".join(map(str, ptr))


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


# The term ids that a fuzzed row may name, and a second row holding each
# once, so that only the fuzzed row can be bad.
FUZZ_TERMS = 100
EVERY_TERM = " ".join(["0"] + ["1"] * (FUZZ_TERMS - 1))


def tokens_payload(tokens):
    """A two-document artifact whose first row is the gap tokens ``tokens``."""
    size = len(tokens.split(" ")) if tokens else 0
    return {
        "format": "kgxir-index",
        "version": 7,
        "vocabulary": [f"t{i:03d}" for i in range(FUZZ_TERMS)],
        "documents": {
            "id": ["d", "every"],
            "title": ["", ""],
            "text": ["", ""],
            "ptr": f"0 {size} {size + FUZZ_TERMS}",
            "terms": f"{tokens} {EVERY_TERM}" if tokens else EVERY_TERM,
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
            st.lists(st.integers(min_value=0, max_value=40), max_size=8).map(_spelled),
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
    @example("98 1")  # the last term id
    @example("98 2")  # a gap in range by itself, past the vocabulary as a sum
    @example("3 0 4 2 0 0")
    def test_fuzzed_tokens_decode_or_are_located(self, text):
        payload = tokens_payload(text)
        tokens = text.split(" ") if text else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if writable(text):
                assert _column(text).tolist() == list(map(int, tokens))
            expected, sums = None, []
            for i, token in enumerate(tokens):  # the first bad token in file order
                if not canonical(token):
                    expected = f"token {shown(token)} is not a canonical decimal below 2**63"
                elif (total := sum(map(int, tokens[: i + 1]))) >= FUZZ_TERMS:
                    expected = f"term id {total} is outside the vocabulary (0..{FUZZ_TERMS - 1})"
                else:
                    sums.append(total)
                    continue
                break
            if expected is None:
                index = index_from_payload(payload, source="p.json")
                end = index.doc_ptr[1]
                assert index.doc_terms[:end].tolist() == list(Counter(sums))
                assert index.doc_counts[:end].tolist() == list(Counter(sums).values())
                return
            with pytest.raises(DataFormatError) as caught:
                index_from_payload(payload, source="p.json")
        assert str(caught.value) == f"p.json: documents.terms[{i}] (document 'd'): {expected}"


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

    def test_golden_set_back_to_version_6_is_refused(self, tmp_path, capsys):
        golden = (GOLDEN / "index-kg.json").read_text(encoding="utf-8")
        assert golden.count('"version": 7') == 1
        path = tmp_path / "index-v6.json"
        path.write_text(golden.replace('"version": 7', '"version": 6'), encoding="utf-8")
        assert main(["query", "heart disease", "--index", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: unsupported artifact version 6 (expected 7)" in err
        assert "rebuild it with `kgxir index`" in err

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


def first_bad_token(payload, dimension):
    """The message for the first bad token, found token by token in file
    order with each row's running sum, or else for the first vocabulary
    term that no row holds; None when every token is good and every term
    held."""
    columns = payload["documents"]
    held = set()
    ptr = ints(columns["ptr"])
    tokens = columns["terms"].split(" ")
    for row, doc_id in enumerate(columns["id"]):
        term = 0
        for i in range(ptr[row], ptr[row + 1]):
            at = f"documents.terms[{i}] (document {doc_id!r})"
            if not canonical(tokens[i]):
                return f"{at}: token {shown(tokens[i])} is not a canonical decimal below 2**63"
            term += int(tokens[i])
            if term >= dimension:
                return f"{at}: term id {term} is outside the vocabulary (0..{dimension - 1})"
            held.add(term)
    vocabulary = payload["vocabulary"]
    for i, term in enumerate(vocabulary):
        if i not in held:
            return f"vocabulary[{i}]: {term!r} is in no document"
    return None


def located(payload, field, row, k):
    """The flat index of the ``k``-th token of document ``row``, and the JSON
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
        message = f"{where}: token -1 is not a canonical decimal below 2**63"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_index(path)

    @pytest.mark.parametrize("last", [False, True], ids=["middle", "last"])
    def test_running_sum_past_the_vocabulary(self, payload, tmp_path, capsys, last):
        # Every gap is in range by itself, but one of a row, after a term id
        # above 0, takes its running sum, the term id, past the vocabulary.
        # A check of each token alone would miss it.
        dimension = len(payload["vocabulary"])
        ptr, tokens = ints(payload["documents"]["ptr"]), ints(payload["documents"]["terms"])
        after = [k for k in range(1, ptr[2] - ptr[1]) if sum(tokens[ptr[1] : ptr[1] + k])]
        i, where = located(payload, "terms", 1, after[-1 if last else 0])
        previous = sum(tokens[ptr[1] : i])
        put(payload["documents"], "terms", i, dimension - 1)
        path = self.corrupt(payload, tmp_path)
        message = (
            f"{path}: {where}: term id {previous + dimension - 1} is outside the vocabulary "
            f"(0..{dimension - 1})"
        )
        with pytest.raises(DataFormatError) as caught:
            load_index(path)
        assert str(caught.value) == message
        assert main(["query", "heart disease", "--index", str(path)]) == 2
        assert capsys.readouterr().err == f"kgxir: data error: {message}\n"

    def test_term_id_must_be_an_integer(self, payload, tmp_path):
        i, where = located(payload, "terms", 0, 0)
        put(payload["documents"], "terms", i, 2.5)
        path = self.corrupt(payload, tmp_path)
        message = f"{where}: token 2.5 is not a canonical decimal below 2**63"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_index(path)

    @pytest.mark.parametrize("field", ["terms", "ptr"])
    def test_value_past_int64_is_located(self, payload, tmp_path, capsys, field):
        # A term id, count or row start of 2**63 or more once ended the
        # loader with an OverflowError traceback and exit 1.
        i, where = located(payload, "terms", 2, 1)
        if field == "terms":
            put(payload["documents"], field, i, 10**20)
            problem = f"{where}: token {10**20} is not a canonical decimal below 2**63"
        else:
            put(payload["documents"], field, 2, 10**20)
            problem = f"documents.ptr: not {len(payload['documents']['id']) + 1} row starts"
        path = self.corrupt(payload, tmp_path)
        message = f"{path}: {problem}"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_index(path)
        assert main(["query", "heart disease", "--index", str(path)]) == 2
        assert message in capsys.readouterr().err

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
            rf"{size} \(the number of tokens\) without decreasing"
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
        # loop over the tokens in file order meets first: a token that is
        # not canonical, or one whose running sum leaves the vocabulary.
        # Random corruptions are checked against such a loop.
        dimension = len(payload["vocabulary"])
        values = [-(10**20), -1, 0, 1, 2.5, True, None, "'7'", [1], dimension - 1, dimension]
        values += [10**20, "", "-0", "07", "+7", "1e3", "7\t", "\u0663", 2**63 - 1, 2**63]
        values += [2, 5, dimension // 2]  # gaps in range by themselves
        rng = random.Random(0)
        for _ in range(300):
            corrupted = copy.deepcopy(payload)
            columns = corrupted["documents"]
            ptr = ints(columns["ptr"])
            if rng.random() < 0.2:  # an empty row before the others
                columns["terms"] = " ".join(columns["terms"].split(" ")[ptr[1] :])
                ptr[1:] = [start - ptr[1] for start in ptr[1:]]
                columns["ptr"] = " ".join(map(str, ptr))
            for _ in range(rng.randint(1, 3)):
                row = rng.randrange(1, len(ptr) - 1)
                put(columns, "terms", rng.randrange(ptr[row], ptr[row + 1]), rng.choice(values))
            expected = first_bad_token(corrupted, dimension)
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
        # list, version 5 the embedder's document frequencies and corpus
        # size and version 6 the term ids and counts as two columns; none
        # has a reader.
        index = index_from_payload(payload)
        columns = payload["documents"]
        for field in ("ptr", "terms", "counts"):
            columns[field] = _spelled(getattr(index, f"doc_{field}").tolist())
        payload["version"] = 6
        path = self.corrupt(payload, tmp_path)
        assert main(["query", "heart disease", "--index", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: unsupported artifact version 6 (expected 7)" in err
        assert "rebuild it with `kgxir index`" in err
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
            assert f"{path}: unsupported artifact version {version} (expected 7)" in err
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
            assert f"{path}: unsupported artifact version {version} (expected 7)" in err
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
        columns.update(id=[], title=[], text=[], ptr="0", terms="", entities=[])
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
