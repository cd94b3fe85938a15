import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgxir import kg as kg_module
from kgxir.errors import DataFormatError, RelatednessUndefinedError, UsageError, read
from kgxir.kg import (
    RELATEDNESS_MODES,
    Edge,
    Entity,
    KnowledgeGraph,
    RelationType,
    load_kg,
    parse_edges,
    parse_entities,
    parse_relations,
)

from conftest import (
    TOY_EDGE_LINES,
    TOY_ENTITY_LINES,
    TOY_RELATION_LINES,
    complement_oracle,
    graph,
    relatedness_oracle,
    write_lines,
)


def neighbors_oracle(kg, entity_id, relation_id=None):
    """Brute-force scan of every edge, as neighbors() did before it had an
    out-edge index."""
    return sorted(
        {
            e.target
            for e in kg.edges
            if e.source == entity_id and (relation_id is None or e.relation == relation_id)
        }
    )


def random_graph(rng, n_entities, n_relations, n_edges):
    entities = parse_entities([f"e{i}\tlabel {i}\t\t" for i in range(n_entities)])
    relations = parse_relations([f"r{i}\trel {i}\t" for i in range(n_relations)])
    lines = []
    for _ in range(n_edges):
        source, target = rng.randrange(n_entities), rng.randrange(n_entities)
        lines.append(f"e{source}\tr{rng.randrange(n_relations)}\te{target}")
    edges = parse_edges(lines, entities, relations)
    return KnowledgeGraph(entities=entities, relations=relations, edges=edges)


class TestLoading:
    def test_in_links_and_node_count(self):
        entities = parse_entities(["A\ta\t\t", "B\tb\t\t", "C\tc\t\t"])
        relations = parse_relations(["r\tr\t"])
        edges = parse_edges(["A\tr\tC", "B\tr\tC"], entities, relations)
        kg = KnowledgeGraph(entities=entities, relations=relations, edges=edges)
        assert kg.incoming("C") == {"A", "B"}
        assert kg.incoming("A") == frozenset()
        assert kg.node_count == 3

    def test_empty_edges_means_empty_in_links(self, toy_kg):
        entities = parse_entities(["A\ta\t\t", "B\tb\t\t"])
        kg = KnowledgeGraph(entities=entities, relations={}, edges=[])
        assert all(kg.incoming(eid) == frozenset() for eid in kg.entities)

    def test_edge_with_unknown_entity_names_id_and_line(self):
        entities = parse_entities(["A\ta\t\t"])
        relations = parse_relations(["r\tr\t"])
        for line, message in [
            ("Q9\tr\tA", "<edges>:2: edge references unknown entity id 'Q9'"),
            ("A\tr\tQ9", "<edges>:2: edge references unknown entity id 'Q9'"),
            ("A\tq\tA", "<edges>:2: edge references unknown relation id 'q'"),
        ]:
            with pytest.raises(DataFormatError) as raised:
                parse_edges(["A\tr\tA", line], entities, relations)
            assert str(raised.value) == message

    def test_duplicate_entity_id_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate entity id"):
            parse_entities(["A\tone\t\t", "A\ttwo\t\t"])
        with pytest.raises(DataFormatError) as raised:
            parse_relations(["P1\tone\t", "P1\ttwo\t"])
        assert str(raised.value) == "<relations>:2: duplicate relation id 'P1'"

    def test_duplicate_edges_collapse(self):
        entities = parse_entities(["A\ta\t\t", "B\tb\t\t"])
        relations = parse_relations(["r\tr\t", "s\ts\t"])
        edges = parse_edges(["A\ts\tB", "A\tr\tB", "A\ts\tB"], entities, relations)
        assert edges.dtype == np.int64
        assert edges.tolist() == [[0, 0, 0], [1, 0, 1], [1, 1, 1]]
        kg = KnowledgeGraph(entities=entities, relations=relations, edges=edges)
        assert kg.edges == [Edge("A", "s", "B"), Edge("A", "r", "B")]

    def test_aliases_and_comments_parse(self):
        entities = parse_entities(
            ["# comment", "", "A\tlabel\tfirst|second\tsome description"]
        )
        assert entities["A"].aliases == ("first", "second")
        assert entities["A"].description == "some description"

    def test_missing_tabs_rejected(self):
        with pytest.raises(DataFormatError, match="expected 4"):
            parse_entities(["A\tlabel"])

    def test_load_kg_from_files(self, tmp_path):
        (tmp_path / "entities.tsv").write_text("\n".join(TOY_ENTITY_LINES) + "\n")
        (tmp_path / "relations.tsv").write_text("\n".join(TOY_RELATION_LINES) + "\n")
        (tmp_path / "edges.tsv").write_text("\n".join(TOY_EDGE_LINES) + "\n")
        kg = load_kg(
            tmp_path / "entities.tsv", tmp_path / "relations.tsv", tmp_path / "edges.tsv"
        )
        assert kg.node_count == 10
        assert kg.incoming("n01") == {"n03", "n04", "n05"}

    def test_in_links_index_matches_rescan(self, toy_kg):
        for eid in toy_kg.entities:
            rescan = {e.source for e in toy_kg.edges if e.target == eid}
            assert toy_kg.incoming(eid) == rescan


class TestEdgeCodes:
    """A graph is built from ``[]`` or a ``(3, m)`` integer array whose every
    code is a position in its table; anything else is refused, not misread."""

    ENTITIES = {"A": Entity("A", "a"), "B": Entity("B", "b"), "C": Entity("C", "c")}
    RELATIONS = {"r": RelationType("r", "r"), "s": RelationType("s", "s")}

    def build(self, edges):
        return KnowledgeGraph(self.ENTITIES, self.RELATIONS, edges)

    def codes(self, *edges):
        return np.array(edges, dtype=np.int64).reshape(-1, 3).T

    @pytest.mark.parametrize(
        "edges, message",
        [
            # Read as A -r-> B, while B had no in-link and was called isolated.
            (((0, 0, -1),), "edge 0: target code -1 is not in range(3)"),
            (((0, 0, 1), (0, 0, 5)), "edge 1: target code 5 is not in range(3)"),
            (((0, 3, 1),), "edge 0: relation code 3 is not in range(2)"),
            (((0, 2, 1),), "edge 0: relation code 2 is not in range(2)"),
            (((0, 0, 1), (-2, 0, 1), (1, 9, 1)), "edge 1: source code -2 is not in range(3)"),
            (((7, 9, 1),), "edge 0: source code 7 is not in range(3)"),
        ],
    )
    def test_code_outside_its_table_is_refused(self, edges, message):
        with pytest.raises(ValueError) as raised:
            self.build(self.codes(*edges))
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "edges",
        [
            # A-r-B and B-s-C written one edge per row came back as A-s-B and A-s-C.
            [[0, 0, 1], [1, 1, 2]],
            np.array([[0, 0, 1], [1, 1, 2]]),
            np.zeros((3, 1)),
            np.zeros(3, dtype=np.int64),
            np.zeros((3, 1, 1), dtype=np.int64),
            ((0, 0, 1),),
            (),
            None,
        ],
    )
    def test_anything_but_a_3_by_m_integer_array_is_refused(self, edges):
        with pytest.raises(ValueError) as raised:
            self.build(edges)
        assert str(raised.value) == "edges must be [] or a (3, m) integer array"

    def test_empty_list_and_every_integer_dtype_are_accepted(self):
        assert self.build([]).edges == []
        for dtype in (np.int8, np.int32, np.uint16, np.int64):
            kg = self.build(self.codes((0, 0, 1), (1, 1, 2)).astype(dtype))
            assert kg.edges == [Edge("A", "r", "B"), Edge("B", "s", "C")]
            assert kg.incoming("B") == {"A"} and kg.validate() == []


# Edge-file lines over the entities A-D and the relations r and s: good
# lines, lines every reader skips, and lines that make the file bad.
GOOD_LINES = st.builds("\t".join, st.tuples(*(st.sampled_from(p) for p in ("ABCD", "rs", "ABCD"))))
SKIPPED_LINES = st.sampled_from(["", " ", "\t\t", "\u2003", "\x0b", "# note", "#A\tr\tB"])
BAD_LINES = st.sampled_from(
    ["A\tr\tQ9", "Q9\tr\tA", "A\tghost\tB", "A\tr", "A\tr\tB\tC", " #A\tr\tB", "A r B", "\r"]
)


@st.composite
def edge_files(draw):
    """Good and skipped lines, then a few lines that may be bad, joined by
    one newline style, with or without a final newline."""
    lines = draw(st.lists(st.one_of(GOOD_LINES, SKIPPED_LINES), max_size=20))
    lines += draw(st.lists(st.one_of(GOOD_LINES, SKIPPED_LINES, BAD_LINES), max_size=3))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestBulkLoad:
    """``load_kg`` reads the edge file in bulk; ``parse_edges`` line by line
    is its reference, for the graph it builds and for the error it raises."""

    ENTITY_LINES = ["A\ta\t\t", "B\tb\t\t", "C\tc\t\t", "D\td\t\t"]
    RELATION_LINES = ["r\tr\t", "s\ts\t"]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(edge_files())
    @example("A\tr\tB\n\n# note\nA\tr\tB\n  \nB\ts\tC")
    @example("A\tr\tB\nA\tr\nB\tr\tQ9\n")
    @example("")
    def test_matches_parse_edges(self, tmp_path_factory, text):
        directory = tmp_path_factory.mktemp("kg")
        paths = (
            write_lines(directory / "e.tsv", self.ENTITY_LINES),
            write_lines(directory / "r.tsv", self.RELATION_LINES),
            directory / "g.tsv",
        )
        paths[2].write_text(text, encoding="utf-8")
        entities, relations = parse_entities(self.ENTITY_LINES), parse_relations(self.RELATION_LINES)
        try:
            edges = read(paths[2], parse_edges, entities, relations)
        except DataFormatError as expected:
            with pytest.raises(DataFormatError) as raised:
                load_kg(*paths)
            assert str(raised.value) == str(expected)
            return
        bulk = read(paths[2], kg_module._edge_codes, entities, relations)
        assert bulk.dtype == edges.dtype == np.int64
        assert np.array_equal(bulk, edges)
        reference = KnowledgeGraph(entities=entities, relations=relations, edges=edges)
        kg = load_kg(*paths)
        ids, relation_ids = list(entities), list(relations)
        distinct = dict.fromkeys(
            Edge(ids[s], relation_ids[r], ids[t]) for s, r, t in edges.T.tolist()
        )
        assert kg.edges == list(distinct) == reference.edges
        assert kg.validate() == reference.validate()
        for eid in entities:
            assert kg.incoming(eid) == reference.incoming(eid)
            for rid in (None, *relations):
                assert kg.neighbors(eid, rid) == reference.neighbors(eid, rid)

    @pytest.mark.parametrize("bad_line", [5, 5000])
    def test_bad_line_and_bad_bytes_report_the_first(self, tmp_path, bad_line):
        # Larger than one decoded chunk, so line by line reads past one of
        # the two errors before it meets the other.
        lines = ["A\tr\tB"] * 6000
        lines[bad_line] = "A\tr\tQ9"
        data = "\n".join(lines).encode()
        at = len(data) // 2
        paths = (
            write_lines(tmp_path / "e.tsv", self.ENTITY_LINES),
            write_lines(tmp_path / "r.tsv", self.RELATION_LINES),
            tmp_path / "g.tsv",
        )
        paths[2].write_bytes(data[:at] + b"\xff" + data[at:])
        entities, relations = parse_entities(self.ENTITY_LINES), parse_relations(self.RELATION_LINES)
        with pytest.raises(DataFormatError) as expected:
            read(paths[2], parse_edges, entities, relations)
        with pytest.raises(DataFormatError) as raised:
            load_kg(*paths)
        assert str(raised.value) == str(expected.value)

    def test_clean_file_makes_no_edge(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("an Edge was made")

        monkeypatch.setattr(kg_module, "Edge", refuse)
        kg = load_kg(
            write_lines(tmp_path / "e.tsv", TOY_ENTITY_LINES),
            write_lines(tmp_path / "r.tsv", TOY_RELATION_LINES),
            write_lines(tmp_path / "g.tsv", ["# edges", "", *TOY_EDGE_LINES, TOY_EDGE_LINES[0]]),
        )
        assert kg.incoming("n01") == {"n03", "n04", "n05"}
        assert kg.neighbors("n04") == ["n01", "n02", "n03", "n06"]
        assert kg.validate() == []


@st.composite
def relatedness_graphs(draw):
    """A graph of 2-8 entities in the shapes of ``test_rerank.rerank_cases``:
    in-link sets that are empty, disjoint or shared, and targets with every
    node as an in-link, where the denominator meets its floor."""
    n = draw(st.integers(min_value=2, max_value=8))
    nodes = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(nodes, nodes), max_size=4 * n))
    full = draw(st.sets(nodes, max_size=2))
    return graph(n, edges + [(s, t) for t in sorted(full) for s in range(n)])


class TestRelatedness:
    def test_worked_case_raw_and_complement(self, toy_kg):
        # in(n01)={n03,n04,n05}, in(n02)={n04,n05,n06}: sizes 3,3, overlap 2, W=10
        expected = (math.log(3) - math.log(2)) / (math.log(10) - math.log(3))
        raw = toy_kg.relatedness("n01", "n02", mode="raw")
        assert raw == pytest.approx(expected, abs=1e-12)
        assert raw == pytest.approx(0.33677, abs=2e-5)
        assert toy_kg.relatedness("n01", "n02") == pytest.approx(1.0 - expected, abs=1e-12)

    def test_identity_scores_one(self, toy_kg):
        assert toy_kg.relatedness("n01", "n01") == 1.0
        assert toy_kg.relatedness("n01", "n01", mode="raw") == 0.0

    def test_no_overlap_complement_zero_raw_raises(self, toy_kg):
        assert toy_kg.relatedness("n01", "n07") == 0.0
        with pytest.raises(RelatednessUndefinedError):
            toy_kg.relatedness("n01", "n07", mode="raw")

    def test_empty_in_links_score_zero(self, toy_kg):
        assert toy_kg.relatedness("n09", "n01") == 0.0

    def test_symmetry_exact_on_all_pairs(self, toy_kg):
        for a, b in itertools.combinations(toy_kg.entities, 2):
            assert toy_kg.relatedness(a, b) == toy_kg.relatedness(b, a)

    def test_complement_in_unit_interval_on_all_pairs(self, toy_kg):
        for a, b in itertools.product(toy_kg.entities, repeat=2):
            value = toy_kg.relatedness(a, b)
            assert 0.0 <= value <= 1.0

    def test_matches_rescan_oracle_on_all_pairs(self, toy_kg):
        for a, b in itertools.product(toy_kg.entities, repeat=2):
            expected = relatedness_oracle(toy_kg, a, b)
            if expected is None:
                assert toy_kg.relatedness(a, b) == 0.0
            else:
                assert toy_kg.relatedness(a, b, mode="raw") == expected
                clamped = min(max(1.0 - expected, 0.0), 1.0)
                assert toy_kg.relatedness(a, b) == clamped

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(relatedness_graphs())
    def test_equals_the_written_out_formula_on_every_pair(self, kg):
        """The scalar is the table's one-pair case; it must give the bits of
        the formula evaluated from the edge list, and refuse in raw mode
        exactly the pairs without a shared in-link."""
        for a, b in itertools.product(kg.entities, repeat=2):
            expected = relatedness_oracle(kg, a, b)
            assert kg.relatedness(a, b) == complement_oracle(kg, a, b)
            if expected is None:
                with pytest.raises(RelatednessUndefinedError, match="share no incoming links"):
                    kg.relatedness(a, b, mode="raw")
            else:
                assert kg.relatedness(a, b, mode="raw") == expected

    def test_unknown_entity_raises(self, toy_kg):
        with pytest.raises(KeyError):
            toy_kg.relatedness("n01", "missing")

    def test_bad_mode_rejected(self, toy_kg):
        with pytest.raises(ValueError):
            toy_kg.relatedness("n01", "n02", mode="banana")

    def test_single_node_graph_rejected(self):
        kg = KnowledgeGraph(
            entities={"A": Entity(id="A", label="a")}, relations={}, edges=[]
        )
        with pytest.raises(ValueError, match="at least 2"):
            kg.relatedness("A", "A")

    def test_single_node_graph_checks_mode_then_ids_then_size(self):
        """A bad mode is reported first, then an unknown id (the table looks
        ids up before it checks the node count), then the graph's size."""
        kg = KnowledgeGraph({"A": Entity(id="A", label="a")}, {}, [])
        with pytest.raises(UsageError, match="mode must be one of"):
            kg.relatedness("A", "missing", mode="banana")
        for mode in RELATEDNESS_MODES:
            for a, b in (("A", "missing"), ("missing", "A")):
                with pytest.raises(KeyError, match="unknown entity id: 'missing'"):
                    kg.relatedness(a, b, mode)
            with pytest.raises(ValueError, match="needs a graph with at least 2 nodes"):
                kg.relatedness("A", "A", mode)

    def test_full_in_link_sets_do_not_crash(self):
        # Both in-sets cover the whole graph: denominator hits the clamp.
        ids = ["a", "b", "c"]
        entities = {i: Entity(id=i, label=i) for i in ids}
        relations = {"r": RelationType(id="r", label="r")}
        lines = [f"{s}\tr\t{t}" for s in ids for t in ("a", "b")]
        edges = parse_edges(lines, entities, relations)
        kg = KnowledgeGraph(entities=entities, relations=relations, edges=edges)
        value = kg.relatedness("a", "b")
        assert 0.0 <= value <= 1.0

    def test_adding_shared_in_link_never_decreases_complement(self):
        """Brute-force enumeration over small graphs: a new edge s->a with
        s already in in(b) must not lower complement relatedness."""
        ids = [f"e{i}" for i in range(6)]
        relations = {"r": RelationType(id="r", label="r")}
        entities = {i: Entity(id=i, label=i) for i in ids}
        rng_cases = 0
        # Enumerate in-link configurations for a and b over a fixed pool.
        pool = ids[2:]
        for in_a_mask in range(1 << len(pool)):
            in_a = {pool[j] for j in range(len(pool)) if in_a_mask >> j & 1}
            for in_b_mask in range(1 << len(pool)):
                in_b = {pool[j] for j in range(len(pool)) if in_b_mask >> j & 1}
                lines = [f"{s}\tr\te0" for s in sorted(in_a)]
                lines += [f"{s}\tr\te1" for s in sorted(in_b)]
                edges = parse_edges(lines, entities, relations)
                kg = KnowledgeGraph(entities=entities, relations=relations, edges=edges)
                before = kg.relatedness("e0", "e1")
                for s in sorted(in_b - in_a):
                    grown = KnowledgeGraph(
                        entities=entities,
                        relations=relations,
                        edges=parse_edges([*lines, f"{s}\tr\te0"], entities, relations),
                    )
                    assert grown.relatedness("e0", "e1") >= before
                    rng_cases += 1
        assert rng_cases > 100


class TestNeighbors:
    def test_sorted_unique_targets(self, medical_kg):
        assert medical_kg.neighbors("Q1", "P1") == ["Q2", "Q3", "Q5"]

    def test_no_outgoing_edges(self, medical_kg):
        assert medical_kg.neighbors("Q4") == []

    def test_relation_filter_can_exclude_everything(self, toy_kg):
        entities = parse_entities(["A\ta\t\t", "B\tb\t\t"])
        relations = parse_relations(["r1\tone\t", "r2\ttwo\t"])
        edges = parse_edges(["A\tr1\tB"], entities, relations)
        kg = KnowledgeGraph(entities=entities, relations=relations, edges=edges)
        assert kg.neighbors("A", "r2") == []

    def test_unknown_ids_raise(self, toy_kg):
        with pytest.raises(KeyError):
            toy_kg.neighbors("missing")
        with pytest.raises(KeyError, match="unknown relation id: 'not-a-relation'"):
            toy_kg.neighbors("n01", "not-a-relation")
        with pytest.raises(KeyError, match="unknown entity id: 'missing'"):
            toy_kg.neighbors("missing", "not-a-relation")

    def test_matches_edge_scan_oracle(self, toy_kg, medical_kg):
        rng = random.Random(11)
        graphs = [toy_kg, medical_kg] + [random_graph(rng, 12, 3, 60) for _ in range(20)]
        for kg in graphs:
            for entity_id in kg.entities:
                for relation_id in (None, *kg.relations):
                    assert kg.neighbors(entity_id, relation_id) == neighbors_oracle(
                        kg, entity_id, relation_id
                    )


class TestValidate:
    def test_well_formed_graph_is_clean(self, medical_kg):
        diagnostics = build_connected_clean_graph().validate()
        assert diagnostics == []

    def test_empty_label_flagged(self):
        entities = parse_entities(["A\t\t\t", "B\tb\t\t"])
        relations = parse_relations(["r\tr\t"])
        kg = KnowledgeGraph(entities, relations, parse_edges(["A\tr\tB"], entities, relations))
        assert kg.validate() == ["entity 'A' has an empty label"]
        entities = parse_entities(["Q1\theart\t\tan organ", "Q2\tlung\t\t"])
        relations = parse_relations(["P1\t\t", "P2\tpart of\t"])
        edges = parse_edges(["Q1\tP2\tQ2", "Q2\tP1\tQ1"], entities, relations)
        kg = KnowledgeGraph(entities, relations, edges)
        assert kg.validate() == ["relation 'P1' has an empty label"]

    def test_isolated_entity_warned(self):
        entities = parse_entities(["A\ta\t\t", "B\tb\t\t", "C\tc\t\t"])
        relations = parse_relations(["r\tr\t"])
        kg = KnowledgeGraph(entities, relations, parse_edges(["A\tr\tB"], entities, relations))
        assert kg.validate() == ["entity 'C' is isolated (no incoming or outgoing edges)"]


def build_connected_clean_graph():
    entities = parse_entities(["A\ta\t\t", "B\tb\t\t"])
    relations = parse_relations(["r\tr\t"])
    edges = parse_edges(["A\tr\tB", "B\tr\tA"], entities, relations)
    return KnowledgeGraph(entities=entities, relations=relations, edges=edges)
