import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgxir import kg as kg_module
from kgxir.errors import DataFormatError, RelatednessUndefinedError, read
from kgxir.kg import (
    Edge,
    Entity,
    KnowledgeGraph,
    RelationType,
    load_kg,
    parse_edges,
    parse_entities,
    parse_relations,
)

from conftest import TOY_EDGE_LINES, TOY_ENTITY_LINES, TOY_RELATION_LINES, write_lines


def relatedness_oracle(kg, a, b):
    """Direct formula evaluation from a fresh rescan of the edge list."""
    in_a = {e.source for e in kg.edges if e.target == a}
    in_b = {e.source for e in kg.edges if e.target == b}
    overlap = len(in_a & in_b)
    if overlap == 0:
        return None
    log_w = math.log(kg.node_count)
    numerator = math.log(max(len(in_a), len(in_b))) - math.log(overlap)
    denominator = log_w - math.log(min(len(in_a), len(in_b)))
    floor = log_w - math.log(kg.node_count - 1)
    return numerator / max(denominator, floor)


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
        with pytest.raises(DataFormatError, match=r"(?s)2.*'Q9'"):
            parse_edges(["A\tr\tA", "A\tr\tQ9"], entities, relations)

    def test_duplicate_entity_id_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate entity id"):
            parse_entities(["A\tone\t\t", "A\ttwo\t\t"])

    def test_duplicate_edges_collapse(self):
        entities = parse_entities(["A\ta\t\t", "B\tb\t\t"])
        relations = parse_relations(["r\tr\t"])
        edges = parse_edges(["A\tr\tB", "A\tr\tB"], entities, relations)
        assert edges == [Edge(source="A", relation="r", target="B")]

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
        reference = KnowledgeGraph(entities=entities, relations=relations, edges=edges)
        kg = load_kg(*paths)
        assert kg.edges == edges == reference.edges
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
                assert toy_kg.relatedness(a, b, mode="raw") == pytest.approx(
                    expected, abs=1e-12
                )
                clamped = min(max(1.0 - expected, 0.0), 1.0)
                assert toy_kg.relatedness(a, b) == pytest.approx(clamped, abs=1e-12)

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

    def test_full_in_link_sets_do_not_crash(self):
        # Both in-sets cover the whole graph: denominator hits the clamp.
        ids = ["a", "b", "c"]
        entities = {i: Entity(id=i, label=i) for i in ids}
        relations = {"r": RelationType(id="r", label="r")}
        edges = [
            Edge(source=s, relation="r", target=t) for s in ids for t in ("a", "b")
        ]
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
                edges = [Edge(source=s, relation="r", target="e0") for s in sorted(in_a)]
                edges += [Edge(source=s, relation="r", target="e1") for s in sorted(in_b)]
                kg = KnowledgeGraph(entities=entities, relations=relations, edges=edges)
                before = kg.relatedness("e0", "e1")
                for s in sorted(in_b - in_a):
                    grown = KnowledgeGraph(
                        entities=entities,
                        relations=relations,
                        edges=edges + [Edge(source=s, relation="r", target="e0")],
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
        with pytest.raises(KeyError):
            toy_kg.neighbors("n01", "not-a-relation")

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
        kg = KnowledgeGraph(
            entities={"A": Entity(id="A", label=""), "B": Entity(id="B", label="b")},
            relations={"r": RelationType(id="r", label="r")},
            edges=[Edge(source="A", relation="r", target="B")],
        )
        diagnostics = kg.validate()
        assert len(diagnostics) == 1
        assert "empty label" in diagnostics[0]

    def test_isolated_entity_warned(self):
        kg = KnowledgeGraph(
            entities={
                "A": Entity(id="A", label="a"),
                "B": Entity(id="B", label="b"),
                "C": Entity(id="C", label="c"),
            },
            relations={"r": RelationType(id="r", label="r")},
            edges=[Edge(source="A", relation="r", target="B")],
        )
        diagnostics = kg.validate()
        assert len(diagnostics) == 1
        assert "isolated" in diagnostics[0]
        assert "'C'" in diagnostics[0]

    @pytest.mark.parametrize("edge", [Edge("X", "r", "A"), Edge("A", "r", "Y")])
    def test_unknown_endpoint_rejected_when_built(self, edge):
        # validate() has no endpoint check: such a graph cannot be built.
        with pytest.raises(KeyError):
            KnowledgeGraph(entities={"A": Entity(id="A", label="a")}, relations={}, edges=[edge])

    def test_dangling_ids_reported_on_hand_built_graph(self):
        kg = KnowledgeGraph(
            entities={"A": Entity(id="A", label="a")},
            relations={},
            edges=[Edge(source="A", relation="ghost", target="A")],
        )
        assert kg.edges == [Edge(source="A", relation="ghost", target="A")]
        assert kg.incoming("A") == {"A"}
        assert kg.validate() == ["edge references unknown relation 'ghost'"]


def build_connected_clean_graph():
    entities = parse_entities(["A\ta\t\t", "B\tb\t\t"])
    relations = parse_relations(["r\tr\t"])
    edges = parse_edges(["A\tr\tB", "B\tr\tA"], entities, relations)
    return KnowledgeGraph(entities=entities, relations=relations, edges=edges)
