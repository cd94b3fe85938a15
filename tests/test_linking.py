import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgxir.errors import DataFormatError
from kgxir.kg import Entity, KnowledgeGraph, RelationType, parse_entities, parse_relations
from kgxir.linking import (
    build_gazetteer,
    distinct_ids,
    link,
    parse_gold_annotations,
    query_mentions,
)

from conftest import tokenize_oracle


def tiny_kg(entity_lines, relation_lines=("P1\tcontributing factor\tcause",)):
    entities = parse_entities(list(entity_lines))
    relations = parse_relations(list(relation_lines))
    return KnowledgeGraph(entities=entities, relations=relations, edges=[])


def gazetteer_oracle(kg):
    """Reference for ``build_gazetteer``: one surface -> id table per kind,
    the smaller id winning an ambiguous surface, the longest key that starts
    with each token, and the diagnostics."""
    tables = {"entity": {}, "relation": {}}
    diagnostics = []
    longest = {}

    def insert(kind, surface, new_id):
        key = tuple(tokenize_oracle(surface))
        if not key:
            if surface:
                diagnostics.append(
                    f"{kind} {new_id!r} surface {surface!r} has no tokens; it can never be linked"
                )
            return
        table = tables[kind]
        existing = table.get(key)
        if existing is None:
            table[key] = new_id
        elif existing != new_id:
            winner, loser = min(existing, new_id), max(existing, new_id)
            table[key] = winner
            diagnostics.append(
                f"{kind} surface {' '.join(key)!r} is ambiguous between "
                f"{winner!r} and {loser!r}; keeping {winner!r}"
            )
        longest[key[0]] = max(longest.get(key[0], 0), len(key))

    for entity in kg.entities.values():
        insert("entity", entity.label, entity.id)
        for alias in entity.aliases:
            insert("entity", alias, entity.id)
    for relation in kg.relations.values():
        insert("relation", relation.label, relation.id)
        for alias in relation.aliases:
            insert("relation", alias, relation.id)
    return tables["entity"], tables["relation"], longest, diagnostics


def link_oracle(text, kg):
    """Reference for ``link``: greedy longest match that looks up the entity
    table, then the relation table, at each length up to the longest key."""
    entities, relations, longest, _ = gazetteer_oracle(kg)
    max_tokens = max(longest.values(), default=0)
    tokens = tokenize_oracle(text)
    mentions = []
    i = 0
    while i < len(tokens):
        matched = None
        for length in range(min(max_tokens, len(tokens) - i), 0, -1):
            key = tuple(tokens[i : i + length])
            if key in entities:
                matched = ("entity", entities[key], length)
                break
            if key in relations:
                matched = ("relation", relations[key], length)
                break
        if matched is None:
            i += 1
            continue
        kind, matched_id, length = matched
        mentions.append((kind, matched_id))
        i += length
    return mentions


# A few words that share prefixes, differ only in case or are split by an
# underscore or hyphen, so generated labels and aliases collide often.
WORDS = ["heart", "Heart", "heart_disease", "disease", "he", "art", "a", "é", "x-1", "1"]
SEPARATORS = [" ", "  ", "_", "-", "\t", "\u00a0", "\u2003", ", ", ". ", "?"]


def phrases(max_words=3):
    pieces = st.tuples(st.sampled_from(SEPARATORS), st.sampled_from(WORDS + ["???", ""]))
    return st.lists(pieces, max_size=max_words).map(lambda ps: "".join(map("".join, ps)))


def small_kgs():
    """Up to five entities and three relations with ids from small pools,
    so surfaces are shared within a kind (ambiguity) and across kinds."""

    def items(make, ids):
        fields = st.tuples(phrases(), st.lists(phrases(), max_size=3).map(tuple))
        return st.dictionaries(st.sampled_from(ids), fields, max_size=len(ids)).map(
            lambda chosen: {i: make(i, label, aliases) for i, (label, aliases) in chosen.items()}
        )

    return st.builds(
        lambda entities, relations: KnowledgeGraph(entities, relations, edges=[]),
        items(Entity, ["Q1", "Q2", "Q10", "Q3", "Q9"]),
        items(RelationType, ["P1", "P2", "P10"]),
    )


class TestGazetteerOracle:
    """``build_gazetteer`` and ``link`` over one table give what the two
    per-kind tables give, with the entity taking precedence over the relation."""

    COLLISION = KnowledgeGraph(
        entities={"Q2": Entity("Q2", "cause", ("heart",)), "Q1": Entity("Q1", "Heart", ())},
        relations={
            "P2": RelationType("P2", "cause", ("heart disease",)),
            "P1": RelationType("P1", "heart"),
        },
        edges=[],
    )
    # Surfaces that share a first token and differ in length, and surfaces
    # without tokens.
    PREFIXES = KnowledgeGraph(
        entities={
            "Q1": Entity("Q1", "heart", ("heart disease risk", "???")),
            "Q2": Entity("Q2", "heart disease", ("!!",)),
        },
        relations={"P1": RelationType("P1", "heart disease risk factor", ("--",))},
        edges=[],
    )

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(small_kgs())
    @example(COLLISION)
    @example(PREFIXES)
    def test_table_matches_the_two_tables(self, kg):
        gaz = build_gazetteer(kg)
        entities, relations, longest, diagnostics = gazetteer_oracle(kg)
        expected = {key: ("relation", rid) for key, rid in relations.items()}
        expected.update((key, ("entity", eid)) for key, eid in entities.items())
        assert gaz.surfaces == expected
        assert (gaz.longest, gaz.diagnostics) == (longest, diagnostics)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(small_kgs(), phrases(max_words=12))
    @example(COLLISION, "the cause of Heart disease, heart_disease")
    @example(PREFIXES, "heart disease risk factor, heart disease risk; heart disease heart")
    @example(PREFIXES, "a risk of heart disease")  # the longest surface is cut off by the end
    def test_link_matches_the_two_table_lookup(self, kg, text):
        assert link(text, build_gazetteer(kg)) == link_oracle(text, kg)


class TestBuildGazetteer:
    def test_label_lookup(self):
        kg = tiny_kg(["Q1\theart disease\t\t"])
        gaz = build_gazetteer(kg)
        assert gaz.surfaces[("heart", "disease")] == ("entity", "Q1")
        assert gaz.longest == {"heart": 2, "contributing": 2, "cause": 1}

    def test_aliases_map_to_same_id(self):
        kg = tiny_kg(["Q1\theart disease\tcardiopathy|heart condition\t"])
        gaz = build_gazetteer(kg)
        assert gaz.surfaces[("cardiopathy",)] == ("entity", "Q1")
        assert gaz.surfaces[("heart", "condition")] == ("entity", "Q1")

    def test_collision_smaller_id_wins_with_diagnostic(self):
        kg = tiny_kg(["Q2\tbank\t\t", "Q1\tbank\t\t"])
        gaz = build_gazetteer(kg)
        assert gaz.surfaces[("bank",)] == ("entity", "Q1")
        assert len(gaz.diagnostics) == 1
        assert "'bank'" in gaz.diagnostics[0]

    def test_surface_normalization_matches_tokenizer(self):
        kg = tiny_kg(["Q1\tHeart--Disease!\t\t"])
        gaz = build_gazetteer(kg)
        assert gaz.surfaces[("heart", "disease")] == ("entity", "Q1")

    def test_punctuation_only_label_skipped(self):
        kg = tiny_kg(["Q1\t???\t\t"])
        gaz = build_gazetteer(kg)
        assert set(gaz.surfaces.values()) == {("relation", "P1")}

    def test_relations_indexed_separately(self):
        kg = tiny_kg(["Q1\theart disease\t\t"])
        gaz = build_gazetteer(kg)
        assert gaz.surfaces[("cause",)] == ("relation", "P1")
        assert gaz.surfaces[("contributing", "factor")] == ("relation", "P1")


class TestLink:
    @pytest.fixture()
    def gazetteer(self):
        kg = tiny_kg(["Q1\theart disease\t\t", "Q2\theart\t\t"])
        return build_gazetteer(kg)

    def test_longest_match_wins(self, gazetteer):
        assert link("cause of heart disease", gazetteer) == [
            ("relation", "P1"),
            ("entity", "Q1"),
        ]

    def test_no_hits(self, gazetteer):
        assert link("nothing to see here", gazetteer) == []

    def test_greedy_left_to_right(self, gazetteer):
        assert link("heart heart disease", gazetteer) == [("entity", "Q2"), ("entity", "Q1")]

    def test_case_insensitive_with_punctuation(self, gazetteer):
        assert link("HEART-disease?", gazetteer) == [("entity", "Q1")]

    def test_mentions_sorted_and_non_overlapping(self, gazetteer):
        # Text order, and no "heart" reported inside a matched "heart disease".
        assert link("heart disease and heart and heart disease", gazetteer) == [
            ("entity", "Q1"),
            ("entity", "Q2"),
            ("entity", "Q1"),
        ]

    def test_prefix_never_reported_at_longer_match_position(self, gazetteer):
        # "heart" is a strict token-prefix of "heart disease".
        assert link("heart disease", gazetteer) == [("entity", "Q1")]

    def test_deterministic(self, gazetteer):
        text = "heart disease of the heart"
        assert link(text, gazetteer) == link(text, gazetteer)

    def test_entity_preferred_over_relation_at_equal_length(self):
        kg = tiny_kg(["Q1\tcause\t\t"])  # same surface as the relation alias
        gaz = build_gazetteer(kg)
        assert link("cause", gaz) == [("entity", "Q1")]

    def test_empty_gazetteer_matches_nothing(self):
        kg = tiny_kg(["Q1\t???\t\t"], relation_lines=[])
        gaz = build_gazetteer(kg)
        assert link("any text at all", gaz) == []


class TestDistinctEntityIds:
    def test_dedupes_preserving_first_occurrence(self):
        kg = tiny_kg(["Q1\theart disease\t\t", "Q2\tobesity\t\t"])
        gaz = build_gazetteer(kg)
        text = "obesity near heart disease and obesity again"
        assert distinct_ids(link(text, gaz), "entity") == ["Q2", "Q1"]

    def test_relations_excluded(self):
        kg = tiny_kg(["Q1\theart disease\t\t"])
        gaz = build_gazetteer(kg)
        assert distinct_ids(link("cause of heart disease", gaz), "entity") == ["Q1"]


def test_distinct_ids_keeps_one_kind_in_first_occurrence_order():
    mentions = [("entity", "Q2"), ("relation", "P1"), ("entity", "Q1"), ("entity", "Q2")]
    assert distinct_ids(mentions, "entity") == ["Q2", "Q1"]
    assert distinct_ids(mentions, "relation") == ["P1"]


class TestQueryMentions:
    def test_off_needs_nothing(self):
        assert query_mentions("q1", "heart disease", "off", None) == []

    def test_gazetteer_links_the_text(self):
        kg = tiny_kg(["Q1\theart disease\t\t"])
        assert query_mentions("q1", "cause of heart disease", "gazetteer", kg) == link(
            "cause of heart disease", build_gazetteer(kg)
        )

    def test_gold_replays_annotations(self):
        kg = tiny_kg(["Q1\theart disease\t\t"])
        gold = {"q1": [("entity", "Q1")]}
        assert query_mentions("q1", "anything", "gold", kg, gold) == [("entity", "Q1")]

    def test_gold_query_without_links_has_no_mentions(self):
        kg = tiny_kg(["Q1\theart disease\t\t"])
        gold = {"q1": [("entity", "Q1")]}
        assert query_mentions("q2", "heart disease", "gold", kg, gold) == []

    def test_gold_without_annotations_rejected(self):
        kg = tiny_kg(["Q1\theart disease\t\t"])
        with pytest.raises(ValueError, match="gold"):
            query_mentions("q1", "heart disease", "gold", kg)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="linker mode"):
            query_mentions("q1", "heart disease", "fuzzy", None)


class TestGoldLinks:
    def test_parse_and_replay(self):
        kg = tiny_kg(["Q1\theart disease\t\t"])
        gold = parse_gold_annotations(
            ["q1\tentity\tQ1", "q1\trelation\tP1", "q2\tentity\tQ1"], kg
        )
        assert gold == {"q1": [("entity", "Q1"), ("relation", "P1")], "q2": [("entity", "Q1")]}
        mentions = query_mentions("q1", "anything", "gold", kg, gold)
        assert mentions == [("entity", "Q1"), ("relation", "P1")]

    def test_empty_annotation_list(self):
        kg = tiny_kg(["Q1\theart disease\t\t"])
        gold = {"q1": []}
        assert query_mentions("q1", "heart disease", "gold", kg, gold) == []

    def test_unknown_id_rejected_at_load(self):
        kg = tiny_kg(["Q1\theart disease\t\t"])
        with pytest.raises(DataFormatError, match="unknown entity id"):
            parse_gold_annotations(["q1\tentity\tQ999"], kg)
        with pytest.raises(DataFormatError) as raised:
            parse_gold_annotations(["q1\trelation\tP9"], kg)
        assert str(raised.value) == "<gold-links>:1: unknown relation id 'P9'"

    def test_unknown_kind_rejected(self):
        kg = tiny_kg(["Q1\theart disease\t\t"])
        with pytest.raises(DataFormatError, match="kind"):
            parse_gold_annotations(["q1\tthing\tQ1"], kg)


def test_all_mention_ids_exist_in_kg(medical_kg):
    gaz = build_gazetteer(medical_kg)
    text = "does obesity cause heart disease or is a tablespoon of smoking fine"
    for kind, kg_id in link(text, gaz):
        if kind == "entity":
            assert kg_id in medical_kg.entities
        else:
            assert kg_id in medical_kg.relations
