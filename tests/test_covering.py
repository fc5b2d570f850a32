import itertools

import numpy as np
import pytest

from conftest import mixed_graph_sample, prepend_symbol, random_path_complete_graph
from oracles import (
    nfa_accepts,
    prefix_class_member,
    stem_shift_includes,
    words_up_to,
)
from pathlyap.automata import (
    Automaton,
    accepts,
    language_includes,
    prefix_class_automaton,
    universality_witness,
)
from pathlyap.covering import (
    CoveringFamily,
    CoveringMember,
    covering_from_json,
    covering_to_graph,
    observer_to_covering,
    prefix_covering,
    validate_covering,
)
from pathlyap.errors import ResourceLimitError
from pathlyap.graphs import (
    LabeledGraph,
    de_bruijn,
    dual,
    is_complete,
    is_deterministic,
    is_path_complete,
)
from pathlyap.observer import observer_graph
from test_graphs import MIXED_EDGES, mixed_horizon

AB = ("a", "b")


def family(stems, alphabet=AB):
    """Build a family from prefix-class stems without validating it."""
    members = []
    for stem in stems:
        auto = prefix_class_automaton(alphabet, tuple(stem))
        members.append(
            CoveringMember("[" + "".join(stem) + "]", auto, stem=tuple(stem))
        )
    return CoveringFamily(alphabet, tuple(members))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_mixed_depth_family_is_valid():
    report = validate_covering(family([("a", "a"), ("a", "b"), ("b",)]))
    assert report.ok
    assert report.covers_all_words
    assert report.prepend_closed
    assert report.uncovered_witness is None
    assert report.unclosed_pairs == ()


def test_missing_branch_fails_coverage():
    report = validate_covering(family([("a", "a"), ("a", "b")]))
    assert not report.ok
    assert not report.covers_all_words
    assert report.uncovered_witness == ("b",)


def test_deep_only_branch_fails_prepend_closure():
    """Every word is covered, but prepending b to [a] gives a language that
    straddles [baa] and [bab] without fitting inside either."""
    report = validate_covering(
        family([("a",), ("b", "a", "a"), ("b", "a", "b"), ("b", "b")])
    )
    assert report.covers_all_words
    assert not report.prepend_closed
    assert ("[a]", "b") in report.unclosed_pairs
    assert not report.ok


def test_universal_single_member_family_is_valid():
    fam = family([()])
    report = validate_covering(fam)
    assert report.ok


def test_report_json_is_plain_data():
    report = validate_covering(family([("a", "a"), ("a", "b")]))
    d = report.to_json()
    assert d["covers_all_words"] is False
    assert d["uncovered_witness"] == ["b"]
    assert d["ok"] is False


# ---------------------------------------------------------------------------
# covering -> graph
# ---------------------------------------------------------------------------

def test_mixed_depth_family_gives_mixed_horizon_graph():
    g, phi = covering_to_graph(family([("a", "a"), ("a", "b"), ("b",)]))
    assert set(g.nodes) == {"[aa]", "[ab]", "[b]"}
    assert set(g.edges) == set(MIXED_EDGES)
    assert is_deterministic(g)
    assert is_complete(g)
    assert phi["[aa]"].stem == ("a", "a")
    assert set(phi) == set(g.nodes)


def test_length_one_stems_give_de_bruijn_1():
    g, _ = covering_to_graph(prefix_covering([("a",), ("b",)], AB))
    assert g == de_bruijn(AB, 1)


def test_length_two_stems_give_de_bruijn_2():
    stems = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    g, _ = covering_to_graph(prefix_covering(stems, AB))
    assert g == de_bruijn(AB, 2)


def test_universal_member_gives_single_looped_node():
    g, _ = covering_to_graph(family([()]))
    assert len(g.nodes) == 1
    assert set(g.edges) == {(g.nodes[0], g.nodes[0], "a"), (g.nodes[0], g.nodes[0], "b")}


def test_to_graph_rejects_uncovering_family():
    with pytest.raises(ValueError, match="cover"):
        covering_to_graph(family([("a", "a"), ("a", "b")]))


def test_to_graph_rejects_unclosed_family():
    with pytest.raises(ValueError, match="prepend"):
        covering_to_graph(
            family([("a",), ("b", "a", "a"), ("b", "a", "b"), ("b", "b")])
        )


def test_edges_do_not_depend_on_member_order():
    stems = [("a", "a"), ("a", "b"), ("b",)]
    g1, _ = covering_to_graph(family(stems))
    g2, _ = covering_to_graph(family(stems[::-1]))
    assert set(g1.edges) == set(g2.edges)
    assert set(g1.nodes) == set(g2.nodes)


def test_overlapping_members_give_multiple_edges():
    """[ba] sits inside [b], so prepending b to [a] lands in both; the graph
    keeps every containment as an edge and is then nondeterministic."""
    fam = family([("a",), ("b",), ("b", "a")])
    assert validate_covering(fam).ok
    g, _ = covering_to_graph(fam)
    assert validate_covering(fam).graph == g
    assert ("[a]", "[b]", "b") in g.edges
    assert ("[a]", "[ba]", "b") in g.edges
    assert not is_deterministic(g)
    assert is_complete(g)


# ---------------------------------------------------------------------------
# observer -> covering and the round trip
# ---------------------------------------------------------------------------

def test_observer_covering_of_de_bruijn_1():
    fam = observer_to_covering(observer_graph(de_bruijn(AB, 1)))
    names = [m.name for m in fam.members]
    assert names == ["{[a],[b]}", "{[a]}", "{[b]}"]
    root = fam.members[0]
    assert accepts(root.automaton, ())
    assert validate_covering(fam).ok


def test_observer_members_share_one_dual_graph():
    """Every member is the node language of its observer node (the dual
    graph read from that node, accepting at the root), and all of them sit
    on one dual graph object."""
    obs = observer_graph(mixed_horizon())
    fam = observer_to_covering(obs)
    assert len({id(m.automaton.graph) for m in fam.members}) == 1
    assert [m.name for m in fam.members] == list(obs.graph.nodes)
    for m in fam.members:
        assert m.automaton == Automaton(dual(obs.graph), {m.name}, {obs.root})


def test_observer_covering_of_single_loop_is_universal():
    from pathlyap.graphs import LabeledGraph

    g = LabeledGraph(AB, ("n",), [("n", "n", "a"), ("n", "n", "b")])
    fam = observer_to_covering(observer_graph(g))
    assert len(fam.members) == 1
    assert universality_witness([fam.members[0].automaton]) is None


def test_round_trip_reproduces_observer_graph():
    rng = np.random.default_rng(41)
    samples = [de_bruijn(AB, 1), mixed_horizon()]
    samples += [random_path_complete_graph(rng, 3, 2) for _ in range(8)]
    for g in samples:
        obs = observer_graph(g)
        fam = observer_to_covering(obs)
        assert validate_covering(fam).ok
        back, phi = covering_to_graph(fam)
        assert back == obs.graph
        assert set(phi) == set(obs.graph.nodes)
        assert is_complete(back)


# ---------------------------------------------------------------------------
# prefix-class closed form (test oracle) against the automata route
# ---------------------------------------------------------------------------

def test_stem_shift_closed_form():
    """The oracle itself, on hand-checked cases."""
    assert stem_shift_includes("a", ("b",), ("a", "b"))
    assert stem_shift_includes("a", ("b", "a"), ("a", "b"))
    assert not stem_shift_includes("b", ("a",), ("a", "b"))
    assert stem_shift_includes("b", ("a",), ())
    stems = list(words_up_to(AB, 2))
    for h, src, dst in itertools.product(AB, stems, stems):
        lifted_inside = all(
            prefix_class_member(dst, (h,) + w)
            for w in words_up_to(AB, 4)
            if prefix_class_member(src, w)
        )
        assert stem_shift_includes(h, src, dst) == lifted_inside, (h, src, dst)


def test_edge_table_matches_per_triple_inclusion():
    """The edge table equals one `language_includes` call per (source,
    symbol, target), and no containment it reports has a counterexample
    among the words up to length 6."""
    families = []
    rng = np.random.default_rng(61)
    while len(families) < 12:
        g = mixed_graph_sample(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        if is_path_complete(g):
            families.append(observer_to_covering(observer_graph(g)))
    stems = list(words_up_to(AB, 2))
    for size in range(1, len(stems) + 1):
        families += [family(chosen) for chosen in itertools.combinations(stems, size)]
    # the empty language, S*, and members with no b-successor (prefix [a])
    # or no a-successor (words starting with b) from their initial states
    starts_b = LabeledGraph(
        AB, ("s", "t"), [("s", "t", "b"), ("t", "t", "a"), ("t", "t", "b")]
    )
    special = [
        CoveringMember("empty", Automaton(LabeledGraph(AB, ("q",), []), {"q"}, ())),
        CoveringMember("all", prefix_class_automaton(AB, ())),
        CoveringMember("[a]", prefix_class_automaton(AB, ("a",))),
        CoveringMember("b...", Automaton(starts_b, {"s"}, {"t"})),
    ]
    for size in range(1, len(special) + 1):
        families += [
            CoveringFamily(AB, chosen)
            for chosen in itertools.permutations(special, size)
        ]

    def language(a):
        return frozenset(
            w for w in words_up_to(a.graph.alphabet, 6)
            if nfa_accepts(a.graph.edges, a.initial, a.accepting, w)
        )

    for fam in families:
        table = validate_covering(fam).graph.out_map()
        targets = {t.name: language(t.automaton) for t in fam.members}
        for source in fam.members:
            for h in fam.alphabet:
                lifted = prepend_symbol(h, source.automaton)
                expected = tuple(
                    t.name for t in fam.members
                    if language_includes(lifted, t.automaton)
                )
                assert table.get((source.name, h), ()) == expected, (source.name, h)
                words = language(lifted)
                assert all(words <= targets[name] for name in expected)


def test_edge_table_subset_cap():
    """[] and [ab]: the members alone reach 4 subsets and the edge
    table's widest per-symbol exploration (symbol a) 5, so the edge table
    is what a cap of 4 stops."""
    fam = family([(), ("a", "b")])
    assert validate_covering(fam, cap=5).ok
    assert universality_witness([m.automaton for m in fam.members], cap=4) is None
    with pytest.raises(ResourceLimitError, match="exceeded 4 subsets"):
        validate_covering(fam, cap=4)


def test_shortcut_agrees_with_language_route():
    stems = sorted(set(tuple(s) for s in words_up_to(AB, 2)))
    autos = {s: prefix_class_automaton(AB, s) for s in stems}
    for src in stems:
        for h in AB:
            lifted = prepend_symbol(h, autos[src])
            for dst in stems:
                via_language = language_includes(lifted, autos[dst])
                via_stems = stem_shift_includes(h, src, dst)
                assert via_language == via_stems, (h, src, dst)


def test_prefix_covering_validates_and_rejects():
    fam = prefix_covering([("a", "a"), ("a", "b"), ("b",)], AB)
    assert [m.name for m in fam.members] == ["[aa]", "[ab]", "[b]"]
    with pytest.raises(ValueError, match="cover"):
        prefix_covering([("a", "a"), ("a", "b")], AB)


def test_prefix_covering_members_match_membership_oracle():
    fam = prefix_covering([("a", "a"), ("a", "b"), ("b",)], AB)
    for member in fam.members:
        for word in words_up_to(AB, 4):
            assert accepts(member.automaton, word) == prefix_class_member(
                member.stem, word
            )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_stem_form():
    fam = family([("a", "a"), ("a", "b"), ("b",)])
    d = fam.to_json()
    assert d["members"][0] == {"name": "[aa]", "stem": ["a", "a"]}
    again = covering_from_json(d)
    assert [m.name for m in again.members] == [m.name for m in fam.members]
    assert again.members[0].stem == ("a", "a")
    g1, _ = covering_to_graph(fam)
    g2, _ = covering_to_graph(again)
    assert g1 == g2


def test_json_round_trip_automaton_form():
    fam = observer_to_covering(observer_graph(de_bruijn(AB, 1)))
    d = fam.to_json()
    assert "automaton" in d["members"][0]
    again = covering_from_json(d)
    assert [m.name for m in again.members] == [m.name for m in fam.members]
    g1, _ = covering_to_graph(fam)
    g2, _ = covering_to_graph(again)
    assert g1 == g2


def test_json_rejects_unknown_and_ambiguous_members():
    fam = family([("a",), ("b",)])
    d = fam.to_json()
    d["extra"] = 1
    with pytest.raises(ValueError):
        covering_from_json(d)
    d = fam.to_json()
    d["members"][0]["automaton"] = {"x": 1}
    with pytest.raises(ValueError):
        covering_from_json(d)
    d = fam.to_json()
    del d["members"][0]["stem"]
    with pytest.raises(ValueError):
        covering_from_json(d)


def test_family_requires_distinct_names_and_common_alphabet():
    auto = prefix_class_automaton(AB, ("a",))
    with pytest.raises(ValueError):
        CoveringFamily(AB, (CoveringMember("x", auto), CoveringMember("x", auto)))
    other = prefix_class_automaton(("a", "b", "c"), ("a",))
    with pytest.raises(ValueError):
        CoveringFamily(AB, (CoveringMember("x", auto), CoveringMember("y", other)))
    with pytest.raises(ValueError):
        CoveringFamily(AB, ())
