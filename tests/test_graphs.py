import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mixed_graph_sample, random_complete_graph, with_sink
from oracles import oracle_is_path_complete, word_is_readable, words_up_to
from pathlyap.errors import NotPathCompleteError, ResourceLimitError
from pathlyap.graphs import (
    LabeledGraph,
    de_bruijn,
    dual,
    find_unreadable_word,
    graph_from_json,
    is_complete,
    is_deterministic,
    is_path_complete,
)
from pathlyap.observer import observer_graph

DB1_EDGES = {
    ("[a]", "[a]", "a"),
    ("[b]", "[a]", "a"),
    ("[a]", "[b]", "b"),
    ("[b]", "[b]", "b"),
}

DB2_EDGES = {
    ("[aa]", "[aa]", "a"),
    ("[aa]", "[ba]", "b"),
    ("[ab]", "[aa]", "a"),
    ("[ab]", "[ba]", "b"),
    ("[ba]", "[ab]", "a"),
    ("[ba]", "[bb]", "b"),
    ("[bb]", "[ab]", "a"),
    ("[bb]", "[bb]", "b"),
}

MIXED_NODES = ("[b]", "[ab]", "[aa]")
MIXED_EDGES = (
    ("[b]", "[b]", "b"),
    ("[b]", "[ab]", "a"),
    ("[ab]", "[b]", "b"),
    ("[ab]", "[aa]", "a"),
    ("[aa]", "[b]", "b"),
    ("[aa]", "[aa]", "a"),
)


def mixed_horizon():
    return LabeledGraph(("a", "b"), MIXED_NODES, MIXED_EDGES)


def lonely_loop():
    return LabeledGraph(("a", "b"), ("n",), [("n", "n", "a")])


# ---------------------------------------------------------------------------
# oracle sanity on hand-checked cases
# ---------------------------------------------------------------------------

def test_oracle_sanity():
    """The brute-force oracle itself agrees with hand-derived verdicts."""
    g = lonely_loop()
    assert not word_is_readable(g.nodes, g.edges, ("b",))
    assert word_is_readable(g.nodes, g.edges, ("a", "a", "a"))
    assert not oracle_is_path_complete(g.nodes, g.edges, g.alphabet)
    h = mixed_horizon()
    assert oracle_is_path_complete(h.nodes, h.edges, h.alphabet)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_rejects_malformed_graphs():
    with pytest.raises(ValueError):
        LabeledGraph((), ("n",), [])
    with pytest.raises(ValueError):
        LabeledGraph(("a", "a"), ("n",), [])
    with pytest.raises(ValueError):
        LabeledGraph(("a",), (), [])
    with pytest.raises(ValueError):
        LabeledGraph(("a",), ("n", "n"), [])
    with pytest.raises(ValueError):
        LabeledGraph(("a",), ("n",), [("n", "m", "a")])
    with pytest.raises(ValueError):
        LabeledGraph(("a",), ("n",), [("n", "n", "b")])


def test_duplicate_edges_collapse():
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a"), ("n", "n", "a")])
    assert len(g.edges) == 1


def test_json_round_trip():
    h = mixed_horizon()
    blob = json.dumps(h.to_json())
    again = graph_from_json(json.loads(blob))
    assert again == h


def test_json_rejects_unknown_keys():
    d = mixed_horizon().to_json()
    d["color"] = "blue"
    with pytest.raises(ValueError):
        graph_from_json(d)


def test_json_names_a_non_string_edge_entry():
    d = mixed_horizon().to_json()
    d["edges"][1][2] = 0
    with pytest.raises(ValueError) as raised:
        graph_from_json(d)
    assert str(raised.value) == "each entry of graph edge must be a JSON string"


# ---------------------------------------------------------------------------
# structural predicates, frozen examples
# ---------------------------------------------------------------------------

def test_is_complete_examples():
    assert is_complete(de_bruijn(("a", "b"), 1))
    assert is_complete(mixed_horizon())
    assert not is_complete(lonely_loop())
    # one node
    assert is_complete(LabeledGraph(("a", "b"), ("n",),
                                    [("n", "n", "a"), ("n", "n", "b")]))
    # a node with no out-edges first, in the middle and last
    g = de_bruijn(("a", "b"), 2)
    for k in range(len(g.nodes)):
        edges = [e for e in g.edges if e[0] != g.nodes[k]]
        assert not is_complete(LabeledGraph(g.alphabet, g.nodes, edges)), k
    assert not is_complete(with_sink(g))
    # two edges of one symbol and none of another
    assert not is_complete(LabeledGraph(
        ("a", "b"), ("n", "m"),
        [("n", "n", "a"), ("n", "m", "a"), ("m", "n", "a"), ("m", "m", "b")],
    ))
    # a symbol with no edges at all, and no edges at all
    assert not is_complete(LabeledGraph(("a", "b", "c"), g.nodes, g.edges))
    assert not is_complete(LabeledGraph(("a",), ("n",), []))


def test_is_complete_matches_its_definition():
    """The one scan agrees with "every (node, symbol) pair has an
    out-edge" on 500 sampled graphs, and on each with one edge dropped."""
    rng = np.random.default_rng(14)
    seen = {True: 0, False: 0}
    for _ in range(500):
        g = mixed_graph_sample(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        k = rng.integers(max(len(g.edges), 1))
        dropped = g.edges[:k] + g.edges[k + 1:]
        for h in (g, LabeledGraph(g.alphabet, g.nodes, dropped)):
            present = {(p, s) for p, _, s in h.edges}
            want = all((v, s) in present for v in h.nodes for s in h.alphabet)
            assert is_complete(h) == want, h
            seen[want] += 1
    assert min(seen.values()) > 100, seen


def test_is_deterministic_examples():
    assert is_deterministic(mixed_horizon())
    assert not is_deterministic(dual(mixed_horizon()))
    assert is_deterministic(LabeledGraph(("a",), ("n", "m"), []))


def test_dual_of_h_has_three_b_edges_from_b():
    """Reversing H's edges leaves node [b] with three outgoing b-edges."""
    d = dual(mixed_horizon())
    outgoing = [e for e in d.edges if e[0] == "[b]" and e[2] == "b"]
    assert sorted(e[1] for e in outgoing) == ["[aa]", "[ab]", "[b]"]


def test_dual_examples():
    h = mixed_horizon()
    assert dual(dual(h)) == h
    assert ("[ab]", "[b]", "a") in dual(h).edges
    assert set(dual(de_bruijn(("a", "b"), 1)).edges) == {
        ("[a]", "[a]", "a"),
        ("[a]", "[b]", "a"),
        ("[b]", "[a]", "b"),
        ("[b]", "[b]", "b"),
    }


def test_de_bruijn_order_1():
    g = de_bruijn(("a", "b"), 1)
    assert g.nodes == ("[a]", "[b]")
    assert set(g.edges) == DB1_EDGES


def test_de_bruijn_order_2():
    g = de_bruijn(("a", "b"), 2)
    assert len(g.nodes) == 4
    assert set(g.edges) == DB2_EDGES
    assert ("[ab]", "[aa]", "a") in g.edges
    assert ("[ba]", "[bb]", "b") in g.edges


def test_de_bruijn_unary():
    g = de_bruijn(("a",), 2)
    assert g.nodes == ("[aa]",)
    assert g.edges == (("[aa]", "[aa]", "a"),)


def test_de_bruijn_order_zero_rejected():
    # an order that is not an int is refused too, not truncated, parsed or
    # read as 1
    for order, message in ((0, "order must be >= 1"),
                           (2.5, "order must be an integer"),
                           ("2", "order must be an integer"),
                           (True, "order must be an integer")):
        with pytest.raises(ValueError, match=message):
            de_bruijn(("a", "b"), order)


def test_de_bruijn_node_cap(monkeypatch):
    monkeypatch.setenv("PATHLYAP_STATE_CAP", "8")
    assert len(de_bruijn(("a", "b"), 3).nodes) == 8
    with pytest.raises(ResourceLimitError):
        de_bruijn(("a", "b"), 4)


def test_de_bruijn_multichar_symbols_stay_distinct():
    g = de_bruijn(("a", "aa"), 2)
    assert len(set(g.nodes)) == 4


def test_path_complete_examples():
    assert is_path_complete(de_bruijn(("a", "b"), 2))
    assert not is_path_complete(lonely_loop())
    assert is_path_complete(dual(mixed_horizon()))


def test_unreadable_word_witness():
    """Witness for the lone a-loop is the single word 'b'."""
    assert find_unreadable_word(lonely_loop()) == ("b",)
    assert find_unreadable_word(mixed_horizon()) is None


def test_witness_is_actually_unreadable():
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(80):
        g = mixed_graph_sample(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        w = find_unreadable_word(g)
        if w is not None:
            found += 1
            # reported most-recent-first; reading order is the reverse
            assert not word_is_readable(g.nodes, g.edges, tuple(reversed(w)))
    assert found > 5


def test_witness_is_first_unreadable_word():
    """The witness is the first unreadable word in length-then-lexicographic
    reading order, and the observer reports the same word."""
    rng = np.random.default_rng(17)
    found = 0
    for _ in range(150):
        g = mixed_graph_sample(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        w = find_unreadable_word(g)
        if w is None:
            observer_graph(g)
            continue
        found += 1
        first = next(
            word for word in words_up_to(g.alphabet, len(w))
            if not word_is_readable(g.nodes, g.edges, word)
        )
        assert tuple(reversed(w)) == first
        with pytest.raises(NotPathCompleteError) as err:
            observer_graph(g)
        assert err.value.witness == w
    assert found > 20


@pytest.mark.parametrize("cap", [0, -3, 2.5, True])
def test_invalid_state_cap_is_a_value_error(cap):
    with pytest.raises(ValueError, match="state cap must be a positive"):
        find_unreadable_word(de_bruijn(("a", "b"), 1), cap=cap)


def test_state_cap_enforced():
    # complete graphs are decided without a search, so the cap is exercised
    # on De Bruijn graphs plus a sink: path-complete but not complete
    with pytest.raises(ResourceLimitError):
        is_path_complete(with_sink(de_bruijn(("a", "b"), 1)), cap=1)
    # De Bruijn order 2 plus a sink explores exactly 8 subsets: the full
    # set, {aa, ab, sink}, {ba, bb}, {aa, sink} and four singletons
    g = with_sink(de_bruijn(("a", "b"), 2))
    assert find_unreadable_word(g, cap=8) is None
    with pytest.raises(ResourceLimitError, match="exceeded 7 subsets"):
        find_unreadable_word(g, cap=7)
    # the empty subset ends the search before it is counted
    assert find_unreadable_word(lonely_loop(), cap=1) == ("b",)


def test_complete_graphs_decide_without_a_search(monkeypatch):
    # De Bruijn 12 has 4096 nodes; a search would discover far more than
    # one subset
    assert find_unreadable_word(de_bruijn(("a", "b"), 12), cap=1) is None

    def refused(g):
        raise AssertionError("a complete graph built a successor table")

    monkeypatch.setattr("pathlyap.graphs._mask_expander", refused)
    rng = np.random.default_rng(15)
    samples = [de_bruijn(("a", "b", "c"), 3), mixed_horizon()] + [
        random_complete_graph(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4)))
        for _ in range(30)
    ]
    for g in samples:
        assert find_unreadable_word(g) is None
        assert is_path_complete(g, cap=1)
    with pytest.raises(AssertionError, match="successor table"):
        find_unreadable_word(with_sink(samples[0]))


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------

def test_path_completeness_matches_oracle_small():
    """Quick oracle agreement; the 200-graph run lives in test_acceptance."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = mixed_graph_sample(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        assert is_path_complete(g) == oracle_is_path_complete(
            g.nodes, g.edges, g.alphabet
        )


def test_complete_implies_path_complete():
    rng = np.random.default_rng(12)
    for _ in range(40):
        g = random_complete_graph(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        assert is_complete(g)
        assert is_path_complete(g)


def test_path_completeness_dual_invariant():
    rng = np.random.default_rng(13)
    for _ in range(60):
        g = mixed_graph_sample(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        assert is_path_complete(g) == is_path_complete(dual(g))


@given(st.integers(1, 3), st.integers(1, 3))
@settings(deadline=None, max_examples=25)
def test_de_bruijn_counts(n_syms, order):
    alphabet = ("a", "b", "c")[:n_syms]
    g = de_bruijn(alphabet, order)
    assert len(g.nodes) == n_syms ** order
    assert len(g.edges) == n_syms ** (order + 1)
    assert is_complete(g)
    assert is_deterministic(g)
    assert is_path_complete(g)


@st.composite
def graphs(draw):
    n_nodes = draw(st.integers(1, 4))
    n_syms = draw(st.integers(1, 3))
    nodes = tuple(f"n{i}" for i in range(n_nodes))
    alphabet = ("a", "b", "c")[:n_syms]
    pool = [(p, q, h) for p in nodes for q in nodes for h in alphabet]
    picks = draw(st.lists(st.sampled_from(pool), max_size=12))
    return LabeledGraph(alphabet, nodes, picks)


@given(graphs())
@settings(deadline=None, max_examples=60)
def test_dual_is_involution(g):
    d = dual(g)
    assert dual(d) == g
    assert set(d.nodes) == set(g.nodes)
    assert len(d.edges) == len(g.edges)


@given(graphs())
@settings(deadline=None, max_examples=40)
def test_json_round_trip_random(g):
    assert graph_from_json(json.loads(json.dumps(g.to_json()))) == g
