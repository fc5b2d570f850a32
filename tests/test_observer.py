import numpy as np
import pytest

from conftest import random_path_complete_graph
from oracles import nfa_accepts, words_up_to
from pathlyap.automata import (
    accepts,
    language_includes,
    language_of_observer_node,
    prepend_symbol,
)
from pathlyap.covering import covering_to_graph, observer_to_covering
from pathlyap.errors import NotPathCompleteError, ResourceLimitError
from pathlyap.graphs import LabeledGraph, de_bruijn, is_complete, is_deterministic
from pathlyap.observer import (
    ObserverNode,
    observer_core,
    observer_from_json,
    observer_graph,
)
from test_graphs import mixed_horizon, lonely_loop

DB1_OBSERVER_EDGES = {
    ("{[a],[b]}", "{[a]}", "a"),
    ("{[a],[b]}", "{[b]}", "b"),
    ("{[a]}", "{[a]}", "a"),
    ("{[a]}", "{[b]}", "b"),
    ("{[b]}", "{[a]}", "a"),
    ("{[b]}", "{[b]}", "b"),
}


# ---------------------------------------------------------------------------
# frozen constructions
# ---------------------------------------------------------------------------

def test_observer_of_de_bruijn_1():
    obs = observer_graph(de_bruijn(("a", "b"), 1))
    assert obs.root == "{[a],[b]}"
    assert set(obs.graph.nodes) == {"{[a],[b]}", "{[a]}", "{[b]}"}
    assert set(obs.graph.edges) == DB1_OBSERVER_EDGES
    assert obs.subset_map["{[a]}"].subset == frozenset({"[a]"})


def test_observer_of_single_looped_node():
    g = LabeledGraph(("a", "b"), ("n",), [("n", "n", "a"), ("n", "n", "b")])
    obs = observer_graph(g)
    assert obs.graph.nodes == ("{n}",)
    assert len(obs.graph.edges) == 2


def test_observer_rejects_non_path_complete():
    with pytest.raises(NotPathCompleteError) as err:
        observer_graph(lonely_loop())
    assert err.value.witness == ("b",)


def test_observer_of_h_has_five_nodes():
    obs = observer_graph(mixed_horizon())
    assert len(obs.graph.nodes) == 5
    assert obs.root == "{[aa],[ab],[b]}"
    assert is_deterministic(obs.graph)
    assert is_complete(obs.graph)


def test_observer_names_escape_separators():
    """Subsets {x,y | z} and {x | y,z} would both be named {x,y,z}; a
    backslash before each ",", "{", "}" and "\\" in a member name keeps the
    names apart, and the covering round trip gives the observer back."""
    nodes = ("x,y", "z", "x", "y,z")
    edges = [(v, t, "a") for v in nodes for t in ("x,y", "z")]
    edges += [(v, t, "b") for v in nodes for t in ("x", "y,z")]
    obs = observer_graph(LabeledGraph(("a", "b"), nodes, edges))
    assert set(obs.graph.nodes) == {
        "{x,x\\,y,y\\,z,z}", "{x\\,y,z}", "{x,y\\,z}",
    }
    assert obs.subset_map["{x\\,y,z}"].subset == {"x,y", "z"}
    assert ObserverNode(frozenset({"a\\", "{b}"})).name == "{a\\\\,\\{b\\}}"
    rebuilt, _ = covering_to_graph(observer_to_covering(obs))
    assert rebuilt == obs.graph


def test_observer_state_cap():
    with pytest.raises(ResourceLimitError):
        observer_graph(de_bruijn(("a", "b"), 2), cap=2)
    g = de_bruijn(("a", "b"), 2)
    assert len(observer_graph(g, cap=7).graph.nodes) == 7
    with pytest.raises(ResourceLimitError, match="exceeded 6 subsets"):
        observer_graph(g, cap=6)


# ---------------------------------------------------------------------------
# the recurrent core
# ---------------------------------------------------------------------------

def test_core_of_de_bruijn_1_observer():
    """The transient root drops out; the core mirrors the base graph."""
    core = observer_core(observer_graph(de_bruijn(("a", "b"), 1)))
    assert set(core.nodes) == {"{[a]}", "{[b]}"}
    assert set(core.edges) == {
        ("{[a]}", "{[a]}", "a"),
        ("{[a]}", "{[b]}", "b"),
        ("{[b]}", "{[a]}", "a"),
        ("{[b]}", "{[b]}", "b"),
    }


def test_core_of_h_observer_mirrors_h():
    core = observer_core(observer_graph(mixed_horizon()))
    relabel = {"[b]": "{[b]}", "[ab]": "{[ab]}", "[aa]": "{[aa]}"}
    assert set(core.nodes) == set(relabel.values())
    assert set(core.edges) == {
        (relabel[p], relabel[q], h) for p, q, h in mixed_horizon().edges
    }


def test_core_of_de_bruijn_2_observer_is_all_singletons():
    core = observer_core(observer_graph(de_bruijn(("a", "b"), 2)))
    assert len(core.nodes) == 4
    assert all(node.count("[") == 1 for node in core.nodes)


def test_core_of_single_node_observer_is_itself():
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    obs = observer_graph(g)
    core = observer_core(obs)
    assert core == obs.graph


# ---------------------------------------------------------------------------
# randomized structural properties
# ---------------------------------------------------------------------------

def test_observer_deterministic_complete_nonempty():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = random_path_complete_graph(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        obs = observer_graph(g)
        assert is_deterministic(obs.graph)
        assert is_complete(obs.graph)
        assert all(node.subset for node in obs.subset_map.values())
        core = observer_core(obs)
        assert is_deterministic(core)
        assert is_complete(core)
        assert _strongly_connected(core)


def test_observer_idempotent_up_to_core():
    """Observing the (already deterministic, complete) observer again changes
    nothing recurrent: the cores are isomorphic."""
    rng = np.random.default_rng(32)
    for _ in range(10):
        g = random_path_complete_graph(rng, int(rng.integers(1, 4)), 2)
        obs = observer_graph(g)
        again = observer_graph(obs.graph)
        assert _deterministic_iso(observer_core(obs), observer_core(again))


# ---------------------------------------------------------------------------
# node languages (reversed observer)
# ---------------------------------------------------------------------------

def test_root_language_contains_epsilon():
    obs = observer_graph(de_bruijn(("a", "b"), 1))
    b_root = language_of_observer_node(obs, obs.root)
    assert accepts(b_root, ())


def test_node_language_of_de_bruijn_1():
    """Words landing on {[a]} are exactly the nonempty ones whose most
    recent (first-position) symbol is a."""
    obs = observer_graph(de_bruijn(("a", "b"), 1))
    b_a = language_of_observer_node(obs, "{[a]}")
    for word in words_up_to(("a", "b"), 4):
        assert accepts(b_a, word) == (len(word) >= 1 and word[0] == "a")


def test_node_language_accepts_by_observernode():
    obs = observer_graph(de_bruijn(("a", "b"), 1))
    auto = language_of_observer_node(obs, ObserverNode(frozenset({"[b]"})))
    assert accepts(auto, ("b",))
    assert not accepts(auto, ("a",))


def test_node_language_unknown_node():
    obs = observer_graph(de_bruijn(("a", "b"), 1))
    with pytest.raises(ValueError):
        language_of_observer_node(obs, "{[zz]}")


def test_edge_rule_both_directions():
    """(P,Q,h) is an observer edge iff h·B_P is included in B_Q."""
    rng = np.random.default_rng(33)
    samples = [de_bruijn(("a", "b"), 1), mixed_horizon()]
    samples += [random_path_complete_graph(rng, 3, 2) for _ in range(4)]
    for g in samples:
        obs = observer_graph(g)
        langs = {
            node: language_of_observer_node(obs, node) for node in obs.graph.nodes
        }
        edges = set(obs.graph.edges)
        for p in obs.graph.nodes:
            for q in obs.graph.nodes:
                for h in g.alphabet:
                    expected = (p, q, h) in edges
                    got = language_includes(prepend_symbol(h, langs[p]), langs[q])
                    assert got == expected


def test_node_language_matches_observer_run():
    """Membership in B_P equals 'the observer run over the reversed word ends
    at P', cross-checked with the naive NFA oracle."""
    rng = np.random.default_rng(34)
    g = random_path_complete_graph(rng, 3, 2)
    obs = observer_graph(g)
    runs = obs.graph.out_map()
    for node in obs.graph.nodes:
        auto = language_of_observer_node(obs, node)
        for word in words_up_to(g.alphabet, 4):
            state = obs.root
            for sym in reversed(word):
                (state,) = runs[(state, sym)]
            expected = state == node
            assert accepts(auto, word) == expected
            assert nfa_accepts(
                auto.graph.edges, auto.initial, auto.accepting, word
            ) == expected


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_observer_json_round_trip():
    obs = observer_graph(mixed_horizon())
    again = observer_from_json(obs.to_json())
    assert again.graph == obs.graph
    assert again.root == obs.root
    assert again.subset_map == obs.subset_map


def test_observer_json_rejects_unknown_keys():
    d = observer_graph(mixed_horizon()).to_json()
    d["spurious"] = []
    with pytest.raises(ValueError):
        observer_from_json(d)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _strongly_connected(g):
    for start in g.nodes:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for p, q, _ in g.edges:
                if p == v and q not in seen:
                    seen.add(q)
                    stack.append(q)
        if seen != set(g.nodes):
            return False
    return True


def _deterministic_iso(g1, g2):
    """Isomorphism test for deterministic complete graphs: pick a start node
    mapping and chase transitions; succeed if some choice yields a bijection
    preserving all edges."""
    if len(g1.nodes) != len(g2.nodes) or g1.alphabet != g2.alphabet:
        return False
    out1 = {(p, h): q for p, q, h in g1.edges}
    out2 = {(p, h): q for p, q, h in g2.edges}
    if len(out1) != len(g1.edges) or len(out2) != len(g2.edges):
        raise AssertionError("iso helper expects deterministic graphs")
    start = g1.nodes[0]
    for candidate in g2.nodes:
        mapping = {start: candidate}
        queue = [start]
        ok = True
        while queue and ok:
            v = queue.pop()
            for h in g1.alphabet:
                q1 = out1.get((v, h))
                q2 = out2.get((mapping[v], h))
                if (q1 is None) != (q2 is None):
                    ok = False
                    break
                if q1 is None:
                    continue
                if q1 in mapping:
                    if mapping[q1] != q2:
                        ok = False
                        break
                else:
                    mapping[q1] = q2
                    queue.append(q1)
        if ok and len(mapping) == len(g1.nodes) and len(set(mapping.values())) == len(g1.nodes):
            if all(out2.get((mapping[p], h)) == mapping.get(q) for (p, h), q in out1.items()):
                return True
    return False
