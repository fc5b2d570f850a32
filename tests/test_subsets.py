"""The shared subset exploration, checked through every caller against the
brute-force oracles, and its cap thresholds pinned.

`graphs._explore_subsets` runs one node mask per part (one graph or
automaton read from its own start set); parts on equal graphs share one
successor memo.  The tests below mix parts on one shared graph, on equal
but distinct graphs, and on distinct graphs.
"""

import itertools
import json

import numpy as np
import pytest

from conftest import mixed_graph_sample, random_graph
from oracles import enumerate_unreadable, nfa_accepts, word_is_readable, words_up_to
from pathlyap.automata import (
    Automaton,
    language_includes,
    prepend_symbol,
    union_automaton,
    universality_witness,
)
from pathlyap.covering import (
    CoveringFamily,
    CoveringMember,
    _edge_table,
    covering_from_json,
    observer_to_covering,
    prefix_covering,
)
from pathlyap.errors import ResourceLimitError
from pathlyap.graphs import LabeledGraph, find_unreadable_word
from pathlyap.observer import observer_graph

AB = ("a", "b")

# a complete graph whose subset exploration from the full set discovers 11
# subsets, and a thinned copy whose shortest unreadable word has length 4
PC_EDGES = [
    ("p", "r", "a"), ("p", "s", "b"), ("p", "u", "a"), ("q", "q", "b"),
    ("q", "u", "a"), ("r", "q", "b"), ("r", "r", "a"), ("r", "s", "b"),
    ("s", "p", "b"), ("s", "t", "a"), ("t", "q", "b"), ("t", "s", "a"),
    ("t", "s", "b"), ("u", "p", "a"), ("u", "t", "b"),
]
THIN_EDGES = [
    ("p", "r", "a"), ("p", "t", "b"), ("p", "u", "a"), ("p", "u", "b"),
    ("q", "q", "b"), ("r", "p", "a"), ("r", "q", "a"), ("s", "s", "a"),
    ("t", "t", "a"), ("u", "p", "a"), ("u", "q", "a"), ("u", "q", "b"),
    ("u", "s", "b"),
]
NODES = ("p", "q", "r", "s", "t", "u")


def pc_graph():
    return LabeledGraph(AB, NODES, PC_EDGES)


def thin_graph():
    return LabeledGraph(AB, NODES, THIN_EDGES)


def mixed_family():
    """Four observer members on one shared dual graph, three more loaded
    back from JSON (equal graphs, distinct objects), and three prefix
    classes, each on its own chain graph."""
    shared = observer_to_covering(pc_graph())
    loaded = covering_from_json(json.loads(json.dumps(shared.to_json())))
    stems = prefix_covering([("a", "a"), ("a", "b"), ("b",)], AB)
    members = shared.members[:4] + tuple(
        CoveringMember("json" + m.name, m.automaton) for m in loaded.members[:3]
    ) + stems.members
    return CoveringFamily(AB, members)


def accepted(a, word):
    return nfa_accepts(a.graph.edges, a.initial, a.accepting, word)


def random_automaton(rng, alphabet, max_states=4):
    n = int(rng.integers(1, max_states + 1))
    g = random_graph(rng, n, len(alphabet), density=1.3 / n)
    initial = frozenset(v for v in g.nodes if rng.random() < 0.4) or {g.nodes[0]}
    accepting = frozenset(v for v in g.nodes if rng.random() < 0.4)
    return Automaton(g, initial, accepting)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_unreadable_word_is_shortlex_first_of_enumeration():
    """On random graphs of 3 to 8 nodes, the witness length is the first
    length at which the enumeration oracle finds an unreadable word, and
    the witness is the first unreadable word of that length."""
    rng = np.random.default_rng(101)
    found = 0
    for _ in range(60):
        g = mixed_graph_sample(rng, int(rng.integers(3, 9)), int(rng.integers(2, 4)))
        w = find_unreadable_word(g)
        if w is None:
            continue
        found += 1
        length = len(w)
        assert enumerate_unreadable(g.nodes, g.edges, g.alphabet, length - 1)
        assert not enumerate_unreadable(g.nodes, g.edges, g.alphabet, length)
        first = next(
            word for word in itertools.product(g.alphabet, repeat=length)
            if not word_is_readable(g.nodes, g.edges, word)
        )
        assert tuple(reversed(w)) == first
    assert found > 20


def test_universality_over_parts_matches_brute_force():
    """Several automata, read as their union, miss exactly the first word
    that no part accepts, in length-then-lexicographic order."""
    rng = np.random.default_rng(102)
    found = 0
    for _ in range(80):
        alphabet = AB[: int(rng.integers(1, 3))] if rng.random() < 0.2 else AB
        parts = [random_automaton(rng, alphabet)
                 for _ in range(int(rng.integers(1, 5)))]
        w = universality_witness(parts)
        assert w == universality_witness(union_automaton(parts))
        rejected = (
            word for word in words_up_to(alphabet, 8 if w is None else len(w))
            if not any(accepted(p, word) for p in parts)
        )
        first = next(rejected, None)
        if w is None:
            assert first is None
        else:
            found += 1
            assert w == first
    assert found > 30


def test_universality_over_parts_needs_one_alphabet():
    with pytest.raises(ValueError, match="one alphabet"):
        universality_witness(
            [mixed_family().members[0].automaton,
             Automaton(LabeledGraph(("a",), ("q",), []), {"q"}, {"q"})]
        )
    with pytest.raises(ValueError, match="zero automata"):
        universality_witness([])


def test_edge_table_matches_pairwise_inclusion():
    """Shared, equal-but-distinct and distinct member graphs in one family:
    the table lists exactly the members C with h·L(B) ⊆ L(C)."""
    fam = mixed_family()
    table = _edge_table(fam)
    for source in fam.members:
        for h in fam.alphabet:
            lifted = prepend_symbol(h, source.automaton)
            expected = tuple(
                t.name for t in fam.members
                if language_includes(lifted, t.automaton)
            )
            assert table[(source.name, h)] == expected, (source.name, h)


# ---------------------------------------------------------------------------
# cap thresholds: each passes at the subset count N it discovers and stops
# at N - 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("run, n", [
    (lambda cap: find_unreadable_word(pc_graph(), cap=cap), 11),
    (lambda cap: find_unreadable_word(thin_graph(), cap=cap), 9),
    (lambda cap: observer_graph(pc_graph(), cap=cap), 11),
    (lambda cap: _edge_table(observer_to_covering(pc_graph()), cap=cap), 30),
    (lambda cap: _edge_table(mixed_family(), cap=cap), 23),
], ids=["unreadable-complete", "unreadable-thin", "observer",
        "edge-table-observer", "edge-table-mixed"])
def test_cap_threshold(run, n):
    run(n)
    with pytest.raises(ResourceLimitError, match=f"exceeded {n - 1} subsets"):
        run(n - 1)


def test_pinned_graphs():
    assert find_unreadable_word(pc_graph()) is None
    assert find_unreadable_word(thin_graph()) == ("b", "a", "b", "b")
    assert len(observer_graph(pc_graph()).graph.nodes) == 11
