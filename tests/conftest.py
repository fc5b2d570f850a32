"""Shared helpers: seeded random graph generators used across test modules,
reference automaton constructions (union and prepend) that the subset
explorations are checked against, and the loader for the test data under
tests/data."""

import json
from pathlib import Path

import numpy as np

from pathlyap.automata import Automaton
from pathlyap.graphs import LabeledGraph, is_path_complete

SYMBOLS = ("a", "b", "c")


def random_graph(rng, n_nodes, n_syms, density):
    """Random labeled multigraph; density is the per-(node, symbol, target)
    edge probability."""
    nodes = tuple(f"n{i}" for i in range(n_nodes))
    alphabet = SYMBOLS[:n_syms]
    edges = []
    for p in nodes:
        for h in alphabet:
            for q in nodes:
                if rng.random() < density:
                    edges.append((p, q, h))
    return LabeledGraph(alphabet, nodes, edges)


def random_complete_graph(rng, n_nodes, n_syms, extra=0.15):
    """Random graph with at least one out-edge per (node, symbol)."""
    nodes = tuple(f"n{i}" for i in range(n_nodes))
    alphabet = SYMBOLS[:n_syms]
    edges = set()
    for p in nodes:
        for h in alphabet:
            edges.add((p, nodes[rng.integers(n_nodes)], h))
            while rng.random() < extra:
                edges.add((p, nodes[rng.integers(n_nodes)], h))
    return LabeledGraph(alphabet, nodes, sorted(edges))


def random_path_complete_graph(rng, n_nodes, n_syms, thin=True):
    """Path-complete sample: complete graph, optionally thinned while the
    thinned graph stays path-complete (gives non-complete PC graphs too)."""
    g = random_complete_graph(rng, n_nodes, n_syms)
    if not thin:
        return g
    edges = list(g.edges)
    for e in [edges[i] for i in rng.permutation(len(edges))[: len(edges) // 2]]:
        trial = [x for x in edges if x != e]
        if trial and is_path_complete(LabeledGraph(g.alphabet, g.nodes, trial)):
            edges = trial
    return LabeledGraph(g.alphabet, g.nodes, edges)


def with_sink(g, sink="sink"):
    """g plus one node with an in-edge and no out-edges.  It reads what g
    reads, so it is path-complete when g is, but it is never complete: its
    unreadable-word search runs instead of the complete graph's shortcut."""
    edge = (g.nodes[0], sink, g.alphabet[0])
    return LabeledGraph(g.alphabet, g.nodes + (sink,), g.edges + (edge,))


def mixed_graph_sample(rng, n_nodes, n_syms):
    """Mix of sparse, medium, and complete-ish graphs."""
    kind = rng.integers(3)
    if kind == 0:
        return random_graph(rng, n_nodes, n_syms, 0.5 / n_nodes)
    if kind == 1:
        return random_graph(rng, n_nodes, n_syms, 1.5 / n_nodes)
    return random_complete_graph(rng, n_nodes, n_syms)


def _fresh_node(taken, base):
    name = base
    while name in taken:
        name = "^" + name
    return name


def prepend_symbol(h, a):
    """Automaton for { h·w : w in L(a) }.

    A fresh initial state carries h-edges into a's initial states and is
    never accepting (ε does not belong to a prepended language).
    """
    if h not in a.graph.alphabet:
        raise ValueError(f"symbol {h!r} not in alphabet")
    start = _fresh_node(set(a.graph.nodes), f"+{h}")
    nodes = (start,) + a.graph.nodes
    edges = list(a.graph.edges) + [(start, q, h) for q in sorted(a.initial)]
    graph = LabeledGraph(a.graph.alphabet, nodes, edges)
    return Automaton(graph, frozenset({start}), a.accepting)


def union_automaton(parts):
    """Disjoint union recognizing the union of the parts' languages, which
    share one alphabet."""
    nodes, edges, initial, accepting = [], [], set(), set()
    for i, p in enumerate(parts):
        rename = {v: f"{i}:{v}" for v in p.graph.nodes}
        nodes.extend(rename[v] for v in p.graph.nodes)
        edges.extend((rename[s], rename[d], h) for s, d, h in p.graph.edges)
        initial.update(rename[v] for v in p.initial)
        accepting.update(rename[v] for v in p.accepting)
    graph = LabeledGraph(parts[0].graph.alphabet, tuple(nodes), edges)
    return Automaton(graph, frozenset(initial), frozenset(accepting))


def margin_corpus():
    """Small single-variable margin problems with grid-checkable optima."""
    path = Path(__file__).parent / "data" / "margin_corpus.json"
    return json.loads(path.read_text())["problems"]
