"""Regular languages over the alphabet, represented as finite automata.

Words are tuples of symbols consumed left to right, with index 0 holding the
most recent symbol (the prepend convention: extending a memory word by a new
symbol h yields (h,) + word).  All constructions are epsilon-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_DETERMINIZE_CAP, state_cap
from .graphs import LabeledGraph, _explore_subsets, _word_to, dual, graph_from_json

__all__ = [
    "Automaton",
    "PrefixClass",
    "automaton_from_json",
    "accepts",
    "prefix_class_automaton",
    "prepend_symbol",
    "union_automaton",
    "language_includes",
    "is_universal",
    "universality_witness",
    "language_of_observer_node",
]


@dataclass(frozen=True)
class Automaton:
    """Nondeterministic finite automaton over a labeled graph.

    A word is accepted iff some path from an initial node reading it ends in
    an accepting node; ε is accepted iff initial and accepting intersect.
    """

    graph: LabeledGraph
    initial: frozenset
    accepting: frozenset

    def __post_init__(self):
        initial = frozenset(self.initial)
        accepting = frozenset(self.accepting)
        nodes = set(self.graph.nodes)
        if not initial:
            raise ValueError("initial state set must be nonempty")
        if not initial <= nodes:
            raise ValueError("initial states must be graph nodes")
        if not accepting <= nodes:
            raise ValueError("accepting states must be graph nodes")
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "accepting", accepting)

    def to_json(self) -> dict:
        d = self.graph.to_json()
        d["initial"] = sorted(self.initial)
        d["accepting"] = sorted(self.accepting)
        return d


def automaton_from_json(data: dict) -> Automaton:
    if not isinstance(data, dict):
        raise ValueError("automaton JSON must be an object")
    extra = set(data) - {"alphabet", "nodes", "edges", "initial", "accepting"}
    if extra:
        raise ValueError(f"unknown automaton keys: {sorted(extra)}")
    for key in ("initial", "accepting"):
        if key not in data:
            raise ValueError(f"automaton JSON missing {key!r}")
    graph = graph_from_json(
        {k: data[k] for k in ("alphabet", "nodes", "edges")}
    )
    return Automaton(graph, frozenset(data["initial"]), frozenset(data["accepting"]))


@dataclass(frozen=True)
class PrefixClass:
    """Words agreeing with the stem on their first K symbols where defined.

    Every prefix class contains ε and all (strict) prefixes of its stem; an
    empty stem denotes the full language.
    """

    alphabet: tuple
    stem: tuple

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        stem = tuple(self.stem)
        if any(s not in alphabet for s in stem):
            raise ValueError("stem symbols must come from the alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "stem", stem)


def prefix_class_automaton(p: PrefixClass) -> Automaton:
    """Chain automaton for a prefix class: K+1 states, all accepting, the
    last state absorbing every symbol."""
    k = len(p.stem)
    states = tuple(f"q{i}" for i in range(k + 1))
    edges = [(states[i], states[i + 1], p.stem[i]) for i in range(k)]
    edges += [(states[k], states[k], h) for h in p.alphabet]
    graph = LabeledGraph(p.alphabet, states, edges)
    return Automaton(graph, frozenset({states[0]}), frozenset(states))


def accepts(a: Automaton, word) -> bool:
    """Membership by breadth-first subset simulation."""
    alphabet = set(a.graph.alphabet)
    out = a.graph.out_map()
    frontier = set(a.initial)
    for sym in word:
        if sym not in alphabet:
            raise ValueError(f"symbol {sym!r} not in alphabet")
        frontier = {q for p in frontier for q in out.get((p, sym), ())}
        if not frontier:
            return False
    return bool(frontier & a.accepting)


def _fresh_node(taken, base) -> str:
    name = base
    while name in taken:
        name = "^" + name
    return name


def prepend_symbol(h: str, a: Automaton) -> Automaton:
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


def union_automaton(parts) -> Automaton:
    """Disjoint union recognizing the union of the parts' languages."""
    parts = list(parts)
    if not parts:
        raise ValueError("union of zero automata")
    alphabet = parts[0].graph.alphabet
    if any(p.graph.alphabet != alphabet for p in parts):
        raise ValueError("union members must share one alphabet")
    nodes, edges, initial, accepting = [], [], set(), set()
    for i, p in enumerate(parts):
        rename = {v: f"{i}:{v}" for v in p.graph.nodes}
        nodes.extend(rename[v] for v in p.graph.nodes)
        edges.extend((rename[s], rename[d], h) for s, d, h in p.graph.edges)
        initial.update(rename[v] for v in p.initial)
        accepting.update(rename[v] for v in p.accepting)
    graph = LabeledGraph(alphabet, tuple(nodes), edges)
    return Automaton(graph, frozenset(initial), frozenset(accepting))


def _tagged_union(parts):
    """Disjoint union of `parts` as (out, finals): node v of part k becomes
    (k, v), `out` maps (tagged node, symbol) to tagged successors, and
    `finals[k]` is part k's accepting set.  Initial states are left to the
    caller, which may start a part anywhere."""
    out = {}
    for k, p in enumerate(parts):
        for src, dst, sym in p.graph.edges:
            out.setdefault(((k, src), sym), []).append((k, dst))
    finals = [frozenset((k, v) for v in p.accepting) for k, p in enumerate(parts)]
    return out, finals


def language_includes(sub: Automaton, sup: Automaton, cap=None) -> bool:
    """True iff L(sub) ⊆ L(sup).

    One `_explore_subsets` run over the tagged union of sub and sup from
    both initial sets, stopping at the first subset where sub accepts and
    sup rejects.  The cap bounds the subsets of that joint exploration.
    """
    if sub.graph.alphabet != sup.graph.alphabet:
        raise ValueError("inclusion requires a common alphabet")
    out, (sub_final, sup_final) = _tagged_union([sub, sup])
    start = frozenset((0, v) for v in sub.initial) | frozenset(
        (1, v) for v in sup.initial
    )
    _, _, hit = _explore_subsets(
        out, sub.graph.alphabet, start, state_cap(cap, DEFAULT_DETERMINIZE_CAP),
        lambda s: not sub_final.isdisjoint(s) and sup_final.isdisjoint(s),
    )
    return hit is None


def universality_witness(a: Automaton, cap=None):
    """Shortest word outside L(a), or None when L(a) = S*.

    Ties broken lexicographically in alphabet order: `_explore_subsets`
    stops at the first subset with no accepting state.
    """
    parent, _, hit = _explore_subsets(
        a.graph.out_map(), a.graph.alphabet, frozenset(a.initial),
        state_cap(cap, DEFAULT_DETERMINIZE_CAP), a.accepting.isdisjoint,
    )
    return None if hit is None else _word_to(parent, hit)[::-1]


def is_universal(a: Automaton, cap=None) -> bool:
    """True iff L(a) is the set of all finite words."""
    return universality_witness(a, cap=cap) is None


def language_of_observer_node(obs, node) -> Automaton:
    """Automaton for the words whose observer run lands on `node`.

    Built as the dual of the observer graph with `node` initial and the root
    (the full-set node) accepting.  `obs` is an ObserverGraph; `node` may be
    a node id or an ObserverNode.
    """
    node_id = node if isinstance(node, str) else _node_id_for(obs, node)
    if node_id not in obs.subset_map:
        raise ValueError(f"unknown observer node {node_id!r}")
    return Automaton(dual(obs.graph), frozenset({node_id}), frozenset({obs.root}))


def _node_id_for(obs, node):
    subset = frozenset(node.subset)
    for name, candidate in obs.subset_map.items():
        if frozenset(candidate.subset) == subset:
            return name
    raise ValueError("observer node not found")
