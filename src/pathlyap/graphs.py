"""Labeled directed multigraphs over a finite alphabet.

A graph is a triple (alphabet, nodes, edges) with edges labeled by alphabet
symbols.  Multiple edges between the same pair of nodes are allowed as long
as their labels differ; exact duplicate triples collapse.  Symbol and node
order is the declaration order and is preserved by every operation, so all
outputs are deterministic.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import (
    DEFAULT_SUBSET_CAP,
    ResourceLimitError,
    state_cap,
)

__all__ = [
    "LabeledGraph",
    "graph_from_json",
    "is_complete",
    "is_deterministic",
    "dual",
    "de_bruijn",
    "is_path_complete",
    "find_unreadable_word",
]


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable labeled multigraph.

    Edges are canonicalized at construction: deduplicated and sorted by
    (source index, target index, symbol index) so equal graphs compare equal
    regardless of the edge order they were built with.
    """

    alphabet: tuple[str, ...]
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        nodes = tuple(self.nodes)
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(alphabet)) != len(alphabet) or any(not s for s in alphabet):
            raise ValueError("alphabet symbols must be distinct and nonempty")
        if not nodes:
            raise ValueError("node list must be nonempty")
        if len(set(nodes)) != len(nodes) or any(not v for v in nodes):
            raise ValueError("node ids must be distinct and nonempty")
        nidx = {v: i for i, v in enumerate(nodes)}
        sidx = {s: i for i, s in enumerate(alphabet)}
        seen = set()
        for e in self.edges:
            src, dst, sym = e
            if src not in nidx or dst not in nidx:
                raise ValueError(f"edge {e} references unknown node")
            if sym not in sidx:
                raise ValueError(f"edge {e} uses unknown symbol {sym!r}")
            seen.add((src, dst, sym))
        edges = tuple(sorted(seen, key=lambda e: (nidx[e[0]], nidx[e[1]], sidx[e[2]])))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    def out_map(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """(node, symbol) -> tuple of successor nodes."""
        table: dict[tuple[str, str], list[str]] = {}
        for src, dst, sym in self.edges:
            table.setdefault((src, sym), []).append(dst)
        return {k: tuple(v) for k, v in table.items()}

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
        }


def graph_from_json(data: dict) -> LabeledGraph:
    """Parse the graph JSON form; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    extra = set(data) - {"alphabet", "nodes", "edges"}
    if extra:
        raise ValueError(f"unknown graph keys: {sorted(extra)}")
    try:
        alphabet = tuple(data["alphabet"])
        nodes = tuple(data["nodes"])
        edges = [tuple(e) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    if any(len(e) != 3 for e in edges):
        raise ValueError("edges must be [source, dest, label] triples")
    return LabeledGraph(alphabet, nodes, edges)


def is_complete(g: LabeledGraph) -> bool:
    """Every node has at least one outgoing edge per symbol."""
    present = {(src, sym) for src, _, sym in g.edges}
    return all((v, s) in present for v in g.nodes for s in g.alphabet)


def is_deterministic(g: LabeledGraph) -> bool:
    """No node has two outgoing edges with the same label."""
    seen = set()
    for src, _, sym in g.edges:
        if (src, sym) in seen:
            return False
        seen.add((src, sym))
    return True


def dual(g: LabeledGraph) -> LabeledGraph:
    """Edge-reversed graph on the same nodes and alphabet (an involution)."""
    return LabeledGraph(g.alphabet, g.nodes, [(q, p, h) for p, q, h in g.edges])


def _word_name(word, alphabet) -> str:
    sep = "" if all(len(s) == 1 for s in alphabet) else ","
    return "[" + sep.join(word) + "]"


def de_bruijn(alphabet, order: int) -> LabeledGraph:
    """De Bruijn graph: nodes are length-`order` words, newest symbol first.

    The successor of word w under symbol h is the word (h + w) truncated to
    `order` symbols, i.e. shift in the new symbol at the front.  Complete and
    deterministic by construction.
    """
    alphabet = tuple(alphabet)
    if order < 1:
        raise ValueError("order must be >= 1")
    words = list(itertools.product(alphabet, repeat=order))
    name = {w: _word_name(w, alphabet) for w in words}
    edges = [
        (name[w], name[((h,) + w)[:order]], h) for w in words for h in alphabet
    ]
    return LabeledGraph(alphabet, tuple(name[w] for w in words), edges)


def _explore_subsets(out, alphabet, start, limit, stop=None):
    """Breadth-first subset construction from the subset `start`.

    `out` maps (node, symbol) to successor nodes.  Each symbol maps a subset
    to the union of its members' successors; symbols are tried in alphabet
    order, so the parent links spell the shortest word reaching each subset,
    ties broken lexicographically.  Exploration ends at the first subset
    (start included) for which `stop` holds; that subset is not counted
    against `limit`.  Raises ResourceLimitError when more than `limit`
    subsets are discovered.

    Returns (parent, delta, hit): `parent` maps every discovered subset, in
    discovery order, to (previous subset, symbol), or to None for `start`;
    `delta` maps (subset, symbol) to the successor subset for every expanded
    subset; `hit` is the stop subset, or None when exploration completed.
    """
    parent = {start: None}
    delta = {}
    if stop is not None and stop(start):
        return parent, delta, start
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for sym in alphabet:
            nxt = frozenset(q for p in current for q in out.get((p, sym), ()))
            delta[(current, sym)] = nxt
            if nxt in parent:
                continue
            parent[nxt] = (current, sym)
            if stop is not None and stop(nxt):
                return parent, delta, nxt
            if len(parent) > limit:
                raise ResourceLimitError(
                    f"subset exploration exceeded {limit} subsets"
                )
            queue.append(nxt)
    return parent, delta, None


def _word_to(parent, subset):
    """Word spelled by the parent links from the start to `subset`, most
    recent symbol first (the reverse of the order it was consumed in)."""
    word = []
    while parent[subset] is not None:
        subset, sym = parent[subset]
        word.append(sym)
    return tuple(word)


def find_unreadable_word(g: LabeledGraph, cap=None):
    """Shortest word with no reading path in g, or None if all words read.

    Runs `_explore_subsets` from the full node set, stopping at the empty
    subset: the symbols consumed to reach it form an unreadable word.  The
    word is returned most recent symbol first (reverse of the order the
    symbols were consumed in), matching the memory-word convention used by
    the automata layer; reverse it for trajectory order.

    Raises ResourceLimitError when more than `cap` distinct subsets appear
    (default 2^20, env-overridable).
    """
    limit = state_cap(cap, DEFAULT_SUBSET_CAP)
    parent, _, hit = _explore_subsets(
        g.out_map(), g.alphabet, frozenset(g.nodes), limit, lambda s: not s
    )
    return None if hit is None else _word_to(parent, hit)


def is_path_complete(g: LabeledGraph, cap=None) -> bool:
    """True iff every finite word over the alphabet has a reading path."""
    return find_unreadable_word(g, cap=cap) is None
