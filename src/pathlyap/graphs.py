"""Labeled directed multigraphs over a finite alphabet.

A graph is a triple (alphabet, nodes, edges) with edges labeled by alphabet
symbols.  Multiple edges between the same pair of nodes are allowed as long
as their labels differ; exact duplicate triples collapse.  Symbol and node
order is the declaration order and is preserved by every operation, so all
outputs are deterministic.
"""

from __future__ import annotations

import itertools
from operator import not_

from .errors import (
    Record,
    ResourceLimitError,
    integer,
    json_array,
    json_object,
    json_reader,
    json_strings,
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


class LabeledGraph(Record, value=True):
    """Immutable labeled multigraph.

    Edges are canonicalized at construction: deduplicated and sorted by
    (source index, target index, symbol index) so equal graphs compare equal
    regardless of the edge order they were built with.
    """

    __slots__ = ("alphabet", "nodes", "edges")

    def __init__(self, alphabet, nodes, edges):
        alphabet = tuple(alphabet)
        nodes = tuple(nodes)
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
        for e in edges:
            src, dst, sym = e
            if src not in nidx or dst not in nidx:
                raise ValueError(f"edge {e} references unknown node")
            if sym not in sidx:
                raise ValueError(f"edge {e} uses unknown symbol {sym!r}")
            seen.add((src, dst, sym))
        edges = tuple(sorted(seen, key=lambda e: (nidx[e[0]], nidx[e[1]], sidx[e[2]])))
        self._freeze(alphabet, nodes, edges)

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


@json_reader("graph")
def graph_from_json(data: dict) -> LabeledGraph:
    """Parse the graph JSON form; unknown keys are rejected."""
    json_object(data, "graph", ("alphabet", "nodes", "edges"))
    alphabet = tuple(json_strings(data["alphabet"], "graph 'alphabet'"))
    nodes = tuple(json_strings(data["nodes"], "graph 'nodes'"))
    edges = [tuple(json_strings(e, "graph edge"))
             for e in json_array(data["edges"], "graph 'edges'")]
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
    deterministic by construction.  Raises ResourceLimitError when the
    |alphabet|^order nodes exceed the state cap (default 2^20,
    env-overridable).  An order that is not an int is a ValueError.
    """
    alphabet = tuple(alphabet)
    order = integer(order, "order")
    if order < 1:
        raise ValueError("order must be >= 1")
    limit = state_cap()
    # two or more symbols exceed the cap within limit.bit_length() of
    # them, so the power stays small however large the order
    count = len(alphabet) ** min(order, limit.bit_length())
    if count > limit:
        raise ResourceLimitError(
            f"de Bruijn graph of order {order} over {len(alphabet)} symbols "
            f"exceeds the cap of {limit} nodes"
        )
    words = list(itertools.product(alphabet, repeat=order))
    name = {w: _word_name(w, alphabet) for w in words}
    edges = [
        (name[w], name[((h,) + w)[:order]], h) for w in words for h in alphabet
    ]
    return LabeledGraph(alphabet, tuple(name[w] for w in words), edges)


class _Step(dict):
    """One graph's successors under one symbol, memoized on node masks.

    A mask holds bit i for node i of the graph (in node order); looking a
    mask up gives the mask of all its members' successors.  `succ[i]` is
    the successor mask of node i alone.  Multi-part explorations step
    through these: parts on equal graphs share the memo, so a mask that
    several parts (or several runs) reach is stepped bit by bit once.
    """

    __slots__ = ("succ",)

    def __init__(self, succ):
        self.succ = succ
        self[0] = 0

    def __missing__(self, mask):
        out, rest, succ = 0, mask, self.succ
        while rest:
            low = rest & -rest
            out |= succ[low.bit_length() - 1]
            rest ^= low
        self[mask] = out
        return out


def _node_mask(g, nodes):
    """Mask of `nodes` in g: bit i stands for g.nodes[i]."""
    return sum(1 << g.nodes.index(v) for v in nodes)


def _members(items, mask):
    """The items whose bits are set in `mask`, in order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return out


def _successor_steps(graphs):
    """Per graph, one `_Step` per alphabet symbol, for multi-part
    explorations.  Equal graphs share their steps, so every part built on
    one graph shares one memo."""
    shared = {}
    steps = []
    for g in graphs:
        table = shared.get(g)
        if table is None:
            index = {v: i for i, v in enumerate(g.nodes)}
            succ = {sym: [0] * len(g.nodes) for sym in g.alphabet}
            for src, dst, sym in g.edges:
                succ[sym][index[src]] |= 1 << index[dst]
            table = shared[g] = tuple(_Step(succ[sym]) for sym in g.alphabet)
        steps.append(table)
    return steps


def _parts_expander(steps):
    """`_explore_subsets` expansion for multi-part states: a tuple of node
    masks, one per part, where `steps[k]` is part k's `_successor_steps`
    entry.  Each symbol maps every part's mask to its successor mask; only
    parts with a nonempty mask are stepped, since the empty mask stays
    empty."""
    moves = list(zip(*steps))

    def expand(state):
        live = list(itertools.compress(range(len(state)), state))
        out = []
        for step in moves:
            nxt = [0] * len(state)
            for k in live:
                nxt[k] = step[k][state[k]]
            out.append(tuple(nxt))
        return out

    return expand


def _mask_expander(g):
    """`_explore_subsets` expansion for one part on g: maps a node mask to
    its successor masks, one per symbol in alphabet order.

    The successor of a mask is the OR, over its 4-bit chunks (nodes 4j to
    4j + 3), of a 16-entry table of those nodes' successor unions, built
    once per graph.  Every symbol's successor mask is packed into one table
    entry, n bits per symbol, so one lookup per chunk steps every symbol.
    """
    n = len(g.nodes)
    index = {v: i for i, v in enumerate(g.nodes)}
    offset = {sym: h * n for h, sym in enumerate(g.alphabet)}
    packed = [0] * n
    for src, dst, sym in g.edges:
        packed[index[src]] |= 1 << (offset[sym] + index[dst])
    chunks = []
    for j in range(0, n, 4):
        table = [0]
        for row in packed[j:j + 4]:
            table += [entry | row for entry in table]
        chunks.append((j, table))
    full = (1 << n) - 1
    offsets = offset.values()

    def expand(mask):
        both = 0
        for j, table in chunks:
            both |= table[mask >> j & 15]
        return [both >> k & full for k in offsets]

    return expand


def _explore_subsets(alphabet, expand, start, limit, stop=None):
    """Breadth-first subset construction.

    A state is whatever `expand` steps: `expand(state)` returns its
    successor states, one per symbol of `alphabet`, in alphabet order.
    One-part searches use a single node mask (`_mask_expander`); several
    parts, each a graph or automaton read from its own start subset, use a
    tuple of masks (`_parts_expander`).  Symbols are tried in alphabet
    order, so the parent links spell the shortest word reaching each
    state, ties broken lexicographically.  Exploration ends at the first
    state (start included) for which `stop` holds; that state is not
    counted against `limit`.  Raises ResourceLimitError when more than
    `limit` states are discovered.

    Returns (parent, hit): `parent` maps every discovered state, in
    discovery order, to (previous state, symbol), or to None for `start`;
    `hit` is the stop state, or None when exploration completed, in which
    case every state in `parent` was expanded, in discovery order.
    """
    parent = {start: None}
    if stop is not None and stop(start):
        return parent, start
    # states are expanded in discovery order; the list grows as it is read
    queue = [start]
    for current in queue:
        for sym, nxt in zip(alphabet, expand(current)):
            if nxt in parent:
                continue
            parent[nxt] = (current, sym)
            if stop is not None and stop(nxt):
                return parent, nxt
            if len(parent) > limit:
                raise ResourceLimitError(
                    f"subset exploration exceeded {limit} subsets"
                )
            queue.append(nxt)
    return parent, None


def _word_to(parent, state):
    """Word spelled by the parent links from the start to `state`, most
    recent symbol first (the reverse of the order it was consumed in)."""
    word = []
    while parent[state] is not None:
        state, sym = parent[state]
        word.append(sym)
    return tuple(word)


def find_unreadable_word(g: LabeledGraph, cap=None):
    """Shortest word with no reading path in g, or None if all words read.

    Runs `_explore_subsets` on one node mask, g's full node set, stepped by
    `_mask_expander`, stopping at the empty mask: the symbols consumed to
    reach it form an unreadable word.  The word is returned most recent
    symbol first (reverse of the order the symbols were consumed in),
    matching the memory-word convention used by the automata layer; reverse
    it for trajectory order.

    Raises ResourceLimitError when more than `cap` distinct subsets appear
    (default 2^20, env-overridable).
    """
    limit = state_cap(cap)
    parent, hit = _explore_subsets(
        g.alphabet, _mask_expander(g), (1 << len(g.nodes)) - 1, limit, not_
    )
    return None if hit is None else _word_to(parent, hit)


def is_path_complete(g: LabeledGraph, cap=None) -> bool:
    """True iff every finite word over the alphabet has a reading path."""
    return find_unreadable_word(g, cap=cap) is None
