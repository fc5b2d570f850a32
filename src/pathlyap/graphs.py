"""Labeled directed multigraphs over a finite alphabet.

A graph is a triple (alphabet, nodes, edges) with edges labeled by alphabet
symbols.  Multiple edges between the same pair of nodes are allowed as long
as their labels differ; exact duplicate triples collapse.  Symbol and node
order is the declaration order and is preserved by every operation, so all
outputs are deterministic.
"""

from __future__ import annotations

import itertools
from operator import itemgetter, not_

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
    """Every node has at least one outgoing edge per symbol.

    One scan of the canonical edge order, in which each node's out-edges
    are consecutive and the nodes come in declaration order; it stops at
    the first node that has no out-edge or misses a symbol.  A complete
    graph reads every word from any node, so it is path-complete, and
    `find_unreadable_word` answers it without a subset search.
    """
    width = len(g.alphabet)
    nodes = iter(g.nodes)
    for src, edges in itertools.groupby(g.edges, key=itemgetter(0)):
        # a node skipped by the groups has no out-edge
        if src != next(nodes) or len({sym for _, _, sym in edges}) < width:
            return False
    return next(nodes, None) is None


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


# most bytes a successor table may take, about |alphabet| n^2 / 2 for n
# nodes: two-symbol De Bruijn 15 (2^15 nodes) fits, De Bruijn 16 does not
_TABLE_BYTES = 1 << 30


def _mask_expander(g):
    """`_explore_subsets` expansion for one part on g: maps a node mask to
    its successor masks, one per symbol in alphabet order.

    The successor of a mask is the OR, over its nonzero 4-bit chunks
    (nodes j to j + 3, j a multiple of 4), of a 16-entry table of those
    nodes' successor unions, built once per graph.  Every symbol's
    successor mask is packed into one table entry, n bits per symbol, so
    one lookup per chunk steps every symbol.  Chunks are taken from the top
    down, and each is cleared once read, so a sparse mask costs only its
    nonzero chunks.  The n / 4 tables hold 16 entries of |alphabet| n bits
    each, about |alphabet| n^2 / 2 bytes; a graph whose tables would take
    more than :data:`_TABLE_BYTES` raises ResourceLimitError before any is
    built.
    """
    n = len(g.nodes)
    size = len(g.alphabet) * n * n // 2
    if size > _TABLE_BYTES:
        raise ResourceLimitError(
            f"successor table of {n} nodes needs about {size} bytes, above "
            f"the budget of {_TABLE_BYTES} bytes"
        )
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
        while mask:
            j, table = chunks[(mask.bit_length() - 1) >> 2]
            top = mask >> j
            both |= table[top]
            mask ^= top << j
        return [both >> k & full for k in offsets]

    return expand


class _Successors(dict):
    """One graph's `_mask_expander`, memoized: looking a node mask up gives
    its successor masks, one per symbol in alphabet order.  Multi-part
    explorations step through these, and parts on equal graphs share one,
    so a mask that several parts (or several runs) reach is stepped once."""

    __slots__ = ("expand",)

    def __init__(self, g):
        self.expand = _mask_expander(g)

    def __missing__(self, mask):
        self[mask] = out = self.expand(mask)
        return out


def _shared_successors(graphs):
    """One `_Successors` memo per graph, shared by equal graphs."""
    shared = {g: _Successors(g) for g in set(graphs)}
    return [shared[g] for g in graphs]


def _parts_expander(memos):
    """`_explore_subsets` expansion for multi-part states: a tuple of node
    masks, one per part, where `memos[k]` is part k's `_Successors`.  Only
    parts with a nonempty mask are looked up, since the empty mask stays
    empty.  The all-empty state gets no successors: each of them would be
    itself, which is already discovered."""
    width = len(memos)

    def expand(state):
        live = list(itertools.compress(range(width), state))
        rows = [memos[k][state[k]] for k in live]
        out = []
        for h in range(len(rows[0]) if rows else 0):
            nxt = [0] * width
            for k, row in zip(live, rows):
                nxt[k] = row[h]
            out.append(tuple(nxt))
        return out

    return expand


def _explore_subsets(alphabet, expand, start, limit, stop=None):
    """Breadth-first subset construction.

    A state is whatever `expand` steps: `expand(state)` returns its
    successor states, one per symbol of `alphabet`, in alphabet order, or
    none for a state that steps only to itself.  Every state is made of
    node masks stepped by one successor table per graph, `_mask_expander`.
    One-part searches use a single mask; several parts, each a graph or
    automaton read from its own start subset, use a tuple of masks
    (`_parts_expander`), each part stepped through its graph's shared
    `_Successors` memo over that table.  Symbols are tried in alphabet
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

    A complete graph (`is_complete`) reads every word, so it gets None
    without a search.  Any other graph runs `_explore_subsets` on one node
    mask, g's full node set, stepped by g's successor table
    `_mask_expander` with no memo (each mask is expanded once), stopping
    at the empty mask: the symbols consumed to reach it form an unreadable
    word.  The word is returned most recent symbol first (reverse of the
    order the symbols were consumed in), matching the memory-word
    convention used by the automata layer; reverse it for trajectory order.

    Raises ResourceLimitError when more than `cap` distinct subsets appear
    (default 2^20, env-overridable).  The cap bounds only the search: it
    is read and validated for every graph, but a complete graph never
    reaches it, nor the successor table's byte budget.
    """
    limit = state_cap(cap)
    if is_complete(g):
        return None
    parent, hit = _explore_subsets(
        g.alphabet, _mask_expander(g), (1 << len(g.nodes)) - 1, limit, not_
    )
    return None if hit is None else _word_to(parent, hit)


def is_path_complete(g: LabeledGraph, cap=None) -> bool:
    """True iff every finite word over the alphabet has a reading path.

    Decided by `find_unreadable_word`: a complete graph is True without a
    subset search, and `cap` bounds only the search that other graphs run.
    """
    return find_unreadable_word(g, cap=cap) is None
