"""Subset-construction observer for labeled graphs.

The observer tracks, for a deterministic reading of symbols, the set of base
nodes that could currently host a path consuming the symbols seen so far.
Starting from the full node set, each symbol maps a subset to the union of
its successors.  If some subset ever becomes empty, the symbol sequence that
produced it cannot be read anywhere in the base graph, so the construction
doubles as a path-completeness check with an explicit witness.

An observer node is its frozenset of base nodes: `ObserverGraph.subset_map`
maps each node name to that frozenset.
"""

from operator import methodcaller, not_

from .errors import (
    InvariantViolation,
    NotPathCompleteError,
    Record,
    json_object,
    json_reader,
    json_string,
    json_strings,
    state_cap,
)
from .graphs import (
    LabeledGraph,
    _explore_subsets,
    _mask_expander,
    _members,
    _word_to,
    graph_from_json,
)


_escaped = methodcaller(
    "translate", str.maketrans({c: "\\" + c for c in "\\,{}"})
)


def _subset_name(subset):
    """The sorted member names, comma-separated in braces.  Member names
    containing ",", "{", "}" or "\\" are written with a backslash before
    each such character, so distinct subsets get distinct names."""
    return "{" + ",".join(map(_escaped, sorted(subset))) + "}"


class ObserverGraph(Record, value=True):
    __slots__ = ("graph", "root", "subset_map")

    def __init__(self, graph, root, subset_map=None):
        self._freeze(graph, root, {} if subset_map is None else subset_map)

    def to_json(self):
        d = self.graph.to_json()
        d["root"] = self.root
        d["subsets"] = {
            name: sorted(subset) for name, subset in self.subset_map.items()
        }
        return d


@json_reader("observer")
def observer_from_json(d):
    json_object(d, "observer", ("alphabet", "nodes", "edges", "root", "subsets"))
    graph = graph_from_json(
        {"alphabet": d["alphabet"], "nodes": d["nodes"], "edges": d["edges"]}
    )
    subset_map = {
        name: frozenset(json_strings(members, "observer subset"))
        for name, members in d["subsets"].items()
    }
    if set(subset_map) != set(graph.nodes):
        raise ValueError("observer subsets do not match the node list")
    root = json_string(d["root"], "observer 'root'")
    if root not in subset_map:
        raise ValueError("observer root is not a node")
    return ObserverGraph(graph=graph, root=root, subset_map=subset_map)


def observer_graph(g, cap=None):
    """Determinize ``g`` by subset construction from the full node set.

    Runs `graphs._explore_subsets` on one node mask, g's full node set,
    stepped by `graphs._mask_expander`, stopping at the empty mask.  The
    successors of every expanded mask are kept for the edges, and node
    masks are turned back into node names only for the subsets found.
    Raises NotPathCompleteError (with the offending word, most recent
    symbol first) when an empty subset is reached, and ResourceLimitError
    when the number of discovered subsets exceeds the cap (default 2^20,
    env-overridable).
    """
    step = _mask_expander(g)
    successors = {}

    def expand(mask):
        successors[mask] = out = step(mask)
        return out

    parent, hit = _explore_subsets(
        g.alphabet, expand, (1 << len(g.nodes)) - 1, state_cap(cap), not_
    )
    if hit is not None:
        raise NotPathCompleteError(_word_to(parent, hit))
    subset_map = {}
    names = {}
    for mask in parent:
        subset = frozenset(_members(g.nodes, mask))
        names[mask] = _subset_name(subset)
        subset_map[names[mask]] = subset
    # exploration completed, so every discovered mask was expanded
    edges = [
        (names[mask], names[nxt], symbol)
        for mask, out in successors.items()
        for symbol, nxt in zip(g.alphabet, out)
    ]
    graph = LabeledGraph(g.alphabet, tuple(subset_map), edges)
    return ObserverGraph(graph=graph, root=graph.nodes[0], subset_map=subset_map)


def observer_core(obs):
    """Restrict an observer to its unique terminal strongly connected
    component, the part every long enough run settles into.

    The result is returned as a plain LabeledGraph.  Kosaraju's method finds
    the components: a depth-first search records the order in which nodes
    finish, and a search along reversed edges, from the latest finisher
    first, labels each component by the node it started from.  A component
    is terminal when no edge leaves it, so the core is closed under all
    transitions by construction.  Its uniqueness is verified and raises
    InvariantViolation if it fails; for graphs produced by observer_graph it
    always holds.
    """
    g = obs.graph
    succ = {node: [] for node in g.nodes}
    pred = {node: [] for node in g.nodes}
    for p, q, _ in g.edges:
        succ[p].append(q)
        pred[q].append(p)

    finished = []
    seen = set()
    for start in g.nodes:
        if start in seen:
            continue
        seen.add(start)
        work = [(start, iter(succ[start]))]
        while work:
            node, children = work[-1]
            child = next((c for c in children if c not in seen), None)
            if child is None:
                work.pop()
                finished.append(node)
            else:
                seen.add(child)
                work.append((child, iter(succ[child])))

    component = {}
    for label in reversed(finished):
        if label in component:
            continue
        component[label] = label
        stack = [label]
        while stack:
            for p in pred[stack.pop()]:
                if p not in component:
                    component[p] = label
                    stack.append(p)

    terminal = set(component.values()) - {
        component[p] for p, q, _ in g.edges if component[p] != component[q]
    }
    if len(terminal) != 1:
        raise InvariantViolation(
            f"expected exactly one terminal component, found {len(terminal)}"
        )
    (core,) = terminal
    kept_edges = [(p, q, h) for p, q, h in g.edges if component[p] == core]
    kept_names = tuple(n for n in g.nodes if component[n] == core)
    return LabeledGraph(g.alphabet, kept_names, kept_edges)
