"""Subset-construction observer for labeled graphs.

The observer tracks, for a deterministic reading of symbols, the set of base
nodes that could currently host a path consuming the symbols seen so far.
Starting from the full node set, each symbol maps a subset to the union of
its successors.  If some subset ever becomes empty, the symbol sequence that
produced it cannot be read anywhere in the base graph, so the construction
doubles as a path-completeness check with an explicit witness.
"""

from dataclasses import dataclass, field
from operator import methodcaller

from .errors import (
    InvariantViolation,
    NotPathCompleteError,
    json_object,
    json_reader,
    state_cap,
)
from .graphs import (
    LabeledGraph,
    _explore_subsets,
    _members,
    _successor_steps,
    _word_to,
    graph_from_json,
)


_escaped = methodcaller(
    "translate", str.maketrans({c: "\\" + c for c in "\\,{}"})
)


@dataclass(frozen=True)
class ObserverNode:
    """A reachable subset of base-graph nodes."""

    subset: frozenset

    @property
    def name(self):
        """The sorted member names, comma-separated in braces.  Member names
        containing ",", "{", "}" or "\\" are written with a backslash
        before each such character, so distinct subsets get distinct names."""
        return "{" + ",".join(map(_escaped, sorted(self.subset))) + "}"


@dataclass
class ObserverGraph:
    graph: LabeledGraph
    root: str
    subset_map: dict = field(default_factory=dict)

    def to_json(self):
        d = self.graph.to_json()
        d["root"] = self.root
        d["subsets"] = {
            name: sorted(node.subset) for name, node in self.subset_map.items()
        }
        return d


@json_reader("observer")
def observer_from_json(d):
    json_object(d, "observer", ("alphabet", "nodes", "edges", "root", "subsets"))
    graph = graph_from_json(
        {"alphabet": d["alphabet"], "nodes": d["nodes"], "edges": d["edges"]}
    )
    subset_map = {
        name: ObserverNode(frozenset(members))
        for name, members in d["subsets"].items()
    }
    if set(subset_map) != set(graph.nodes):
        raise ValueError("observer subsets do not match the node list")
    if d["root"] not in subset_map:
        raise ValueError("observer root is not a node")
    return ObserverGraph(graph=graph, root=d["root"], subset_map=subset_map)


def observer_graph(g, cap=None):
    """Determinize ``g`` by subset construction from the full node set.

    Runs `graphs._explore_subsets` on one part, g from its full node set,
    stopping at the empty subset, and turns node masks back into node names
    only for the subsets it found.  Raises NotPathCompleteError (with the
    offending word, most recent symbol first) when an empty subset is
    reached, and ResourceLimitError when the number of discovered subsets
    exceeds the cap (default 2^20, env-overridable).
    """
    steps = _successor_steps([g])
    parent, hit = _explore_subsets(
        g.alphabet, steps, ((1 << len(g.nodes)) - 1,), state_cap(cap),
        lambda s: not s[0],
    )
    if hit is not None:
        raise NotPathCompleteError(_word_to(parent, hit))
    subset_map = {}
    names = {}
    for (mask,) in parent:
        node = ObserverNode(frozenset(_members(g.nodes, mask)))
        names[mask] = node.name
        subset_map[names[mask]] = node
    # each state was expanded, so the memo holds every successor
    edges = [
        (names[mask], names[step[mask]], symbol)
        for mask in names
        for symbol, step in zip(g.alphabet, steps[0])
    ]
    graph = LabeledGraph(g.alphabet, tuple(subset_map), edges)
    return ObserverGraph(graph=graph, root=graph.nodes[0], subset_map=subset_map)


def observer_core(obs):
    """Restrict an observer to its unique terminal strongly connected
    component, the part every long enough run settles into.

    The result is returned as a plain LabeledGraph.  Uniqueness of the
    terminal component, and its closure under all transitions, are verified
    and raise InvariantViolation if they fail; for graphs produced by
    observer_graph they always hold.
    """
    g = obs.graph
    succ = {node: [] for node in g.nodes}
    for p, q, _ in g.edges:
        succ[p].append(q)

    components = _tarjan_scc(g.nodes, succ)
    comp_of = {}
    for idx, comp in enumerate(components):
        for node in comp:
            comp_of[node] = idx

    terminal = []
    for idx, comp in enumerate(components):
        members = set(comp)
        if all(comp_of[q] == idx for p in comp for q in succ[p]):
            terminal.append(members)
    if len(terminal) != 1:
        raise InvariantViolation(
            f"expected exactly one terminal component, found {len(terminal)}"
        )
    core_nodes = terminal[0]

    for p, q, h in g.edges:
        if p in core_nodes and q not in core_nodes:
            raise InvariantViolation(f"core is not closed under ({p},{h})")

    kept_edges = [(p, q, h) for p, q, h in g.edges if p in core_nodes]
    kept_names = tuple(n for n in g.nodes if n in core_nodes)
    return LabeledGraph(g.alphabet, kept_names, kept_edges)


def _tarjan_scc(nodes, succ):
    """Iterative Tarjan strongly-connected-components."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    for start in nodes:
        if start in index:
            continue
        work = [(start, iter(succ[start]))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.append(top)
                    if top == node:
                        break
                components.append(comp)
    return components
