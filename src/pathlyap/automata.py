"""Regular languages over the alphabet, represented as finite automata.

Words are tuples of symbols consumed left to right, with index 0 holding the
most recent symbol (the prepend convention: extending a memory word by a new
symbol h yields (h,) + word).  All constructions are epsilon-free.  A prefix
class is given by its alphabet and stem alone, and
`prefix_class_automaton(alphabet, stem)` builds its chain automaton.
"""

from __future__ import annotations

from operator import and_

from .errors import (
    Record,
    json_object,
    json_reader,
    json_strings,
    state_cap,
)
from .graphs import (
    LabeledGraph,
    _explore_subsets,
    _node_mask,
    _parts_expander,
    _shared_successors,
    _word_to,
    graph_from_json,
)

__all__ = [
    "Automaton",
    "automaton_from_json",
    "accepts",
    "prefix_class_automaton",
    "language_includes",
    "universality_witness",
]


class Automaton(Record, value=True):
    """Nondeterministic finite automaton over a labeled graph.

    A word is accepted iff some path from an initial node reading it ends in
    an accepting node; ε is accepted iff initial and accepting intersect.
    """

    __slots__ = ("graph", "initial", "accepting")

    def __init__(self, graph, initial, accepting):
        initial = frozenset(initial)
        accepting = frozenset(accepting)
        nodes = set(graph.nodes)
        if not initial:
            raise ValueError("initial state set must be nonempty")
        if not initial <= nodes:
            raise ValueError("initial states must be graph nodes")
        if not accepting <= nodes:
            raise ValueError("accepting states must be graph nodes")
        self._freeze(graph, initial, accepting)

    def to_json(self) -> dict:
        d = self.graph.to_json()
        d["initial"] = sorted(self.initial)
        d["accepting"] = sorted(self.accepting)
        return d


@json_reader("automaton")
def automaton_from_json(data: dict) -> Automaton:
    return _read_automaton(data, [])


def _read_automaton(data, graphs):
    """The automaton of `data`, reusing a graph read before.

    `graphs` lists the ((alphabet, nodes, edges) JSON, graph) pairs read so
    far.  When this automaton's three graph fields equal a listed pair's
    JSON, its graph is that pair's graph, which is not read again: those
    fields were read as arrays of strings, and only a string equals a
    string, so equal JSON is the same, already checked, graph.  A graph
    read anew is appended to `graphs`.
    """
    json_object(data, "automaton",
                ("alphabet", "nodes", "edges", "initial", "accepting"))
    fields = (data["alphabet"], data["nodes"], data["edges"])
    graph = next((g for known, g in graphs if known == fields), None)
    if graph is None:
        graph = graph_from_json(dict(zip(("alphabet", "nodes", "edges"),
                                         fields)))
        graphs.append((fields, graph))
    initial = frozenset(json_strings(data["initial"], "automaton 'initial'"))
    accepting = frozenset(json_strings(data["accepting"], "automaton 'accepting'"))
    return Automaton(graph, initial, accepting)


def prefix_class_automaton(alphabet, stem) -> Automaton:
    """Chain automaton for the prefix class of `stem`: the words agreeing
    with the stem on their first K symbols where defined.  Every prefix
    class contains ε and all (strict) prefixes of its stem; an empty stem
    denotes the full language.  K+1 states, all accepting, the last state
    absorbing every symbol."""
    alphabet = tuple(alphabet)
    if any(s not in alphabet for s in stem):
        raise ValueError("stem symbols must come from the alphabet")
    k = len(stem)
    states = tuple(f"q{i}" for i in range(k + 1))
    edges = [(states[i], states[i + 1], stem[i]) for i in range(k)]
    edges += [(states[k], states[k], h) for h in alphabet]
    graph = LabeledGraph(alphabet, states, edges)
    return Automaton(graph, frozenset({states[0]}), frozenset(states))


def accepts(a: Automaton, word) -> bool:
    """Membership by breadth-first subset simulation.  A symbol outside the
    alphabet is a ValueError wherever it appears in the word, also past
    the point where the run dies."""
    word = tuple(word)
    alphabet = set(a.graph.alphabet)
    for sym in word:
        if sym not in alphabet:
            raise ValueError(f"symbol {sym!r} not in alphabet")
    out = a.graph.out_map()
    frontier = set(a.initial)
    for sym in word:
        frontier = {q for p in frontier for q in out.get((p, sym), ())}
        if not frontier:
            return False
    return bool(frontier & a.accepting)


def _common_alphabet(parts):
    """The alphabet shared by a nonempty sequence of automata."""
    if not parts:
        raise ValueError("union of zero automata")
    alphabet = parts[0].graph.alphabet
    if any(p.graph.alphabet != alphabet for p in parts):
        raise ValueError("union members must share one alphabet")
    return alphabet


def _parts(automata):
    """The automata as `_explore_subsets` parts: (memos, start, finals),
    with each part's `_Successors` memo, its initial set as the start mask
    and its accepting set as a mask."""
    memos = _shared_successors([a.graph for a in automata])
    start = tuple(_node_mask(a.graph, a.initial) for a in automata)
    finals = [_node_mask(a.graph, a.accepting) for a in automata]
    return memos, start, finals


def language_includes(sub: Automaton, sup: Automaton, cap=None) -> bool:
    """True iff L(sub) ⊆ L(sup).

    One `_explore_subsets` run over two parts, sub and sup, each from its
    initial set, stopping at the first state where sub accepts and sup
    rejects.  The cap bounds the states of that joint exploration.
    """
    if sub.graph.alphabet != sup.graph.alphabet:
        raise ValueError("inclusion requires a common alphabet")
    memos, start, (sub_final, sup_final) = _parts([sub, sup])
    _, hit = _explore_subsets(
        sub.graph.alphabet, _parts_expander(memos), start,
        state_cap(cap),
        lambda s: s[0] & sub_final and not s[1] & sup_final,
    )
    return hit is None


def universality_witness(automata, cap=None):
    """Shortest word that no automaton in `automata` accepts, or None when
    their union is S*.

    `automata` is a nonempty sequence of automata over one alphabet; pass a
    one-element list for a single automaton.  Each automaton is one part of
    a single `_explore_subsets` run from its initial set; the run stops at
    the first state where no part holds an accepting node.  Ties are broken
    lexicographically in alphabet order.  The cap bounds the states of that
    run, which are as many as the subsets of the parts' disjoint union.
    """
    alphabet = _common_alphabet(automata)
    memos, start, finals = _parts(automata)
    parent, hit = _explore_subsets(
        alphabet, _parts_expander(memos), start,
        state_cap(cap),
        lambda s: not any(map(and_, s, finals)),
    )
    return None if hit is None else _word_to(parent, hit)[::-1]
