"""The shared subset exploration, checked through every caller against the
brute-force oracles, and its cap thresholds pinned.

Every subset search steps node masks through one successor table per
graph, `graphs._mask_expander`: each nonzero 4-bit chunk of a mask indexes
a 16-entry table of its nodes' successors.  The one-part searches step a
single mask; the multi-part ones step a tuple of masks, one per part (one
graph or automaton read from its own start set), through a memo over the
table that parts on equal graphs share.  The tests below check the tables
against bit-by-bit unions and the earlier memoized search, and mix parts
on one shared graph, on equal but distinct graphs, and on distinct graphs.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from conftest import (
    mixed_graph_sample,
    prepend_symbol,
    random_graph,
    random_path_complete_graph,
    union_automaton,
    with_sink,
)
from oracles import (
    enumerate_unreadable,
    memo_unreadable_word,
    nfa_accepts,
    word_is_readable,
    words_up_to,
)
from pathlyap import automata, cli, covering, graphs
from pathlyap.automata import (
    Automaton,
    language_includes,
    prefix_class_automaton,
    universality_witness,
)
from pathlyap.covering import (
    CoveringFamily,
    CoveringMember,
    covering_from_json,
    observer_to_covering,
    prefix_covering,
    validate_covering,
)
from pathlyap.errors import ResourceLimitError
from pathlyap.graphs import (
    LabeledGraph,
    _mask_expander,
    de_bruijn,
    find_unreadable_word,
)
from pathlyap.observer import observer_graph

AB = ("a", "b")

# a complete graph whose observer discovers 11 subsets, as does the
# unreadable-word search on it plus a sink, and a thinned copy whose
# shortest unreadable word has length 4
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
    back from JSON, and three prefix classes, each on its own chain graph.
    The JSON reader gives its members one graph among themselves, a graph
    equal to the observer members' graph but a distinct object."""
    shared = observer_to_covering(observer_graph(pc_graph()))
    loaded = covering_from_json(json.loads(json.dumps(shared.to_json())))
    stems = prefix_covering([("a", "a"), ("a", "b"), ("b",)], AB)
    graph = shared.members[0].automaton.graph
    json_graph = loaded.members[0].automaton.graph
    assert json_graph == graph and json_graph is not graph
    assert all(m.automaton.graph is json_graph for m in loaded.members)
    members = shared.members[:4] + tuple(
        CoveringMember("json" + m.name, m.automaton) for m in loaded.members[:3]
    ) + stems.members
    return CoveringFamily(AB, members)


def accepted(a, word):
    return nfa_accepts(a.graph.edges, a.initial, a.accepting, word)


def sparse_graph(rng, n, n_syms):
    """n nodes over n_syms symbols with 0 to 2 targets per (node, symbol)."""
    nodes = tuple(f"n{i}" for i in range(n))
    alphabet = ("a", "b", "c")[:n_syms]
    edges = [
        (p, nodes[t], h) for p in nodes for h in alphabet
        for t in rng.choice(n, size=int(rng.integers(0, min(2, n) + 1)),
                            replace=False)
    ]
    return LabeledGraph(alphabet, nodes, edges)


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


def test_unreadable_word_matches_memo_oracle():
    """The successor-table search returns the memoized tuple-state search's
    witness, None included, on 320 sparse graphs of 1 to 20 nodes (every
    size cycles through every node count mod 4, so every table-chunk edge)
    and on two graphs whose masks pass 64 bits."""
    rng = np.random.default_rng(105)
    sample = [sparse_graph(rng, i % 20 + 1, int(rng.integers(1, 4)))
              for i in range(320)]
    sample += [sparse_graph(np.random.default_rng(3), 72, 2),
               de_bruijn(("a", "b", "c"), 4)]
    witnesses = [find_unreadable_word(g) for g in sample]
    assert witnesses == [memo_unreadable_word(g) for g in sample]
    assert 60 < witnesses.count(None) < 260
    assert witnesses[-2] is not None and witnesses[-1] is None


def test_successor_tables_step_every_mask():
    """For every node mask of graphs with 1 to 9 nodes, each symbol's table
    successor is the union of the members' successors."""
    rng = np.random.default_rng(106)
    for n in range(1, 10):
        for _ in range(3):
            g = sparse_graph(rng, n, int(rng.integers(1, 4)))
            expand = _mask_expander(g)
            for mask in range(1 << n):
                members = {g.nodes[i] for i in range(n) if mask >> i & 1}
                union = [
                    sum({1 << g.nodes.index(q) for p, q, s in g.edges
                         if s == h and p in members})
                    for h in g.alphabet
                ]
                assert expand(mask) == union, (g, mask)


@pytest.mark.parametrize("search", ["unreadable", "observer", "covering",
                                    "cli"])
def test_successor_table_refuses_its_byte_budget(monkeypatch, tmp_path,
                                                 capsys, search):
    # two-symbol De Bruijn 3: 8 nodes, a table of about 2 * 8^2 / 2 = 64
    # bytes.  A complete graph's unreadable-word search builds no table, so
    # that search runs on De Bruijn 3 plus a sink (path-complete, not
    # complete): 9 nodes, about 2 * 9^2 / 2 = 81 bytes.  The budget is
    # patched small instead of building a large table
    g = de_bruijn(AB, 3)
    sunk = with_sink(g)
    family = observer_to_covering(observer_graph(g))
    monkeypatch.setattr(graphs, "_TABLE_BYTES", 81)
    assert find_unreadable_word(sunk) is None
    monkeypatch.setattr(graphs, "_TABLE_BYTES", 80)
    message = "successor table of 9 nodes needs about 81 bytes"
    if search == "cli":
        path = tmp_path / "g.json"
        path.write_text(json.dumps(sunk.to_json()))
        assert cli.run(["graph", "check", str(path)]) == 3
        assert message in capsys.readouterr().err
        return
    if search == "observer":
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 63)
        message = "successor table of 8 nodes needs about 64 bytes"
    if search == "covering":
        # the members' graphs are not g: any table exceeds a zero budget
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 0)
        message = "successor table of [0-9]+ nodes needs about [0-9]+ bytes"
    with pytest.raises(ResourceLimitError, match=message):
        if search == "unreadable":
            find_unreadable_word(sunk)
        elif search == "observer":
            observer_graph(g)
        else:
            validate_covering(family)


def test_successor_tables_step_large_masks():
    """On graphs of 100 to 300 nodes, masks with a few set bits (most
    chunks skipped), half their bits set, and every bit set step to the
    bit-by-bit union of their members' successors, through the table and
    through the shared memo."""
    rng = np.random.default_rng(107)
    for n in (100, 173, 256, 300):
        g = sparse_graph(rng, n, int(rng.integers(1, 4)))
        succ = {h: [0] * n for h in g.alphabet}
        for p, q, h in g.edges:
            succ[h][g.nodes.index(p)] |= 1 << g.nodes.index(q)
        expand = _mask_expander(g)
        memo = graphs._Successors(g)
        masks = [(1 << n) - 1, 1 << (n - 1), 1]
        for density in (0.01, 0.05, 0.5):
            for _ in range(20):
                masks.append(sum(1 << int(i) for i in
                                 np.flatnonzero(rng.random(n) < density)))
        for mask in masks:
            union = [0] * len(g.alphabet)
            for i in range(n):
                if mask >> i & 1:
                    for k, h in enumerate(g.alphabet):
                        union[k] |= succ[h][i]
            assert expand(mask) == union, (n, mask)
            assert memo[mask] == union, (n, mask)


def benchmark_bases():
    """The covering benchmark's seed-1 observer inputs: 2-symbol De Bruijn 5
    and 3-symbol De Bruijn 3, nodes renamed and listed in a seeded order."""
    rng = np.random.default_rng(1)
    bases = []
    for alphabet, order in ((AB, 5), (("a", "b", "c"), 3)):
        g = de_bruijn(alphabet, order)
        perm = rng.permutation(len(g.nodes))
        names = {g.nodes[i]: f"v{j}" for j, i in enumerate(perm)}
        bases.append(LabeledGraph(
            alphabet, tuple(names[g.nodes[i]] for i in perm),
            [(names[p], names[q], h) for p, q, h in g.edges],
        ))
        rng.permutation(len(g.nodes))  # the benchmark's stem order
    return bases


def test_observer_json_is_pinned_on_benchmark_graphs():
    """Observer JSON, node order included, digested as the memoized
    tuple-state construction produced it."""
    digests = [
        hashlib.sha256(json.dumps(observer_graph(g).to_json(),
                                  sort_keys=True).encode()).hexdigest()
        for g in benchmark_bases()
    ]
    assert digests == [
        "6e37d04f618a1967af2661e40f50f4da30b7c4126842f259fca671b23031a9fd",
        "069bc99cdd98ba3eb1b1735d4c1558d2de5f40cf95700cb61b81fbe12fe61a25",
    ]


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
        assert w == universality_witness([union_automaton(parts)])
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


def test_validation_coverage_matches_universality_witness():
    """Coverage is decided inside the edge-table run for the first symbol:
    its witness is the one `universality_witness` finds on the members, a
    cap that stops `universality_witness` stops the validation too, and a
    validation that a cap lets through has the same witness.  Families mix
    random automata, prefix classes, and observer families with one member
    dropped."""
    rng = np.random.default_rng(104)
    families = []
    for _ in range(40):
        alphabet = AB[: int(rng.integers(1, 3))] if rng.random() < 0.2 else AB
        families.append(CoveringFamily(alphabet, [
            CoveringMember(f"m{k}", random_automaton(rng, alphabet))
            for k in range(int(rng.integers(1, 5)))
        ]))
    stems = list(words_up_to(AB, 3))
    for _ in range(20):
        chosen = rng.choice(len(stems), size=int(rng.integers(1, 6)),
                            replace=False)
        families.append(CoveringFamily(AB, [
            CoveringMember(str(k), prefix_class_automaton(AB, stems[k]))
            for k in chosen
        ]))
    for _ in range(15):
        full = observer_to_covering(observer_graph(
            random_path_complete_graph(rng, int(rng.integers(2, 5)), 2)
        )).members
        if len(full) > 1:
            drop = int(rng.integers(len(full)))
            families.append(CoveringFamily(AB, full[:drop] + full[drop + 1:]))
    uncovered = stopped = 0
    for fam in families:
        autos = [m.automaton for m in fam.members]
        witness = universality_witness(autos)
        assert validate_covering(fam).uncovered_witness == witness
        uncovered += witness is not None
        for cap in (1, 2, 3, 6, 12):
            try:
                capped = universality_witness(autos, cap=cap)
            except ResourceLimitError:
                stopped += 1
                with pytest.raises(ResourceLimitError):
                    validate_covering(fam, cap=cap)
                continue
            assert capped == witness
            try:
                report = validate_covering(fam, cap=cap)
            except ResourceLimitError:
                continue
            assert report.uncovered_witness == witness
    assert uncovered > 35 and len(families) - uncovered > 20
    assert stopped > 100


@pytest.mark.parametrize("make", [
    lambda: observer_to_covering(observer_graph(de_bruijn(("a", "b", "c"), 2))),
    lambda: CoveringFamily(AB, mixed_family().members[:-1]),
], ids=["covering", "not-covering"])
def test_validation_explores_once_per_symbol(monkeypatch, make):
    """A validation builds the members' successor memos once, one successor
    table per distinct member graph, and runs one subset exploration per
    symbol, whether or not the family covers."""
    fam = make()
    calls = {"_explore_subsets": 0, "_shared_successors": 0,
             "_mask_expander": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    wrappers = {name: counted(name, getattr(graphs, name)) for name in calls}
    for module in (graphs, automata, covering):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    validate_covering(fam)
    distinct = len({m.automaton.graph for m in fam.members})
    assert calls == {"_explore_subsets": len(fam.alphabet),
                     "_shared_successors": 1, "_mask_expander": distinct}


@pytest.mark.parametrize("stems", [
    [["a", "a"], ["a", "b"]],
    [["a"], ["b", "a", "a"], ["b", "a", "b"], ["b", "b"]],
], ids=["not-covering", "not-prepend-closed"])
def test_to_graph_command_validates_once(monkeypatch, tmp_path, capsys, stems):
    """`covering to-graph` reports an invalid family from the one
    validation it runs: one subset exploration per symbol."""
    calls = 0
    original = covering._explore_subsets

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(covering, "_explore_subsets", counted)
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({
        "alphabet": list(AB),
        "members": [{"name": "".join(s), "stem": s} for s in stems],
    }))
    assert cli.run(["covering", "to-graph", str(path)]) == 1
    assert "false" in capsys.readouterr().out
    assert calls == len(AB)


def test_edge_table_matches_pairwise_inclusion():
    """Shared, equal-but-distinct and distinct member graphs in one family:
    the table lists exactly the members C with h·L(B) ⊆ L(C)."""
    fam = mixed_family()
    table = validate_covering(fam).graph.out_map()
    for source in fam.members:
        for h in fam.alphabet:
            lifted = prepend_symbol(h, source.automaton)
            expected = tuple(
                t.name for t in fam.members
                if language_includes(lifted, t.automaton)
            )
            assert table.get((source.name, h), ()) == expected, (source.name, h)


# ---------------------------------------------------------------------------
# cap thresholds: each passes at the subset count N it discovers and stops
# at N - 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("run, n", [
    # the search runs to completion on pc_graph() plus a sink: a complete
    # graph is decided without one
    (lambda cap: find_unreadable_word(with_sink(pc_graph()), cap=cap), 11),
    (lambda cap: find_unreadable_word(thin_graph(), cap=cap), 9),
    (lambda cap: observer_graph(pc_graph(), cap=cap), 11),
    (lambda cap: validate_covering(mixed_family(), cap=cap), 23),
    (lambda cap: validate_covering(
        observer_to_covering(observer_graph(pc_graph())), cap=cap), 30),
    (lambda cap: validate_covering(
        CoveringFamily(AB, mixed_family().members[:-1]), cap=cap), 23),
], ids=["unreadable-complete", "unreadable-thin", "observer",
        "edge-table-mixed", "validate-covering",
        "validate-not-covering"])
def test_cap_threshold(run, n):
    run(n)
    with pytest.raises(ResourceLimitError, match=f"exceeded {n - 1} subsets"):
        run(n - 1)


def test_pinned_graphs():
    assert find_unreadable_word(pc_graph()) is None
    assert find_unreadable_word(thin_graph()) == ("b", "a", "b", "b")
    assert len(observer_graph(pc_graph()).graph.nodes) == 11
    assert validate_covering(observer_to_covering(observer_graph(pc_graph()))).ok
    report = validate_covering(CoveringFamily(AB, mixed_family().members[:-1]))
    assert report.uncovered_witness == ("b", "b")
