"""Covering families of regular languages and their graph translations.

A covering family is a finite list of regular languages over the switching
alphabet satisfying two conditions: together the members cover every finite
word, and prepending any symbol to any member lands inside at least one
member.  Such a family induces a labeled graph, one node per member and one
edge per containment, and a validation yields that graph together with its
verdict: the family is prepend-closed exactly when its graph is complete.
Conversely the observer construction turns any path-complete graph into a
covering family; the two translations invert each other on the observer's
node languages.
"""

from itertools import compress
from operator import and_

from .automata import (
    Automaton,
    _parts,
    _read_automaton,
    language_includes,  # unused here; perfbench/tracing.py wraps this name
    prefix_class_automaton,
    universality_witness,  # unused here; perfbench/tracing.py wraps this name
)
from .errors import (
    Record,
    json_array,
    json_object,
    json_reader,
    json_string,
    json_strings,
    state_cap,
)
from .graphs import (
    LabeledGraph,
    _explore_subsets,
    _members,
    _parts_expander,
    _word_name,
    _word_to,
    dual,
    is_complete,
)
# unused here; perfbench/tracing.py wraps this name
from .observer import observer_graph


class CoveringMember(Record, value=True):
    """One language in a covering family.

    `stem` is recorded when the member is a prefix class, purely for
    naming and serialization; the automaton is always authoritative.
    """

    __slots__ = ("name", "automaton", "stem")

    def __init__(self, name, automaton, stem=None):
        self._freeze(name, automaton, None if stem is None else tuple(stem))

    def to_json(self):
        if self.stem is not None:
            return {"name": self.name, "stem": list(self.stem)}
        return {"name": self.name, "automaton": self.automaton.to_json()}


class CoveringFamily(Record, value=True):
    __slots__ = ("alphabet", "members")

    def __init__(self, alphabet, members):
        self._freeze(tuple(alphabet), tuple(members))
        if not self.members:
            raise ValueError("a covering family needs at least one member")
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise ValueError("covering member names must be distinct")
        for m in self.members:
            if m.automaton.graph.alphabet != self.alphabet:
                raise ValueError(
                    f"member {m.name!r} uses a different alphabet"
                )

    def to_json(self):
        return {
            "alphabet": list(self.alphabet),
            "members": [m.to_json() for m in self.members],
        }


@json_reader("covering")
def covering_from_json(d):
    json_object(d, "covering", ("alphabet", "members"))
    alphabet = tuple(json_strings(d["alphabet"], "covering 'alphabet'"))
    members = []
    graphs = []
    for entry in json_array(d["members"], "covering 'members'"):
        keys = set(json_object(entry, "covering member", ("name",),
                               ("stem", "automaton")))
        name = json_string(entry["name"], "covering member 'name'")
        if keys == {"name", "stem"}:
            stem = tuple(json_strings(entry["stem"], "covering member 'stem'"))
            auto = prefix_class_automaton(alphabet, stem)
            members.append(CoveringMember(name, auto, stem=stem))
        elif keys == {"name", "automaton"}:
            auto = _read_automaton(entry["automaton"], graphs)
            members.append(CoveringMember(name, auto))
        else:
            raise ValueError(
                "covering member needs exactly 'name' plus one of "
                f"'stem' or 'automaton', got {sorted(keys)}"
            )
    return CoveringFamily(alphabet, tuple(members))


class CoveringReport(Record, value=True):
    """The verdict on a covering family and the two results it is read from.

    `uncovered_witness` is the shortlex-first word no member accepts, or
    None.  `graph` has one node per member, in member order, and an edge
    (B, C, h) for every containment h·L(B) ⊆ L(C), whether or not the family
    is valid; the family is prepend-closed exactly when `graph` is complete.
    """

    __slots__ = ("uncovered_witness", "graph")

    def __init__(self, uncovered_witness, graph):
        self._freeze(uncovered_witness, graph)

    @property
    def covers_all_words(self):
        return self.uncovered_witness is None

    @property
    def unclosed_pairs(self):
        """(member, symbol) pairs with no out-edge, in member, then alphabet
        order."""
        targets = self.graph.out_map()
        return tuple((name, h) for name in self.graph.nodes
                     for h in self.graph.alphabet if (name, h) not in targets)

    @property
    def prepend_closed(self):
        return is_complete(self.graph)

    @property
    def ok(self):
        return self.covers_all_words and self.prepend_closed

    def to_json(self):
        return {
            "ok": self.ok,
            "covers_all_words": self.covers_all_words,
            "uncovered_witness": None
            if self.uncovered_witness is None
            else list(self.uncovered_witness),
            "prepend_closed": self.prepend_closed,
            "unclosed_pairs": [list(p) for p in self.unclosed_pairs],
        }


def validate_covering(c, cap=None):
    """Decide both covering conditions; the report holds the uncovered
    witness and the containment graph.

    By the left quotient, h·L(B) ⊆ L(C) iff C started from its h-successors
    accepts every word of L(B).  One `_explore_subsets` run per symbol h
    over 2n parts, the members (part k) and the h-stepped members (part
    n + k), decides every pair: in each reachable state, a source whose
    part accepts keeps only the targets whose stepped part accepts too.
    Members on equal graphs share one successor memo.

    The run for the first symbol also decides coverage.  Its parts 0..n-1
    are the members read from their initial sets, and breadth-first search
    with symbols in alphabet order discovers each state by its shortlex-first
    word, so the first discovered state where none of those parts accepts
    spells the shortlex-first uncovered word, the one `universality_witness`
    finds on the members.  That run holds every state the members' own run
    would, so the cap stops no validation that run would have let pass.
    """
    limit = state_cap(cap)
    names = [m.name for m in c.members]
    n = len(names)
    steps, initial, finals = _parts([m.automaton for m in c.members])
    bits = [1 << k for k in range(n)]
    expand = _parts_expander(steps * 2)
    witness = None
    edges = []
    for i, h in enumerate(c.alphabet):
        stepped = tuple(part[i][mask] for part, mask in zip(steps, initial))
        parent, _ = _explore_subsets(
            c.alphabet, expand, initial + stepped, limit
        )
        if i == 0:
            uncovered = next(
                (s for s in parent if not any(map(and_, s, finals))), None
            )
            if uncovered is not None:
                witness = _word_to(parent, uncovered)[::-1]
        # targets[k] has bit t while member t may still contain h·L(k)
        targets = [(1 << n) - 1] * n
        for state in parent:
            inside = sum(compress(bits, map(and_, state[n:], finals)))
            for k in compress(range(n), map(and_, state, finals)):
                targets[k] &= inside
        edges += [(names[k], target, h) for k in range(n)
                  for target in _members(names, targets[k])]
    return CoveringReport(witness, LabeledGraph(c.alphabet, names, edges))


def _require_valid(report):
    """Raise the ValueError naming the first covering condition that
    `report` shows failing."""
    if not report.covers_all_words:
        raise ValueError(
            "family does not cover every word; uncovered witness: "
            f"{report.uncovered_witness}"
        )
    if not report.prepend_closed:
        raise ValueError(
            "family is not closed under symbol prepending; failing "
            f"(member, symbol) pairs: {list(report.unclosed_pairs)}"
        )


def covering_to_graph(c, cap=None):
    """The containment graph of a valid covering family, with the
    node-to-member map; a ValueError naming the failing condition for an
    invalid one."""
    report = validate_covering(c, cap=cap)
    _require_valid(report)
    return report.graph, {m.name: m for m in c.members}


def observer_to_covering(obs):
    """Covering family made of the node languages of the observer `obs`.

    The member of node P is the dual of the observer graph read from P and
    accepting at the root: it accepts exactly the words whose observer run,
    read in trajectory order from the root, ends at P.  All members share
    one dual graph, so the family's subset explorations share one successor
    memo.  Member names are the observer node ids, so translating back to a
    graph reproduces the observer graph itself, node names included.
    """
    back = dual(obs.graph)
    root = frozenset({obs.root})
    members = tuple(
        CoveringMember(node, Automaton(back, frozenset({node}), root))
        for node in obs.graph.nodes
    )
    return CoveringFamily(obs.graph.alphabet, members)


def prefix_covering(stems, alphabet, cap=None):
    """CoveringFamily from prefix-class stems, validated on construction."""
    members = []
    for stem in stems:
        stem = tuple(stem)
        auto = prefix_class_automaton(alphabet, stem)
        members.append(CoveringMember(_word_name(stem, alphabet), auto, stem=stem))
    fam = CoveringFamily(tuple(alphabet), tuple(members))
    _require_valid(validate_covering(fam, cap=cap))
    return fam
