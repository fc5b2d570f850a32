import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import prepend_symbol, random_graph, union_automaton
from oracles import nfa_accepts, prefix_class_member, words_up_to
from pathlyap.automata import (
    Automaton,
    accepts,
    automaton_from_json,
    language_includes,
    prefix_class_automaton,
    universality_witness,
)
from pathlyap.errors import ResourceLimitError
from pathlyap.graphs import LabeledGraph

AB = ("a", "b")


def chain(stem):
    return prefix_class_automaton(AB, tuple(stem))


def empty_language():
    g = LabeledGraph(AB, ("q",), [])
    return Automaton(g, frozenset({"q"}), frozenset())


def sigma_star():
    g = LabeledGraph(AB, ("q",), [("q", "q", "a"), ("q", "q", "b")])
    return Automaton(g, frozenset({"q"}), frozenset({"q"}))


# ---------------------------------------------------------------------------
# prefix classes: truncated membership, all chain states accepting
# ---------------------------------------------------------------------------

def test_prefix_class_ab_membership():
    a = chain("ab")
    for word in [(), ("a",), ("a", "b"), ("a", "b", "b", "a")]:
        assert accepts(a, word)
    for word in [("b",), ("a", "a")]:
        assert not accepts(a, word)


def test_prefix_class_aa_rejects_ab():
    assert not accepts(chain("aa"), ("a", "b"))


def test_prefix_class_empty_stem_is_sigma_star():
    a = chain("")
    for word in words_up_to(AB, 3):
        assert accepts(a, word)


def test_prefix_class_stem_must_use_the_alphabet():
    with pytest.raises(ValueError, match="stem symbols must come from the alphabet"):
        prefix_class_automaton(("a", "b"), ("c",))


def test_prefix_class_membership_matches_closed_form():
    """Chain-automaton membership equals the agree-where-defined rule."""
    for stem in [("a",), ("b", "a"), ("a", "a", "b")]:
        a = chain(stem)
        for word in words_up_to(AB, 5):
            assert accepts(a, word) == prefix_class_member(stem, word)


def test_accepts_validates_symbols():
    """A foreign symbol is refused wherever it appears, also after the run
    on the stem "a" has died at "b"."""
    for word in [("z",), ("a", "z"), ("b", "z")]:
        with pytest.raises(ValueError, match="not in alphabet"):
            accepts(chain("a"), word)


def test_empty_accepting_rejects_everything():
    a = empty_language()
    for word in words_up_to(AB, 3):
        assert not accepts(a, word)


# ---------------------------------------------------------------------------
# prepend
# ---------------------------------------------------------------------------

def test_prepend_matches_longer_prefix_class_on_nonempty_words():
    """a·[ab] and [aab] agree on all nonempty words; they differ at ε only,
    since prepending excludes ε while every prefix class contains it."""
    lifted = prepend_symbol("a", chain("ab"))
    target = chain("aab")
    for word in words_up_to(AB, 4):
        if word:
            assert accepts(lifted, word) == accepts(target, word)
    assert not accepts(lifted, ())
    assert accepts(target, ())


def test_prepend_empty_language():
    a = prepend_symbol("b", empty_language())
    for word in words_up_to(AB, 3):
        assert not accepts(a, word)


def test_prepend_sigma_star():
    a = prepend_symbol("a", sigma_star())
    for word in words_up_to(AB, 4):
        assert accepts(a, word) == (len(word) >= 1 and word[0] == "a")


def test_prepend_shifts_membership():
    rng = np.random.default_rng(21)
    for _ in range(40):
        auto = random_automaton(rng)
        h = auto.graph.alphabet[rng.integers(len(auto.graph.alphabet))]
        lifted = prepend_symbol(h, auto)
        for word in words_up_to(auto.graph.alphabet, 3):
            assert accepts(lifted, (h,) + word) == accepts(auto, word)
            if not word or word[0] != h:
                assert not accepts(lifted, word)


# ---------------------------------------------------------------------------
# inclusion and universality
# ---------------------------------------------------------------------------

def test_inclusion_on_prefix_classes():
    assert language_includes(chain("aab"), chain("aa"))
    # Not an inclusion: "aaa" lies in [aa] but not [aab].  (The word "aa"
    # separates nothing: it is a member of both classes.)
    assert not language_includes(chain("aa"), chain("aab"))
    assert accepts(chain("aa"), ("a", "a", "a"))
    assert not accepts(chain("aab"), ("a", "a", "a"))
    assert accepts(chain("aa"), ("a", "a"))
    assert accepts(chain("aab"), ("a", "a"))


def test_inclusion_reflexive():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = random_automaton(rng)
        assert language_includes(a, a)


def test_inclusion_stem_prefix_rule():
    """[p] included in [q] iff q's stem is a prefix of p's stem (needs at
    least two symbols; over a unary alphabet every class is S*)."""
    stems = [tuple(s) for s in ["", "a", "b", "aa", "ab", "ba", "aab", "abb"]]
    for p, q in itertools.product(stems, repeat=2):
        expected = q == p[: len(q)]
        assert language_includes(chain(p), chain(q)) == expected


def test_inclusion_matches_enumeration():
    """Verdict agrees with word enumeration up to twice the state-count
    product (capped at 11 symbols; automata here are small enough that any
    counterexample shows up well within the cap)."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        sub = random_automaton(rng, max_states=3)
        sup = random_automaton(rng, max_states=3)
        bound = min(2 * len(sub.graph.nodes) * len(sup.graph.nodes), 11)
        included = language_includes(sub, sup)
        cex = None
        for word in words_up_to(AB, bound):
            if oracle_member(sub, word) and not oracle_member(sup, word):
                cex = word
                break
        assert included == (cex is None)


def test_universality_witness_is_first_rejected_word():
    """The witness is the first rejected word in length-then-lexicographic
    order."""
    rng = np.random.default_rng(25)
    found = 0
    for _ in range(150):
        a = random_automaton(rng)
        w = universality_witness([a])
        if w is None:
            continue
        found += 1
        first = next(
            word for word in words_up_to(AB, len(w))
            if not oracle_member(a, word)
        )
        assert w == first
    assert found > 50


def test_universal_union_examples():
    for parts, universal in [
        ([chain("a"), chain("b")], True),
        ([chain("aa"), chain("ab")], False),
        ([chain("aa"), chain("ab"), chain("b")], True),
    ]:
        assert (universality_witness(parts) is None) == universal
        assert (universality_witness([union_automaton(parts)]) is None) == universal


def test_union_is_language_union():
    rng = np.random.default_rng(24)
    for _ in range(25):
        parts = [random_automaton(rng, max_states=3) for _ in range(2)]
        merged = union_automaton(parts)
        for word in words_up_to(AB, 4):
            assert accepts(merged, word) == any(accepts(p, word) for p in parts)


def test_determinization_cap():
    with pytest.raises(ResourceLimitError):
        universality_witness([chain("ab")], cap=1)
    # three subsets: both initial states, then one absorbing state per part
    universal = union_automaton([chain("a"), chain("b")])
    assert universality_witness([universal], cap=3) is None
    with pytest.raises(ResourceLimitError, match="exceeded 2 subsets"):
        universality_witness([universal], cap=2)
    # the first subset with no accepting state ends the search uncounted
    assert universality_witness([chain("ab")], cap=2) == ("b",)


def test_inclusion_subset_cap():
    """[aab] against S*: the joint exploration from both initial states
    reaches five subsets, one per chain state plus S* alone once the chain
    dies, so the cap bounds that one exploration."""
    assert language_includes(chain("aab"), sigma_star(), cap=5)
    with pytest.raises(ResourceLimitError, match="exceeded 4 subsets"):
        language_includes(chain("aab"), sigma_star(), cap=4)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_automaton_json_round_trip():
    a = chain("ab")
    again = automaton_from_json(a.to_json())
    assert again == a


def test_automaton_json_rejects_unknown_keys():
    d = chain("a").to_json()
    d["mystery"] = 1
    with pytest.raises(ValueError):
        automaton_from_json(d)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def random_automaton(rng, max_states=3):
    n = int(rng.integers(1, max_states + 1))
    g = random_graph(rng, n, 2, density=1.2 / n)
    states = list(g.nodes)
    initial = frozenset(
        s for s in states if rng.random() < 0.5
    ) or frozenset({states[0]})
    accepting = frozenset(s for s in states if rng.random() < 0.4)
    return Automaton(g, initial, accepting)


def oracle_member(a, word):
    return nfa_accepts(a.graph.edges, a.initial, a.accepting, word)


@given(st.sampled_from(["", "a", "b", "ab", "ba", "abb"]), st.sampled_from(AB))
@settings(deadline=None, max_examples=30)
def test_prepend_accepts_relation(stem, h):
    a = chain(stem)
    lifted = prepend_symbol(h, a)
    for word in words_up_to(AB, 3):
        assert accepts(lifted, (h,) + word) == accepts(a, word)
