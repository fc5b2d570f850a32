import functools

import numpy as np
import pytest

from oracles import all_words_growth
from pathlyap.covering import prefix_covering
from pathlyap.errors import InvariantViolation, ResourceLimitError
from pathlyap.fixtures import (
    de_bruijn_1_graph,
    demo_system,
    mixed_horizon_graph,
)
from pathlyap.graphs import LabeledGraph
from pathlyap.lyapunov import (
    MaxQuadraticFunction,
    QuadraticCertificate,
    SwitchedLinearSystem,
    lift_certificate,
    product_growth,
)
from pathlyap.observer import ObserverGraph, observer_graph
from pathlyap.sdp import jsr_upper_bound
from pathlyap.simulate import (
    DEFAULT_SEED,
    Trajectory,
    jsr_lower_bound,
    simulate,
    trajectory_decrease_check,
)

LEN2_GROWTH = float(np.sqrt((13.0 + np.sqrt(313.0)) / 2.0))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_single_step():
    t = simulate(demo_system(), ("a",), np.array([1.0, 0.0]))
    assert isinstance(t, Trajectory)
    assert t.word == ("a",)
    assert len(t.states) == 2
    assert np.array_equal(t.states[1], np.array([3.0, -2.0]))


def test_empty_word():
    x0 = np.array([2.0, 5.0])
    t = simulate(demo_system(), (), x0)
    assert t.word == ()
    assert len(t.states) == 1
    assert np.array_equal(t.states[0], x0)


def test_composition():
    x0 = np.array([1.0, 1.0])
    whole = simulate(demo_system(), ("a", "b"), x0)
    first = simulate(demo_system(), ("a",), x0)
    second = simulate(demo_system(), ("b",), first.states[-1])
    assert np.array_equal(whole.states[-1], second.states[-1])
    assert np.array_equal(whole.states[1], first.states[1])


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate(demo_system(), ("c",), np.zeros(2))
    with pytest.raises(ValueError):
        simulate(demo_system(), ("a",), np.zeros(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="x0"):
            simulate(demo_system(), ("a",), np.array([bad, 1.0]))


def test_trajectory_json():
    t = simulate(demo_system(), ("b",), np.array([1.0, 0.0]))
    d = t.to_json()
    assert set(d) == {"word", "states"}
    assert d["word"] == ["b"]
    assert d["states"][1] == [-1.0, -4.0]


# ---------------------------------------------------------------------------
# brute-force lower bounds
# ---------------------------------------------------------------------------

def test_lower_bound_length_one():
    rho, witness = jsr_lower_bound(demo_system(), 1)
    assert rho == pytest.approx(3.0, abs=1e-9)
    assert witness == ("a",)


def test_lower_bound_length_two():
    rho, witness = jsr_lower_bound(demo_system(), 2)
    assert rho == pytest.approx(LEN2_GROWTH, abs=1e-9)
    assert rho == pytest.approx(3.9174, abs=1e-3)
    assert witness == ("a", "b")


def test_lower_bound_single_diagonal_mode():
    sys = SwitchedLinearSystem(("a",), 2, {"a": np.diag([2.0, 0.5])})
    for max_len in (1, 2, 3):
        rho, witness = jsr_lower_bound(sys, max_len)
        assert rho == pytest.approx(2.0, abs=1e-12)
        assert witness == ("a",)


def test_lower_bound_nondecreasing():
    values = [jsr_lower_bound(demo_system(), L)[0] for L in (1, 2, 3, 4)]
    for shorter, longer in zip(values, values[1:]):
        assert longer >= shorter - 1e-12


def test_lower_bound_tie_prefers_shortest_then_lex():
    sys = SwitchedLinearSystem(
        ("a", "b"), 2, {"a": np.eye(2), "b": 2.0 * np.eye(2)}
    )
    rho, witness = jsr_lower_bound(sys, 3)
    assert rho == pytest.approx(2.0, abs=1e-12)
    assert witness == ("b",)


def test_lower_bound_tie_within_tolerance_prefers_lex():
    """b is a conjugated by a cyclic permutation, so both modes have
    spectral radius (3 + 33^(1/2)) / 2; their float rates may differ in the
    last bits, and the first symbol within the tie tolerance is kept."""
    a = np.array([[2.0, -3.0, -2.0], [-2.0, -2.0, 2.0], [3.0, 1.0, -3.0]])
    shift = np.roll(np.eye(3), 1, axis=0)
    sys = SwitchedLinearSystem(("a", "b"), 3, {"a": a,
                                               "b": shift @ a @ shift.T})
    rho, witness = jsr_lower_bound(sys, 1)
    assert rho == pytest.approx((3.0 + 33.0 ** 0.5) / 2.0, rel=1e-12)
    assert witness == ("a",)


def test_lower_bound_word_cap():
    with pytest.raises(ResourceLimitError):
        jsr_lower_bound(demo_system(), 25)
    with pytest.raises(ResourceLimitError):
        jsr_lower_bound(demo_system(), 2, cap=5)
    rho, _ = jsr_lower_bound(demo_system(), 2, cap=6)
    assert rho == pytest.approx(LEN2_GROWTH, abs=1e-9)


def test_lower_bound_rejects_bad_length():
    with pytest.raises(ValueError):
        jsr_lower_bound(demo_system(), 0)
    # read as a length, not truncated to 2, parsed to 3 or read as 1
    for bad in (2.7, "3", True):
        with pytest.raises(ValueError, match="max_len must be an integer"):
            jsr_lower_bound(demo_system(), bad)


def huge_entry_system():
    """ab and ba have spectral radius 1e160 (growth 1e80); the product aba
    has an entry of 1e320, which overflows unless the modes are scaled."""
    return SwitchedLinearSystem(("a", "b"), 2, {
        "a": np.array([[0.0, 1e160], [0.0, 0.0]]),
        "b": np.array([[0.0, 0.0], [1.0, 0.0]]),
    })


def huge_norm_system():
    """One triangular mode with spectral radius 0.5 and a 2-norm of about
    2.1e308, past the float range."""
    a = 0.5 * np.eye(3)
    a[0, 1:] = 1.5e308
    return SwitchedLinearSystem(("a",), 3, {"a": a})


def mixed_scale_system():
    """The demo modes on the first two coordinates beside a mode with one
    entry of 1e300 whose products with them are nilpotent: scaled by that
    entry, the demo products would underflow to zero."""
    modes = {s: np.zeros((3, 3)) for s in ("a", "b", "c")}
    for s, m in demo_system().modes.items():
        modes[s][:2, :2] = m
    modes["c"][0, 2] = 1e300
    return SwitchedLinearSystem(("a", "b", "c"), 3, modes)


def doubling_system():
    """A^k = 2^(k-1) A, so a power of about 1025 passes the float range."""
    return SwitchedLinearSystem(("a",), 2, {"a": np.ones((2, 2))})


@pytest.mark.parametrize("system, length, rho, witness", [
    (huge_entry_system, 3, 1e80, ("a", "b")),
    (huge_norm_system, 3, 0.5, ("a",)),
    (mixed_scale_system, 3, LEN2_GROWTH, ("a", "b")),
    (doubling_system, 1100, 2.0, ("a",)),
], ids=["huge-entry", "huge-norm", "mixed-scale", "long-power"])
def test_lower_bound_of_modes_at_extreme_scales(system, length, rho, witness):
    got, word = jsr_lower_bound(system(), length)
    # the scaled diagonal of huge-norm is subnormal, with about 15 digits
    assert got == pytest.approx(rho, rel=1e-12)
    assert word == witness


def oracle_system(seed):
    """Seeded system of 1-3 symbols and dimension 1-3, whose modes are
    Gaussian, rank-one, or small integers (whose rotated products tie
    exactly), or a mix of the three."""
    rng = np.random.default_rng(seed)
    symbols, n, kind = 1 + seed % 3, 1 + seed // 3 % 3, seed // 9 % 4
    kinds = (
        lambda: rng.standard_normal((n, n)),
        lambda: np.outer(rng.standard_normal(n), rng.standard_normal(n)),
        lambda: rng.integers(-2, 3, (n, n)).astype(float),
    )
    alphabet = ("a", "b", "c")[:symbols]
    modes = {s: kinds[kind if kind < 3 else rng.integers(3)]()
             for s in alphabet}
    return SwitchedLinearSystem(alphabet, n, modes)


def test_lyndon_growth_matches_all_words_oracle():
    for seed in range(120):
        system = oracle_system(seed)
        length = {1: 6, 2: 8, 3: 5}[len(system.alphabet)]
        rho, witness = product_growth(system, length)
        expected, expected_witness = all_words_growth(system, length)
        assert witness == expected_witness, seed
        assert rho == pytest.approx(expected, rel=1e-12), seed


@pytest.mark.parametrize("system, length, solved", [
    (demo_system, 8, 71),
    (mixed_scale_system, 5, 80),
    (demo_system, 14, 2538),
], ids=["two-symbols-8", "three-symbols-5", "two-symbols-14"])
def test_only_lyndon_words_are_eigensolved(monkeypatch, system, length,
                                           solved):
    solve = np.linalg.eigvals
    handed = []

    def counted(stack):
        handed.append(len(stack))
        return solve(stack)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    product_growth(system(), length)
    assert sum(handed) == solved


def test_lower_bound_witness_of_a_near_singular_product():
    """Each mode is rank one up to entries of 1e-7, and the float rates of
    the rotations of the witness abb differ in their last bits."""
    sys = SwitchedLinearSystem(("a", "b"), 2, {
        "a": np.array([[0.9999993, -2.0000007], [0.9999993, -2.0000006]]),
        "b": np.array([[8e-7, 3.0000009], [-7e-7, 0.9999991]]),
    })
    rotations = [("a", "b", "b"), ("b", "a", "b"), ("b", "b", "a")]
    rates = {
        max(abs(np.linalg.eigvals(
            sys.modes[w[2]] @ sys.modes[w[1]] @ sys.modes[w[0]]))) ** (1 / 3)
        for w in rotations
    }
    assert len(rates) > 1
    rho, witness = jsr_lower_bound(sys, 6)
    expected, expected_witness = all_words_growth(sys, 6)
    assert witness == expected_witness == ("a", "b", "b")
    assert rho == pytest.approx(expected, rel=1e-12)


def test_lower_bound_skips_powers_of_a_defective_mode():
    """The mode's eigenvalue -1 has a Jordan block of size two, so the
    eigensolve of its powers errs by about 1e-8; the rate of a^k is the
    rate of a, which is read off a alone."""
    sys = SwitchedLinearSystem(("a",), 3, {
        "a": np.array([[1.0, -1.0, -1.0], [1.0, -1.0, 0.0],
                       [-1.0, 0.0, -1.0]]),
    })
    rho, witness = jsr_lower_bound(sys, 7)
    assert rho == pytest.approx(1.0, rel=1e-12)
    assert witness == ("a",)


@pytest.mark.xfail(
    strict=True,
    reason="the float eigensolve of a defective product overshoots the "
           "joint spectral radius; ROADMAP item 6 (exactly certified lower "
           "end) mends it")
def test_lower_bound_never_exceeds_the_jsr_of_a_defective_word():
    """Every product of {M, M^2} is a power of M, whose eigenvalue -1 has
    a Jordan block of size two, so the joint spectral radius is exactly 1.
    The Lyndon word aabb is not a power of one symbol, and the rate read
    from the eigensolve of its product M^6 is about 1 + 1.3e-8."""
    m = np.array([[1.0, -1.0, -1.0], [1.0, -1.0, 0.0], [-1.0, 0.0, -1.0]])
    sys = SwitchedLinearSystem(("a", "b"), 3, {"a": m, "b": m @ m})
    rho, _ = jsr_lower_bound(sys, 4)
    assert rho <= 1.0


# ---------------------------------------------------------------------------
# empirical decrease checks
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def certified_pipeline():
    bound = jsr_upper_bound(mixed_horizon_graph(), demo_system(), tol=1e-3)
    obs = observer_graph(mixed_horizon_graph())
    lifted = lift_certificate(bound.certificate, obs)
    return bound, obs, lifted


def test_decrease_holds_for_verified_certificate():
    bound, obs, lifted = certified_pipeline()
    report = trajectory_decrease_check(
        lifted, obs, demo_system(), rho_prime=1.01 * bound.rho_upper,
        trials=40, horizon=15,
    )
    assert report.trials == 40
    assert report.passes == 40
    assert report.failures == 0
    assert report.violations == ()
    assert report.worst_slack > 0
    assert report.seed == DEFAULT_SEED
    assert report.gamma == pytest.approx(
        (lifted.rho / (1.01 * bound.rho_upper)) ** 2
    )


def test_decrease_flags_corrupted_certificate():
    bound, obs, lifted = certified_pipeline()
    members = dict(lifted.members)
    members[obs.root] = tuple(-p for p in members[obs.root])
    corrupted = MaxQuadraticFunction(
        members=members, rho=lifted.rho, dimension=lifted.dimension
    )
    report = trajectory_decrease_check(
        corrupted, obs, demo_system(), rho_prime=1.01 * bound.rho_upper,
        trials=40, horizon=15,
    )
    assert report.failures >= 1
    assert len(report.violations) >= 1
    assert report.worst_slack < 0
    assert all(v["word"] for v in report.violations)


def test_decrease_check_of_a_huge_rate():
    # rho_prime^(k+1) overflows a float from k = 1 on; the scaled states
    # underflow to 0 instead, which satisfies every bound
    graph = de_bruijn_1_graph()
    cert = QuadraticCertificate(
        graph, {"[a]": np.eye(2), "[b]": np.eye(2)}, rho=1e200
    )
    obs = observer_graph(graph)
    report = trajectory_decrease_check(
        lift_certificate(cert, obs), obs, demo_system(), rho_prime=1.01e200,
        trials=5, horizon=10,
    )
    assert report.failures == 0
    assert report.worst_slack >= 0
    assert report.gamma == pytest.approx(1.01 ** -2)


def test_decrease_through_covering_structure_is_tight():
    covering = prefix_covering([("a",), ("b",)], ("a", "b"))
    half = 0.5 * np.eye(2)
    sys = SwitchedLinearSystem(("a", "b"), 2, {"a": half, "b": half})
    w_fn = MaxQuadraticFunction(
        members={"[a]": (np.eye(2),), "[b]": (np.eye(2),)},
        rho=0.5, dimension=2,
    )
    report = trajectory_decrease_check(
        w_fn, covering, sys, rho_prime=1.05, trials=10, horizon=12
    )
    assert report.failures == 0
    assert report.worst_slack == pytest.approx(0.0, abs=1e-10)
    assert report.envelope_ratio == pytest.approx(1.0)


def test_decrease_checks_every_successor_choice():
    covering = prefix_covering([("a",), ("b",), ("b", "a")], ("a", "b"))
    half = 0.5 * np.eye(2)
    sys = SwitchedLinearSystem(("a", "b"), 2, {"a": half, "b": half})
    w_fn = MaxQuadraticFunction(
        members={
            "[a]": (np.eye(2),),
            "[b]": (np.eye(2),),
            "[ba]": (100.0 * np.eye(2),),
        },
        rho=0.5, dimension=2,
    )
    report = trajectory_decrease_check(
        w_fn, covering, sys, rho_prime=1.05, trials=5, horizon=8
    )
    assert report.failures >= 1
    assert any(v["member"] == "[ba]" for v in report.violations)


def test_decrease_rejects_mismatched_structure():
    bound, obs, lifted = certified_pipeline()
    from pathlyap.graphs import de_bruijn

    other = observer_graph(de_bruijn(("a", "b"), 1))
    with pytest.raises(ValueError):
        trajectory_decrease_check(
            lifted, other, demo_system(), rho_prime=1.01 * bound.rho_upper,
            trials=1, horizon=2,
        )


def test_decrease_rejects_rate_below_certified():
    bound, obs, lifted = certified_pipeline()
    with pytest.raises(ValueError):
        trajectory_decrease_check(
            lifted, obs, demo_system(), rho_prime=0.5 * lifted.rho,
            trials=1, horizon=2,
        )


@pytest.mark.parametrize("bad, message", [
    ({"rho_prime": float("nan")}, "rho_prime must be finite"),
    ({"rho_prime": float("inf")}, "rho_prime must be finite"),
    ({"tolerance": float("nan")}, "tolerance must be non-negative"),
    ({"tolerance": -1e-9}, "tolerance must be non-negative"),
    ({"trials": -2}, "trials must be non-negative"),
    ({"horizon": -3}, "horizon must be non-negative"),
    ({"trials": 2.7}, "trials must be an integer"),
    ({"trials": "3"}, "trials must be an integer"),
    ({"trials": True}, "trials must be an integer"),
    ({"horizon": 2.7}, "horizon must be an integer"),
    ({"horizon": "3"}, "horizon must be an integer"),
    ({"seed": 2.7}, "seed must be an integer"),
    ({"seed": "7"}, "seed must be an integer"),
], ids=["rho-nan", "rho-inf", "tol-nan", "tol-negative", "trials", "horizon",
        "trials-float", "trials-string", "trials-bool", "horizon-float",
        "horizon-string", "seed-float", "seed-string"])
def test_decrease_rejects_bad_inputs(bad, message):
    bound, obs, lifted = certified_pipeline()
    kwargs = {"rho_prime": 1.01 * bound.rho_upper, "trials": 1, "horizon": 2}
    kwargs.update(bad)
    with pytest.raises(ValueError, match=message):
        trajectory_decrease_check(lifted, obs, demo_system(), **kwargs)


def test_chain_failure_is_a_structure_bug():
    name = "{x}"
    broken = ObserverGraph(
        graph=LabeledGraph(("a", "b"), (name,), [(name, name, "a")]),
        root=name,
        subset_map={name: frozenset({"x"})},
    )
    sys = SwitchedLinearSystem(
        ("a", "b"), 2, {"a": 0.5 * np.eye(2), "b": 0.5 * np.eye(2)}
    )
    w_fn = MaxQuadraticFunction(
        members={name: (np.eye(2),)}, rho=0.5, dimension=2
    )
    with pytest.raises(InvariantViolation):
        trajectory_decrease_check(
            w_fn, broken, sys, rho_prime=1.0, trials=10, horizon=10
        )


def test_report_json_shape():
    bound, obs, lifted = certified_pipeline()
    report = trajectory_decrease_check(
        lifted, obs, demo_system(), rho_prime=1.01 * bound.rho_upper,
        trials=3, horizon=5, seed=99,
    )
    d = report.to_json()
    assert set(d) == {
        "trials", "passes", "failures", "worst_slack", "seed", "gamma",
        "envelope_ratio", "tolerance", "violations",
    }
    assert d["seed"] == 99
    assert d["violations"] == []
    repeat = trajectory_decrease_check(
        lifted, obs, demo_system(), rho_prime=1.01 * bound.rho_upper,
        trials=3, horizon=5, seed=99,
    )
    assert repeat.to_json() == d
