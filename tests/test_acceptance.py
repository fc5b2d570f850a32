"""Acceptance gate: one test per shipped claim, run with -v for a
pass/fail line each.

The demo-system growth-rate table, the lower/upper sandwich, the graph
ordering, the combinatorial property suites, solver honesty, and the
sampled decrease check all live here with their tolerances pinned.
"""

import functools
import time

import numpy as np

from conftest import margin_corpus, mixed_graph_sample, random_path_complete_graph
from oracles import grid_margin_2x2, oracle_is_path_complete
from pathlyap.covering import (
    covering_to_graph,
    observer_to_covering,
    validate_covering,
)
from pathlyap.fixtures import (
    de_bruijn_1_graph,
    de_bruijn_2_graph,
    demo_system,
    mixed_horizon_graph,
)
from pathlyap.graphs import LabeledGraph, dual, is_complete, is_path_complete
from pathlyap.lyapunov import (
    MaxQuadraticFunction,
    SwitchedLinearSystem,
    assemble_lmi,
    lift_certificate,
    verify_certificate,
)
from pathlyap.observer import observer_graph
from pathlyap.sdp import jsr_upper_bound, solve_margin
from pathlyap.simulate import jsr_lower_bound, trajectory_decrease_check
from test_sdp import loop_problem

TOL = 1e-4
TABLE = {"db1": 3.9224, "mixed": 3.9174, "db2": 3.9174}


@functools.lru_cache(maxsize=1)
def table_bounds():
    """The three demo-system upper bounds, computed once and shared."""
    system = demo_system()
    graphs = {
        "db1": de_bruijn_1_graph(),
        "mixed": mixed_horizon_graph(),
        "db2": de_bruijn_2_graph(),
    }
    start = time.perf_counter()
    results = {
        name: jsr_upper_bound(g, system, tol=TOL) for name, g in graphs.items()
    }
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_demo_table_reproduction():
    results, elapsed = table_bounds()
    for name, expected in TABLE.items():
        got = results[name].rho_upper
        assert abs(got - expected) <= 1e-3, (name, got, expected)
    assert elapsed < 60.0, f"table took {elapsed:.1f}s"


def test_criterion_2_lower_upper_sandwich():
    rho_lower, witness = jsr_lower_bound(demo_system(), 2)
    assert abs(rho_lower - 3.9174) <= 1e-3
    assert witness == ("a", "b")
    results, _ = table_bounds()
    for name, res in results.items():
        assert rho_lower <= res.rho_upper, (name, rho_lower, res.rho_upper)


def test_criterion_3_refinement_ordering():
    results, _ = table_bounds()
    assert results["db2"].rho_upper <= results["mixed"].rho_upper + 2 * TOL
    assert results["mixed"].rho_upper <= results["db1"].rho_upper + 2 * TOL


def test_criterion_4_path_completeness_oracle_suite():
    rng = np.random.default_rng(20260816)
    complete_seen = 0
    for _ in range(200):
        g = mixed_graph_sample(
            rng, int(rng.integers(1, 5)), int(rng.integers(1, 4))
        )
        expected = oracle_is_path_complete(g.nodes, g.edges, g.alphabet)
        assert is_path_complete(g) == expected
        assert is_path_complete(dual(g)) == expected
        if is_complete(g):
            complete_seen += 1
            assert expected
    assert complete_seen >= 20, "sample should include complete graphs"


def test_criterion_5_covering_round_trip_suite():
    rng = np.random.default_rng(915)
    for _ in range(20):
        g = random_path_complete_graph(
            rng, int(rng.integers(1, 5)), int(rng.integers(1, 4))
        )
        obs = observer_graph(g)
        family = observer_to_covering(g)
        assert validate_covering(family).ok
        back, phi = covering_to_graph(family)
        assert back.alphabet == obs.graph.alphabet
        assert back.nodes == obs.graph.nodes
        assert sorted(back.edges) == sorted(obs.graph.edges)
        assert set(phi) == set(back.nodes)


def test_criterion_6_solver_honesty():
    results, _ = table_bounds()
    system = demo_system()
    for name, res in results.items():
        report = verify_certificate(res.certificate, system)
        assert report.ok, name
        assert report.margin > 0, name

    corpus = margin_corpus()
    assert len(corpus) == 10
    for problem in corpus:
        modes = [np.asarray(m) for m in problem["modes"]]
        sol = solve_margin(loop_problem(problem["rho"], modes))
        oracle, (u, v) = grid_margin_2x2(
            problem["rho"], modes, step=2e-3, return_argmax=True
        )
        assert max(abs(u), abs(v)) <= 1.15, "oracle optimum must be interior"
        assert abs(sol.margin - oracle) <= 1e-2, problem


def test_criterion_7_sampled_decrease_and_control():
    results, _ = table_bounds()
    cert = results["mixed"].certificate
    obs = observer_graph(mixed_horizon_graph())
    system = demo_system()
    lifted = lift_certificate(cert, obs)

    report = trajectory_decrease_check(
        lifted, obs, system, rho_prime=1.01 * cert.rho,
        trials=100, horizon=20, seed=424242,
    )
    assert report.trials == 100
    assert report.failures == 0
    assert report.worst_slack > 0

    corrupted_members = dict(lifted.members)
    first = obs.graph.nodes[0]
    corrupted_members[first] = tuple(-p for p in corrupted_members[first])
    corrupted = MaxQuadraticFunction(
        members=corrupted_members, rho=lifted.rho, dimension=lifted.dimension
    )
    control = trajectory_decrease_check(
        corrupted, obs, system, rho_prime=1.01 * cert.rho,
        trials=100, horizon=20, seed=424242,
    )
    assert control.failures >= 1
