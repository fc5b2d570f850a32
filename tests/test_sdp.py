import numpy as np
import pytest

from conftest import margin_corpus
from pathlyap.fixtures import demo_system
from oracles import grid_margin_2x2
from pathlyap.errors import (
    NotPathCompleteError,
    NumericalError,
    ResourceLimitError,
)
from pathlyap.graphs import LabeledGraph, de_bruijn
from pathlyap.lyapunov import (
    SwitchedLinearSystem,
    assemble_lmi,
    certificate_from_json,
    verify_certificate,
)
from pathlyap.sdp import (
    FEASIBILITY_THRESHOLD,
    MarginSolution,
    jsr_upper_bound,
    solve_margin,
)
from test_graphs import lonely_loop, mixed_horizon
from test_kernels import wide_db2

SYMS = "abcdefgh"


def loop_problem(rho, modes):
    """Single node with one self-loop per mode: the common-quadratic case."""
    syms = tuple(SYMS[: len(modes)])
    g = LabeledGraph(syms, ("n",), [("n", "n", s) for s in syms])
    sys = SwitchedLinearSystem(syms, 2, dict(zip(syms, modes)))
    return assemble_lmi(g, sys, rho)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# margin solver against frozen values and the grid oracle
# ---------------------------------------------------------------------------

def test_margin_half_identity_mode():
    sol = solve_margin(loop_problem(1.0, [0.5 * np.eye(2)]))
    assert sol.status == "optimal"
    assert sol.margin == pytest.approx(0.75, abs=1e-4)
    assert np.allclose(sol.assignment["n"], np.eye(2), atol=1e-3)
    oracle = grid_margin_2x2(1.0, [0.5 * np.eye(2)], step=1e-3)
    assert abs(sol.margin - oracle) <= 1e-2


def test_margin_identity_mode_is_zero():
    sol = solve_margin(loop_problem(1.0, [np.eye(2)]))
    assert sol.status in ("optimal", "max-iterations")
    assert abs(sol.margin) <= 1e-6


def test_margin_expanding_mode_is_negative():
    sol = solve_margin(loop_problem(1.0, [2.0 * np.eye(2)]))
    assert sol.margin == pytest.approx(-3.0, abs=1e-3)
    oracle = grid_margin_2x2(1.0, [2.0 * np.eye(2)], step=1e-3)
    assert abs(sol.margin - oracle) <= 1e-2


def test_margin_equals_worst_constraint_eigenvalue():
    for modes in ([0.5 * np.eye(2)], [2.0 * np.eye(2)], [rotation(0.5) * 0.9]):
        p = loop_problem(1.1, modes)
        sol = solve_margin(p)
        minima = [
            np.linalg.eigvalsh(block)[0]
            for block in p.blocks(sol.assignment)
        ]
        assert sol.margin == pytest.approx(min(minima), abs=1e-12)
        assert all(m >= sol.margin - 1e-9 for m in minima)


def test_margin_traces_are_pinned():
    p = loop_problem(1.0, [rotation(0.3) * 0.7])
    sol = solve_margin(p)
    for name in p.nodes:
        assert np.trace(sol.assignment[name]) == pytest.approx(
            p.dimension, abs=1e-9
        )


def test_margin_multi_variable_problem():
    half = np.eye(2) * 0.5
    sys = SwitchedLinearSystem(("a", "b"), 2, {"a": half, "b": half})
    sol = solve_margin(assemble_lmi(mixed_horizon(), sys, 1.0))
    assert sol.status == "optimal"
    assert sol.margin == pytest.approx(0.75, abs=1e-3)
    assert set(sol.assignment) == set(mixed_horizon().nodes)


def test_margin_corpus_matches_grid_oracle():
    for problem in margin_corpus():
        modes = [np.asarray(m) for m in problem["modes"]]
        sol = solve_margin(loop_problem(problem["rho"], modes))
        oracle, (u, v) = grid_margin_2x2(
            problem["rho"], modes, step=2e-3, return_argmax=True
        )
        assert max(abs(u), abs(v)) <= 1.15, "oracle optimum must be interior"
        assert abs(sol.margin - oracle) <= 1e-2, problem


def test_sign_only_verdict_matches_on_the_corpus():
    for problem in margin_corpus():
        modes = [np.asarray(m) for m in problem["modes"]]
        lmi = loop_problem(problem["rho"], modes)
        full = solve_margin(lmi)
        probe = solve_margin(lmi, sign_only=True)
        assert ((probe.margin > FEASIBILITY_THRESHOLD)
                == (full.margin > FEASIBILITY_THRESHOLD)), problem
        assert probe.iterations <= full.iterations, problem


def test_margin_unknown_cap():
    half = np.eye(2) * 0.5
    sys = SwitchedLinearSystem(("a", "b"), 2, {"a": half, "b": half})
    p = assemble_lmi(de_bruijn(("a", "b"), 5), sys, 1.0)
    with pytest.raises(ResourceLimitError):
        solve_margin(p)
    sol = solve_margin(p, unknown_cap=200)
    assert sol.status == "optimal"
    for bad in (0, -1, 200.0):
        with pytest.raises(ValueError, match="unknown cap must be a positive"):
            solve_margin(p, unknown_cap=bad)


def test_solution_bookkeeping():
    sol = solve_margin(loop_problem(1.0, [0.5 * np.eye(2)]))
    assert sol.iterations > 0
    assert isinstance(sol.status, str)


# ---------------------------------------------------------------------------
# bisection upper bounds
# ---------------------------------------------------------------------------

def test_jsr_diagonal_mode_is_tight():
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    sys = SwitchedLinearSystem(("a",), 2, {"a": np.diag([2.0, 0.5])})
    res = jsr_upper_bound(g, sys, tol=1e-3)
    assert 2.0 < res.rho_upper <= 2.0 + 2e-3
    report = verify_certificate(res.certificate, sys)
    assert report.ok and report.margin > 0
    assert res.certificate.rho == res.rho_upper


def test_jsr_rotation_pair_and_bracketing():
    sys = SwitchedLinearSystem(
        ("a", "b"), 2, {"a": 0.5 * rotation(1.0), "b": 0.5 * np.eye(2)}
    )
    res = jsr_upper_bound(de_bruijn(("a", "b"), 1), sys, tol=1e-3)
    assert 0.5 < res.rho_upper <= 0.5 + 2e-3
    feasible = [r for r, t in res.trace if t > FEASIBILITY_THRESHOLD]
    infeasible = [r for r, t in res.trace if t <= FEASIBILITY_THRESHOLD]
    assert min(feasible) == res.rho_upper
    if infeasible:
        assert max(infeasible) < min(feasible)
    lo_seed = 0.5
    gap_floor = max(infeasible, default=lo_seed)
    assert res.rho_upper - gap_floor <= res.tolerance + 1e-12


def test_jsr_requires_path_completeness_by_default():
    sys = SwitchedLinearSystem(
        ("a", "b"), 2, {"a": 0.5 * np.eye(2), "b": 2.0 * np.eye(2)}
    )
    with pytest.raises(NotPathCompleteError):
        jsr_upper_bound(lonely_loop(), sys, tol=1e-3)
    with pytest.warns(UserWarning):
        res = jsr_upper_bound(
            lonely_loop(), sys, tol=5e-3, require_path_complete=False
        )
    assert verify_certificate(res.certificate, sys).ok
    assert 2.0 < res.rho_upper <= 2.0 + 2 * 5e-3 + 0.02 * 2.0


def test_jsr_zero_modes_widen_from_floor():
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    sys = SwitchedLinearSystem(("a",), 2, {"a": np.zeros((2, 2))})
    res = jsr_upper_bound(g, sys, tol=1e-4)
    assert 0.0 < res.rho_upper <= 1e-3
    assert verify_certificate(res.certificate, sys).ok
    assert any(t <= FEASIBILITY_THRESHOLD for _, t in res.trace)


def test_jsr_large_tolerance_keeps_the_norm_seed():
    system = demo_system()
    seed = 1.01 * max(np.linalg.norm(a, 2) for a in system.modes.values())
    res = jsr_upper_bound(de_bruijn(("a", "b"), 2), system, tol=10.0)
    assert res.rho_upper <= seed
    assert verify_certificate(res.certificate, system).ok


def test_jsr_tiny_modes_start_from_the_seed_floor():
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    sys = SwitchedLinearSystem(("a",), 2, {"a": np.eye(2) * 1e-7})
    res = jsr_upper_bound(g, sys, tol=1e-4)
    assert 0.0 < res.rho_upper <= 1e-3
    assert verify_certificate(res.certificate, sys).ok


def test_jsr_huge_tolerance_is_not_a_rate():
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    sys = SwitchedLinearSystem(("a",), 2, {"a": np.eye(2) * 0.5})
    res = jsr_upper_bound(g, sys, tol=1e300)
    assert res.rho_upper <= 1.01 * 0.5
    assert verify_certificate(res.certificate, sys).ok


def test_jsr_seed_whose_square_overflows():
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    huge = SwitchedLinearSystem(("a",), 2, {"a": np.eye(2) * 1e160})
    with pytest.raises(NumericalError, match="squared overflows"):
        jsr_upper_bound(g, huge, tol=1e-3)


def test_jsr_propagates_solver_failure(monkeypatch):
    import pathlyap.sdp as sdp_module

    def broken(problem, unknown_cap=None, **kwargs):
        return MarginSolution(
            margin=float("nan"), assignment={}, iterations=1,
            status="numerical-failure",
        )

    monkeypatch.setattr(sdp_module, "solve_margin", broken)
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    sys = SwitchedLinearSystem(("a",), 2, {"a": np.diag([2.0, 0.5])})
    with pytest.raises(NumericalError):
        jsr_upper_bound(g, sys, tol=1e-3)


@pytest.mark.parametrize("case", ["demo-db1", "wide-db1"])
def test_sign_only_probes_change_no_bound(monkeypatch, case):
    import pathlyap.sdp as sdp_module

    if case == "demo-db1":
        graph, system = de_bruijn(("a", "b"), 1), demo_system()
    else:
        _, system, _ = wide_db2()
        graph = de_bruijn(("a", "b", "c"), 1)
    fast = jsr_upper_bound(graph, system, tol=1e-4)

    full_solve = sdp_module.solve_margin

    def full_probes(problem, unknown_cap=None, sign_only=False):
        return full_solve(problem, unknown_cap=unknown_cap)

    monkeypatch.setattr(sdp_module, "solve_margin", full_probes)
    slow = jsr_upper_bound(graph, system, tol=1e-4)
    assert [r for r, _ in fast.trace] == [r for r, _ in slow.trace]
    assert fast.rho_upper == slow.rho_upper
    assert fast.certificate.margin == slow.certificate.margin
    for node, matrix in slow.certificate.P.items():
        assert np.array_equal(fast.certificate.P[node], matrix)


def test_jsr_rejects_bad_tolerance():
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    sys = SwitchedLinearSystem(("a",), 2, {"a": np.eye(2) * 0.5})
    with pytest.raises(ValueError):
        jsr_upper_bound(g, sys, tol=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_jsr_rejects_non_finite_tolerance(bad):
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    sys = SwitchedLinearSystem(("a",), 2, {"a": np.eye(2) * 0.5})
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        jsr_upper_bound(g, sys, tol=bad)


def test_result_json_shape():
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    sys = SwitchedLinearSystem(("a",), 2, {"a": np.diag([2.0, 0.5])})
    res = jsr_upper_bound(g, sys, tol=1e-3)
    d = res.to_json()
    assert set(d) == {"rho_upper", "trace", "certificate"}
    assert d["rho_upper"] == res.rho_upper
    assert all(len(pair) == 2 for pair in d["trace"])
    again = certificate_from_json(d["certificate"])
    assert again.rho == res.certificate.rho
