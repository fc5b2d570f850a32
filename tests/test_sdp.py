
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import margin_corpus
from pathlyap.fixtures import demo_system
from oracles import grid_margin_2x2
from pathlyap.errors import (
    DEFAULT_UNKNOWN_CAP,
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
from pathlyap._kernels import MU_MIN
import pathlyap.sdp as sdp_module
from pathlyap.sdp import (
    FEASIBILITY_THRESHOLD,
    MarginSolution,
    jsr_upper_bound,
    solve_margin,
)
from pathlyap.simulate import jsr_lower_bound
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
    for bad in (0, -1, 200.0, True):
        with pytest.raises(ValueError, match="unknown cap must be a positive"):
            solve_margin(p, unknown_cap=bad)


def test_solution_bookkeeping():
    sol = solve_margin(loop_problem(1.0, [0.5 * np.eye(2)]))
    assert sol.iterations > 0
    assert isinstance(sol.status, str)


def test_resumed_solve_reaches_the_cold_optimum():
    problem = assemble_lmi(de_bruijn(("a", "b"), 2), demo_system(), 3.92)
    cold = solve_margin(problem)
    probe = solve_margin(problem, sign_only=True)
    assert probe.margin > FEASIBILITY_THRESHOLD
    resumed = solve_margin(problem, start=probe)
    assert resumed.status == "optimal"
    assert resumed.iterations < cold.iterations
    gap = len(problem.blocks(cold.assignment)) * problem.dimension * 1e-10
    assert abs(resumed.margin - cold.margin) <= gap


def test_resume_refuses_a_solution_of_another_problem():
    small = solve_margin(loop_problem(1.0, [0.5 * np.eye(2)]))
    problem = assemble_lmi(de_bruijn(("a", "b"), 2), demo_system(), 3.92)
    with pytest.raises(ValueError, match="not a solution of this problem"):
        solve_margin(problem, start=small)


def test_start_without_a_rate_is_refused():
    problem = assemble_lmi(de_bruijn(("a", "b"), 2), demo_system(), 3.92)
    probe = solve_margin(problem, sign_only=True)
    with pytest.raises(ValueError, match="not a solution of this problem"):
        solve_margin(problem, start=MarginSolution(
            probe.margin, probe.assignment, probe.iterations, probe.status,
            probe.point, probe.weight, rho=None))


def record_kernel_calls(monkeypatch):
    """Wrap the kernel so that each call's start point, start weight and
    Newton iterations are kept."""
    calls = []
    kernel = sdp_module.barrier_solve

    def recording(c0, local, index, z0, mu0, *rest, **options):
        start = z0.copy()
        result = kernel(c0, local, index, z0, mu0, *rest, **options)
        calls.append((start, mu0, result[1]))
        return result

    monkeypatch.setattr(sdp_module, "barrier_solve", recording)
    return calls


def test_start_at_the_same_rate_resumes_the_probe_as_it_stands(monkeypatch):
    problem = assemble_lmi(de_bruijn(("a", "b"), 2), demo_system(), 3.92)
    probe = solve_margin(problem, sign_only=True)
    point = probe.point.copy()
    calls = record_kernel_calls(monkeypatch)
    solve_margin(problem, start=probe)
    ((z0, mu0, _),) = calls
    assert np.array_equal(z0, point)
    assert mu0 == probe.weight
    assert np.array_equal(probe.point, point)


# the demo system's joint spectral radius is about 3.9174 and the wide
# system's order-2 bound about 0.7019: the lower start rate is infeasible
@pytest.mark.parametrize("case, rho, other", [
    ("demo-db2", 3.92, 3.95),
    ("demo-db2", 3.92, 3.90),
    ("wide-db2", 0.703, 0.71),
    ("wide-db2", 0.703, 0.69),
])
def test_start_at_another_rate_reaches_the_cold_optimum(monkeypatch, case,
                                                        rho, other):
    if case == "demo-db2":
        graph, system = de_bruijn(("a", "b"), 2), demo_system()
    else:
        graph, system, _ = wide_db2()
    problem = assemble_lmi(graph, system, rho)
    cold = solve_margin(problem)
    start = solve_margin(assemble_lmi(graph, system, other), sign_only=True)
    assert (start.margin > 0) == (other > rho)
    calls = record_kernel_calls(monkeypatch)
    warm = solve_margin(problem, start=start)
    # the shifted start is strictly feasible at the new rate: every block
    # of the start's P dominates the lowered t, and the kernel accepted it
    ((z0, mu0, _),) = calls
    assert np.array_equal(z0[:-1], start.point[:-1])
    assert mu0 == start.weight
    blocks = problem.blocks(start.assignment)
    assert np.linalg.eigvalsh(blocks)[:, 0].min() > z0[-1]
    assert warm.iterations > 0
    assert warm.status == "optimal"
    gap = len(problem.blocks(cold.assignment)) * problem.dimension * 1e-10
    assert abs(warm.margin - cold.margin) <= gap


# ---------------------------------------------------------------------------
# one margin program per bound: a program built once and posed at each rate
# solves exactly what a fresh build at that rate solves
# ---------------------------------------------------------------------------

def self_loop_case():
    # De Bruijn 1: the edge ([a], [a], a) is an r = q block, which holds
    # both the rho^2 B slots and the -A^T B A slots of one node
    return de_bruijn(("a", "b"), 1), demo_system(), 3.923


def one_node_case():
    graph = LabeledGraph(("a", "b"), ("n",), [("n", "n", "a"),
                                              ("n", "n", "b")])
    return graph, demo_system(), 3.981


REUSE_CASES = {"self-loops": self_loop_case, "one-node": one_node_case,
               "wide-db2": wide_db2}


def assert_same_solution(got, want):
    assert np.array_equal(got.point, want.point)
    assert (got.margin, got.weight, got.iterations, got.status, got.rho) == (
        want.margin, want.weight, want.iterations, want.status, want.rho)
    assert list(got.assignment) == list(want.assignment)
    for node, matrix in want.assignment.items():
        assert np.array_equal(got.assignment[node], matrix)


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_posed_program_takes_its_constant_blocks_from_the_problem(case):
    # c0 is the blocks at z = 0: I on every node block and
    # rho^2 I - A^T I A on every edge block, to the bit
    graph, system, rho = REUSE_CASES[case]()
    n = system.dimension
    program = sdp_module._MarginProgram(assemble_lmi(graph, system, rho),
                                        DEFAULT_UNKNOWN_CAP)
    for scale in (1.0, 0.99, 1.01):
        rate = scale * rho
        c0 = program.pose(assemble_lmi(graph, system, rate)).c0
        assert c0.shape == (len(graph.nodes) + len(graph.edges), n, n)
        nodes = len(graph.nodes)
        for block in c0[:nodes]:
            assert np.array_equal(block, np.eye(n))
        for block, (_, _, h) in zip(c0[nodes:], graph.edges):
            a = system.modes[h]
            assert np.array_equal(
                block, float(rate) ** 2 * np.eye(n) - a.T @ np.eye(n) @ a)


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_one_program_solves_every_rate_like_a_fresh_build(case):
    graph, system, rho = REUSE_CASES[case]()
    program = sdp_module._MarginProgram(assemble_lmi(graph, system, rho),
                                        DEFAULT_UNKNOWN_CAP)
    fresh = reused = None
    # down, up, and the same rate twice; each rate's sign-only solve
    # resumes from the sign-only solve at the rate before
    for scale in (1.0, 0.99, 1.01, 1.01):
        problem = assemble_lmi(graph, system, scale * rho)
        for sign_only in (False, True):
            want = solve_margin(problem, sign_only=sign_only, start=fresh)
            got = solve_margin(program.pose(problem), sign_only=sign_only,
                               start=reused)
            assert_same_solution(got, want)
        fresh, reused = want, got


def test_posed_program_refuses_a_solution_of_another_graph():
    small = solve_margin(loop_problem(1.0, [0.5 * np.eye(2)]))
    problem = assemble_lmi(de_bruijn(("a", "b"), 2), demo_system(), 3.92)
    program = sdp_module._MarginProgram(problem, DEFAULT_UNKNOWN_CAP)
    with pytest.raises(ValueError, match="not a solution of this problem"):
        solve_margin(program.pose(problem), start=small)


def test_bound_builds_its_program_once(monkeypatch):
    built = []

    class Counting(sdp_module._MarginProgram):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(sdp_module, "_MarginProgram", Counting)
    res = jsr_upper_bound(de_bruijn(("a", "b"), 2), demo_system())
    assert len(res.trace) > 5
    assert len(built) == 1


@pytest.mark.parametrize("case", ["demo-db2", "wide-db2"])
def test_certifying_solve_ends_at_mu_min(monkeypatch, case):
    if case == "demo-db2":
        graph, system = de_bruijn(("a", "b"), 2), demo_system()
    else:
        graph, system, _ = wide_db2()
    full = []
    solve = sdp_module.solve_margin

    def recording(problem, *args, sign_only=False, **options):
        sol = solve(problem, *args, sign_only=sign_only, **options)
        if not sign_only:
            full.append(sol)
        return sol

    monkeypatch.setattr(sdp_module, "solve_margin", recording)
    res = jsr_upper_bound(graph, system)
    # the certifying solve resumes from the bound's probe and still walks
    # down to the clamped last stage
    (sol,) = full
    assert sol.rho == res.rho_upper
    assert sol.weight == MU_MIN


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


# from 1e4 on, an edge slack (of order rho^2) passes the verifier only
# with a smallest eigenvalue above 1e-9 rho^2 > 1, but a node block caps
# the margin at 1 (the trace of each P is pinned to n): no bound verifies
LARGE_SCALES = [
    pytest.param(10.0 ** k, marks=pytest.mark.xfail(
        strict=True, raises=NumericalError,
        reason="margin capped below the verifier's relative tolerance"))
    for k in range(4, 7)
]


@pytest.mark.parametrize("graph", ["one-node", "de-bruijn-1"])
@pytest.mark.parametrize(
    "scale", [0.0] + [10.0 ** k for k in range(-12, 4)] + LARGE_SCALES)
def test_first_probe_is_feasible_at_every_scale(graph, scale):
    # the upper seed is feasible by construction, also for modes so small
    # that no rate near their norm has a margin above the threshold
    system = demo_system()
    system = SwitchedLinearSystem(
        system.alphabet, system.dimension,
        {h: scale * a for h, a in system.modes.items()},
    )
    if graph == "one-node":
        graph = LabeledGraph(system.alphabet, ("n",),
                             [("n", "n", h) for h in system.alphabet])
    else:
        graph = de_bruijn(system.alphabet, 1)
    res = jsr_upper_bound(graph, system, tol=1e-4 * max(1.0, scale))
    assert res.trace[0][1] > FEASIBILITY_THRESHOLD
    assert verify_certificate(res.certificate, system).ok


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

    def full_probes(problem, unknown_cap=None, sign_only=False, start=None):
        return full_solve(problem, unknown_cap=unknown_cap)

    monkeypatch.setattr(sdp_module, "solve_margin", full_probes)
    slow = jsr_upper_bound(graph, system, tol=1e-4)
    assert [r for r, _ in fast.trace] == [r for r, _ in slow.trace]
    assert fast.rho_upper == slow.rho_upper
    assert verify_certificate(fast.certificate, system).ok
    assert verify_certificate(slow.certificate, system).ok
    # the resumed and the cold full solve both end on the central path at
    # mu_min = 1e-10, within the duality gap K n mu_min of the optimum
    blocks = len(graph.nodes) + len(graph.edges)
    gap = blocks * system.dimension * 1e-10
    assert abs(fast.certificate.margin - slow.certificate.margin) <= gap


def cold_probes(monkeypatch):
    """Patch solve_margin so that every sign-only probe starts cold; the
    full solve at the bound keeps its start."""
    solve = sdp_module.solve_margin

    def cold(problem, unknown_cap=None, sign_only=False, start=None):
        return solve(problem, unknown_cap=unknown_cap, sign_only=sign_only,
                     start=None if sign_only else start)

    monkeypatch.setattr(sdp_module, "solve_margin", cold)


def random_bound_case(seed):
    """A seeded system of 2 or 3 modes of order 2 or 3 with standard normal
    entries, on a De Bruijn graph of order 1 to 3 within the default cap of
    unknowns."""
    rng = np.random.default_rng(seed)
    symbols = ("a", "b", "c")[:int(rng.integers(2, 4))]
    n = int(rng.integers(2, 4))
    per_node = n * (n + 1) // 2 - 1
    orders = [k for k in (1, 2, 3)
              if len(symbols) ** k * per_node + 1 <= DEFAULT_UNKNOWN_CAP]
    system = SwitchedLinearSystem(
        symbols, n, {h: rng.normal(size=(n, n)) for h in symbols}
    )
    return de_bruijn(symbols, int(rng.choice(orders))), system


@pytest.mark.parametrize("seed", range(24))
def test_warm_probes_change_no_bound(monkeypatch, seed):
    graph, system = random_bound_case(seed)
    warm = jsr_upper_bound(graph, system, tol=1e-4)
    assert verify_certificate(warm.certificate, system).ok
    cold_probes(monkeypatch)
    cold = jsr_upper_bound(graph, system, tol=1e-4)
    assert [r for r, _ in warm.trace] == [r for r, _ in cold.trace]
    assert warm.rho_upper == cold.rho_upper
    # the bracket's upper end only moves onto a feasible probe
    feasible = [r for r, t in warm.trace if t > FEASIBILITY_THRESHOLD]
    assert warm.rho_upper == feasible[-1] == min(feasible)


@pytest.mark.parametrize("case", ["demo-db1", "wide-db1"])
def test_warm_probes_take_fewer_newton_steps(monkeypatch, case):
    if case == "demo-db1":
        graph, system = de_bruijn(("a", "b"), 1), demo_system()
    else:
        _, system, _ = wide_db2()
        graph = de_bruijn(("a", "b", "c"), 1)
    calls = record_kernel_calls(monkeypatch)
    jsr_upper_bound(graph, system, tol=1e-4)
    warm = sum(steps for _, _, steps in calls)
    calls.clear()
    cold_probes(monkeypatch)
    jsr_upper_bound(graph, system, tol=1e-4)
    assert warm <= 0.6 * sum(steps for _, _, steps in calls)


def test_refused_start_falls_back_to_the_cold_start(monkeypatch):
    graph, system = de_bruijn(("a", "b"), 1), demo_system()
    warm = jsr_upper_bound(graph, system, tol=1e-4)
    solve = sdp_module.solve_margin
    refused = []

    def corrupting(problem, unknown_cap=None, sign_only=False, start=None):
        if start is None:
            return solve(problem, unknown_cap=unknown_cap,
                         sign_only=sign_only)
        # a margin far above every block's eigenvalues: no block is PD
        point = start.point.copy()
        point[-1] += 1e3
        sol = solve(problem, unknown_cap=unknown_cap, sign_only=sign_only,
                    start=MarginSolution(
                        start.margin, start.assignment, start.iterations,
                        start.status, point, start.weight, start.rho))
        refused.append((sol.status, sol.iterations))
        return sol

    monkeypatch.setattr(sdp_module, "solve_margin", corrupting)
    result = jsr_upper_bound(graph, system, tol=1e-4)
    # every probe after the first and the full solve were refused
    assert refused == [("numerical-failure", 0)] * len(warm.trace)
    assert [r for r, _ in result.trace] == [r for r, _ in warm.trace]
    assert result.rho_upper == warm.rho_upper
    assert verify_certificate(result.certificate, system).ok


# ---------------------------------------------------------------------------
# the anchor and the log-scale search
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    anchor=st.floats(0.0, 1e3),
    below=st.floats(0.0, 1e2),
    width=st.floats(1e-6, 1e2),
    share=st.floats(1e-4, 0.99),
    where=st.floats(0.0, 1.0),
)
# tol * (hi - anchor) underflows to 0 here, so the geometric step is anchor
@example(anchor=0.0, below=0.0, width=1e-300, share=0.5, where=0.5)
def test_log_midpoint_splits_the_bracket(anchor, below, width, share, where):
    lo = anchor + below
    hi = lo + width
    tol = share * (hi - lo)
    # a threshold rate inside the bracket decides every probe
    threshold = lo + where * (hi - lo)
    steps = 0
    while hi - lo > tol:
        steps += 1
        assert steps <= sdp_module._BISECT_LIMIT
        mid = sdp_module._log_midpoint(lo, hi, anchor, tol)
        assert lo < mid < hi
        if mid >= threshold:
            hi = mid
        else:
            lo = mid


@pytest.mark.parametrize("symbols, length", [(1, 1), (2, 8), (3, 5)])
def test_anchor_length_stays_within_the_word_budget(symbols, length):
    assert sdp_module._anchor_length(symbols) == length
    if symbols > 1:
        words = sum(symbols ** k for k in range(1, length + 2))
        assert words > sdp_module._ANCHOR_WORDS


@pytest.mark.parametrize("case", ["demo", "wide"])
def test_anchor_is_the_short_product_lower_bound(case):
    system = demo_system() if case == "demo" else wide_db2()[1]
    length = sdp_module._anchor_length(len(system.alphabet))
    assert sdp_module._anchor(system) == jsr_lower_bound(system, length)[0]


def test_one_mode_anchor_enumerates_length_one(monkeypatch):
    lengths = []
    growth = sdp_module.product_growth

    def recorded(system, max_len):
        lengths.append(max_len)
        return growth(system, max_len)

    monkeypatch.setattr(sdp_module, "product_growth", recorded)
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    sys = SwitchedLinearSystem(("a",), 2, {"a": rotation(0.4) * 0.8})
    res = jsr_upper_bound(g, sys, tol=1e-3)
    assert lengths == [1]
    assert 0.8 < res.rho_upper <= 0.8 + 1e-3


def test_anchored_bound_on_demo_de_bruijn_2():
    system = demo_system()
    tol = 1e-4
    res = jsr_upper_bound(de_bruijn(("a", "b"), 2), system, tol=tol)
    assert len(res.trace) <= 8
    assert verify_certificate(res.certificate, system).ok
    anchor = sdp_module._anchor(system)
    infeasible = [r for r, t in res.trace if t <= FEASIBILITY_THRESHOLD]
    assert res.rho_upper - max(infeasible + [anchor]) <= tol


def test_jsr_checks_the_unknown_cap_first():
    with pytest.raises(ValueError, match="unknown cap must be a positive"):
        jsr_upper_bound(lonely_loop(), demo_system(), unknown_cap=-1)


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
