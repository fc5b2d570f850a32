"""The barrier kernel against recorded outputs, and its failure codes.

REFERENCE holds what the earlier per-block loop kernel (one eigh and one
n^2 x n^2 Kronecker product per constraint block per Newton step) returned
through solve_margin on three fixed problems, under a barrier schedule that
shrank the weight by 0.2 per stage (the record_schedule fixture restores
it).  The stacked kernel runs the same algorithm with its sums in another
order, so iteration counts and statuses must match exactly, and margins and
P only to within the rounding that reordering can produce.
"""

import numpy as np
import pytest

import pathlyap._kernels as kernels
from pathlyap._kernels import barrier_solve
from pathlyap.fixtures import demo_system
from pathlyap.graphs import LabeledGraph, de_bruijn
from pathlyap.lyapunov import SwitchedLinearSystem, assemble_lmi
from pathlyap.sdp import FEASIBILITY_THRESHOLD, solve_margin

MARGIN_TOL = 5e-9
P_TOL = 1e-6


def two_node():
    graph = LabeledGraph(
        ("a", "b"),
        ("u", "v"),
        [("u", "u", "a"), ("u", "v", "b"), ("v", "u", "a"), ("v", "v", "b")],
    )
    system = SwitchedLinearSystem(
        ("a", "b"),
        2,
        {
            "a": np.array([[0.3, 0.5], [0.0, -0.4]]),
            "b": np.array([[0.6, 0.0], [0.2, 0.1]]),
        },
    )
    return graph, system, 1.0


def demo_db3():
    return de_bruijn(("a", "b"), 3), demo_system(), 3.93


def wide_db2():
    # 46 unknowns over nine 3x3 nodes; rho sits between the order-2 bound
    # (about 0.7019) and the order-1 bound (about 0.7043), so the margin is
    # small and positive
    system = SwitchedLinearSystem(
        ("a", "b", "c"),
        3,
        {
            "a": np.array([[0.6, -0.3, 0.2], [0.1, 0.5, -0.4],
                           [0.0, 0.3, 0.4]]),
            "b": np.array([[-0.2, 0.5, 0.1], [0.4, 0.1, 0.3],
                           [-0.3, 0.0, 0.6]]),
            "c": np.array([[0.5, 0.1, -0.1], [-0.2, -0.4, 0.5],
                           [0.3, 0.2, 0.1]]),
        },
    )
    return de_bruijn(("a", "b", "c"), 2), system, 0.703


CASES = {"two-node": two_node, "demo-db3": demo_db3, "wide-db2": wide_db2}

# name -> (margin, Newton iterations, status, P per node)
REFERENCE = {
    "two-node": (
        0.5967021861639947,
        97,
        "optimal",
        {
            "u": [
                [1.04535396495, 0.1403460637],
                [0.1403460637, 0.954646035052],
            ],
            "v": [
                [1.00487205246, 0.027200694599],
                [0.027200694599, 0.99512794754],
            ],
        },
    ),
    "demo-db3": (
        0.09086603778913516,
        98,
        "optimal",
        {
            "[aaa]": [
                [1.02357348678, 0.294211131271],
                [0.294211131271, 0.976426513224],
            ],
            "[aab]": [
                [0.96572775421, 0.297879764565],
                [0.297879764565, 1.03427224579],
            ],
            "[aba]": [
                [0.95764064284, 0.0506120570576],
                [0.0506120570576, 1.04235935716],
            ],
            "[abb]": [
                [0.974971092363, 0.161044646732],
                [0.161044646732, 1.02502890764],
            ],
            "[baa]": [
                [1.32458608293, 0.299625116267],
                [0.299625116267, 0.675413917074],
            ],
            "[bab]": [
                [1.30932825782, 0.270438799844],
                [0.270438799844, 0.690671742176],
            ],
            "[bba]": [
                [1.20964822188, 0.293627303347],
                [0.293627303347, 0.790351778121],
            ],
            "[bbb]": [
                [1.22293270482, 0.291396528901],
                [0.291396528901, 0.777067295175],
            ],
        },
    ),
    "wide-db2": (
        0.0009770495775717376,
        105,
        "optimal",
        {
            "[aa]": [
                [0.57830813154, 0.12937143805, -0.109461383329],
                [0.12937143805, 1.15117399944, -0.306198711076],
                [-0.109461383329, -0.306198711076, 1.27051786902],
            ],
            "[ab]": [
                [0.726167723209, 0.240398721394, -0.162535676148],
                [0.240398721394, 1.12821068301, -0.255422045431],
                [-0.162535676148, -0.255422045431, 1.14562159378],
            ],
            "[ac]": [
                [0.626514557161, 0.188916911932, -0.149008888622],
                [0.188916911932, 1.19155591273, -0.300714764736],
                [-0.149008888622, -0.300714764736, 1.1819295301],
            ],
            "[ba]": [
                [1.04767265996, 0.0973247017773, -0.357921542087],
                [0.0973247017773, 0.91278057369, -0.173025049976],
                [-0.357921542087, -0.173025049976, 1.03954676635],
            ],
            "[bb]": [
                [0.996783735687, 0.0373908724265, -0.306551166561],
                [0.0373908724265, 0.931031177794, -0.276945051338],
                [-0.306551166561, -0.276945051338, 1.07218508652],
            ],
            "[bc]": [
                [0.988942135175, 0.0727955293388, -0.306103650684],
                [0.0727955293388, 0.939778519004, -0.242249234815],
                [-0.306103650684, -0.242249234815, 1.07127934582],
            ],
            "[ca]": [
                [0.809538998333, 0.161693958715, -0.303684966862],
                [0.161693958715, 1.01654892867, -0.231696380549],
                [-0.303684966862, -0.231696380549, 1.17391207299],
            ],
            "[cb]": [
                [0.931920322103, 0.118096422888, -0.259778372498],
                [0.118096422888, 0.92748269315, -0.193788246412],
                [-0.259778372498, -0.193788246412, 1.14059698475],
            ],
            "[cc]": [
                [0.914427994552, 0.120787284576, -0.263740462414],
                [0.120787284576, 0.938168565909, -0.195587481939],
                [-0.263740462414, -0.195587481939, 1.14740343954],
            ],
        },
    ),
}


@pytest.fixture
def record_schedule(monkeypatch):
    """The barrier schedule the record was taken under: the weight shrinks
    by 0.2 per stage from 1 and stops at 0.2^14, the last stage at or above
    1e-10, reached by the same 14 multiplications."""
    last = 1.0
    for _ in range(14):
        last *= 0.2
    monkeypatch.setattr(kernels, "MU_SHRINK", 0.2)
    monkeypatch.setattr(kernels, "MU_MIN", last)


@pytest.mark.usefixtures("record_schedule")
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_loop_kernel_record(name):
    graph, system, rho = CASES[name]()
    sol = solve_margin(assemble_lmi(graph, system, rho))
    margin, iterations, status, p = REFERENCE[name]
    assert sol.iterations == iterations
    assert sol.status == status
    assert abs(sol.margin - margin) <= MARGIN_TOL
    assert set(sol.assignment) == set(p)
    for node, matrix in p.items():
        assert np.allclose(sol.assignment[node], matrix, rtol=0.0, atol=P_TOL)


@pytest.mark.parametrize("name", sorted(CASES))
def test_full_solve_ends_at_mu_min(name):
    # one schedule: the last stage is clamped to MU_MIN, not the last
    # power of MU_SHRINK above it
    graph, system, rho = CASES[name]()
    sol = solve_margin(assemble_lmi(graph, system, rho))
    assert sol.status == "optimal"
    assert sol.weight == kernels.MU_MIN


# solve_margin's settings after z0 for a cold solve: mu0
SETTINGS = (1.0,)


def one_block():
    """max t s.t. I + y diag(1, -1) - t I is PD: optimum y = 0, t = 1."""
    c0 = np.eye(2)[None]
    d = np.array([[np.diag([1.0, -1.0]), -np.eye(2)]])
    return c0, d, np.array([0.0, -1.0])


def test_reaches_the_optimum():
    c0, d, z0 = one_block()
    z, iterations, status, _ = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS)
    assert status == 0
    assert iterations > 0
    assert np.allclose(z, [0.0, 1.0], rtol=0.0, atol=1e-8)
    assert z[1] < 1.0


def test_infeasible_start_is_returned_untouched():
    c0, d, _ = one_block()
    z0 = np.array([0.0, 2.0])
    z, iterations, status, _ = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS)
    assert np.array_equal(z, z0)
    assert (iterations, status) == (0, 2)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_direction_fails(bad):
    c0, d, z0 = one_block()
    d[0, 0, 0, 1] = d[0, 0, 1, 0] = bad
    with np.errstate(invalid="ignore"):
        _, _, status, _ = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS)
    assert status == 2


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_start_is_refused_before_newton(bad):
    # 0 * bad is NaN, so the start block is not finite; Cholesky does not
    # raise on NaN, only the finiteness check refuses it
    c0, d, z0 = one_block()
    d[0, 0, 0, 1] = d[0, 0, 1, 0] = bad
    with np.errstate(invalid="ignore"):
        z, iterations, status, _ = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS)
    assert np.array_equal(z, z0)
    assert (iterations, status) == (0, 2)


def test_newton_budget_exhausted(monkeypatch):
    c0, d, z0 = one_block()
    monkeypatch.setattr(kernels, "MAX_NEWTON", 1)
    _, iterations, status, _ = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS)
    assert status == 1
    # one Newton step per barrier stage: mu runs 1, 0.05, ..., 0.05^7 and
    # then the clamped last stage at 1e-10
    assert iterations == 9


# ---------------------------------------------------------------------------
# sign-only exits: one_block's optimum is t = 1 and its central path is
# y = 0, t = 1 - 2 mu, so the gap bound t + K n mu = 1 is tight
# ---------------------------------------------------------------------------

def test_feasible_exit_stops_once_the_margin_clears():
    c0, d, z0 = one_block()
    _, full, _, _ = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS)
    z, iterations, status, _ = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS,
                                          decide=0.9)
    assert status == 0
    assert 0.9 < z[1] < 1.0
    assert iterations < full


def test_infeasible_exit_returns_a_centred_stage_end(monkeypatch):
    c0, d, _ = one_block()
    z0 = np.array([0.5, -3.0])
    _, full, _, _ = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS)
    z, iterations, status, _ = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS,
                                          decide=1.05)
    assert status == 0
    assert iterations < full
    # at mu = 1 the gap bound already reads 1 < 1.05: the exit returns
    # exactly what a solve that stops after that stage returns
    monkeypatch.setattr(kernels, "MU_MIN", 1.0)
    first_stage = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS)[:3]
    assert np.array_equal(z, first_stage[0])
    assert (iterations, status) == first_stage[1:]


def test_unconverged_stage_decides_nothing(monkeypatch):
    # one Newton step per stage from far below the central path: the
    # stage ends with t + K n mu < decide although the optimum is above it
    c0, d, _ = one_block()
    monkeypatch.setattr(kernels, "MAX_NEWTON", 1)
    z, _, _, _ = barrier_solve(c0, d, [[0, 1]], np.array([0.0, -10.0]),
                            *SETTINGS, decide=0.5)
    assert z[1] > 0.5


def test_stalled_line_search_decides_nothing(monkeypatch):
    # with min_step > 1 no step is ever tried, so every stage after the
    # first (where z0 is centred) ends on a stall at z0 = (0, -1), whose
    # t + K n mu falls below decide from mu = 0.05 on; the optimum t = 1 is
    # above decide, so a stalled stage end must not give a verdict
    c0, d, z0 = one_block()
    monkeypatch.setattr(kernels, "MIN_STEP", 2.0)
    z, iterations, status, mu = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS,
                                              decide=0.5)
    assert np.array_equal(z, z0)
    # no exit: one Newton step in each of the 9 stages, down to the last
    assert iterations == 9
    assert mu == kernels.MU_MIN


def test_resume_from_a_decided_point_reaches_the_optimum():
    c0, d, z0 = one_block()
    _, full, _, weight = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS)
    # mu runs 1, 0.05, ..., and the last stage is clamped to MU_MIN
    assert weight == kernels.MU_MIN
    z, decided, _, mu = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS,
                                      decide=0.9)
    assert mu < 1.0
    z, resumed, status, _ = barrier_solve(c0, d, [[0, 1]], z, mu)
    assert status == 0
    assert np.allclose(z, [0.0, 1.0], rtol=0.0, atol=1e-8)
    assert decided + resumed <= full


# ---------------------------------------------------------------------------
# the certifying stop: the first centred stage with K n mu <= t
# ---------------------------------------------------------------------------

def test_certifying_exit_stops_at_half_the_optimum():
    # one_block's central path has t = 1 - 2 mu: at mu = 1 the gap bound
    # 2 mu exceeds t, at mu = 0.05 it no longer does
    c0, d, z0 = one_block()
    _, full, _, _ = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS)
    z, iterations, status, mu = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS,
                                              certify=True)
    assert (status, mu) == (0, kernels.MU_SHRINK)
    assert 2 * mu <= z[1]
    assert z[1] == pytest.approx(1.0 - 2 * mu, abs=1e-7)
    assert iterations < full
    # at mu = 0.3 the centred t = 0.4 is more than a third of the optimum
    # but less than half, and the gap bound 0.6 exceeds it: no stop there
    _, _, _, mu = barrier_solve(c0, d, [[0, 1]], z0, 0.3, certify=True)
    assert mu == 0.3 * kernels.MU_SHRINK


def test_certifying_exit_needs_a_small_scaled_decrement(monkeypatch):
    # with a decrement test that no stage end passes, the certifying solve
    # walks the whole schedule like a full solve
    c0, d, z0 = one_block()
    monkeypatch.setattr(kernels, "CERTIFY_DECREMENT", -1.0)
    full = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS)
    z, iterations, status, mu = barrier_solve(c0, d, [[0, 1]], z0, *SETTINGS,
                                              certify=True)
    assert mu == kernels.MU_MIN
    assert np.array_equal(z, full[0])
    assert (iterations, status) == full[1:3]


@pytest.mark.parametrize("scale", [1.0, 0.99], ids=["at-rho", "below-rho"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_sign_only_verdict_matches_the_full_solve(name, scale):
    graph, system, rho = CASES[name]()
    problem = assemble_lmi(graph, system, scale * rho)
    full = solve_margin(problem)
    probe = solve_margin(problem, sign_only=True)
    assert ((probe.margin > FEASIBILITY_THRESHOLD)
            == (full.margin > FEASIBILITY_THRESHOLD))
    assert probe.iterations <= full.iterations


# ---------------------------------------------------------------------------
# line search: a trial step that the diagonal bound proves leaves the cone
# is skipped, not factorized
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("record_schedule")
@pytest.mark.parametrize("name", ["demo-db3", "wide-db2"])
def test_line_search_rarely_factorizes_a_step_outside_the_cone(monkeypatch,
                                                               name):
    failed = []
    factor = kernels._factor

    def counting(s):
        result = factor(s)
        if result[0] is None:
            failed.append(s)
        return result

    monkeypatch.setattr(kernels, "_factor", counting)
    graph, system, rho = CASES[name]()
    sol = solve_margin(assemble_lmi(graph, system, rho))
    assert sol.iterations == REFERENCE[name][1]
    assert len(failed) <= sol.iterations / 10
