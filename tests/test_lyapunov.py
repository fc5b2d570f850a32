import numpy as np
import pytest

from pathlyap.graphs import LabeledGraph, de_bruijn, dual
from pathlyap.lyapunov import (
    MaxQuadraticFunction,
    QuadraticCertificate,
    SwitchedLinearSystem,
    assemble_lmi,
    certificate_from_json,
    evaluate_mblf,
    lift_certificate,
    system_from_json,
    verify_certificate,
)
from pathlyap.observer import observer_graph
from test_graphs import mixed_horizon

AB = ("a", "b")

A_MODE = np.array([[3.0, 3.0], [-2.0, 1.0]])
B_MODE = np.array([[-1.0, -1.0], [-4.0, 0.0]])


def demo_system():
    return SwitchedLinearSystem(AB, 2, {"a": A_MODE, "b": B_MODE})


def half_identity_system():
    h = np.eye(2) * 0.5
    return SwitchedLinearSystem(AB, 2, {"a": h, "b": h})


def identity_certificate(graph, rho=1.0):
    return QuadraticCertificate(
        graph=graph, P={s: np.eye(2) for s in graph.nodes}, rho=rho
    )


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

def test_system_construction_and_json():
    sys = demo_system()
    assert sys.dimension == 2
    assert np.array_equal(sys.modes["a"], A_MODE)
    again = system_from_json(sys.to_json())
    assert again.alphabet == sys.alphabet
    assert np.array_equal(again.modes["b"], B_MODE)


def test_system_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SwitchedLinearSystem(AB, 2, {"a": A_MODE})
    with pytest.raises(ValueError):
        SwitchedLinearSystem(AB, 2, {"a": A_MODE, "b": np.eye(3)})
    with pytest.raises(ValueError):
        SwitchedLinearSystem(AB, 2, {"a": np.ones((2, 3)), "b": B_MODE})
    with pytest.raises(ValueError):
        SwitchedLinearSystem(AB, 3, {"a": A_MODE, "b": B_MODE})


def test_system_dimension_is_not_truncated():
    # 2.9 read through int() would be a 2-dimensional system
    with pytest.raises(TypeError):
        SwitchedLinearSystem(AB, 2.9, {"a": A_MODE, "b": B_MODE})
    assert SwitchedLinearSystem(AB, np.int64(2), {"a": A_MODE, "b": B_MODE}
                                ).dimension == 2


def test_system_json_rejects_unknown_keys():
    d = demo_system().to_json()
    d["note"] = "x"
    with pytest.raises(ValueError):
        system_from_json(d)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrices_are_rejected(bad):
    corrupt = B_MODE.copy()
    corrupt[1, 0] = bad
    with pytest.raises(ValueError, match="mode 'b'"):
        SwitchedLinearSystem(AB, 2, {"a": A_MODE, "b": corrupt})
    P = {s: np.eye(2) for s in de_bruijn(AB, 1).nodes}
    P["[b]"] = np.full((2, 2), bad)
    with pytest.raises(ValueError, match=r"P\[\[b\]\]"):
        QuadraticCertificate(graph=de_bruijn(AB, 1), P=P, rho=1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_rates_are_rejected(bad):
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        assemble_lmi(de_bruijn(AB, 1), demo_system(), bad)
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        identity_certificate(de_bruijn(AB, 1), rho=bad)
    cert = identity_certificate(de_bruijn(AB, 1), rho=5.0)
    with pytest.raises(ValueError, match="rho_prime must be positive and finite"):
        verify_certificate(cert, demo_system(), rho_prime=bad)


def test_rates_whose_square_overflows_are_rejected():
    with pytest.raises(ValueError, match="rho squared overflows"):
        assemble_lmi(de_bruijn(AB, 1), demo_system(), 1e200)
    cert = identity_certificate(de_bruijn(AB, 1), rho=1e200)
    with pytest.raises(ValueError, match="rho squared overflows"):
        verify_certificate(cert, demo_system())
    cert = identity_certificate(de_bruijn(AB, 1), rho=5.0)
    with pytest.raises(ValueError, match="rho / rho_prime squared overflows"):
        verify_certificate(cert, demo_system(), rho_prime=1e-200)


# ---------------------------------------------------------------------------
# LMI assembly
# ---------------------------------------------------------------------------

def test_assemble_counts_on_mixed_horizon_graph():
    p = assemble_lmi(mixed_horizon(), demo_system(), 3.92)
    assert p.nodes == tuple(mixed_horizon().nodes)
    assert p.edges == tuple(mixed_horizon().edges)
    assert p.dimension == 2
    assert len(p.nodes) == 3
    assert len(p.edges) == 6
    blocks = p.blocks({s: np.eye(2) for s in p.nodes})
    assert blocks.shape == (9, 2, 2)


def test_assemble_counts_on_de_bruijn_2():
    p = assemble_lmi(de_bruijn(AB, 2), demo_system(), 4.0)
    assert len(p.nodes) == 4
    assert len(p.nodes) + len(p.edges) == 12


def test_assemble_single_loop_one_mode():
    g = LabeledGraph(("a",), ("n",), [("n", "n", "a")])
    sys = SwitchedLinearSystem(("a",), 2, {"a": np.eye(2) * 0.5})
    p = assemble_lmi(g, sys, 1.0)
    assert len(p.nodes) == 1
    assert len(p.nodes) + len(p.edges) == 2


def test_assemble_rejects_alphabet_mismatch():
    g = de_bruijn(("a", "c"), 1)
    with pytest.raises(ValueError):
        assemble_lmi(g, demo_system(), 1.0)


def test_constraint_evaluation_matches_direct_formula():
    rho = 3.92
    p = assemble_lmi(mixed_horizon(), demo_system(), rho)
    rng = np.random.default_rng(7)
    assignment = {}
    for name in p.nodes:
        m = rng.normal(size=(p.dimension, p.dimension))
        assignment[name] = m + m.T
    modes = demo_system().modes
    blocks = p.blocks(assignment)
    assert len(blocks) == len(p.nodes) + len(p.edges)
    for got, s in zip(blocks, p.nodes):
        assert np.allclose(got, assignment[s], atol=1e-12)
    for got, (r, q, h) in zip(blocks[len(p.nodes):], p.edges):
        a = modes[h]
        expected = rho**2 * assignment[r] - a.T @ assignment[q] @ a
        assert np.allclose(got, expected, atol=1e-12)


def test_half_identity_edge_constraint_value():
    p = assemble_lmi(de_bruijn(AB, 1), half_identity_system(), 1.0)
    blocks = p.blocks({name: np.eye(2) for name in p.nodes})
    for k, got in enumerate(blocks):
        expected = np.eye(2) if k < len(p.nodes) else 0.75 * np.eye(2)
        assert np.allclose(got, expected)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_contractive_identity_certificate():
    cert = identity_certificate(de_bruijn(AB, 1))
    report = verify_certificate(cert, half_identity_system())
    assert report.ok
    assert report.margin == pytest.approx(0.75, abs=1e-12)
    assert all(v == pytest.approx(1.0) for v in report.node_minima.values())
    assert all(v == pytest.approx(0.75) for v in report.edge_minima.values())


def test_verify_expanding_system_fails():
    cert = identity_certificate(de_bruijn(AB, 1))
    sys = SwitchedLinearSystem(AB, 2, {"a": 2 * np.eye(2), "b": 2 * np.eye(2)})
    report = verify_certificate(cert, sys)
    assert not report.ok
    assert report.margin == pytest.approx(-3.0, abs=1e-12)


def test_verify_zero_slack_is_not_a_pass():
    cert = identity_certificate(de_bruijn(AB, 1))
    sys = SwitchedLinearSystem(AB, 2, {"a": np.eye(2), "b": np.eye(2)})
    report = verify_certificate(cert, sys)
    assert not report.ok
    assert report.margin == pytest.approx(0.0, abs=1e-15)


def test_verify_margin_bounds_every_edge():
    g = de_bruijn(AB, 1)
    cert = QuadraticCertificate(
        graph=g,
        P={"[a]": np.diag([1.5, 0.5]), "[b]": np.diag([0.5, 1.5])},
        rho=1.0,
    )
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    sys = SwitchedLinearSystem(AB, 2, {"a": 0.4 * swap, "b": 0.4 * np.eye(2)})
    report = verify_certificate(cert, sys)
    assert report.ok
    assert all(v >= report.margin for v in report.node_minima.values())
    assert all(v >= report.margin for v in report.edge_minima.values())
    assert report.margin == pytest.approx(0.26, abs=1e-12)


def test_verify_reports_implied_gamma():
    cert = identity_certificate(de_bruijn(AB, 1), rho=1.0)
    report = verify_certificate(cert, half_identity_system(), rho_prime=2.0)
    assert report.implied_gamma == pytest.approx(0.25)
    report2 = verify_certificate(cert, half_identity_system())
    assert report2.implied_gamma is None


def test_certificate_symmetrizes_small_noise_rejects_large():
    g = de_bruijn(AB, 1)
    noisy = np.eye(2)
    noisy[0, 1] = 1e-10
    cert = QuadraticCertificate(graph=g, P={"[a]": noisy, "[b]": np.eye(2)}, rho=1.0)
    assert np.allclose(cert.P["[a]"], cert.P["[a]"].T)
    skew = np.eye(2)
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError):
        QuadraticCertificate(graph=g, P={"[a]": skew, "[b]": np.eye(2)}, rho=1.0)


def test_certificate_requires_all_nodes():
    with pytest.raises(ValueError):
        QuadraticCertificate(
            graph=de_bruijn(AB, 1), P={"[a]": np.eye(2)}, rho=1.0
        )


def test_quadratic_sandwich():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.normal(size=(3, 3))
        p = m @ m.T + 0.1 * np.eye(3)
        lo, hi = np.linalg.eigvalsh(p)[[0, -1]]
        for _ in range(10):
            x = rng.normal(size=3)
            val = x @ p @ x
            nrm = x @ x
            assert lo * nrm - 1e-9 <= val <= hi * nrm + 1e-9


# ---------------------------------------------------------------------------
# the max lift
# ---------------------------------------------------------------------------

def lifted_pair():
    g = de_bruijn(AB, 1)
    cert = QuadraticCertificate(
        graph=g,
        P={"[a]": np.diag([1.5, 0.5]), "[b]": np.diag([0.5, 1.5])},
        rho=1.0,
    )
    obs = observer_graph(g)
    return cert, obs, lift_certificate(cert, obs)


def test_lift_assigns_subset_quadratics():
    cert, obs, w = lifted_pair()
    assert set(w.members) == set(obs.graph.nodes)
    assert len(w.members["{[a],[b]}"]) == 2
    assert len(w.members["{[a]}"]) == 1
    assert w.rho == cert.rho
    assert w.dimension == 2


def test_lift_root_value_is_max():
    _, _, w = lifted_pair()
    x = np.array([1.0, 0.0])
    assert evaluate_mblf(w, "{[a],[b]}", x) == pytest.approx(1.5)
    assert evaluate_mblf(w, "{[a]}", x) == pytest.approx(1.5)
    assert evaluate_mblf(w, "{[b]}", x) == pytest.approx(0.5)


def test_singleton_observer_lift_is_relabeling():
    g = de_bruijn(AB, 1)
    cert = QuadraticCertificate(
        graph=g,
        P={"[a]": np.diag([2.0, 1.0]), "[b]": np.diag([1.0, 2.0])},
        rho=1.0,
    )
    from pathlyap.observer import observer_core

    obs = observer_graph(g)
    core = observer_core(obs)
    w = lift_certificate(cert, obs)
    for node in core.nodes:
        inner = node[1:-1]
        assert len(w.members[node]) == 1
        assert np.array_equal(w.members[node][0], cert.P[inner])


def test_evaluate_mblf_basics():
    _, _, w = lifted_pair()
    assert evaluate_mblf(w, "{[a]}", np.zeros(2)) == 0.0
    single = MaxQuadraticFunction(
        members={"m": (np.eye(2),)}, rho=1.0, dimension=2
    )
    assert evaluate_mblf(single, "m", np.array([3.0, 4.0])) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        evaluate_mblf(w, "nope", np.zeros(2))
    with pytest.raises(ValueError):
        evaluate_mblf(w, "{[a]}", np.zeros(3))


def test_evaluate_mblf_homogeneity():
    _, _, w = lifted_pair()
    rng = np.random.default_rng(13)
    for _ in range(25):
        x = rng.normal(size=2)
        for member in w.members:
            assert evaluate_mblf(w, member, 2 * x) == pytest.approx(
                4 * evaluate_mblf(w, member, x)
            )


def test_lift_rejects_foreign_observer():
    g = de_bruijn(AB, 1)
    cert = identity_certificate(g)
    other = observer_graph(mixed_horizon())
    with pytest.raises(ValueError):
        lift_certificate(cert, other)


def test_lifted_decrease_along_observer_transitions():
    """Sampled one-step decrease of the lifted function along observer
    transitions, on the dual of the mixed-horizon graph (whose observer is
    a single node holding all three quadratics) and on the mixed-horizon
    graph itself (five observer nodes).  The base certificate is verified
    first so the inequality is guaranteed, and sampling confirms the
    implementation agrees."""
    rot = np.array([[0.6, 0.8], [-0.8, 0.6]])
    sys = SwitchedLinearSystem(
        AB, 2, {"a": 0.3 * rot, "b": np.array([[0.1, 0.2], [0.0, -0.2]])}
    )
    p_map = {
        "[b]": np.diag([1.4, 0.6]),
        "[ab]": np.diag([0.6, 1.4]),
        "[aa]": np.array([[1.0, 0.3], [0.3, 0.8]]),
    }
    rng = np.random.default_rng(17)
    per_edge = 2000
    total = 0
    for base in (dual(mixed_horizon()), mixed_horizon()):
        cert = QuadraticCertificate(graph=base, P=dict(p_map), rho=1.0)
        assert verify_certificate(cert, sys).ok
        obs = observer_graph(base)
        w = lift_certificate(cert, obs)

        def values(member, pts):
            stacked = [
                np.sum(pts * (p @ pts), axis=0) for p in w.members[member]
            ]
            return np.max(np.stack(stacked), axis=0)

        for p_node, q_node, h in obs.graph.edges:
            pts = rng.normal(size=(2, per_edge))
            lhs = values(q_node, sys.modes[h] @ pts)
            rhs = cert.rho**2 * values(p_node, pts)
            assert np.all(lhs <= rhs + 1e-9)
            total += per_edge
    assert total >= 10**4


# ---------------------------------------------------------------------------
# certificate serialization
# ---------------------------------------------------------------------------

def test_certificate_json_round_trip():
    cert = identity_certificate(de_bruijn(AB, 1))
    cert = QuadraticCertificate(
        graph=cert.graph, P=cert.P, rho=cert.rho, margin=0.75
    )
    d = cert.to_json()
    assert d["rho"] == 1.0
    assert d["margin"] == 0.75
    again = certificate_from_json(d)
    assert again.graph == cert.graph
    assert again.rho == cert.rho
    assert again.margin == cert.margin
    for node in cert.graph.nodes:
        assert np.array_equal(again.P[node], cert.P[node])


def test_certificate_json_rejects_unknown_keys():
    d = identity_certificate(de_bruijn(AB, 1)).to_json()
    d["stray"] = 1
    with pytest.raises(ValueError):
        certificate_from_json(d)
