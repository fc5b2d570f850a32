"""Switched linear systems, quadratic certificates on labeled graphs, LMI
assembly, eigenvalue-based verification, and the max-lift onto observer
nodes.

A quadratic certificate attaches one symmetric matrix P_s to each graph
node.  It certifies growth rate rho when every P_s is positive definite and
every edge (r, q, h) satisfies rho^2 P_r - A_h^T P_q A_h > 0.  Lifting a
certificate onto the observer of its graph produces a memory-based function
W(subset, x) = max over s in subset of x^T P_s x, which decreases along
observer transitions at the same rate.
"""

import math
import operator

import numpy as np

from .errors import (
    Record,
    json_array,
    json_integer,
    json_number,
    json_object,
    json_reader,
    json_strings,
)
from .graphs import graph_from_json

ASYMMETRY_CAP = 1e-8
EIG_REL_TOL = 1e-9
EIG_ABS_FLOOR = 1e-12


def _symmetrize(m, context):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{context}: expected a square matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{context}: entries must be finite")
    gap = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if gap > ASYMMETRY_CAP:
        raise ValueError(
            f"{context}: asymmetry {gap:.3e} exceeds cap {ASYMMETRY_CAP:.0e}"
        )
    return (m + m.T) / 2.0


def _square(value, name):
    """value squared, or ValueError when the square overflows."""
    square = float(value) * float(value)
    if not math.isfinite(square):
        raise ValueError(f"{name} squared overflows")
    return square


class SwitchedLinearSystem(Record):
    __slots__ = ("alphabet", "dimension", "modes")

    def __init__(self, alphabet, dimension, modes):
        alphabet = tuple(alphabet)
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(alphabet)) != len(alphabet) or any(not s for s in alphabet):
            raise ValueError("alphabet symbols must be distinct and nonempty")
        if isinstance(dimension, bool):
            raise TypeError("dimension must be an integer, not a bool")
        n = operator.index(dimension)
        if n < 1:
            raise ValueError("dimension must be positive")
        if set(modes) != set(alphabet):
            raise ValueError("modes must provide exactly one matrix per symbol")
        fixed = {}
        for sym, m in modes.items():
            m = np.asarray(m, dtype=float)
            if m.shape != (n, n):
                raise ValueError(
                    f"mode {sym!r} has shape {m.shape}, expected {(n, n)}"
                )
            if not np.all(np.isfinite(m)):
                raise ValueError(f"mode {sym!r}: entries must be finite")
            fixed[sym] = m
        self._freeze(alphabet, n, fixed)

    def to_json(self):
        return {
            "alphabet": list(self.alphabet),
            "dimension": self.dimension,
            "modes": {sym: self.modes[sym].tolist() for sym in self.alphabet},
        }


@json_reader("system")
def system_from_json(d):
    json_object(d, "system", ("alphabet", "dimension", "modes"))
    alphabet = tuple(json_strings(d["alphabet"], "system 'alphabet'"))
    # exactly one matrix per symbol, keyed by the symbol
    modes = json_object(d["modes"], "system 'modes'", alphabet)
    return SwitchedLinearSystem(
        alphabet,
        json_integer(d["dimension"], "system 'dimension'"),
        {sym: _json_matrix(m, f"system mode {sym!r}")
         for sym, m in modes.items()},
    )


def _json_matrix(rows, what):
    """`rows`, once checked to be a JSON array of arrays of numbers; a
    ValueError that names `what` otherwise."""
    for row in json_array(rows, what):
        for entry in json_array(row, what):
            json_number(entry, what)
    return rows


class QuadraticCertificate(Record):
    __slots__ = ("graph", "P", "rho", "margin")

    def __init__(self, graph, P, rho, margin=None):
        if not math.isfinite(rho) or rho <= 0:
            raise ValueError("rho must be positive and finite")
        if set(P) != set(graph.nodes):
            raise ValueError("P map must cover exactly the graph nodes")
        fixed = {}
        shape = None
        for node, m in P.items():
            m = _symmetrize(m, f"P[{node}]")
            if shape is None:
                shape = m.shape
            elif m.shape != shape:
                raise ValueError("all P matrices must share one dimension")
            fixed[node] = m
        self._freeze(graph, fixed, rho, margin)

    @property
    def dimension(self):
        return next(iter(self.P.values())).shape[0]

    def to_json(self):
        return {
            "graph": self.graph.to_json(),
            "rho": float(self.rho),
            "P": {node: self.P[node].tolist() for node in self.graph.nodes},
            "margin": None if self.margin is None else float(self.margin),
        }


@json_reader("certificate")
def certificate_from_json(d):
    json_object(d, "certificate", ("graph", "rho", "P"), ("margin",))
    margin = d.get("margin")
    return QuadraticCertificate(
        graph=graph_from_json(d["graph"]),
        P={node: _json_matrix(m, f"certificate P[{node!r}]")
           for node, m in d["P"].items()},
        rho=float(json_number(d["rho"], "certificate 'rho'")),
        margin=None if margin is None
        else json_number(margin, "certificate 'margin'"),
    )


# ---------------------------------------------------------------------------
# short products
# ---------------------------------------------------------------------------

# growth rates this close (relatively) count as equal when picking witnesses,
# so that eigensolves of similar products cannot steal a tie
_TIE_TOL = 1e-12


def _unit_scaled(stack):
    """Divide each matrix of the (K, n, n) stack, in place, by its largest
    absolute entry, and return the logs of those entries (0 for a zero
    matrix)."""
    peak = np.maximum(stack.max(axis=(1, 2)), -stack.min(axis=(1, 2)))
    peak[peak == 0.0] = 1.0
    stack /= peak[:, None, None]
    return np.log(peak)


def product_growth(sys, max_len):
    """Largest spectral-radius(A_w)^(1/|w|) over words with 1 <= |w| <= max_len,
    and its witness.

    Each growth rate is a lower bound on the joint spectral radius.  A
    rotation of w gives a product with the spectral radius of A_w, and w^k
    has the rate of w, so only Lyndon words (aperiodic words, least among
    their rotations) are eigensolved; every word up to max_len is covered.
    Products are grown one length at a time, newest mode on the left, over
    the pre-necklaces (the prefixes of necklaces, which
    Fredricksen-Kessler-Maiorana generation yields), kept in lexicographic
    order with each word carried as a row of symbol indices.  A pre-necklace
    a_1..a_t of period p extends only by symbols b >= a_(t+1-p); its period
    stays p when b = a_(t+1-p) and becomes t+1 otherwise, and it is a
    Lyndon word when its period is its length.

    Every mode and every product is kept divided by its largest entry c_w,
    with log c_w carried beside it, so that no product overflows however
    long its word, and none underflows because the scales of the modes lie
    far apart; the rate is exp((log c_w + log rho(A_w / c_w)) / |w|).  The
    witness is the shortest, then lexicographically first (in alphabet
    order), word attaining the maximum, in time order; it is always a
    Lyndon word.
    """
    modes = np.array([sys.modes[s] for s in sys.alphabet])
    mode_logs = _unit_scaled(modes)
    symbols = np.arange(len(sys.alphabet))
    best = -math.inf
    best_word = None
    words, periods = symbols[:, None], np.ones_like(symbols)
    prods, logs = modes, mode_logs
    for length in range(1, max_len + 1):
        if length > 1:
            floor = words[np.arange(len(words)), length - 1 - periods]
            parent, sym = np.nonzero(symbols >= floor[:, None])
            periods = np.where(sym == floor[parent], periods[parent], length)
            words = np.column_stack((words[parent], sym))
            prods = np.matmul(modes[sym], prods[parent])
            logs = logs[parent] + mode_logs[sym]
            logs += _unit_scaled(prods)
        lyndon = np.flatnonzero(periods == length)
        if not lyndon.size:
            continue
        radii = np.abs(np.linalg.eigvals(prods[lyndon])).max(axis=1)
        with np.errstate(divide="ignore"):
            growth = np.log(radii)
        growth += logs[lyndon]
        growth /= length
        np.exp(growth, out=growth)
        peak = float(growth.max())
        tie = _TIE_TOL * max(1.0, abs(peak))
        if peak > best + tie:
            best = peak
            first = lyndon[int(np.argmax(growth >= peak - tie))]
            best_word = tuple(sys.alphabet[i] for i in words[first])
    return best, best_word


# ---------------------------------------------------------------------------
# LMI assembly
# ---------------------------------------------------------------------------

class LmiProblem(Record):
    """Margin program for certifying rate `rho` along a graph.

    One n x n matrix P_s per node, its trace pinned to n.  Blocks, each
    read as "... >= t*I": P_s for every node s, then
    rho^2 P_r - A_h^T P_q A_h for every edge (r, q, h), whose row of the
    (E, 3) array `ends` holds r and q as positions in `nodes`, h in `modes`.
    """

    __slots__ = ("nodes", "edges", "modes", "rho", "dimension", "ends")

    def __init__(self, nodes, edges, modes, rho, dimension):
        position = {s: i for i, s in enumerate(nodes)}
        symbol = {h: i for i, h in enumerate(modes)}
        ends = np.array([(position[r], position[q], symbol[h])
                         for r, q, h in edges], dtype=np.intp)
        self._freeze(nodes, edges, modes, rho, dimension, ends.reshape(-1, 3))

    def blocks(self, P):
        """The (K, n, n) stack of blocks at P (node -> matrix): node blocks
        first, then edge blocks, in graph order."""
        stack = np.array([P[s] for s in self.nodes])
        r, q, h = self.ends.T
        a = np.array(list(self.modes.values()))[h]
        edges = (float(self.rho) ** 2 * stack[r]
                 - a.transpose(0, 2, 1) @ stack[q] @ a)
        return np.concatenate((stack, edges))


def assemble_lmi(g, sys, rho):
    """Margin program for certifying rate `rho` of `sys` along graph `g`."""
    if set(g.alphabet) != set(sys.alphabet):
        raise ValueError(
            f"graph alphabet {g.alphabet} does not match system alphabet "
            f"{sys.alphabet}"
        )
    if not math.isfinite(rho) or rho <= 0:
        raise ValueError("rho must be positive and finite")
    _square(rho, "rho")
    return LmiProblem(tuple(g.nodes), tuple(g.edges), sys.modes, float(rho),
                      sys.dimension)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class VerificationReport(Record, value=True):
    __slots__ = ("ok", "margin", "node_minima", "edge_minima", "implied_gamma")

    def __init__(self, ok, margin, node_minima, edge_minima,
                 implied_gamma=None):
        self._freeze(ok, margin, node_minima, edge_minima, implied_gamma)

    def to_json(self):
        return {
            "ok": self.ok,
            "margin": self.margin,
            "node_minima": dict(self.node_minima),
            "edge_minima": [
                {"source": r, "target": q, "symbol": h, "min_eigenvalue": v}
                for (r, q, h), v in self.edge_minima.items()
            ],
            "implied_gamma": self.implied_gamma,
        }


def _min_eig_and_pass(m):
    eigs = np.linalg.eigvalsh(m)
    smallest = float(eigs[0])
    norm = float(np.max(np.abs(eigs)))
    tol = max(EIG_ABS_FLOOR, EIG_REL_TOL * norm)
    return smallest, smallest > tol


def verify_certificate(cert, sys, rho_prime=None):
    """Independent eigenvalue check of a certificate against a system.

    Every node matrix and every edge slack matrix is diagonalized; the
    report carries each smallest eigenvalue and the global minimum as the
    margin.  A matrix passes when its smallest eigenvalue exceeds the
    relative tolerance.  When rho_prime is given, the report also states
    the contraction factor (rho/rho_prime)^2 implied for the system scaled
    down by rho_prime.
    """
    if set(cert.graph.alphabet) != set(sys.alphabet):
        raise ValueError("certificate and system alphabets differ")
    if cert.dimension != sys.dimension:
        raise ValueError("certificate and system dimensions differ")
    if rho_prime is not None and (
        not math.isfinite(rho_prime) or rho_prime <= 0
    ):
        raise ValueError("rho_prime must be positive and finite")

    rho_sq = _square(cert.rho, "rho")
    gamma = None
    if rho_prime is not None:
        gamma = _square(float(cert.rho) / rho_prime, "rho / rho_prime")
    ok = True
    node_minima = {}
    for s in cert.graph.nodes:
        smallest, passed = _min_eig_and_pass(cert.P[s])
        node_minima[s] = smallest
        ok = ok and passed
    edge_minima = {}
    for r, q, h in cert.graph.edges:
        a = sys.modes[h]
        slack = rho_sq * cert.P[r] - a.T @ cert.P[q] @ a
        smallest, passed = _min_eig_and_pass(slack)
        edge_minima[(r, q, h)] = smallest
        ok = ok and passed

    margin = min(list(node_minima.values()) + list(edge_minima.values()))
    return VerificationReport(
        ok=ok,
        margin=margin,
        node_minima=node_minima,
        edge_minima=edge_minima,
        implied_gamma=gamma,
    )


# ---------------------------------------------------------------------------
# max lift onto observer nodes
# ---------------------------------------------------------------------------

class MaxQuadraticFunction(Record):
    """Pointwise max of quadratics, one set per member name."""

    __slots__ = ("members", "rho", "dimension")

    def __init__(self, members, rho, dimension):
        self._freeze(members, rho, dimension)


def lift_certificate(cert, obs):
    """Attach to each observer node the quadratics of its subset members.

    The resulting function W(node, x) = max over s in subset of x^T P_s x
    inherits the certificate's decrease along observer transitions.
    """
    if obs.graph.alphabet != cert.graph.alphabet:
        raise ValueError("observer and certificate alphabets differ")
    base_nodes = set(cert.graph.nodes)
    members = {}
    for name, subset in obs.subset_map.items():
        if not subset <= base_nodes:
            raise ValueError(
                f"observer node {name} references nodes outside the "
                "certificate's graph"
            )
        members[name] = tuple(cert.P[s] for s in sorted(subset))
    return MaxQuadraticFunction(
        members=members, rho=cert.rho, dimension=cert.dimension
    )


def evaluate_mblf(w, member, x):
    """max over the member's quadratics at the point x."""
    if member not in w.members:
        raise ValueError(f"unknown member {member!r}")
    x = np.asarray(x, dtype=float)
    if x.shape != (w.dimension,):
        raise ValueError(f"expected a vector of length {w.dimension}")
    return float(max(x @ p @ x for p in w.members[member]))
