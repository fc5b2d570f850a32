"""Margin maximization and bisection-based spectral radius upper bounds.

``solve_margin`` maximizes t subject to every block of a
:class:`~pathlyap.lyapunov.LmiProblem` dominating ``t * I``, with the
trace of every node matrix pinned to the state dimension n.  The solve is
self-contained: each node matrix is parametrized as ``I + sum_j z_j B_j``
over an orthonormal basis of trace-zero symmetric matrices, which turns
the trace equalities into plain eliminations.  The directions of the
resulting max-eigenvalue program are written down in closed form from
that basis (``B_j`` on a node block, ``rho^2 B_j`` and ``-A^T B_j A`` on an
edge block), each block holding only the directions of its own nodes, and
go to the log-det barrier kernel in :mod:`pathlyap._kernels`.  All of
that but the rho^2 terms is built once per graph and system
(:class:`_MarginProgram`); each rate's constant blocks come from
``LmiProblem.blocks``, the one place that forms a block.  The reported
margin is always recomputed from the returned matrices with an
eigenvalue solve, never trusted from the optimizer state.

``jsr_upper_bound`` brackets the certifiable growth rate by probing
feasibility of the margin program, built once per call, at rates between
two ends, and returns the smallest feasible probe together with its
independently re-verified certificate.
Both ends of the bracket hold by construction.  The upper end starts where
the identity assignment (the cold start) has a margin of at least twice
:data:`FEASIBILITY_THRESHOLD`, so its probe is feasible, and it only moves
onto feasible probes.  The lower end is the anchor: the largest growth rate
of a short product, rho(A_w)^(1/|w|) over every word up to the longest
length whose word count stays within :data:`_ANCHOR_WORDS`, of which only
the Lyndon words are eigensolved.  No rate at or below the joint spectral
radius has a certificate, so the anchor is infeasible on every graph
without a probe.  Which end a probe moves is decided by the sign of its
margin against the threshold alone; where it lands is not
(:class:`_Bracket`).  Until a probe fails, the bracket is split in log
scale above the anchor (:func:`_log_midpoint`), so a bound that sits on a
short product takes a handful of probes.  After that each probe goes to
the root of the chord, in rho^2, through the two ends' margins, with the
Illinois rule and a midpoint whenever two chord probes in a row fail to
halve the bracket.  Every solve walks the kernel's one barrier schedule
(:data:`pathlyap._kernels.MU_SHRINK` per stage, the last stage clamped to
:data:`pathlyap._kernels.MU_MIN`).  The probes run ``solve_margin`` in
sign-only mode, which walks the same stages but stops once the kernel has
certified which side of :data:`FEASIBILITY_THRESHOLD` the optimum lies on.
Every probe after the first resumes from the earlier probe nearest to it in
rate: it starts at that probe's point and barrier weight, with the margin
unknown lowered just enough to be strictly feasible at the new rate, so it
skips the stages of the central path that probe already walked
(``solve_margin``'s `start`).  A start moves where a probe is decided, not
what it decides; after the first failure the decided margins also place
the next probe.  The smallest feasible probe is then solved once more,
resumed the same way from its own probe, and the certificate comes from
that solve.  It is a certifying solve: it stops at the first centred stage
whose weight mu has K n mu at most its margin unknown t (K blocks of order
n), where the optimum lies within the central-path gap K n mu of t, so the
certificate's margin is at least half the optimum; a solve that no stage
stops ends at MU_MIN like a full one.  The bound is the probe's rate
either way: the stop moves the certificate's margin, not the bound.
"""

import math
import warnings

import numpy as np

from ._kernels import barrier_solve
from .errors import (
    DEFAULT_UNKNOWN_CAP,
    NotPathCompleteError,
    NumericalError,
    Record,
    ResourceLimitError,
    positive_cap,
)
from .graphs import find_unreadable_word
from .lyapunov import (
    QuadraticCertificate,
    assemble_lmi,
    product_growth,
    verify_certificate,
)

# a probe counts as feasible only when its recomputed margin clears this
FEASIBILITY_THRESHOLD = 1e-7

_BISECT_LIMIT = 200
# most words covered by the anchor at the bracket's lower end
_ANCHOR_WORDS = 1000


class MarginSolution(Record):
    """Result of one margin solve.

    margin is the smallest eigenvalue over all blocks at the
    returned assignment (so it is meaningful even when status says the
    optimizer gave up early).  status is one of "optimal",
    "max-iterations", "numerical-failure".  point is the kernel's unknown
    vector (each node's z, then t), weight the barrier weight of the stage
    the kernel stopped in and rho the rate the problem was posed at; passed
    as `start=` to another solve on the same graph, at this rate or another,
    they resume the barrier path there.
    """

    __slots__ = ("margin", "assignment", "iterations", "status", "point",
                 "weight", "rho")

    def __init__(self, margin, assignment, iterations, status, point=None,
                 weight=None, rho=None):
        self._freeze(margin, assignment, iterations, status, point, weight,
                     rho)


def _trace_zero_basis(n):
    """Orthonormal (Frobenius) basis of the trace-zero symmetric matrices,
    stacked as (n(n+1)/2 - 1, n, n)."""
    basis = []
    for j in range(1, n):
        m = np.zeros((n, n))
        for i in range(j):
            m[i, i] = 1.0
        m[j, j] = -float(j)
        basis.append(m / math.sqrt(j * (j + 1)))
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0 / math.sqrt(2.0)
            basis.append(m)
    return np.array(basis).reshape(-1, n, n)


_STATUS_NAMES = {0: "optimal", 1: "max-iterations", 2: "numerical-failure"}


class _MarginProgram:
    """The margin program of one graph and system, posed at one rate at a
    time.

    Block k is c0[k] plus z[index[k, j]] times local[k, j]: slots 0..p-1
    for one node's columns, p..2p-1 for another's (zero on node blocks),
    2p for t.  All directions but the rho^2 B slots are built once: the
    trace-zero basis, the pulled modes -A^T B A, the -I slot of t and the
    index arrays, read from the problem's `ends`.  :meth:`pose` then takes
    c0 from the problem, its blocks at z = 0 (every P_s = I), and writes
    the rate into the rho^2 B slots, so a bisection builds its program
    once and reposes it per probe.  Posing overwrites the arrays, so a
    program serves one solve at a time.
    """

    def __init__(self, problem, cap):
        n = problem.dimension
        basis = _trace_zero_basis(n)
        p = len(basis)
        nodes = len(problem.nodes)
        m1 = nodes * p + 1
        if m1 > cap:
            raise ResourceLimitError(
                f"margin program has {m1} unknowns, above the cap of {cap}"
            )
        count = nodes + len(problem.edges)
        self.basis, self.nodes, self.unknowns = basis, nodes, m1
        self.local = np.zeros((count, 2 * p + 1, n, n))
        self.index = np.full((count, 2 * p + 1), m1 - 1)
        columns = p * np.arange(nodes)[:, None] + np.arange(p)
        self.local[:nodes, :p] = basis
        self.index[:nodes, :p] = self.index[:nodes, p:2 * p] = columns
        r, q, h = problem.ends.T
        pulled = np.array([-(a.T @ basis @ a) for a in problem.modes.values()])
        self.local[nodes:, p:2 * p] = pulled[h]
        self.index[nodes:, :p] = columns[r]
        self.index[nodes:, p:2 * p] = columns[q]
        self.local[:, -1] = -np.eye(n)
        self.c0 = self.problem = None

    def pose(self, problem):
        """Pose `problem`, an LmiProblem on this program's graph and
        system, at its rate; returns the program."""
        identity = np.eye(problem.dimension)
        self.c0 = problem.blocks(dict.fromkeys(problem.nodes, identity))
        self.local[self.nodes:, :len(self.basis)] = (
            float(problem.rho) ** 2 * self.basis)
        self.problem = problem
        return self


def solve_margin(problem, unknown_cap=None, *, sign_only=False, start=None,
                 _certify=False):
    """Maximize the common slack t of all blocks of `problem`.

    Each P_s is I + sum_j z_j B_j over the trace-zero basis B, so the
    unknowns are the z of every node, node by node, and then t.  Every
    block touches at most two nodes and t, so it carries w = 2p + 1
    directions (p = n(n+1)/2 - 1) and the unknown each one scales.  A
    Newton step then costs K w^2 n^2 of block work for K blocks plus one
    dense solve in the m1 unknowns.  The solve refuses problems with more
    scalar unknowns than `unknown_cap` (default
    :data:`pathlyap.errors.DEFAULT_UNKNOWN_CAP`), which must be a positive
    integer.  `problem` is an :class:`~pathlyap.lyapunov.LmiProblem`, whose
    program the solve builds, or a program that :func:`jsr_upper_bound`
    built once for all its probes and posed at the probe's rate; such a
    program was held to the cap when it was built.

    A full solve that does not break down ends at weight exactly
    :data:`pathlyap._kernels.MU_MIN`, the last stage of the kernel's one
    schedule.  With `sign_only`, the solve only decides whether the margin
    clears :data:`FEASIBILITY_THRESHOLD`: it walks the same stages, and the
    kernel stops once the verdict is certified.  The returned margin is
    then recomputed at that point, so its sign against the threshold is
    the verdict but its value is not the optimum.  A solve that no stage
    decides runs to the end.  `_certify` is internal to
    :func:`jsr_upper_bound`'s certifying solve: the kernel then stops at
    the first centred stage of weight mu with K n mu at most the margin
    unknown, so the margin is at least half the optimum, not within
    K n MU_MIN of it.

    `start`, a :class:`MarginSolution` on the same graph and system at
    any rate rho_s, starts the kernel at that solution's point and barrier
    weight instead of at the identity assignment and weight 1.  Its point
    passed a Cholesky factorization of every block at rho_s.  At the new
    rate a node block P_s - t I is unchanged and an edge block changes by
    exactly (rho^2 - rho_s^2) P_r, so lowering t by
    |rho^2 - rho_s^2| max_s ||P_s||_2 keeps every block strictly positive
    definite, also where P_r is indefinite (t < 0).  At the same rate the
    shift is zero and the solve resumes the start's path as it stands.  A
    start does not change what a verdict rests on: the feasible exit is a
    Cholesky factorization of the new blocks, the infeasible exit a
    converged stage end of the new problem, and the margin is recomputed.
    """
    cap = (DEFAULT_UNKNOWN_CAP if unknown_cap is None
           else positive_cap(unknown_cap, "unknown cap"))
    if isinstance(problem, _MarginProgram):
        program, problem = problem, problem.problem
    else:
        program = _MarginProgram(problem, cap).pose(problem)
    c0, m1 = program.c0, program.unknowns

    if start is None:
        worst = np.linalg.eigvalsh(c0)[:, 0].min()
        z0 = np.zeros(m1)
        # start strictly inside the cone: back the margin off from the
        # boundary
        z0[m1 - 1] = worst - 0.5 * (1.0 + abs(worst))
        mu0 = 1.0
    elif (start.point is None or start.rho is None
          or start.point.shape != (m1,)):
        raise ValueError("start is not a solution of this problem")
    else:
        z0, mu0 = start.point.copy(), start.weight
        change = abs(float(problem.rho) ** 2 - float(start.rho) ** 2)
        if change:
            held = np.array(list(start.assignment.values()))
            z0[-1] -= change * np.abs(np.linalg.eigvalsh(held)).max()

    z, iterations, code, weight = barrier_solve(
        c0, program.local, program.index, z0, mu0,
        decide=FEASIBILITY_THRESHOLD if sign_only else None,
        certify=_certify,
    )

    basis = program.basis
    z_nodes = z[:-1].reshape(program.nodes, len(basis))
    stack = np.eye(problem.dimension) + np.tensordot(z_nodes, basis, axes=1)
    assignment = dict(zip(problem.nodes, stack))
    status = _STATUS_NAMES[int(code)]
    margin = (
        float(np.linalg.eigvalsh(problem.blocks(assignment))[:, 0].min())
        if np.all(np.isfinite(z)) else float("nan")
    )
    if not math.isfinite(margin):
        status = "numerical-failure"
    return MarginSolution(
        margin=margin, assignment=assignment,
        iterations=int(iterations), status=status,
        point=z, weight=float(weight), rho=float(problem.rho),
    )


def _anchor_length(symbols):
    """Longest word length L whose words of lengths 1..L over `symbols`
    symbols number at most :data:`_ANCHOR_WORDS` (at least 1).  One symbol
    needs only L = 1: rho(A^k)^(1/k) = rho(A)."""
    if symbols == 1:
        return 1
    length, total = 1, symbols
    while total + symbols ** (length + 1) <= _ANCHOR_WORDS:
        length += 1
        total += symbols ** length
    return length


def _anchor(system):
    """The bracket's lower end: the short-product lower bound on the joint
    spectral radius of `system`."""
    return product_growth(system, _anchor_length(len(system.alphabet)))[0]


def _log_midpoint(lo, hi, anchor, tol):
    """The next probe in (lo, hi), for lo >= anchor and hi - lo > tol.

    The geometric mean of the distances of lo and hi above `anchor`, with
    lo's floored at tol, or the plain midpoint when that is lower: each
    probe halves log((hi - anchor) / max(lo - anchor, tol)) until the ratio
    is small, then halves hi - lo.  The plain midpoint also stands in when
    the geometric step rounds onto an end (its product underflows at tiny
    rates).
    """
    mid = min(0.5 * (lo + hi),
              anchor + math.sqrt(max(lo - anchor, tol) * (hi - anchor)))
    return mid if lo < mid < hi else 0.5 * (lo + hi)


def _chord_root(lo, below, hi, above, tol):
    """The next probe in (lo, hi) from the values below <= 0 < above of its
    ends: where the chord through (lo^2, below) and (hi^2, above) crosses
    zero, in rho^2 because every edge block is affine in rho^2, kept at
    least max(0.1 (hi - lo), tol / 2) inside each end."""
    square = lo * lo + (hi * hi - lo * lo) * (below / (below - above))
    inset = max(0.1 * (hi - lo), 0.5 * tol)
    return min(max(math.sqrt(square), lo + inset), hi - inset)


class _Bracket:
    """The bracket (lo, hi] of a bound and the placement of its probes.

    lo is infeasible (the anchor, then the largest infeasible probe) and hi
    is feasible (the smallest feasible probe).  A probed end carries its
    value, the probe's recomputed margin less :data:`FEASIBILITY_THRESHOLD`;
    the anchor carries none.  Until a probe fails, :meth:`next` splits the
    bracket in log scale above the anchor (:func:`_log_midpoint`), so a
    bound that sits on its anchor probes the same rates as plain log-scale
    bisection.  From then on it probes the root of the chord between the
    ends (:func:`_chord_root`), with the Illinois rule (Dowell & Jarratt,
    BIT 1971): an end that stays put twice in a row has its value halved,
    so the chord does not keep landing beside the other end.  If two chord
    probes in a row leave the bracket more than half as wide as before
    them, the next probe is the midpoint.  So after the first infeasible
    probe the bracket at least halves over each two chord probes, or two
    and the midpoint: any four probes in a row halve it, and a bracket of
    width w then takes at most 3 ceil(log2(w / tol)) more probes.  Only
    where a probe lands depends on the values; which end it moves is its
    verdict alone.
    """

    def __init__(self, anchor, hi, margin, tol):
        self.anchor, self.tol = anchor, tol
        self.lo, self.hi = anchor, hi
        self.below, self.above = None, margin - FEASIBILITY_THRESHOLD
        # the end the last probe moved, and the chord probes since the
        # bracket's width was noted (at most two)
        self.moved, self.chords, self.width = None, 0, 0.0

    def next(self):
        """The next probe's rate, strictly inside the bracket."""
        lo, hi = self.lo, self.hi
        if self.below is None:
            return _log_midpoint(lo, hi, self.anchor, self.tol)
        if self.chords == 2 and hi - lo > 0.5 * self.width:
            self.chords = 0
            return 0.5 * (lo + hi)
        if self.chords != 1:
            self.width, self.chords = hi - lo, 0
        self.chords += 1
        return _chord_root(lo, self.below, hi, self.above, self.tol)

    def update(self, rate, margin):
        """Move the end that the probe at `rate` decides; True when it is
        feasible (margin above the threshold) and so the new hi."""
        value = margin - FEASIBILITY_THRESHOLD
        feasible = margin > FEASIBILITY_THRESHOLD
        if feasible:
            self.hi, self.above = rate, value
            if self.moved == "hi" and self.below is not None:
                self.below *= 0.5
        else:
            self.lo, self.below = rate, value
            if self.moved == "lo":
                self.above *= 0.5
        self.moved = "hi" if feasible else "lo"
        return feasible


class JsrBoundResult(Record):
    """Certified growth-rate upper bound with its probe history.

    trace lists every probed (rho, margin) pair in probe order; the bound
    is the smallest probed rho whose margin cleared the feasibility
    threshold, and it lies within `tolerance` of the largest infeasible
    probe or, above every probe, of the short-product anchor, which is
    infeasible without being probed.  A trace margin is recomputed at the
    point where its probe was decided, which depends on the earlier probe
    it resumed from: its sign against the threshold is the verdict, and it
    is not the optimum; after the first infeasible probe it also places the
    next probe.  certificate comes from a certifying solve at the bound,
    resumed from the point where the bound's probe stopped, and
    re-verified.  That solve ends at the first centred stage whose
    central-path gap K n mu (K blocks of order n) is at most its margin
    unknown, so the certificate's margin is at least half the optimum at
    the bound, or at MU_MIN like a full solve if no stage meets that.
    """

    __slots__ = ("rho_upper", "certificate", "trace", "tolerance")

    def __init__(self, rho_upper, certificate, trace, tolerance):
        self._freeze(rho_upper, certificate, trace, tolerance)

    def to_json(self):
        return {
            "rho_upper": float(self.rho_upper),
            "trace": [[float(r), float(m)] for r, m in self.trace],
            "certificate": self.certificate.to_json(),
        }


def jsr_upper_bound(graph, system, tol=1e-4, require_path_complete=True,
                    unknown_cap=None):
    """Bracket the smallest rho whose margin program is feasible on `graph`.

    Seeds: from below, the anchor, the largest rho(A_w)^(1/|w|) over all
    words of up to L symbols, with L the longest length whose words number
    at most :data:`_ANCHOR_WORDS` (8 for two modes, 5 for three, 1 for one
    mode); :func:`pathlyap.lyapunov.product_growth` eigensolves only their
    Lyndon words (71 for two modes, 80 for three).  No rate at or below
    the joint spectral radius can be certified, so it needs no probe.  From
    above, max(1.01 ||A||, (||A||^2 + 2 FEASIBILITY_THRESHOLD)^(1/2)) with
    ||A|| the largest single-mode 2-norm: there the identity assignment has
    margin min(1, rho^2 - ||A||^2), at least twice the threshold, so this
    seed is feasible also for tiny or zero modes, and its probe failing
    means the solver broke down.  The upper end only moves onto feasible
    probes, so it is the bound.  Probes narrow the bracket
    (:class:`_Bracket`: log scale above the anchor until a probe fails,
    then chord roots through the ends' margins, safeguarded by midpoints)
    until it is narrower than `tol`, so the returned bound is within `tol`
    of the largest infeasible rate, probed or the anchor.  Each probe after
    the first starts from the earlier probe nearest in rate (`start=` of
    :func:`solve_margin`), or from the cold start if the kernel refuses
    that shifted point, which only rounding can cause.  The bound's probe
    is then solved once more, resumed from where it stopped, by a
    certifying solve that ends at half the optimum, and its certificate is
    verified.  Every solve of the call runs on one margin program, built at
    the first probe and posed at each probe's rate; each probe still
    assembles its own LmiProblem, which checks the rate.

    `unknown_cap` is checked first, and must be a positive integer.  Raises
    NotPathCompleteError on graphs with unreadable words unless
    `require_path_complete` is False, in which case it warns and bounds only
    what the graph reads (the bracket still starts at the system's anchor),
    and NumericalError when the square of the upper seed overflows or a
    solve breaks down.
    """
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError("tol must be positive and finite")
    cap = (DEFAULT_UNKNOWN_CAP if unknown_cap is None
           else positive_cap(unknown_cap, "unknown cap"))
    witness = find_unreadable_word(graph)
    if witness is not None:
        if require_path_complete:
            raise NotPathCompleteError(witness)
        warnings.warn(
            "graph is not path-complete; the bound only constrains "
            "switching sequences the graph can read",
            UserWarning,
            stacklevel=2,
        )

    solutions = []

    def solved(problem, start, **mode):
        # every solve poses the one program at its problem's rate
        sol = solve_margin(program.pose(problem), start=start, **mode)
        if (start is not None and sol.status == "numerical-failure"
                and sol.iterations == 0):
            # the kernel refused the shifted start, which only rounding can
            # cause: solve from the cold start instead
            sol = solve_margin(program, **mode)
        if sol.status == "numerical-failure":
            raise NumericalError(
                f"margin solve broke down at rate {problem.rho}"
            )
        return sol

    def probe(problem):
        # resume from the earlier probe nearest in rate
        start = min(solutions, key=lambda s: abs(s.rho - problem.rho),
                    default=None)
        sol = solved(problem, start, sign_only=True)
        solutions.append(sol)
        return problem, sol

    anchor = _anchor(system)
    # the identity assignment has margin min(1, hi^2 - norm^2), at least
    # twice the threshold: hi is feasible, and every later probe lies below
    norm = max(np.linalg.norm(a, 2) for a in system.modes.values())
    hi = float(max(1.01 * norm,
                   math.hypot(norm, math.sqrt(2.0 * FEASIBILITY_THRESHOLD))))
    if not math.isfinite(hi * hi):
        raise NumericalError(f"rate {hi} squared overflows")
    first = assemble_lmi(graph, system, hi)
    # the rate-free parts of the program, built once for every probe
    program = _MarginProgram(first, cap)
    bound = probe(first)
    if not bound[1].margin > FEASIBILITY_THRESHOLD:
        raise NumericalError(
            f"margin solve at rate {hi} missed the identity certificate"
        )

    bracket = _Bracket(anchor, hi, bound[1].margin, tol)
    steps = 0
    while bracket.hi - bracket.lo > tol:
        steps += 1
        if steps > _BISECT_LIMIT:
            raise NumericalError("bisection failed to narrow the bracket")
        mid = bracket.next()
        candidate = probe(assemble_lmi(graph, system, mid))
        if bracket.update(mid, candidate[1].margin):
            bound = candidate
    hi = bracket.hi

    # the probes only decided signs: certify the bound from a solve resumed
    # where the bound's probe stopped, which ends at half the optimum
    problem, bound_probe = bound
    solution = solved(problem, bound_probe, _certify=True)
    cert = QuadraticCertificate(graph, solution.assignment, hi)
    report = verify_certificate(cert, system)
    if not report.ok:
        raise NumericalError(
            "certificate from the smallest feasible probe failed "
            "independent verification"
        )
    # the certificate carries the margin its independent check found
    return JsrBoundResult(
        rho_upper=hi,
        certificate=QuadraticCertificate(graph, cert.P, hi,
                                         margin=report.margin),
        trace=tuple((s.rho, float(s.margin)) for s in solutions),
        tolerance=float(tol),
    )
