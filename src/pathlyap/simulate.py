"""Trajectories, brute-force growth lower bounds, and decrease checks.

Words here are in trajectory time order: index 0 is the first symbol
applied.  That is the reverse of the convention in the language layer,
where index 0 is the most recent symbol; the decrease checker bridges the
two by walking member structures forward in time.
"""

import math

import numpy as np

from .automata import accepts
from .covering import CoveringFamily, covering_to_graph
from .errors import (
    InvariantViolation,
    Record,
    ResourceLimitError,
    integer,
    state_cap,
)
from .lyapunov import evaluate_mblf, product_growth
from .observer import ObserverGraph

DEFAULT_SEED = 1729


class Trajectory(Record):
    """States x(0..K) under word: states[k+1] = A_{word[k]} @ states[k]."""

    __slots__ = ("states", "word")

    def __init__(self, states, word):
        self._freeze(states, word)

    def to_json(self):
        return {
            "word": list(self.word),
            "states": [[float(v) for v in x] for x in self.states],
        }


def simulate(sys, word, x0):
    """Iterate the system along `word` (time order) from x0."""
    word = tuple(word)
    for sym in word:
        if sym not in sys.modes:
            raise ValueError(f"symbol {sym!r} is not a mode of the system")
    x = np.asarray(x0, dtype=float)
    if x.shape != (sys.dimension,):
        raise ValueError(
            f"expected a state vector of length {sys.dimension}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("x0: entries must be finite")
    states = [x]
    for sym in word:
        states.append(sys.modes[sym] @ states[-1])
    return Trajectory(states=states, word=word)


def jsr_lower_bound(sys, max_len, cap=None):
    """Largest spectral-radius(A_w)^(1/|w|) over words with 1 <= |w| <= max_len.

    Exhaustive over every word up to max_len: a rotation of a word, or a
    power of it, has its rate, so
    :func:`pathlyap.lyapunov.product_growth` forms only the products of
    pre-necklaces and eigensolves only the Lyndon words, scaled so that no
    product overflows or underflows.  The witness is the shortest, then
    lexicographically first (in alphabet order), word attaining the
    maximum, reported in time order.  Raises ResourceLimitError when the
    count of every word up to max_len would exceed the cap.
    """
    max_len = integer(max_len, "max_len")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    limit = state_cap(cap)
    n_sym = len(sys.alphabet)
    total = sum(n_sym ** length for length in range(1, max_len + 1))
    if total > limit:
        raise ResourceLimitError(
            f"enumerating {total} words, above the cap of {limit}"
        )

    return product_growth(sys, max_len)


class DecreaseReport(Record):
    """Outcome of sampled decrease checks along member chains."""

    __slots__ = ("trials", "passes", "failures", "worst_slack", "seed",
                 "gamma", "envelope_ratio", "tolerance", "violations")

    def __init__(self, trials, passes, failures, worst_slack, seed, gamma,
                 envelope_ratio, tolerance, violations):
        self._freeze(trials, passes, failures, worst_slack, seed, gamma,
                     envelope_ratio, tolerance, violations)

    def to_json(self):
        fields = {name: getattr(self, name) for name in self.__slots__}
        return dict(fields, violations=[dict(v) for v in self.violations])


def _structure_walk(structure):
    """Graph, members containing the empty word, and successor lists."""
    if isinstance(structure, ObserverGraph):
        graph = structure.graph
        starts = [structure.root]
    elif isinstance(structure, CoveringFamily):
        graph, _ = covering_to_graph(structure)
        starts = [
            m.name for m in structure.members if accepts(m.automaton, ())
        ]
    else:
        raise ValueError(
            "structure must be an ObserverGraph or a CoveringFamily"
        )
    return graph, starts, graph.out_map()


def trajectory_decrease_check(w_fn, structure, sys, rho_prime, trials=100,
                              horizon=20, seed=None, tolerance=1e-9):
    """Sample trajectories and check the scaled decrease along member chains.

    Each trial draws x0 and a word of length `horizon`, walks the member
    chain from the first member containing the empty word, and at every
    step checks W(B, x_k / rho_prime^k) <= gamma^k W(B_0, x0) + tolerance
    for EVERY admissible next member B (gamma = (rho / rho_prime)^2); the
    chain then advances to the first admissible member in member order.
    When all member quadratics are positive definite the induced norm
    envelope |x_k / rho_prime^k|^2 <= ratio * gamma^k |x0|^2 is checked as
    well, with ratio the worst upper-to-lower quadratic constant.

    A missing successor is an InvariantViolation: validated coverings and
    observers always have one.
    """
    if not math.isfinite(rho_prime):
        raise ValueError("rho_prime must be finite")
    if rho_prime <= w_fn.rho:
        raise ValueError("rho_prime must exceed the certified rate")
    if not 0 <= tolerance < math.inf:
        raise ValueError("tolerance must be non-negative and finite")
    trials, horizon = integer(trials, "trials"), integer(horizon, "horizon")
    for name, value in (("trials", trials), ("horizon", horizon)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    used_seed = DEFAULT_SEED if seed is None else integer(seed, "seed")
    graph, starts, successors = _structure_walk(structure)
    if set(graph.nodes) != set(w_fn.members):
        raise ValueError(
            "structure members do not match the function's members"
        )
    if set(graph.alphabet) != set(sys.alphabet):
        raise ValueError("structure and system alphabets differ")
    if w_fn.dimension != sys.dimension:
        raise ValueError("function and system dimensions differ")
    if not starts:
        raise InvariantViolation("no member contains the empty word")
    start = starts[0]

    gamma = (float(w_fn.rho) / float(rho_prime)) ** 2
    spectra = [[np.linalg.eigvalsh(p) for p in w_fn.members[name]]
               for name in graph.nodes]
    a1 = min(max(float(e[0]) for e in member) for member in spectra)
    top = max(float(e[-1]) for member in spectra for e in member)
    ratio = (top / a1) if a1 > 0 else None

    rng = np.random.default_rng(used_seed)

    alphabet = graph.alphabet
    violations = []
    worst = math.inf
    failures = 0
    for trial in range(trials):
        x0 = rng.standard_normal(sys.dimension)
        word = tuple(
            alphabet[i]
            for i in rng.integers(0, len(alphabet), size=horizon)
        )
        states = simulate(sys, word, x0).states
        w0 = evaluate_mblf(w_fn, start, x0)
        norm0 = float(x0 @ x0)
        current = start
        bad = 0
        # 1 / rho_prime^(k+1), built one step at a time: a huge rho_prime
        # underflows it to 0, where rho_prime ** (k + 1) would overflow
        scale = 1.0
        for k, sym in enumerate(word):
            nexts = successors.get((current, sym), ())
            if not nexts:
                raise InvariantViolation(
                    f"member {current!r} has no successor for symbol "
                    f"{sym!r}; the structure is not prepend-closed"
                )
            scale /= float(rho_prime)
            xk = states[k + 1] * scale
            bound = gamma ** (k + 1) * w0
            for candidate in nexts:
                value = evaluate_mblf(w_fn, candidate, xk)
                slack = bound - value
                worst = min(worst, slack)
                if slack < -tolerance:
                    bad += 1
                    violations.append({
                        "kind": "decrease", "trial": trial,
                        "word": list(word), "step": k + 1,
                        "member": candidate, "value": value, "bound": bound,
                    })
            if ratio is not None:
                env_bound = ratio * gamma ** (k + 1) * norm0
                env_value = float(xk @ xk)
                slack = env_bound - env_value
                worst = min(worst, slack)
                if slack < -tolerance:
                    bad += 1
                    violations.append({
                        "kind": "envelope", "trial": trial,
                        "word": list(word), "step": k + 1,
                        "member": current, "value": env_value,
                        "bound": env_bound,
                    })
            current = nexts[0]
        if bad:
            failures += 1
    if worst is math.inf:
        worst = 0.0
    return DecreaseReport(
        trials=trials, passes=trials - failures, failures=failures,
        worst_slack=float(worst), seed=used_seed, gamma=gamma,
        envelope_ratio=ratio, tolerance=float(tolerance),
        violations=tuple(violations),
    )
