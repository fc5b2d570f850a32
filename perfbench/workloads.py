"""Workloads of the pathlyap benchmark: seeded inputs, operations, and the
correctness gate.

A workload builds its inputs from the run's seed and exposes one pass as a
list of operations, run one at a time (closed loop, one client).  Each
operation calls the library through module attributes, so the traced run
sees it, and returns the list of gate failures it found; an empty list means
its outputs were checked and found correct.

Seeds change the inputs but not the amount of work:

* demo-ladder and wide-3x3 apply a seeded orthogonal change of basis to a
  fixed system.  The joint spectral radius, the bisection bracket and the
  margin programs (up to an orthogonal change of variables) are invariant
  under it, so every seed runs the same number of probes and Newton steps
  while the matrices differ.  Without this, a fresh random 3x3 system per
  seed moves an order-2 bound between about 5 and 16 seconds.
* covering relabels and reorders the nodes of fixed De Bruijn graphs and
  draws 200 small random graphs, whose total search time varies little.
"""

import importlib
import itertools
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

TOL = 1e-4
REFERENCE_TOL = 1e-3
# README reproduction table for the bundled demo system
DEMO_REFERENCE = {"db1": 3.9224, "mixed": 3.9174, "db2": 3.9174}
DEMO_LOWER_LENGTH = 14
WIDE_LOWER_LENGTH = 8
# fixed draw for the wide-3x3 base system: its order-2 bound is strictly
# tighter than its order-1 bound (the refinement matters) and one pass fits
# the run time; draws 0, 2, 3 and 4 have jsr equal to the largest single-mode
# spectral radius, and draw 1 costs about 19 s per pass
WIDE_BASE_SEED = 5
RANDOM_GRAPHS = 200
CLI_TIMEOUT_S = 120


def _modules():
    """The pathlyap modules, looked up after each fresh import.

    By module path: the package's own ``simulate`` attribute is a function.
    """
    names = ("covering", "fixtures", "graphs", "lyapunov", "observer", "sdp",
             "simulate")
    return SimpleNamespace(**{
        name: importlib.import_module(f"pathlyap.{name}") for name in names
    })


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotated(lib, system, q):
    modes = {s: q.T @ system.modes[s] @ q for s in system.alphabet}
    return lib.lyapunov.SwitchedLinearSystem(
        system.alphabet, system.dimension, modes
    )


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def check_certificate(lib, label, cert, system):
    report = lib.lyapunov.verify_certificate(cert, system)
    if report.ok:
        return []
    return [f"{label}: certificate at rho={cert.rho!r} failed verification "
            f"(margin {report.margin:.3e})"]


def check_bracket(label, upper, lower):
    if upper >= lower:
        return []
    return [f"{label}: upper bound {upper!r} is below lower bound {lower!r}"]


def check_reference(label, value, reference):
    if abs(value - reference) <= REFERENCE_TOL:
        return []
    return [f"{label}: bound {value!r} is not within {REFERENCE_TOL} "
            f"of {reference}"]


def check_same_graph(label, got, want):
    problems = []
    if set(got.nodes) != set(want.nodes):
        problems.append(f"{label}: node sets differ")
    if set(got.edges) != set(want.edges):
        problems.append(f"{label}: edge sets differ")
    return problems


def reads(graph, word):
    """Whether some path of `graph` reads `word` (most recent symbol first)."""
    current = set(graph.nodes)
    for symbol in reversed(word):
        current = {q for p, q, h in graph.edges if h == symbol and p in current}
    return bool(current)


def check_unreadable(label, graph, witness):
    if witness and not reads(graph, witness):
        return []
    return [f"{label}: witness {witness!r} has a reading path"]


def run_cli(root, args):
    """Run the pathlyap CLI in a fresh process.

    Returns (wall seconds, exit code, stdout, stderr).
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (":" + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pathlyap.cli", *args],
        capture_output=True, text=True, env=env, cwd=root,
        timeout=CLI_TIMEOUT_S,
    )
    return time.perf_counter() - start, out.returncode, out.stdout, out.stderr


# ---------------------------------------------------------------------------
# solver workloads
# ---------------------------------------------------------------------------

class SolverWorkload:
    """Certified upper bounds on a ladder of graphs, a brute-force lower
    bound, a re-verify of every certificate, and CLI bounds."""

    def __init__(self, lib, root, system, graphs, lower_length, references,
                 cli_args, cli_system, cli_label):
        self.lib = lib
        self.root = root
        self.system = system
        self.graphs = graphs
        self.lower_length = lower_length
        self.references = references
        self.cli_args = cli_args
        self.cli_system = cli_system
        self.cli_label = cli_label
        self.lower = None
        self.bounds = {}
        self.cli_seconds = []

    def warm_up(self):
        _, graph = self.graphs[0]
        rho = 1.01 * max(np.linalg.norm(a, 2)
                         for a in self.system.modes.values())
        self.lib.sdp.solve_margin(
            self.lib.lyapunov.assemble_lmi(graph, self.system, rho)
        )

    def operations(self):
        """The lower bound, then each upper bound; a CLI call follows the
        bound it is compared with and each later one, so that CLI calls are
        spread through the pass and its fastest call is taken across the
        whole run."""
        self.lower = None
        self.bounds = {}
        ops = [("lower", self._lower)]
        calls = 0
        for label, graph in self.graphs:
            ops.append((label, self._bound_op(label, graph)))
            if calls or label == self.cli_label:
                ops.append((f"cli#{calls}", self._cli))
                calls += 1
        return ops

    def _lower(self):
        rho, word = self.lib.simulate.jsr_lower_bound(
            self.system, self.lower_length
        )
        self.lower = rho
        return [] if word else ["lower: no witness word"]

    def _bound_op(self, label, graph):
        def op():
            result = self.lib.sdp.jsr_upper_bound(graph, self.system, tol=TOL)
            self.bounds[label] = result
            return self._check_bound(label, result.rho_upper,
                                     result.certificate, self.system,
                                     self.references.get(label))

        return op

    def _check_bound(self, label, rho, cert, system, reference):
        problems = check_certificate(self.lib, label, cert, system)
        if self.lower is None:
            problems.append(f"{label}: no lower bound to compare with")
        else:
            problems += check_bracket(label, rho, self.lower)
        if reference is not None:
            problems += check_reference(label, rho, reference)
        return problems

    def _cli(self):
        seconds, code, stdout, stderr = run_cli(self.root, self.cli_args)
        self.cli_seconds.append(seconds)
        if code != 0:
            return [f"cli: exit code {code}: {stderr.strip()[-300:]}"]
        data = json.loads(stdout)
        cert = self.lib.lyapunov.certificate_from_json(data["certificate"])
        rho = float(data["rho_upper"])
        problems = self._check_bound("cli", rho, cert, self.cli_system,
                                     self.references.get(self.cli_label))
        same = self.bounds.get(self.cli_label)
        if same is None:
            problems.append(f"cli: no in-process {self.cli_label} bound")
        elif abs(rho - same.rho_upper) > TOL:
            problems.append(f"cli: bound {rho!r} differs from the in-process "
                            f"{self.cli_label} bound {same.rho_upper!r}")
        return problems

    def rel_gap(self):
        if not self.bounds or self.lower is None:
            return None
        return max((r.rho_upper - self.lower) / self.lower
                   for r in self.bounds.values())

    def describe(self):
        lines = [f"lower bound (length {self.lower_length}): {self.lower!r}"]
        for label, result in self.bounds.items():
            lines.append(f"{label}: rho_upper {result.rho_upper!r}, "
                         f"{len(result.trace)} probes")
        return lines

    def self_test(self):
        """Corrupted outputs the gate must each count as a failure."""
        label, result = next(iter(self.bounds.items()))
        cert = result.certificate
        lowered = self.lib.lyapunov.QuadraticCertificate(
            cert.graph, cert.P, 0.9 * cert.rho
        )
        tests = [(f"self-test {label} rho lowered 10%",
                  lambda: check_certificate(self.lib, label, lowered,
                                            self.system))]
        if label in self.references:
            perturbed = 1.01 * result.rho_upper
            tests.append((f"self-test {label} bound perturbed 1%",
                          lambda: check_reference(
                              label, perturbed, self.references[label])))
        return tests


def demo_ladder(seed, root, tmp):
    lib = _modules()
    demo = lib.fixtures.demo_system()
    system = rotated(lib, demo, random_orthogonal(
        demo.dimension, np.random.default_rng(seed)))
    graphs = [
        ("db1", lib.fixtures.de_bruijn_1_graph()),
        ("mixed", lib.fixtures.mixed_horizon_graph()),
        ("db2", lib.fixtures.de_bruijn_2_graph()),
        ("db3", lib.graphs.de_bruijn(demo.alphabet, 3)),
        ("db4", lib.graphs.de_bruijn(demo.alphabet, 4)),
    ]
    data = root / "src" / "pathlyap" / "data"
    cli_args = ["jsr", "upper", "--graph", str(data / "debruijn2.json"),
                "--system", str(data / "demo_system.json"),
                "--tol", repr(TOL), "--format", "json"]
    return SolverWorkload(lib, root, system, graphs, DEMO_LOWER_LENGTH,
                          DEMO_REFERENCE, cli_args, demo, "db2")


def wide_base_system(lib):
    """Three random 3x3 modes scaled to largest spectral radius 1."""
    rng = np.random.default_rng(WIDE_BASE_SEED)
    alphabet = ("a", "b", "c")
    modes = {s: rng.standard_normal((3, 3)) for s in alphabet}
    radius = max(max(abs(np.linalg.eigvals(m))) for m in modes.values())
    return lib.lyapunov.SwitchedLinearSystem(
        alphabet, 3, {s: m / radius for s, m in modes.items()}
    )


def wide_3x3(seed, root, tmp):
    lib = _modules()
    system = rotated(lib, wide_base_system(lib), random_orthogonal(
        3, np.random.default_rng(seed)))
    graphs = [("order1", lib.graphs.de_bruijn(system.alphabet, 1)),
              ("order2", lib.graphs.de_bruijn(system.alphabet, 2))]
    graph_path = tmp / "wide-order1.json"
    system_path = tmp / "wide-system.json"
    graph_path.write_text(json.dumps(graphs[0][1].to_json()))
    system_path.write_text(json.dumps(system.to_json()))
    cli_args = ["jsr", "upper", "--graph", str(graph_path),
                "--system", str(system_path),
                "--tol", repr(TOL), "--format", "json"]
    return SolverWorkload(lib, root, system, graphs, WIDE_LOWER_LENGTH, {},
                          cli_args, system, "order1")


# ---------------------------------------------------------------------------
# combinatorial workload
# ---------------------------------------------------------------------------

def relabeled(lib, graph, rng):
    """The same graph with nodes renamed and listed in a seeded order."""
    order = rng.permutation(len(graph.nodes))
    names = {graph.nodes[i]: f"v{j}" for j, i in enumerate(order)}
    nodes = tuple(names[graph.nodes[i]] for i in order)
    edges = [(names[p], names[q], h) for p, q, h in graph.edges]
    return lib.graphs.LabeledGraph(graph.alphabet, nodes, edges)


def random_graph(lib, rng, complete):
    """8 to 14 nodes over 2 or 3 symbols with 0 to 2 targets per (node,
    symbol); complete graphs have at least one, so they are path-complete."""
    alphabet = ("a", "b", "c")[: int(rng.integers(2, 4))]
    n = int(rng.integers(8, 15))
    nodes = tuple(f"v{i}" for i in range(n))
    edges = []
    for node in nodes:
        for symbol in alphabet:
            size = int(rng.integers(1 if complete else 0, 3))
            edges += [(node, nodes[t], symbol)
                      for t in rng.choice(n, size=size, replace=False)]
    return lib.graphs.LabeledGraph(alphabet, nodes, edges)


class CoveringWorkload:
    """Observer, covering family and back on two De Bruijn graphs, prefix
    coverings on their stems, unreadable-word search on random graphs, and
    CLI covering-to-graph translations.  No solver work."""

    def __init__(self, seed, root, tmp):
        lib = self.lib = _modules()
        self.root = root
        rng = np.random.default_rng(seed)
        self.bases = []
        self.stems = []
        for alphabet, order in ((("a", "b"), 5), (("a", "b", "c"), 3)):
            label = f"{len(alphabet)}sym-order{order}"
            graph = lib.graphs.de_bruijn(alphabet, order)
            self.bases.append((label, relabeled(lib, graph, rng)))
            stems = list(itertools.product(alphabet, repeat=order))
            self.stems.append((label, alphabet,
                               [stems[i] for i in rng.permutation(len(stems))]))
        self.random = [(i, i % 2 == 0, random_graph(lib, rng, i % 2 == 0))
                       for i in range(RANDOM_GRAPHS)]
        cli_graph = relabeled(lib, lib.graphs.de_bruijn(("a", "b"), 4), rng)
        cli_observer = lib.observer.observer_graph(cli_graph)
        family = lib.covering.observer_to_covering(cli_observer)
        family_path = tmp / "covering.json"
        family_path.write_text(json.dumps(family.to_json()))
        self.cli_expected = cli_observer.graph
        self.cli_args = ["covering", "to-graph", str(family_path),
                         "--format", "json"]
        self.cli_seconds = []
        self.last = {}

    def warm_up(self):
        small = self.lib.graphs.de_bruijn(("a", "b"), 2)
        family = self.lib.covering.observer_to_covering(
            self.lib.observer.observer_graph(small)
        )
        self.lib.covering.covering_to_graph(family)

    def operations(self):
        """Round trips, prefix coverings and unreadable-word searches, with
        one CLI call in the middle of the pass and one at its end."""
        ops = [(f"observer-covering:{label}", self._round_trip_op(label, g))
               for label, g in self.bases]
        ops += [(f"prefix-covering:{label}", self._prefix_op(label, a, s))
                for label, a, s in self.stems]
        ops.append(("cli#0", self._cli))
        ops += [(f"unreadable#{i}", self._unreadable_op(i, complete, g))
                for i, complete, g in self.random]
        ops.append(("cli#1", self._cli))
        return ops

    def _round_trip_op(self, label, graph):
        def op():
            obs = self.lib.observer.observer_graph(graph)
            family = self.lib.covering.observer_to_covering(obs)
            report = self.lib.covering.validate_covering(family)
            rebuilt, _ = self.lib.covering.covering_to_graph(family)
            self.last[label] = (obs.graph, rebuilt)
            problems = [] if report.ok else [f"{label}: covering invalid"]
            return problems + check_same_graph(label, rebuilt, obs.graph)

        return op

    def _prefix_op(self, label, alphabet, stems):
        def op():
            family = self.lib.covering.prefix_covering(stems, alphabet)
            if len(family.members) != len(stems):
                return [f"{label}: {len(family.members)} members for "
                        f"{len(stems)} stems"]
            return []

        return op

    def _unreadable_op(self, index, complete, graph):
        label = f"random graph {index}"

        def op():
            witness = self.lib.graphs.find_unreadable_word(graph)
            if witness is None:
                return []
            if complete:
                return [f"{label}: complete graph reported unreadable "
                        f"word {witness!r}"]
            return check_unreadable(label, graph, witness)

        return op

    def _cli(self):
        seconds, code, stdout, stderr = run_cli(self.root, self.cli_args)
        self.cli_seconds.append(seconds)
        if code != 0:
            return [f"cli: exit code {code}: {stderr.strip()[-300:]}"]
        got = self.lib.graphs.graph_from_json(json.loads(stdout))
        return check_same_graph("cli", got, self.cli_expected)

    def rel_gap(self):
        return None

    def describe(self):
        return [f"{label}: {len(obs.nodes)} members, {len(obs.edges)} edges"
                for label, (obs, _) in self.last.items()]

    def self_test(self):
        """Corrupted outputs the gate must each count as a failure."""
        label, (obs, rebuilt) = next(iter(self.last.items()))
        dropped = self.lib.graphs.LabeledGraph(
            rebuilt.alphabet, rebuilt.nodes, rebuilt.edges[1:]
        )
        _, _, graph = next(r for r in self.random if r[1])
        readable = (graph.alphabet[0],)
        return [
            (f"self-test {label} edge dropped",
             lambda: check_same_graph(label, dropped, obs)),
            ("self-test readable witness",
             lambda: check_unreadable("random graph 0", graph, readable)),
        ]


WORKLOADS = {
    "demo-ladder": demo_ladder,
    "wide-3x3": wide_3x3,
    "covering": CoveringWorkload,
}
