"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's side only: each traced public name
is replaced, at the module attribute where its caller looks it up (for
example ``pathlyap.sdp.barrier_solve``, the name ``solve_margin`` calls), by
a wrapper that records one span per call.  Library code is not changed.

A span is ``[id, parent id, operation id, name, start, end]``.  Spans stay
in memory and are written out once, when the run ends.  A layer's self time
is its spans' durations minus the durations of their direct child spans.

A lookup site that no longer exists is recorded as absent, and every layer
metric that depends only on absent sites is reported as absent; the run
goes on.
"""

import functools
import json
import time
from collections import defaultdict

def _count_newton(add, module, args, kwargs, result):
    add("newton_iters", int(result[1]))


def _count_probe(add, module, args, kwargs, result):
    add("probes", 1)
    add("feasible", int(result.margin > module.FEASIBILITY_THRESHOLD))
    add("nonoptimal", int(result.status != "optimal"))


def _count_words(add, module, args, kwargs, result):
    system = args[0] if args else kwargs["sys"]
    max_len = int(args[1] if len(args) > 1 else kwargs["max_len"])
    symbols = len(system.alphabet)
    add("words", sum(symbols ** length for length in range(1, max_len + 1)))


def _count_subsets(add, module, args, kwargs, result):
    add("subsets", len(result.graph.nodes))


# (module, attribute, span name, counter or None, counter keys)
SITES = (
    ("pathlyap.sdp", "barrier_solve", "_kernels.barrier_solve",
     _count_newton, ("newton_iters",)),
    ("pathlyap.sdp", "solve_margin", "sdp.solve_margin",
     _count_probe, ("probes", "feasible", "nonoptimal")),
    ("pathlyap.sdp", "jsr_upper_bound", "sdp.jsr_upper_bound", None, ()),
    ("pathlyap.sdp", "assemble_lmi", "lyapunov.assemble_lmi", None, ()),
    ("pathlyap.sdp", "verify_certificate", "lyapunov.verify_certificate",
     None, ()),
    ("pathlyap.lyapunov", "verify_certificate",
     "lyapunov.verify_certificate", None, ()),
    ("pathlyap.simulate", "jsr_lower_bound", "simulate.jsr_lower_bound",
     _count_words, ("words",)),
    ("pathlyap.sdp", "find_unreadable_word", "graphs.find_unreadable_word",
     None, ()),
    ("pathlyap.graphs", "find_unreadable_word",
     "graphs.find_unreadable_word", None, ()),
    ("pathlyap.observer", "observer_graph", "observer.observer_graph",
     _count_subsets, ("subsets",)),
    ("pathlyap.covering", "observer_graph", "observer.observer_graph",
     _count_subsets, ("subsets",)),
    ("pathlyap.covering", "language_includes", "automata.language_includes",
     None, ()),
    ("pathlyap.covering", "universality_witness",
     "automata.universality_witness", None, ()),
    ("pathlyap.covering", "observer_to_covering",
     "covering.observer_to_covering", None, ()),
    ("pathlyap.covering", "validate_covering", "covering.validate_covering",
     None, ()),
    ("pathlyap.covering", "covering_to_graph", "covering.covering_to_graph",
     None, ()),
    ("pathlyap.covering", "prefix_covering", "covering.prefix_covering",
     None, ()),
)


def _self(span):
    return lambda p: p["self"].get(span, 0.0)


def _calls(span):
    return lambda p: p["calls"].get(span, 0)


def _count(key):
    return lambda p: p["counts"].get(key, 0)


def _per_newton(p):
    iters = p["counts"].get("newton_iters", 0)
    return p["total"].get("_kernels.barrier_solve", 0.0) / iters if iters else 0.0


def _feasible_share(p):
    probes = p["counts"].get("probes", 0)
    return p["counts"].get("feasible", 0) / probes if probes else 0.0


# (metric, unit, better, value from one pass's aggregates,
#  spans or counter keys it needs, whether it repeats exactly); metric names
#  must start with a letter, so the _kernels layer is reported as "kernels"
LAYER_METRICS = (
    ("kernels.barrier_solve.self_s", "s", "lower",
     _self("_kernels.barrier_solve"), ("_kernels.barrier_solve",), False),
    ("kernels.newton_iters", "count", "lower",
     _count("newton_iters"), ("newton_iters",), True),
    ("kernels.s_per_newton", "s", "lower",
     _per_newton, ("_kernels.barrier_solve", "newton_iters"), False),
    ("sdp.solve_margin.self_s", "s", "lower",
     _self("sdp.solve_margin"), ("sdp.solve_margin",), False),
    ("sdp.probes", "count", "lower", _count("probes"), ("probes",), True),
    ("sdp.feasible_share", "share", "higher",
     _feasible_share, ("probes", "feasible"), True),
    ("sdp.nonoptimal", "count", "lower",
     _count("nonoptimal"), ("nonoptimal",), True),
    ("sdp.jsr_upper_bound.self_s", "s", "lower",
     _self("sdp.jsr_upper_bound"), ("sdp.jsr_upper_bound",), False),
    ("lyapunov.assemble_lmi.calls", "count", "lower",
     _calls("lyapunov.assemble_lmi"), ("lyapunov.assemble_lmi",), True),
    ("lyapunov.assemble_lmi.self_s", "s", "lower",
     _self("lyapunov.assemble_lmi"), ("lyapunov.assemble_lmi",), False),
    ("lyapunov.verify_certificate.calls", "count", "lower",
     _calls("lyapunov.verify_certificate"),
     ("lyapunov.verify_certificate",), True),
    ("lyapunov.verify_certificate.self_s", "s", "lower",
     _self("lyapunov.verify_certificate"),
     ("lyapunov.verify_certificate",), False),
    ("simulate.jsr_lower_bound.self_s", "s", "lower",
     _self("simulate.jsr_lower_bound"), ("simulate.jsr_lower_bound",), False),
    ("simulate.words", "count", "lower", _count("words"), ("words",), True),
    ("graphs.find_unreadable_word.calls", "count", "lower",
     _calls("graphs.find_unreadable_word"),
     ("graphs.find_unreadable_word",), True),
    ("graphs.find_unreadable_word.self_s", "s", "lower",
     _self("graphs.find_unreadable_word"),
     ("graphs.find_unreadable_word",), False),
    ("observer.observer_graph.self_s", "s", "lower",
     _self("observer.observer_graph"), ("observer.observer_graph",), False),
    ("observer.subsets", "count", "lower",
     _count("subsets"), ("subsets",), True),
    ("automata.language_includes.calls", "count", "lower",
     _calls("automata.language_includes"),
     ("automata.language_includes",), True),
    ("automata.language_includes.self_s", "s", "lower",
     _self("automata.language_includes"),
     ("automata.language_includes",), False),
    ("automata.universality_witness.self_s", "s", "lower",
     _self("automata.universality_witness"),
     ("automata.universality_witness",), False),
    ("covering.observer_to_covering.self_s", "s", "lower",
     _self("covering.observer_to_covering"),
     ("covering.observer_to_covering",), False),
    ("covering.validate_covering.self_s", "s", "lower",
     _self("covering.validate_covering"),
     ("covering.validate_covering",), False),
    ("covering.covering_to_graph.self_s", "s", "lower",
     _self("covering.covering_to_graph"),
     ("covering.covering_to_graph",), False),
    ("covering.prefix_covering.self_s", "s", "lower",
     _self("covering.prefix_covering"),
     ("covering.prefix_covering",), False),
)


class Tracer:
    """Wraps the traced names and keeps every span and count in memory."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self.missing = set()
        self.op = -1
        self._stack = []
        self._pass_starts = []
        self._pass_counts = []

    def install(self, modules):
        """Wrap every site in SITES; `modules` maps module names to modules."""
        present = set()
        for module_name, attr, span, counter, keys in SITES:
            module = modules.get(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.add(f"{module_name}.{attr}")
                continue
            setattr(module, attr,
                    self._wrap(original, module, span, counter, keys))
            present.add(span)
            present.update(keys)
        self.missing.update(
            name for name, *_, needs, _ in LAYER_METRICS
            if not all(n in present for n in needs)
        )

    def _add(self, key, amount):
        counts = self._pass_counts[-1]
        counts[key] = counts.get(key, 0) + amount

    def _wrap(self, original, module, span, counter, keys):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            row = [len(self.spans), self._stack[-1] if self._stack else None,
                   self.op, span, time.perf_counter(), None]
            self.spans.append(row)
            self._stack.append(row[0])
            try:
                result = original(*args, **kwargs)
            finally:
                row[5] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    counter(self._add, module, args, kwargs, result)
                except (TypeError, IndexError, KeyError, AttributeError):
                    # the traced name changed shape: its counts are absent
                    self.absent.update(f"counter {key}" for key in keys)
                    self.missing.update(
                        name for name, *_, needs, _ in LAYER_METRICS
                        if set(needs) & set(keys)
                    )
            return result

        return traced

    def begin_op(self):
        """Spans recorded from here on share a new operation id."""
        self.op += 1

    def begin_pass(self):
        self._pass_starts.append(len(self.spans))
        self._pass_counts.append({})

    def pass_aggregates(self, index):
        """Self time, total time and calls per span name, plus counts."""
        start = self._pass_starts[index]
        end = (self._pass_starts[index + 1]
               if index + 1 < len(self._pass_starts) else len(self.spans))
        spans = self.spans[start:end]
        child_time = defaultdict(float)
        for _, parent, _, _, t0, t1 in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        own = defaultdict(float)
        total = defaultdict(float)
        calls = defaultdict(int)
        for span_id, _, _, name, t0, t1 in spans:
            own[name] += (t1 - t0) - child_time[span_id]
            total[name] += t1 - t0
            calls[name] += 1
        return {"self": own, "total": total, "calls": calls,
                "counts": self._pass_counts[index]}

    def layer_values(self):
        """Per metric, its value in each traced pass (absent metrics omitted)."""
        passes = [self.pass_aggregates(i)
                  for i in range(len(self._pass_starts))]
        return {
            name: [value(p) for p in passes]
            for name, _, _, value, _, _ in LAYER_METRICS
            if name not in self.missing
        }

    def write(self, path, header):
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header)
        payload["absent"] = sorted(self.absent)
        payload["columns"] = ["id", "parent", "op", "name", "start", "end"]
        payload["spans"] = self.spans
        path.write_text(json.dumps(payload, separators=(",", ":")))
