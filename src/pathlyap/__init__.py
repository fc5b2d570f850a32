"""Path-complete Lyapunov analysis for discrete-time switched linear systems.

Combinatorial layer: labeled graphs, finite automata, the observer (subset)
construction, and covering families of regular languages, with translations
between graph-based and memory-based stability certificates.

Numerical layer: LMI assembly for quadratic certificates, a self-contained
semidefinite margin solver, bisection upper bounds on the joint spectral
radius, brute-force lower bounds, and trajectory decrease checks.

Importing the package loads no submodule: each name below is imported from
its submodule on first use and then cached, so code that touches only the
combinatorial layer never loads numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "InvariantViolation",
        "NotPathCompleteError",
        "NumericalError",
        "ResourceLimitError",
    ),
    "graphs": (
        "LabeledGraph",
        "de_bruijn",
        "dual",
        "find_unreadable_word",
        "graph_from_json",
        "is_complete",
        "is_deterministic",
        "is_path_complete",
    ),
    "automata": (
        "Automaton",
        "accepts",
        "automaton_from_json",
        "language_includes",
        "prefix_class_automaton",
        "universality_witness",
    ),
    "observer": (
        "ObserverGraph",
        "observer_core",
        "observer_from_json",
        "observer_graph",
    ),
    "covering": (
        "CoveringFamily",
        "CoveringMember",
        "covering_from_json",
        "covering_to_graph",
        "observer_to_covering",
        "prefix_covering",
        "validate_covering",
    ),
    "lyapunov": (
        "MaxQuadraticFunction",
        "QuadraticCertificate",
        "SwitchedLinearSystem",
        "VerificationReport",
        "assemble_lmi",
        "certificate_from_json",
        "evaluate_mblf",
        "lift_certificate",
        "system_from_json",
        "verify_certificate",
    ),
    "sdp": (
        "JsrBoundResult",
        "MarginSolution",
        "jsr_upper_bound",
        "solve_margin",
    ),
    "simulate": (
        "DecreaseReport",
        "Trajectory",
        "jsr_lower_bound",
        "simulate",
        "trajectory_decrease_check",
    ),
    "fixtures": (
        "de_bruijn_1_graph",
        "de_bruijn_2_graph",
        "demo_system",
        "mixed_horizon_graph",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

# submodules reachable as package attributes; the package's `simulate` is
# the function, not the submodule of that name
_SUBMODULES = frozenset(_EXPORTS) - {"simulate"} | {"_kernels"}

# a star import binds the public submodules too, as it did when the package
# imported them all eagerly
__all__ = [*_ORIGIN, *sorted(m for m in _SUBMODULES if not m.startswith("_"))]


class _Package(types.ModuleType):
    """The package module, whose `simulate` stays the function.

    The import system binds each submodule it loads onto the package, which
    would replace the function `simulate` by the submodule of that name.
    """

    def __setattr__(self, name, value):
        if name in _ORIGIN and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name in _ORIGIN:
        module = importlib.import_module(f".{_ORIGIN[name]}", __name__)
        value = getattr(module, name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_ORIGIN, *_SUBMODULES})
