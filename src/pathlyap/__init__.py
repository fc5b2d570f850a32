"""Path-complete Lyapunov analysis for discrete-time switched linear systems.

Combinatorial layer: labeled graphs, finite automata, the observer (subset)
construction, and covering families of regular languages, with translations
between graph-based and memory-based stability certificates.

Numerical layer: LMI assembly for quadratic certificates, a self-contained
semidefinite margin solver, bisection upper bounds on the joint spectral
radius, brute-force lower bounds, and trajectory decrease checks.
"""

from .errors import (
    InvariantViolation,
    NotPathCompleteError,
    NumericalError,
    ResourceLimitError,
)
from .graphs import (
    LabeledGraph,
    de_bruijn,
    dual,
    find_unreadable_word,
    graph_from_json,
    is_complete,
    is_deterministic,
    is_path_complete,
)
from .automata import (
    Automaton,
    PrefixClass,
    accepts,
    automaton_from_json,
    is_universal,
    language_includes,
    language_of_observer_node,
    prefix_class_automaton,
    prepend_symbol,
    union_automaton,
    universality_witness,
)
from .observer import (
    ObserverGraph,
    ObserverNode,
    observer_core,
    observer_from_json,
    observer_graph,
)
from .covering import (
    CoveringFamily,
    CoveringMember,
    covering_from_json,
    covering_to_graph,
    observer_to_covering,
    prefix_covering,
    validate_covering,
)
from .lyapunov import (
    MaxQuadraticFunction,
    QuadraticCertificate,
    SwitchedLinearSystem,
    VerificationReport,
    assemble_lmi,
    certificate_from_json,
    evaluate_mblf,
    lift_certificate,
    system_from_json,
    verify_certificate,
)
from .sdp import (
    JsrBoundResult,
    MarginSolution,
    jsr_upper_bound,
    solve_margin,
)
from .simulate import (
    DecreaseReport,
    Trajectory,
    jsr_lower_bound,
    simulate,
    trajectory_decrease_check,
)
from .fixtures import (
    de_bruijn_1_graph,
    de_bruijn_2_graph,
    demo_system,
    mixed_horizon_graph,
)

__version__ = "0.1.0"
