"""Command line front end over the library's JSON formats.

Exit codes: 0 success (and checked properties true), 1 checked property
false or verification failed, 2 usage or input error, 3 resource or
numerical error.  Every command prints a short text summary by default;
``--format json`` prints the full-precision result object instead, and
``-o FILE`` additionally writes that object to a file.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .covering import (
    covering_from_json,
    covering_to_graph,
    observer_to_covering,
    validate_covering,
)
from .errors import (
    InvariantViolation,
    NotPathCompleteError,
    NumericalError,
    ResourceLimitError,
)
from .graphs import (
    de_bruijn,
    dual,
    find_unreadable_word,
    graph_from_json,
    is_complete,
    is_deterministic,
)
from .lyapunov import (
    certificate_from_json,
    lift_certificate,
    system_from_json,
    verify_certificate,
)
from .observer import observer_core, observer_from_json, observer_graph
from .sdp import jsr_upper_bound
from .simulate import (
    jsr_lower_bound,
    simulate as simulate_system,
    trajectory_decrease_check,
)


def _fmt(x):
    return f"{float(x):.6g}"


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args, result, lines):
    payload = json.dumps(result, indent=2) + "\n"
    if getattr(args, "output", None):
        Path(args.output).write_text(payload)
    if args.format == "json":
        sys.stdout.write(payload)
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _split_word(text):
    return tuple(s for s in text.split(",") if s) if text else ()


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_graph_check(args):
    g = graph_from_json(_load(args.graph))
    wanted = []
    if args.path_complete:
        wanted.append("path-complete")
    if args.complete:
        wanted.append("complete")
    if args.deterministic:
        wanted.append("deterministic")
    if not wanted:
        wanted = ["path-complete", "complete", "deterministic"]
    result = {}
    lines = []
    all_good = True
    for prop in wanted:
        if prop == "path-complete":
            witness = find_unreadable_word(g, cap=args.cap)
            good = witness is None
            result["path_complete"] = good
            result["witness"] = None if good else list(witness)
            line = f"path-complete: {str(good).lower()}"
            if not good:
                line += f" (unreadable word: {','.join(witness)})"
        elif prop == "complete":
            good = is_complete(g)
            result["complete"] = good
            line = f"complete: {str(good).lower()}"
        else:
            good = is_deterministic(g)
            result["deterministic"] = good
            line = f"deterministic: {str(good).lower()}"
        all_good = all_good and good
        lines.append(line)
    _emit(args, result, lines)
    return 0 if all_good else 1


def _cmd_graph_debruijn(args):
    alphabet = _split_word(args.alphabet)
    if not alphabet:
        raise ValueError("alphabet must list at least one symbol")
    g = de_bruijn(alphabet, args.order)
    _emit(args, g.to_json(), [
        f"de Bruijn graph of order {args.order} over "
        f"{{{','.join(alphabet)}}}: {len(g.nodes)} nodes, "
        f"{len(g.edges)} edges"
    ])
    return 0


def _cmd_graph_dual(args):
    g = dual(graph_from_json(_load(args.graph)))
    _emit(args, g.to_json(),
          [f"dual graph: {len(g.nodes)} nodes, {len(g.edges)} edges"])
    return 0


def _cmd_observer_build(args):
    obs = observer_graph(graph_from_json(_load(args.graph)), cap=args.cap)
    _emit(args, obs.to_json(), [
        f"observer: {len(obs.graph.nodes)} nodes, "
        f"{len(obs.graph.edges)} edges, root {obs.root}"
    ])
    return 0


def _cmd_observer_core(args):
    core = observer_core(observer_from_json(_load(args.observer)))
    _emit(args, core.to_json(),
          [f"core: {len(core.nodes)} nodes, {len(core.edges)} edges"])
    return 0


def _covering_report_lines(report):
    lines = [f"covers-all-words: {str(report.covers_all_words).lower()}"]
    if report.uncovered_witness is not None:
        lines[-1] += f" (uncovered word: {','.join(report.uncovered_witness)})"
    lines.append(f"prepend-closed: {str(report.prepend_closed).lower()}")
    if report.unclosed_pairs:
        pairs = "; ".join(f"{name} under {sym}"
                          for name, sym in report.unclosed_pairs)
        lines[-1] += f" (failing: {pairs})"
    return lines


def _cmd_covering_validate(args):
    report = validate_covering(covering_from_json(_load(args.covering)))
    _emit(args, report.to_json(), _covering_report_lines(report))
    return 0 if report.ok else 1


def _cmd_covering_to_graph(args):
    family = covering_from_json(_load(args.covering))
    try:
        g, _ = covering_to_graph(family)
    except ValueError:
        # covering_to_graph raises on an invalid family; only then is the
        # report (and with it the edge table) worth building a second time
        report = validate_covering(family)
        _emit(args, report.to_json(), _covering_report_lines(report))
        return 1
    _emit(args, g.to_json(),
          [f"graph: {len(g.nodes)} nodes, {len(g.edges)} edges"])
    return 0


def _cmd_covering_from_graph(args):
    family = observer_to_covering(observer_from_json(_load(args.observer)))
    _emit(args, family.to_json(),
          [f"covering family: {len(family.members)} members"])
    return 0


def _cmd_jsr_upper(args):
    g = graph_from_json(_load(args.graph))
    system = system_from_json(_load(args.system))
    res = jsr_upper_bound(
        g, system, tol=args.tol,
        require_path_complete=not args.allow_incomplete,
        unknown_cap=args.cap,
    )
    _emit(args, res.to_json(), [
        f"rho_upper: {_fmt(res.rho_upper)}",
        f"probes: {len(res.trace)}",
        f"certificate margin: {_fmt(res.certificate.margin)}",
    ])
    return 0


def _cmd_jsr_lower(args):
    system = system_from_json(_load(args.system))
    rho, witness = jsr_lower_bound(system, args.max_len, cap=args.cap)
    _emit(args, {"rho_lower": rho, "witness": list(witness)},
          [f"rho_lower: {_fmt(rho)} (witness: {','.join(witness)})"])
    return 0


def _cmd_certificate_verify(args):
    cert = certificate_from_json(_load(args.certificate))
    system = system_from_json(_load(args.system))
    report = verify_certificate(cert, system, rho_prime=args.rho_prime)
    lines = [
        f"ok: {str(report.ok).lower()}",
        f"margin: {_fmt(report.margin)}",
    ]
    if report.implied_gamma is not None:
        lines.append(f"implied gamma: {_fmt(report.implied_gamma)}")
    _emit(args, report.to_json(), lines)
    return 0 if report.ok else 1


def _cmd_certificate_lift(args):
    cert = certificate_from_json(_load(args.certificate))
    obs = observer_from_json(_load(args.observer))
    lifted = lift_certificate(cert, obs)
    result = {
        "rho": float(lifted.rho),
        "dimension": int(lifted.dimension),
        "members": {
            name: [p.tolist() for p in quads]
            for name, quads in lifted.members.items()
        },
    }
    _emit(args, result, [
        f"lifted function: {len(lifted.members)} members, "
        f"rho {_fmt(lifted.rho)}"
    ])
    return 0


def _cmd_simulate(args):
    system = system_from_json(_load(args.system))
    word = _split_word(args.word)
    x0 = np.array([float(v) for v in args.x0.split(",")])
    traj = simulate_system(system, word, x0)
    final = ", ".join(_fmt(v) for v in traj.states[-1])
    _emit(args, traj.to_json(),
          [f"steps: {len(word)}", f"final state: [{final}]"])
    return 0


def _cmd_decrease_check(args):
    cert = certificate_from_json(_load(args.certificate))
    obs = observer_from_json(_load(args.observer))
    system = system_from_json(_load(args.system))
    lifted = lift_certificate(cert, obs)
    rho_prime = (args.rho_prime if args.rho_prime is not None
                 else args.rho_factor * cert.rho)
    report = trajectory_decrease_check(
        lifted, obs, system, rho_prime=rho_prime, trials=args.trials,
        horizon=args.horizon, seed=args.seed, tolerance=args.tolerance,
    )
    _emit(args, report.to_json(), [
        f"trials: {report.trials}",
        f"passes: {report.passes}",
        f"failures: {report.failures}",
        f"worst slack: {_fmt(report.worst_slack)}",
        f"seed: {report.seed}",
    ])
    return 0 if report.failures == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _leaf(group, name, handler, help_text):
    p = group.add_parser(name, help=help_text)
    p.add_argument("--format", choices=("json", "text"), default="text",
                   help="stdout format (default text)")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="also write the JSON result to FILE")
    p.set_defaults(handler=handler)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pathlyap",
        description="Path-complete quadratic certificates and growth-rate "
                    "bounds for switched linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="labeled graph tools")
    gsub = graph.add_subparsers(dest="graph_command", required=True)
    p = _leaf(gsub, "check", _cmd_graph_check,
              "check path-completeness, completeness, determinism")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--path-complete", action="store_true",
                   dest="path_complete")
    p.add_argument("--complete", action="store_true")
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--cap", type=int, default=None,
                   help="state cap for the unreadable-word search")
    p = _leaf(gsub, "debruijn", _cmd_graph_debruijn,
              "generate a De Bruijn graph")
    p.add_argument("-a", "--alphabet", required=True,
                   help="comma separated symbols")
    p.add_argument("-k", "--order", type=int, required=True)
    p = _leaf(gsub, "dual", _cmd_graph_dual, "reverse every edge")
    p.add_argument("graph", help="graph JSON file")

    observer = sub.add_parser("observer", help="subset-construction tools")
    osub = observer.add_subparsers(dest="observer_command", required=True)
    p = _leaf(osub, "build", _cmd_observer_build,
              "run the subset construction on a path-complete graph")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--cap", type=int, default=None)
    p = _leaf(osub, "core", _cmd_observer_core,
              "extract the unique terminal strongly connected part")
    p.add_argument("observer", help="observer JSON file")

    covering = sub.add_parser("covering", help="language covering tools")
    csub = covering.add_subparsers(dest="covering_command", required=True)
    p = _leaf(csub, "validate", _cmd_covering_validate,
              "check coverage of all words and prepend closure")
    p.add_argument("covering", help="covering JSON file")
    p = _leaf(csub, "to-graph", _cmd_covering_to_graph,
              "build the graph whose nodes are the family members")
    p.add_argument("covering", help="covering JSON file")
    p = _leaf(csub, "from-graph", _cmd_covering_from_graph,
              "read a covering family off an observer")
    p.add_argument("observer", help="observer JSON file")

    jsr = sub.add_parser("jsr", help="growth rate bounds")
    jsub = jsr.add_subparsers(dest="jsr_command", required=True)
    p = _leaf(jsub, "upper", _cmd_jsr_upper,
              "certified upper bound by bisection over margin programs")
    p.add_argument("--graph", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--cap", type=int, default=None,
                   help="solver unknown-count cap")
    p.add_argument("--allow-incomplete", action="store_true",
                   help="proceed (with a warning) on non-path-complete "
                        "graphs")
    p = _leaf(jsub, "lower", _cmd_jsr_lower,
              "exhaustive lower bound over bounded-length words")
    p.add_argument("--system", required=True)
    p.add_argument("--max-len", type=int, required=True, dest="max_len")
    p.add_argument("--cap", type=int, default=None)

    certificate = sub.add_parser("certificate", help="certificate tools")
    certsub = certificate.add_subparsers(dest="certificate_command",
                                         required=True)
    p = _leaf(certsub, "verify", _cmd_certificate_verify,
              "independent eigenvalue check of a certificate")
    p.add_argument("--certificate", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--rho-prime", type=float, default=None, dest="rho_prime")
    p = _leaf(certsub, "lift", _cmd_certificate_lift,
              "attach subset maxima to observer nodes")
    p.add_argument("--certificate", required=True)
    p.add_argument("--observer", required=True)

    p = _leaf(sub, "simulate", _cmd_simulate,
              "iterate the system along a switching word")
    p.add_argument("--system", required=True)
    p.add_argument("--word", default="",
                   help="comma separated symbols in time order")
    p.add_argument("--x0", required=True, help="comma separated start state")

    p = _leaf(sub, "decrease-check", _cmd_decrease_check,
              "sampled decrease check of a lifted certificate")
    p.add_argument("--certificate", required=True)
    p.add_argument("--observer", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--rho-prime", type=float, default=None, dest="rho_prime")
    p.add_argument("--rho-factor", type=float, default=1.01,
                   dest="rho_factor",
                   help="rho_prime as a multiple of the certified rate "
                        "(default 1.01), ignored when --rho-prime is given")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--horizon", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=1e-9)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        return int(args.handler(args) or 0)
    except NotPathCompleteError as exc:
        print(str(exc))
        return 1
    except (ResourceLimitError, NumericalError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
