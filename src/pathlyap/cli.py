"""Command line front end over the library's JSON formats.

Exit codes: 0 success (and checked properties true), 1 checked property
false or verification failed, 2 usage or input error, 3 resource or
numerical error.  Every command prints a short text summary by default;
``--format json`` prints the full-precision result object instead, and
``-o FILE`` additionally writes that object to a file.

Each handler imports the library modules it runs, and nothing else is
loaded: the ``graph``, ``observer`` and ``covering`` commands run without
numpy, and ``jsr upper`` does not load the covering layer.  The
package's records are plain ``__slots__`` classes over
:class:`pathlyap.errors.Record`, so no command loads the standard
library's record decorator or the ``inspect`` module it imports.  The
parser registers every command with its help, but a process builds only
the parsers of the command it runs: the root, its group and its leaf.

Caps, from ``--cap`` or from the ``PATHLYAP_STATE_CAP`` environment
variable, must be positive integers; any other value exits 2.
"""

import argparse
import json
import sys

from .errors import (
    InvariantViolation,
    NotPathCompleteError,
    NumericalError,
    ResourceLimitError,
)


def _fmt(x):
    return f"{float(x):.6g}"


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args, result, lines):
    payload = json.dumps(result, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
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
    from .graphs import (
        find_unreadable_word,
        graph_from_json,
        is_complete,
        is_deterministic,
    )

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
    from .graphs import de_bruijn

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
    from .graphs import dual, graph_from_json

    g = dual(graph_from_json(_load(args.graph)))
    _emit(args, g.to_json(),
          [f"dual graph: {len(g.nodes)} nodes, {len(g.edges)} edges"])
    return 0


def _cmd_observer_build(args):
    from .graphs import graph_from_json
    from .observer import observer_graph

    obs = observer_graph(graph_from_json(_load(args.graph)), cap=args.cap)
    _emit(args, obs.to_json(), [
        f"observer: {len(obs.graph.nodes)} nodes, "
        f"{len(obs.graph.edges)} edges, root {obs.root}"
    ])
    return 0


def _cmd_observer_core(args):
    from .observer import observer_core, observer_from_json

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
    from .covering import covering_from_json, validate_covering

    report = validate_covering(covering_from_json(_load(args.covering)))
    _emit(args, report.to_json(), _covering_report_lines(report))
    return 0 if report.ok else 1


def _cmd_covering_to_graph(args):
    from .covering import covering_from_json, validate_covering

    report = validate_covering(covering_from_json(_load(args.covering)))
    if not report.ok:
        _emit(args, report.to_json(), _covering_report_lines(report))
        return 1
    g = report.graph
    _emit(args, g.to_json(),
          [f"graph: {len(g.nodes)} nodes, {len(g.edges)} edges"])
    return 0


def _cmd_covering_from_graph(args):
    from .covering import observer_to_covering
    from .observer import observer_from_json

    family = observer_to_covering(observer_from_json(_load(args.observer)))
    _emit(args, family.to_json(),
          [f"covering family: {len(family.members)} members"])
    return 0


def _cmd_jsr_upper(args):
    from .graphs import graph_from_json
    from .lyapunov import system_from_json
    from .sdp import jsr_upper_bound

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
    from .lyapunov import system_from_json
    from .simulate import jsr_lower_bound

    system = system_from_json(_load(args.system))
    rho, witness = jsr_lower_bound(system, args.max_len, cap=args.cap)
    _emit(args, {"rho_lower": rho, "witness": list(witness)},
          [f"rho_lower: {_fmt(rho)} (witness: {','.join(witness)})"])
    return 0


def _cmd_certificate_verify(args):
    from .lyapunov import (
        certificate_from_json,
        system_from_json,
        verify_certificate,
    )

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
    from .lyapunov import certificate_from_json, lift_certificate
    from .observer import observer_from_json

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
    from .lyapunov import system_from_json
    from .simulate import simulate

    system = system_from_json(_load(args.system))
    word = _split_word(args.word)
    x0 = [float(v) for v in args.x0.split(",")]
    traj = simulate(system, word, x0)
    final = ", ".join(_fmt(v) for v in traj.states[-1])
    _emit(args, traj.to_json(),
          [f"steps: {len(word)}", f"final state: [{final}]"])
    return 0


def _cmd_decrease_check(args):
    from .lyapunov import (
        certificate_from_json,
        lift_certificate,
        system_from_json,
    )
    from .observer import observer_from_json
    from .simulate import trajectory_decrease_check

    cert = certificate_from_json(_load(args.certificate))
    obs = observer_from_json(_load(args.observer))
    system = system_from_json(_load(args.system))
    lifted = lift_certificate(cert, obs)
    rho_prime = (args.rho_prime if args.rho_prime is not None
                 else 1.01 * cert.rho)
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

class _Commands(dict):
    """One level of subcommands: each name maps to its parser, built on
    first lookup.

    argparse checks and lists a subparsers action's names through its
    `choices` and looks a name up in its parser map only to run that
    command, so this one mapping serves as both.  Each command is
    registered with its name, its help line and a `fill` that sets up its
    parser; the parser is built and filled when argparse first looks the
    name up.  A process thus builds only the parsers on the path its
    command line names, and a group's fill registers its own commands the
    same way.
    """

    def __init__(self, parser, dest, commands):
        super().__init__()
        self.prog = parser.prog
        action = parser.add_subparsers(dest=dest, required=True)
        action.choices = action._name_parser_map = self
        for name, help_text, fill in commands:
            action._choices_actions.append(
                action._ChoicesPseudoAction(name, (), help_text))
            dict.__setitem__(self, name, fill)

    def __getitem__(self, name):
        entry = super().__getitem__(name)
        if not isinstance(entry, argparse.ArgumentParser):
            parser = argparse.ArgumentParser(prog=f"{self.prog} {name}")
            entry(name, parser)
            dict.__setitem__(self, name, parser)
            entry = parser
        return entry


def _arg(*flags, **options):
    return flags, options


_OUTPUT_ARGS = (
    _arg("--format", choices=("json", "text"), default="text",
         help="stdout format (default text)"),
    _arg("-o", "--output", metavar="FILE",
         help="also write the JSON result to FILE"),
)


def _leaf(name, help_text, handler, *arguments):
    def fill(_, parser):
        parser.set_defaults(handler=handler)
        for flags, options in _OUTPUT_ARGS + arguments:
            parser.add_argument(*flags, **options)

    return name, help_text, fill


def _group(name, help_text, *commands):
    def fill(group, parser):
        # the root and group parsers take no option but -h, so the leading
        # tokens of a command line name its leaf
        _Commands(parser, f"{group}_command", commands)

    return name, help_text, fill


_COMMANDS = (
    _group(
        "graph", "labeled graph tools",
        _leaf("check", "check path-completeness, completeness, determinism",
              _cmd_graph_check,
              _arg("graph", help="graph JSON file"),
              _arg("--path-complete", action="store_true",
                   dest="path_complete"),
              _arg("--complete", action="store_true"),
              _arg("--deterministic", action="store_true"),
              _arg("--cap", type=int, default=None,
                   help="state cap for the unreadable-word search")),
        _leaf("debruijn", "generate a De Bruijn graph", _cmd_graph_debruijn,
              _arg("-a", "--alphabet", required=True,
                   help="comma separated symbols"),
              _arg("-k", "--order", type=int, required=True)),
        _leaf("dual", "reverse every edge", _cmd_graph_dual,
              _arg("graph", help="graph JSON file")),
    ),
    _group(
        "observer", "subset-construction tools",
        _leaf("build", "run the subset construction on a path-complete graph",
              _cmd_observer_build,
              _arg("graph", help="graph JSON file"),
              _arg("--cap", type=int, default=None)),
        _leaf("core", "extract the unique terminal strongly connected part",
              _cmd_observer_core,
              _arg("observer", help="observer JSON file")),
    ),
    _group(
        "covering", "language covering tools",
        _leaf("validate", "check coverage of all words and prepend closure",
              _cmd_covering_validate,
              _arg("covering", help="covering JSON file")),
        _leaf("to-graph", "build the graph whose nodes are the family members",
              _cmd_covering_to_graph,
              _arg("covering", help="covering JSON file")),
        _leaf("from-graph", "read a covering family off an observer",
              _cmd_covering_from_graph,
              _arg("observer", help="observer JSON file")),
    ),
    _group(
        "jsr", "growth rate bounds",
        _leaf("upper", "certified upper bound by bisection over margin "
                       "programs",
              _cmd_jsr_upper,
              _arg("--graph", required=True),
              _arg("--system", required=True),
              _arg("--tol", type=float, default=1e-4),
              _arg("--cap", type=int, default=None,
                   help="solver unknown-count cap"),
              _arg("--allow-incomplete", action="store_true",
                   help="proceed (with a warning) on non-path-complete "
                        "graphs")),
        _leaf("lower", "exhaustive lower bound over bounded-length words",
              _cmd_jsr_lower,
              _arg("--system", required=True),
              _arg("--max-len", type=int, required=True, dest="max_len"),
              _arg("--cap", type=int, default=None)),
    ),
    _group(
        "certificate", "certificate tools",
        _leaf("verify", "independent eigenvalue check of a certificate",
              _cmd_certificate_verify,
              _arg("--certificate", required=True),
              _arg("--system", required=True),
              _arg("--rho-prime", type=float, default=None,
                   dest="rho_prime")),
        _leaf("lift", "attach subset maxima to observer nodes",
              _cmd_certificate_lift,
              _arg("--certificate", required=True),
              _arg("--observer", required=True)),
    ),
    _leaf("simulate", "iterate the system along a switching word",
          _cmd_simulate,
          _arg("--system", required=True),
          _arg("--word", default="",
               help="comma separated symbols in time order"),
          _arg("--x0", required=True, help="comma separated start state")),
    _leaf("decrease-check", "sampled decrease check of a lifted certificate",
          _cmd_decrease_check,
          _arg("--certificate", required=True),
          _arg("--observer", required=True),
          _arg("--system", required=True),
          _arg("--rho-prime", type=float, default=None, dest="rho_prime",
               help="scaled rate to check against (default 1.01 times "
                    "the certified rate)"),
          _arg("--trials", type=int, default=100),
          _arg("--horizon", type=int, default=20),
          _arg("--seed", type=int, default=None),
          _arg("--tolerance", type=float, default=1e-9)),
)


def build_parser():
    """The `pathlyap` parser.  Every group and leaf is registered with its
    help, and its parser is built only when a command line names it
    (:class:`_Commands`)."""
    parser = argparse.ArgumentParser(
        prog="pathlyap",
        description="Path-complete quadratic certificates and growth-rate "
                    "bounds for switched linear systems.",
    )
    _Commands(parser, "command", _COMMANDS)
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
