import argparse
import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pathlyap.cli import run
from pathlyap.fixtures import de_bruijn_1_graph, demo_system, mixed_horizon_graph
from pathlyap.graphs import de_bruijn, dual
from test_graphs import lonely_loop
from test_observer import TWO_TERMINAL_OBSERVER
from test_simulate import huge_entry_system


def write_json(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


@pytest.fixture
def demo_files(tmp_path):
    return {
        "system": write_json(tmp_path, "system.json", demo_system().to_json()),
        "db1": write_json(tmp_path, "db1.json", de_bruijn_1_graph().to_json()),
        "mixed": write_json(
            tmp_path, "mixed.json", mixed_horizon_graph().to_json()
        ),
        "lonely": write_json(tmp_path, "lonely.json", lonely_loop().to_json()),
        "dir": tmp_path,
    }


# ---------------------------------------------------------------------------
# graph subcommands
# ---------------------------------------------------------------------------

def test_debruijn_then_check_complete(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["graph", "debruijn", "-a", "a,b", "-k", "2",
                "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["nodes"]) == 4
    capsys.readouterr()
    assert run(["graph", "check", "--complete", str(out)]) == 0


def test_check_path_complete_failure_prints_witness(demo_files, capsys):
    code = run(["graph", "check", "--path-complete", demo_files["lonely"]])
    captured = capsys.readouterr()
    assert code == 1
    assert "b" in captured.out


def test_check_defaults_to_all_properties(demo_files, capsys):
    assert run(["graph", "check", demo_files["db1"]]) == 0
    out = capsys.readouterr().out
    assert "path-complete" in out
    assert "complete" in out
    assert "deterministic" in out


def test_usage_errors_exit_two(demo_files, capsys):
    assert run(["graph", "check", "--bogus", demo_files["db1"]]) == 2
    assert run(["graph", "check", str(demo_files["dir"] / "nope.json")]) == 2
    bad = demo_files["dir"] / "bad.json"
    bad.write_text("{not json")
    assert run(["graph", "check", str(bad)]) == 2
    assert run(["no-such-command"]) == 2


# every command with the options its help lists, besides --format and
# --output, which every command takes
LEAF_OPTIONS = {
    ("graph", "check"): ("graph", "--path-complete", "--complete",
                         "--deterministic", "--cap"),
    ("graph", "debruijn"): ("--alphabet", "--order"),
    ("graph", "dual"): ("graph",),
    ("observer", "build"): ("graph", "--cap"),
    ("observer", "core"): ("observer",),
    ("covering", "validate"): ("covering",),
    ("covering", "to-graph"): ("covering",),
    ("covering", "from-graph"): ("observer",),
    ("jsr", "upper"): ("--graph", "--system", "--tol", "--cap",
                       "--allow-incomplete"),
    ("jsr", "lower"): ("--system", "--max-len", "--cap"),
    ("certificate", "verify"): ("--certificate", "--system", "--rho-prime"),
    ("certificate", "lift"): ("--certificate", "--observer"),
    ("simulate",): ("--system", "--word", "--x0"),
    ("decrease-check",): ("--certificate", "--observer", "--system",
                          "--rho-prime", "--trials", "--horizon", "--seed",
                          "--tolerance"),
}


def test_every_help_lists_its_commands_or_options(capsys):
    """Each process builds only its own command's arguments: the root,
    group and leaf helps still list everything below them."""
    groups = {}
    for command in LEAF_OPTIONS:
        groups.setdefault(command[0], []).append(command[1:])
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(group in out for group in groups)
    for group, leaves in groups.items():
        if leaves != [()]:
            assert run([group, "--help"]) == 0
            out = capsys.readouterr().out
            assert all(leaf in out for (leaf,) in leaves), group
    for command, options in LEAF_OPTIONS.items():
        assert run([*command, "--help"]) == 0
        out = capsys.readouterr().out
        for option in ("--format", "--output") + options:
            assert option in out, (command, option)


def test_missing_required_option_exits_two(capsys):
    assert run(["jsr", "upper", "--graph", "g.json"]) == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: --system" in err


ONE_LOOP = {"alphabet": ["a"], "nodes": ["q"], "edges": [["q", "q", "a"]]}
# two looped nodes named "q" and "0": a string "q0" read as an array would
# name both
TWO_LOOPS = {"alphabet": ["a"], "nodes": ["q", "0"],
             "edges": [["q", "q", "a"], ["0", "0", "a"]]}
DEMO_SYSTEM = demo_system().to_json()
# a certificate that `certificate verify` passes on the demo system
DB1_CERT = {"graph": de_bruijn(("a", "b"), 1).to_json(), "rho": 5.0,
            "P": {"[a]": [[1.0, 0.0], [0.0, 1.0]],
                  "[b]": [[1.0, 0.0], [0.0, 1.0]]}}


def entries_as(convert, matrices):
    """`matrices` (name -> rows) with every entry passed through `convert`."""
    return {name: [[convert(x) for x in row] for row in m]
            for name, m in matrices.items()}


@pytest.mark.parametrize("argv, content", [
    (["covering", "validate", "{bad}"], 5),
    (["covering", "to-graph", "{bad}"], 5),
    (["covering", "from-graph", "{bad}"], 5),
    (["jsr", "upper", "--graph", "{db1}", "--system", "{bad}"], 5),
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"], 5),
    (["observer", "core", "{bad}"], 5),
    (["certificate", "verify", "--certificate", "{bad}",
      "--system", "{system}"], 5),
    (["covering", "validate", "{bad}"], {"alphabet": ["a"], "members": [5]}),
    (["covering", "validate", "{bad}"], {"alphabet": 5, "members": []}),
    (["covering", "to-graph", "{bad}"], {"alphabet": ["a"], "members": 5}),
    # a nested field of the wrong type
    (["covering", "validate", "{bad}"],
     {"alphabet": ["a"], "members": [{"name": "x", "stem": 5}]}),
    (["covering", "validate", "{bad}"],
     {"alphabet": ["a"], "members": [{"name": "x", "automaton": dict(
         ONE_LOOP, initial=5, accepting=["q"])}]}),
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"],
     {"alphabet": 5, "dimension": 1, "modes": {}}),
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"],
     {"alphabet": ["a"], "dimension": 1, "modes": 5}),
    (["observer", "core", "{bad}"], dict(ONE_LOOP, root="q", subsets=5)),
    (["observer", "core", "{bad}"],
     dict(ONE_LOOP, root="q", subsets={"x": 5})),
    (["certificate", "verify", "--certificate", "{bad}",
      "--system", "{system}"],
     {"graph": de_bruijn(("a", "b"), 1).to_json(), "rho": 5.0, "P": 5}),
    # a string where an array is required, which reads as its characters
    (["graph", "check", "{bad}"],
     {"alphabet": "ab", "nodes": ["q"],
      "edges": [["q", "q", "a"], ["q", "q", "b"]]}),
    (["graph", "check", "{bad}"],
     {"alphabet": ["a"], "nodes": "xy",
      "edges": [["x", "x", "a"], ["y", "y", "a"]]}),
    (["graph", "check", "{bad}"],
     {"alphabet": ["a"], "nodes": ["x"], "edges": ["xxa"]}),
    (["covering", "validate", "{bad}"],
     {"alphabet": ["a", "b"],
      "members": [{"name": "x", "stem": "ab"}, {"name": "all", "stem": []}]}),
    (["covering", "validate", "{bad}"],
     {"alphabet": ["a"], "members": [{"name": "x", "automaton": dict(
         TWO_LOOPS, initial="q0", accepting=["q"])}]}),
    (["covering", "validate", "{bad}"],
     {"alphabet": ["a"], "members": [{"name": "x", "automaton": dict(
         TWO_LOOPS, initial=["q"], accepting="q0")}]}),
    (["observer", "core", "{bad}"],
     {"alphabet": ["a"], "nodes": ["{x}"], "edges": [["{x}", "{x}", "a"]],
      "root": "{x}", "subsets": {"{x}": "xy"}}),
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"],
     {"alphabet": "ab", "dimension": 1, "modes": {"a": [[1]], "b": [[1]]}}),
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"],
     {"alphabet": ["a"], "dimension": 1, "modes": [["a", [[1]]]]}),
    # a field that is not of its JSON type, which int(), float() or numpy
    # would otherwise read
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"],
     dict(DEMO_SYSTEM, dimension=2.9)),
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"],
     dict(DEMO_SYSTEM, dimension="2")),
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"],
     dict(DEMO_SYSTEM, modes=entries_as(str, DEMO_SYSTEM["modes"]))),
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"],
     dict(DEMO_SYSTEM, modes=entries_as(bool, DEMO_SYSTEM["modes"]))),
    (["certificate", "verify", "--certificate", "{bad}",
      "--system", "{system}"], dict(DB1_CERT, rho="5.0")),
    (["certificate", "verify", "--certificate", "{bad}",
      "--system", "{system}"], dict(DB1_CERT, rho=True)),
    (["certificate", "verify", "--certificate", "{bad}",
      "--system", "{system}"], dict(DB1_CERT, P=entries_as(str, DB1_CERT["P"]))),
    (["certificate", "verify", "--certificate", "{bad}",
      "--system", "{system}"], dict(DB1_CERT, margin="abc")),
    (["graph", "check", "{bad}"],
     {"alphabet": [1, 2], "nodes": ["q"], "edges": [["q", "q", 1]]}),
    (["observer", "build", "{bad}"],
     {"alphabet": [1, 2], "nodes": ["q"], "edges": [["q", "q", 1]]}),
    (["observer", "build", "{bad}"],
     {"alphabet": ["a"], "nodes": [1], "edges": [[1, 1, "a"]]}),
    # alphabets a system refuses: empty, a repeated symbol, an empty symbol
    (["jsr", "upper", "--graph", "{db1}", "--system", "{bad}"],
     {"alphabet": [], "dimension": 2, "modes": {}}),
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"],
     {"alphabet": [], "dimension": 2, "modes": {}}),
    (["jsr", "upper", "--graph", "{db1}", "--system", "{bad}"],
     {"alphabet": ["a", "a"], "dimension": 1, "modes": {"a": [[1]]}}),
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"],
     {"alphabet": ["a", "a"], "dimension": 1, "modes": {"a": [[1]]}}),
    (["jsr", "upper", "--graph", "{db1}", "--system", "{bad}"],
     {"alphabet": ["a", ""], "dimension": 1,
      "modes": {"a": [[1]], "": [[1]]}}),
    (["jsr", "lower", "--system", "{bad}", "--max-len", "2"],
     {"alphabet": ["a", ""], "dimension": 1,
      "modes": {"a": [[1]], "": [[1]]}}),
], ids=["covering-validate", "covering-to-graph", "covering-from-graph",
        "jsr-upper-system", "jsr-lower-system", "observer-core",
        "certificate-verify", "covering-member", "covering-alphabet",
        "covering-members", "member-stem", "member-initial",
        "system-alphabet", "system-modes", "observer-subsets",
        "observer-subset", "certificate-p", "graph-alphabet-string",
        "graph-nodes-string", "graph-edge-string", "member-stem-string",
        "member-initial-string", "member-accepting-string",
        "observer-subset-string", "system-alphabet-string",
        "system-modes-pairs", "system-dimension-float",
        "system-dimension-string", "system-mode-strings",
        "system-mode-booleans", "certificate-rho-string",
        "certificate-rho-boolean", "certificate-p-strings",
        "certificate-margin-string", "graph-integer-symbols",
        "observer-integer-symbols", "observer-integer-nodes",
        "jsr-upper-empty-alphabet", "jsr-lower-empty-alphabet",
        "jsr-upper-repeated-symbol", "jsr-lower-repeated-symbol",
        "jsr-upper-empty-symbol", "jsr-lower-empty-symbol"])
def test_json_of_the_wrong_shape_exits_two(demo_files, tmp_path, capsys,
                                           argv, content):
    files = dict(demo_files, bad=write_json(tmp_path, "bad.json", content))
    code = run([arg.format(**files) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_tolerance_exits_two(demo_files, capsys, bad):
    assert run(["jsr", "upper", "--graph", demo_files["db1"],
                "--system", demo_files["system"], "--tol", bad]) == 2
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_dual_twice_is_identity(demo_files, tmp_path, capsys):
    once = tmp_path / "dual1.json"
    twice = tmp_path / "dual2.json"
    assert run(["graph", "dual", demo_files["mixed"], "-o", str(once)]) == 0
    assert run(["graph", "dual", str(once), "-o", str(twice)]) == 0
    assert json.loads(twice.read_text()) == json.loads(
        (demo_files["dir"] / "mixed.json").read_text()
    )


# ---------------------------------------------------------------------------
# observer and covering subcommands
# ---------------------------------------------------------------------------

def test_observer_build_and_core(demo_files, tmp_path, capsys):
    obs_file = tmp_path / "obs.json"
    assert run(["observer", "build", demo_files["db1"],
                "-o", str(obs_file)]) == 0
    data = json.loads(obs_file.read_text())
    assert data["root"] == "{[a],[b]}"
    core_file = tmp_path / "core.json"
    assert run(["observer", "core", str(obs_file), "-o", str(core_file)]) == 0
    core = json.loads(core_file.read_text())
    assert len(core["nodes"]) == 2
    assert len(core["edges"]) == 4


def test_observer_core_of_two_terminal_components_exits_three(tmp_path,
                                                             capsys):
    obs = write_json(tmp_path, "obs.json", TWO_TERMINAL_OBSERVER)
    assert run(["observer", "core", obs]) == 3
    assert "exactly one terminal component" in capsys.readouterr().err


def test_observer_build_rejects_incomplete_graph(demo_files, capsys):
    code = run(["observer", "build", demo_files["lonely"]])
    assert code == 1
    assert "b" in capsys.readouterr().out


def test_covering_validate_and_graphs(demo_files, tmp_path, capsys):
    fam = write_json(tmp_path, "fam.json", {
        "alphabet": ["a", "b"],
        "members": [
            {"name": "[a]", "stem": ["a"]},
            {"name": "[b]", "stem": ["b"]},
        ],
    })
    assert run(["covering", "validate", fam]) == 0
    graph_file = tmp_path / "covgraph.json"
    assert run(["covering", "to-graph", fam, "-o", str(graph_file)]) == 0
    produced = json.loads(graph_file.read_text())
    assert sorted(produced["nodes"]) == ["[a]", "[b]"]

    partial = write_json(tmp_path, "partial.json", {
        "alphabet": ["a", "b"],
        "members": [{"name": "[aa]", "stem": ["a", "a"]},
                    {"name": "[ab]", "stem": ["a", "b"]}],
    })
    capsys.readouterr()
    assert run(["covering", "validate", partial]) == 1
    assert "b" in capsys.readouterr().out
    assert run(["covering", "to-graph", partial]) == 1


def test_covering_to_graph_builds_only_its_own_parsers(monkeypatch, tmp_path,
                                                       capsys):
    # the root, the covering group and the to-graph leaf; no other
    # command's parser is built
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    fam = write_json(tmp_path, "fam.json", {
        "alphabet": ["a", "b"],
        "members": [{"name": "[a]", "stem": ["a"]},
                    {"name": "[b]", "stem": ["b"]}],
    })
    assert run(["covering", "to-graph", fam]) == 0
    assert progs == ["pathlyap", "pathlyap covering",
                     "pathlyap covering to-graph"]


def test_covering_stem_outside_the_alphabet_exits_two(tmp_path, capsys):
    fam = write_json(tmp_path, "fam.json", {
        "alphabet": ["a", "b"],
        "members": [{"name": "[c]", "stem": ["c"]}],
    })
    assert run(["covering", "validate", fam]) == 2
    assert "stem symbols must come from the alphabet" in capsys.readouterr().err


def test_covering_from_graph_round_trip(demo_files, tmp_path, capsys):
    obs_file = tmp_path / "obs.json"
    assert run(["observer", "build", demo_files["mixed"],
                "-o", str(obs_file)]) == 0
    cov_file = tmp_path / "cov.json"
    assert run(["covering", "from-graph", str(obs_file),
                "-o", str(cov_file)]) == 0
    assert run(["covering", "validate", str(cov_file)]) == 0
    back = tmp_path / "back.json"
    assert run(["covering", "to-graph", str(cov_file), "-o", str(back)]) == 0
    obs = json.loads(obs_file.read_text())
    produced = json.loads(back.read_text())
    assert produced["nodes"] == obs["nodes"]
    assert sorted(map(tuple, produced["edges"])) == sorted(
        map(tuple, obs["edges"])
    )


# ---------------------------------------------------------------------------
# jsr, certificate, simulate, decrease-check
# ---------------------------------------------------------------------------

def test_jsr_upper_text_and_json(demo_files, tmp_path, capsys):
    assert run(["jsr", "upper", "--graph", demo_files["db1"],
                "--system", demo_files["system"], "--tol", "1e-3"]) == 0
    text = capsys.readouterr().out
    assert "3.922" in text

    assert run(["jsr", "upper", "--graph", demo_files["db1"],
                "--system", demo_files["system"], "--tol", "1e-3",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"rho_upper", "trace", "certificate"}

    cert_file = write_json(tmp_path, "cert.json", payload["certificate"])
    assert run(["certificate", "verify", "--certificate", cert_file,
                "--system", demo_files["system"]]) == 0


def test_jsr_upper_incomplete_graph_exits_one(demo_files):
    assert run(["jsr", "upper", "--graph", demo_files["lonely"],
                "--system", demo_files["system"]]) == 1


def test_jsr_upper_resource_limit_exits_three(demo_files, tmp_path):
    big = write_json(tmp_path, "big.json", de_bruijn(("a", "b"), 5).to_json())
    assert run(["jsr", "upper", "--graph", big,
                "--system", demo_files["system"]]) == 3


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_jsr_upper_non_positive_cap_exits_two(demo_files, capsys, cap):
    assert run(["jsr", "upper", "--graph", demo_files["db1"],
                "--system", demo_files["system"], "--cap", cap]) == 2
    err = capsys.readouterr().err
    assert f"unknown cap must be a positive integer, got {cap}" in err


def test_non_integer_cap_exits_two(demo_files, capsys):
    assert run(["graph", "check", demo_files["db1"], "--cap", "1.5"]) == 2
    assert "--cap" in capsys.readouterr().err


@pytest.mark.parametrize("env", ["-5", "0", "abc", "1.5"])
def test_bad_state_cap_environment_exits_two(demo_files, capsys, monkeypatch,
                                             env):
    monkeypatch.setenv("PATHLYAP_STATE_CAP", env)
    assert run(["graph", "check", demo_files["db1"]]) == 2
    err = capsys.readouterr().err
    assert f"PATHLYAP_STATE_CAP must be a positive integer, got {env!r}" in err


def test_de_bruijn_over_the_cap_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PATHLYAP_STATE_CAP", "8")
    out = tmp_path / "g.json"
    assert run(["graph", "debruijn", "-a", "a,b", "-k", "3",
                "-o", str(out)]) == 0
    assert run(["graph", "debruijn", "-a", "a,b", "-k", "4"]) == 3
    assert "cap of 8 nodes" in capsys.readouterr().err


def test_negative_state_cap_exits_two(demo_files, capsys):
    assert run(["observer", "build", demo_files["db1"], "--cap", "-1"]) == 2
    assert "state cap must be a positive integer, got -1" in (
        capsys.readouterr().err
    )


def test_jsr_lower(demo_files, capsys):
    assert run(["jsr", "lower", "--system", demo_files["system"],
                "--max-len", "2"]) == 0
    out = capsys.readouterr().out
    assert "3.91738" in out
    assert "a,b" in out


def test_jsr_lower_of_huge_modes(tmp_path, capsys):
    system = write_json(tmp_path, "huge.json", huge_entry_system().to_json())
    assert run(["jsr", "lower", "--system", system, "--max-len", "3",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho_lower"] == pytest.approx(1e80, rel=1e-12)
    assert payload["witness"] == ["a", "b"]


def test_jsr_upper_checks_the_cap_before_the_graph(demo_files, capsys):
    assert run(["jsr", "upper", "--graph", demo_files["lonely"],
                "--system", demo_files["system"], "--cap", "-1"]) == 2
    err = capsys.readouterr().err
    assert "unknown cap must be a positive integer, got -1" in err


def test_certificate_verify_failure_exits_one(demo_files, tmp_path, capsys):
    from pathlyap.lyapunov import QuadraticCertificate

    cert = QuadraticCertificate(
        de_bruijn_1_graph(),
        {"[a]": np.eye(2), "[b]": np.eye(2)},
        rho=1.0,
    )
    cert_file = write_json(tmp_path, "badcert.json", cert.to_json())
    assert run(["certificate", "verify", "--certificate", cert_file,
                "--system", demo_files["system"]]) == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_input_exits_two(demo_files, tmp_path, capsys, bad):
    system = demo_system().to_json()
    system["modes"]["b"][0][1] = bad
    bad_system = write_json(tmp_path, "badsystem.json", system)
    assert run(["jsr", "upper", "--graph", demo_files["db1"],
                "--system", bad_system]) == 2
    assert "mode 'b'" in capsys.readouterr().err

    from pathlyap.lyapunov import QuadraticCertificate

    cert = QuadraticCertificate(
        de_bruijn_1_graph(),
        {"[a]": np.eye(2), "[b]": np.eye(2)},
        rho=4.0,
    ).to_json()
    good_cert = write_json(tmp_path, "cert.json", cert)
    assert run(["certificate", "verify", "--certificate", good_cert,
                "--system", bad_system]) == 2
    assert "mode 'b'" in capsys.readouterr().err
    assert run(["certificate", "verify", "--certificate", good_cert,
                "--system", demo_files["system"],
                "--rho-prime", str(bad)]) == 2
    assert "rho_prime must be positive and finite" in capsys.readouterr().err
    cert["P"]["[a]"][1][1] = bad
    bad_cert = write_json(tmp_path, "badcert.json", cert)
    assert run(["certificate", "verify", "--certificate", bad_cert,
                "--system", demo_files["system"]]) == 2
    assert "P[[a]]" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--rho-prime", "nan", "rho_prime must be finite"),
    ("--tolerance", "nan", "tolerance must be non-negative and finite"),
    ("--trials", "-2", "trials must be non-negative"),
    ("--horizon", "-3", "horizon must be non-negative"),
], ids=["rho-prime", "tolerance", "trials", "horizon"])
def test_decrease_check_bad_input_exits_two(demo_files, tmp_path, capsys,
                                            flag, value, message):
    from pathlyap.lyapunov import QuadraticCertificate

    cert = QuadraticCertificate(
        de_bruijn_1_graph(),
        {"[a]": np.eye(2), "[b]": np.eye(2)},
        rho=5.0,
    ).to_json()
    obs_file = tmp_path / "obs.json"
    run(["observer", "build", demo_files["db1"], "-o", str(obs_file)])
    capsys.readouterr()
    assert run(["decrease-check",
                "--certificate", write_json(tmp_path, "cert.json", cert),
                "--observer", str(obs_file), "--system", demo_files["system"],
                flag, value]) == 2
    assert message in capsys.readouterr().err


def test_decrease_check_of_a_huge_rate(demo_files, tmp_path, capsys):
    # rho_prime = 1.01e200: its square and higher powers overflow a float
    from pathlyap.lyapunov import QuadraticCertificate

    cert = QuadraticCertificate(
        de_bruijn_1_graph(),
        {"[a]": np.eye(2), "[b]": np.eye(2)},
        rho=1e200,
    ).to_json()
    obs_file = tmp_path / "obs.json"
    run(["observer", "build", demo_files["db1"], "-o", str(obs_file)])
    capsys.readouterr()
    assert run(["decrease-check",
                "--certificate", write_json(tmp_path, "cert.json", cert),
                "--observer", str(obs_file), "--system", demo_files["system"],
                "--trials", "5"]) == 0
    captured = capsys.readouterr()
    assert "failures: 0" in captured.out
    assert "Traceback" not in captured.err


def test_certificate_lift(demo_files, tmp_path, capsys):
    run(["jsr", "upper", "--graph", demo_files["mixed"],
         "--system", demo_files["system"], "--tol", "1e-3",
         "--format", "json"])
    cert = json.loads(capsys.readouterr().out)["certificate"]
    cert_file = write_json(tmp_path, "cert.json", cert)
    obs_file = tmp_path / "obs.json"
    run(["observer", "build", demo_files["mixed"], "-o", str(obs_file)])
    lifted = tmp_path / "lifted.json"
    assert run(["certificate", "lift", "--certificate", cert_file,
                "--observer", str(obs_file), "-o", str(lifted)]) == 0
    data = json.loads(lifted.read_text())
    assert set(data) == {"rho", "dimension", "members"}
    assert len(data["members"]) == 5


def test_simulate_command(demo_files, capsys):
    assert run(["simulate", "--system", demo_files["system"],
                "--word", "a", "--x0", "1,0", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["states"] == [[1.0, 0.0], [3.0, -2.0]]


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_simulate_non_finite_start_exits_two(demo_files, capsys, bad):
    assert run(["simulate", "--system", demo_files["system"],
                "--word", "a", "--x0", f"{bad},1"]) == 2
    assert "x0" in capsys.readouterr().err


def test_rates_whose_square_overflows(demo_files, tmp_path, capsys):
    assert run(["jsr", "upper", "--graph", demo_files["db1"],
                "--system", demo_files["system"], "--tol", "1e300"]) == 0
    capsys.readouterr()

    system = demo_system().to_json()
    system["modes"] = {s: (np.array(m) * 1e160).tolist()
                       for s, m in system["modes"].items()}
    huge = write_json(tmp_path, "huge.json", system)
    assert run(["jsr", "upper", "--graph", demo_files["db1"],
                "--system", huge]) == 3
    assert "squared overflows" in capsys.readouterr().err

    from pathlyap.lyapunov import QuadraticCertificate

    cert = QuadraticCertificate(
        de_bruijn_1_graph(),
        {"[a]": np.eye(2), "[b]": np.eye(2)},
        rho=5.0,
    ).to_json()
    good = write_json(tmp_path, "cert.json", cert)
    assert run(["certificate", "verify", "--certificate", good,
                "--system", demo_files["system"],
                "--rho-prime", "1e-200"]) == 2
    assert "rho / rho_prime squared overflows" in capsys.readouterr().err
    cert["rho"] = 1e200
    steep = write_json(tmp_path, "steep.json", cert)
    assert run(["certificate", "verify", "--certificate", steep,
                "--system", demo_files["system"]]) == 2
    assert "rho squared overflows" in capsys.readouterr().err


def test_decrease_check_seed_reproducibility(demo_files, tmp_path, capsys):
    run(["jsr", "upper", "--graph", demo_files["mixed"],
         "--system", demo_files["system"], "--tol", "1e-3",
         "--format", "json"])
    cert_file = write_json(
        tmp_path, "cert.json",
        json.loads(capsys.readouterr().out)["certificate"],
    )
    obs_file = tmp_path / "obs.json"
    run(["observer", "build", demo_files["mixed"], "-o", str(obs_file)])
    capsys.readouterr()
    argv = ["decrease-check", "--certificate", cert_file,
            "--observer", str(obs_file), "--system", demo_files["system"],
            "--trials", "10", "--horizon", "8", "--seed", "5",
            "--format", "json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert report["failures"] == 0
    assert report["seed"] == 5


# ---------------------------------------------------------------------------
# the README's command line walk-through
# ---------------------------------------------------------------------------

def readme_walk_through():
    """The command lines of the first fenced block under the README's
    "Command line" heading, continuation lines joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("### Command line", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line)
            for line in block.replace("\\\n", " ").splitlines()]


def test_readme_walk_through_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "system.json").write_text(json.dumps(demo_system().to_json()))
    monkeypatch.chdir(tmp_path)
    for line in readme_walk_through():
        assert line[0] in ("pathlyap", "python3"), shlex.join(line)
        if line[0] == "pathlyap":
            code = run(line[1:])
        else:
            code = subprocess.run([sys.executable] + line[1:]).returncode
        assert code == 0, shlex.join(line)
