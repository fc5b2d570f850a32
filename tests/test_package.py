"""The package namespace and what each entry point imports.

`import pathlyap` loads no submodule; every exported name comes from its
submodule on first use.  The combinatorial layer and the CLI commands over
it must run without numpy, so those checks run in fresh interpreters.
"""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pathlyap

SRC = Path(pathlyap.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the names the package exported when it imported every submodule eagerly,
# by the submodule that defines them
EXPORTS = {
    "errors": ("InvariantViolation", "NotPathCompleteError",
               "NumericalError", "ResourceLimitError"),
    "graphs": ("LabeledGraph", "de_bruijn", "dual", "find_unreadable_word",
               "graph_from_json", "is_complete", "is_deterministic",
               "is_path_complete"),
    "automata": ("Automaton", "accepts", "automaton_from_json",
                 "language_includes", "prefix_class_automaton",
                 "universality_witness"),
    "observer": ("ObserverGraph", "observer_core", "observer_from_json",
                 "observer_graph"),
    "covering": ("CoveringFamily", "CoveringMember", "covering_from_json",
                 "covering_to_graph", "observer_to_covering",
                 "prefix_covering", "validate_covering"),
    "lyapunov": ("MaxQuadraticFunction", "QuadraticCertificate",
                 "SwitchedLinearSystem", "VerificationReport", "assemble_lmi",
                 "certificate_from_json", "evaluate_mblf", "lift_certificate",
                 "system_from_json", "verify_certificate"),
    "sdp": ("JsrBoundResult", "MarginSolution", "jsr_upper_bound",
            "solve_margin"),
    "simulate": ("DecreaseReport", "Trajectory", "jsr_lower_bound",
                 "simulate", "trajectory_decrease_check"),
    "fixtures": ("de_bruijn_1_graph", "de_bruijn_2_graph", "demo_system",
                 "mixed_horizon_graph"),
}
# submodules that `from pathlyap import *` also bound; `simulate` is the
# function of that name
STAR_SUBMODULES = {"automata", "covering", "errors", "fixtures", "graphs",
                   "lyapunov", "observer", "sdp"}
COMBINATORIAL = {"pathlyap", "pathlyap.cli", "pathlyap.errors",
                 "pathlyap.graphs", "pathlyap.automata", "pathlyap.observer",
                 "pathlyap.covering"}


def python(code, *argv, flags=()):
    """Run `code` with `argv` in a fresh interpreter that imports this
    pathlyap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, *flags, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def assert_ran(out):
    assert out.returncode == 0, out.stderr
    return out.stdout


# ---------------------------------------------------------------------------
# namespace
# ---------------------------------------------------------------------------

def test_every_export_is_its_submodule_object():
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"pathlyap.{module}")
        for name in names:
            assert getattr(pathlyap, name) is getattr(source, name), name
    assert callable(pathlyap.simulate)


def test_every_submodule_export_list_matches_the_package_table():
    # a submodule that declares __all__ keeps a second export list, which
    # must name what the package exports from it
    declared = []
    for module, names in pathlyap._EXPORTS.items():
        source = importlib.import_module(f"pathlyap.{module}")
        if hasattr(source, "__all__"):
            declared.append(module)
            assert sorted(source.__all__) == sorted(names), module
    assert declared


def test_every_json_reader_turns_type_errors_into_input_errors():
    # errors.json_reader makes a nested field of the wrong type exit 2, not
    # end in a traceback
    readers = [name for name in pathlyap.__all__
               if name.endswith("_from_json")]
    assert len(readers) >= 6
    for name in readers:
        assert hasattr(getattr(pathlyap, name), "__wrapped__"), name


@pytest.fixture(scope="module")
def records():
    """One instance of every record, each built by the package's own calls
    on the bundled demo, keyed by its class."""
    from pathlyap import (
        assemble_lmi, de_bruijn_1_graph, demo_system, jsr_upper_bound,
        lift_certificate, observer_graph, observer_to_covering, simulate,
        solve_margin, trajectory_decrease_check, validate_covering,
        verify_certificate,
    )
    system, graph = demo_system(), de_bruijn_1_graph()
    problem = assemble_lmi(graph, system, 4.0)
    bound = jsr_upper_bound(graph, system)
    observer = observer_graph(graph)
    covering = observer_to_covering(observer)
    lifted = lift_certificate(bound.certificate, observer)
    built = [
        system, graph, problem, solve_margin(problem), bound,
        bound.certificate, verify_certificate(bound.certificate, system),
        observer, covering, covering.members[0],
        covering.members[0].automaton, validate_covering(covering), lifted,
        simulate(system, ("a", "b"), (1.0, 0.0)),
        trajectory_decrease_check(lifted, observer, system,
                                  1.01 * bound.rho_upper, trials=2,
                                  horizon=3),
    ]
    return {type(record): record for record in built}


def test_every_record_is_immutable(records):
    from pathlyap import verify_certificate
    from pathlyap.errors import Record
    from pathlyap.lyapunov import SwitchedLinearSystem
    from pathlyap.sdp import JsrBoundResult
    # the bound's certificate is built with the margin its check found
    cert = records[JsrBoundResult].certificate
    report = verify_certificate(cert, records[SwitchedLinearSystem])
    assert cert.margin == report.margin
    for info in pkgutil.iter_modules(pathlyap.__path__):
        importlib.import_module(f"pathlyap.{info.name}")
    assert set(records) == set(Record.__subclasses__())
    for cls, record in records.items():
        for name in cls.__slots__:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before, f"{cls.__name__}.{name}"
        with pytest.raises(AttributeError):
            record.no_such_field = None


def test_value_records_hash_by_their_fields(records):
    from pathlyap import validate_covering
    from pathlyap.covering import CoveringFamily, CoveringReport
    from pathlyap.observer import ObserverGraph
    report = records[CoveringReport]
    again = validate_covering(records[CoveringFamily])
    assert report == again and hash(report) == hash(again)
    # a dict field leaves a value record unhashable
    with pytest.raises(TypeError):
        hash(records[ObserverGraph])


def test_every_benchmark_lookup_site_resolves():
    # the benchmark tracer wraps each (module, attribute) of its SITES and
    # reports a site that has gone as an absent metric; a renamed lookup
    # site fails here instead.  The tracer is read from source, so nothing
    # is written beside it.
    tracing = {}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    sites = {(module, attr) for module, attr, *_ in tracing["SITES"]}
    assert len(sites) >= 15
    for module, attr in sorted(sites):
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{module}.{attr}"


def test_star_import_gives_the_same_public_names():
    # in a fresh interpreter: a submodule imported earlier, such as `cli`,
    # is bound onto the package and would leak into a star import there
    out = assert_ran(python(
        "import json, sys, types\n"
        "namespace = {}\n"
        "exec('from pathlyap import *', namespace)\n"
        "del namespace['__builtins__']\n"
        "modules = [k for k, v in namespace.items()\n"
        "           if isinstance(v, types.ModuleType)\n"
        "           and v is sys.modules[f'pathlyap.{k}']]\n"
        "print(json.dumps([sorted(namespace), sorted(modules)]))\n"
    ))
    names, modules = json.loads(out)
    exported = {name for names in EXPORTS.values() for name in names}
    assert set(names) == exported | STAR_SUBMODULES
    assert set(modules) == STAR_SUBMODULES


def test_dir_lists_every_export_and_unknown_names_raise():
    listed = set(dir(pathlyap))
    for names in EXPORTS.values():
        assert set(names) <= listed
    assert not hasattr(pathlyap, "no_such_name")


def test_bare_import_loads_nothing_and_submodules_resolve():
    out = assert_ran(python(
        "import sys, pathlyap\n"
        "print(sorted(m for m in sys.modules if m.startswith('pathlyap')"
        " or m == 'numpy'))\n"
        "assert pathlyap.sdp is sys.modules['pathlyap.sdp']\n"
        "assert pathlyap._kernels is sys.modules['pathlyap._kernels']\n"
        "assert pathlyap.covering.covering_to_graph"
        " is pathlyap.covering_to_graph\n"
    ))
    assert out.strip() == "['pathlyap']"


def test_simulate_stays_the_function_whatever_the_import_order():
    # importing the submodule binds it onto the package; the package's
    # `simulate` must still be the function
    orders = (
        "import pathlyap.sdp, pathlyap.simulate; import pathlyap as pl",
        "import pathlyap as pl; pl.simulate; import pathlyap.simulate",
        "import pathlyap as pl; import pathlyap.cli, pathlyap.simulate",
        "from pathlyap.simulate import simulate; import pathlyap as pl",
    )
    for order in orders:
        assert_ran(python(
            f"{order}\n"
            "import sys\n"
            "fn = sys.modules['pathlyap.simulate'].simulate\n"
            "assert pl.simulate is fn, pl.simulate\n"
            "from pathlyap import simulate\n"
            "assert simulate is fn, simulate\n"
        ))


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    block = re.search(r"## Quick start\s+```python\n(.*?)```", text, re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    upper, lower, verified = capsys.readouterr().out.splitlines()
    assert upper.startswith("3.917")
    assert lower.startswith("3.917") and "('a', 'b')" in lower
    assert verified.startswith("True ")
    assert float(verified.split()[1]) > 0


# ---------------------------------------------------------------------------
# import graph of the combinatorial layer and the CLI
# ---------------------------------------------------------------------------

def test_combinatorial_modules_load_without_numpy():
    out = assert_ran(python(
        "import sys\n"
        "import pathlyap.graphs, pathlyap.automata, pathlyap.observer,"
        " pathlyap.covering\n"
        "print('numpy' in sys.modules)\n"
    ))
    assert out.strip() == "False"


def test_combinatorial_commands_run_without_numpy(tmp_path):
    out = assert_ran(python(
        "import json, sys\n"
        "from pathlib import Path\n"
        "import pathlyap\n"
        "from pathlyap.cli import run\n"
        "data = Path(pathlyap.__file__).parent / 'data'\n"
        "tmp = Path(sys.argv[1])\n"
        "steps = [\n"
        "    ['graph', 'check', str(data / 'mixed_horizon.json')],\n"
        "    ['observer', 'build', str(data / 'mixed_horizon.json'),\n"
        "     '-o', str(tmp / 'obs.json')],\n"
        "    ['covering', 'from-graph', str(tmp / 'obs.json'),\n"
        "     '-o', str(tmp / 'cov.json')],\n"
        "    ['covering', 'validate', str(tmp / 'cov.json')],\n"
        "    ['covering', 'to-graph', str(tmp / 'cov.json')],\n"
        "]\n"
        "for argv in steps:\n"
        "    code = run(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('pathlyap'))))\n",
        str(tmp_path),
    ))
    loaded = set(json.loads(out.splitlines()[-1]))
    assert loaded <= COMBINATORIAL


def test_covering_to_graph_process_never_imports_numpy(tmp_path):
    family = tmp_path / "fam.json"
    family.write_text(json.dumps({
        "alphabet": ["a", "b"],
        "members": [{"name": "[a]", "stem": ["a"]},
                    {"name": "[b]", "stem": ["b"]}],
    }))
    out = python(
        "import runpy, sys\n"
        f"sys.argv = ['pathlyap', 'covering', 'to-graph', {str(family)!r}]\n"
        "runpy.run_module('pathlyap.cli', run_name='__main__')\n",
        flags=("-X", "importtime"),
    )
    assert out.returncode == 0, out.stderr
    assert "graph: 2 nodes, 4 edges" in out.stdout
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "pathlyap.covering" in imported
    # records are plain classes: dataclasses, and the inspect module it
    # loads, stay out of the process
    assert not [m for m in imported
                if m.split(".")[0] in ("numpy", "dataclasses", "inspect")]


def test_cli_output_file_loads_no_pathlib(tmp_path):
    # -S keeps site hooks (which may load pathlib themselves) out of the
    # process, so what it loads is what the package loads
    target = tmp_path / "db2.json"
    out = assert_ran(python(
        "import sys\n"
        "from pathlyap.cli import run\n"
        "code = run(['graph', 'debruijn', '-a', 'a,b', '-k', '2',\n"
        "            '-o', sys.argv[1]])\n"
        "assert code == 0, code\n"
        "print('pathlib' in sys.modules)\n",
        str(target),
        flags=("-S",),
    ))
    assert out.splitlines()[-1] == "False"
    from pathlyap.graphs import de_bruijn

    payload = json.dumps(de_bruijn(("a", "b"), 2).to_json(), indent=2)
    assert target.read_bytes() == (payload + "\n").encode("ascii")


def test_jsr_upper_loads_no_covering_layer():
    out = assert_ran(python(
        "import json, sys\n"
        "from pathlib import Path\n"
        "import pathlyap\n"
        "from pathlyap.cli import run\n"
        "data = Path(pathlyap.__file__).parent / 'data'\n"
        "code = run(['jsr', 'upper', '--graph', str(data / 'debruijn1.json'),\n"
        "            '--system', str(data / 'demo_system.json'),\n"
        "            '--tol', '1e-3'])\n"
        "assert code == 0, code\n"
        "print('dataclasses' in sys.modules)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('pathlyap'))))\n",
    ))
    *_, dataclasses_loaded, modules = out.splitlines()
    assert dataclasses_loaded == "False"
    assert set(json.loads(modules)) == {
        "pathlyap", "pathlyap.cli", "pathlyap.errors", "pathlyap.graphs",
        "pathlyap.lyapunov", "pathlyap._kernels", "pathlyap.sdp",
    }
