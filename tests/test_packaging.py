import argparse
import ast
import importlib
import os
import site
import subprocess
import sys
import textwrap
import types
import typing
from pathlib import Path

import axiclone
from axiclone import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# the modules that compute the paper's answer, each with its public __all__
_API_MODULES = ("dist", "optimal", "qsim", "circuit", "choi")


# one call of each scalar command, as a user runs it
_SCALAR_COMMANDS = (
    ["params", "--dist", "vmf:kappa=1.5"],
    ["circuit", "--dist", "uniform"],
    ["sweep", "--dist", "hg:h=0", "--sweep", "h=-0.5:0.5:11"],
    ["simulate", "--dist", "vmf:kappa=1.5", "--theta", "0.7", "--phi", "2.1"],
)


def _cold_imports(*args: str) -> set[str]:
    """Modules a fresh ``python -X importtime *args`` process imports.

    ``-X importtime`` lists every module the process imports on stderr.
    The site-packages directories are on PYTHONPATH, so under ``-S`` a
    third-party module can still be imported, but none of their ``.pth``
    files runs: it is imported only if the package itself imports it.
    """
    path = os.pathsep.join([str(SRC), *site.getsitepackages()])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-X", "importtime", *args],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return {line.rsplit("|", 1)[-1].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
            and not line.endswith("| imported package")}


def test_import_and_scalar_commands_load_only_the_stdlib():
    # the package import and a cold params / circuit / sweep / simulate
    # load nothing outside the standard library but the package itself
    runs = [("-c", "import axiclone")]
    runs += [("-m", "axiclone.cli", *argv) for argv in _SCALAR_COMMANDS]
    for run in runs:
        imported = _cold_imports("-S", *run)
        assert "axiclone" in imported, run
        foreign = {name for name in imported
                   if name.split(".")[0] not in sys.stdlib_module_names
                   and name.split(".")[0] != "axiclone"}
        assert not foreign, f"{run} loaded {sorted(foreign)}"


def test_scalar_commands_do_not_load_numpy():
    # the closed form, the moments, the gate list and the simulation are
    # scalar math: the package import loads none of its modules, params /
    # circuit / sweep / simulate run without numpy, and choi loads it
    code = textwrap.dedent("""
        import sys
        import axiclone
        assert "numpy" not in sys.modules, "import axiclone loaded numpy"
        loaded = [m for m in sys.modules if m.startswith("axiclone.")]
        assert not loaded, f"import axiclone loaded {loaded}"
        import axiclone.choi
        assert "numpy" in sys.modules, "import axiclone.choi loaded no numpy"
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for argv in _SCALAR_COMMANDS:
        imported = _cold_imports("-m", "axiclone.cli", *argv)
        assert "axiclone.optimal" in imported, argv
        assert "numpy" not in imported, f"{argv[0]} loaded numpy"


def test_scalar_commands_load_no_class_generator():
    # the value classes are written out, so a cold call loads neither
    # dataclasses nor the inspect and typing modules; -S keeps the .pth
    # files of site-packages, which may import typing, out of the process
    for argv in _SCALAR_COMMANDS:
        imported = _cold_imports("-S", "-m", "axiclone.cli", *argv)
        assert "axiclone.optimal" in imported, argv
        loaded = imported & {"dataclasses", "typing", "inspect"}
        assert not loaded, f"{argv[0]} loaded {sorted(loaded)}"


def test_only_the_circuit_command_loads_the_circuit_module():
    # cli imports circuit inside cmd_circuit, as it imports qsim and choi
    # inside their commands, so a cold params, sweep or simulate skips it
    for argv in _SCALAR_COMMANDS:
        imported = _cold_imports("-S", "-m", "axiclone.cli", *argv)
        assert "axiclone.optimal" in imported, argv
        assert ("axiclone.circuit" in imported) == (argv[0] == "circuit"), argv


def _module_level_imports(tree: ast.Module) -> set[str]:
    """Top modules a module imports when it loads.

    An import inside a function, or under ``if TYPE_CHECKING:``, does not run
    at load time and is not counted.
    """
    names: set[str] = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            todo.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_only_choi_imports_numpy_at_module_level():
    # the one array layer is the certificate; every other module imports
    # numpy, if at all, inside the function that needs it
    loaders = {path.name for path in sorted((SRC / "axiclone").glob("*.py"))
               if "numpy" in _module_level_imports(
                   ast.parse(path.read_text(encoding="utf-8")))}
    assert loaders == {"choi.py"}


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so every check the package relies on
    # raises an error of its own instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "axiclone").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_moments_load_no_polynomial_module_or_integrator():
    # every kind's moments are closed forms or exact sums over a table's
    # segments: none needs numpy.polynomial, and no quadrature module ships
    code = textwrap.dedent("""
        import importlib.util, sys
        from axiclone.dist import (KINDS, Belt, Brosseau, Delta, DeltaPair,
                                   HenyeyGreenstein, Tabulated, Uniform,
                                   VonMisesFisher, moments)
        ensembles = [Uniform(), VonMisesFisher(kappa=2.0),
                     Brosseau(P=0.6, mu=0.2), Brosseau(P=0.999999, mu=0.999999),
                     HenyeyGreenstein(h=0.4), Delta(theta=0.7),
                     DeltaPair(theta=1.1), Belt(theta1=0.3, theta2=2.0),
                     Tabulated(xs=(-1.0, 0.0, 1.0), gs=(0.25, 0.5, 0.75))]
        assert set(KINDS.values()) <= {type(d) for d in ensembles}
        for d in ensembles:
            moments(d)
        assert "numpy.polynomial" not in sys.modules, "numpy.polynomial loaded"
        assert importlib.util.find_spec("axiclone.quadrature") is None
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # under the project's warning filters a failing Hypothesis test must be
    # reported as one failure, and the tests after it must still run
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_always_fails(n):
            assert False


        def test_passes():
            pass
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_each_command_takes_only_its_own_options():
    # every command reads --dist and --out; any further option is read by
    # that command alone, so an option no command reads cannot come back
    own = {"params": set(), "sweep": {"--sweep"},
           "simulate": {"--theta", "--phi"}, "verify": {"--samples", "--seed"},
           "circuit": set()}
    sub, = (a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(own)
    for name, parser in sub.choices.items():
        options = {s for a in parser._actions for s in a.option_strings}
        assert options - {"-h", "--help"} == {"--dist", "--out"} | own[name], name


def test_package_exports_only_what_its_callers_read():
    # the package root exports nothing but its submodules; the commands and
    # the benchmark read the names below from their modules, and a helper
    # only tests call lives in tests/, so adding one here must fail
    for name in vars(axiclone):
        if not name.startswith("_"):
            value = getattr(axiclone, name)
            assert isinstance(value, types.ModuleType), name
            assert value is sys.modules[f"axiclone.{name}"], name
    exported = set()
    for module in _API_MODULES:
        exported |= set(importlib.import_module(f"axiclone.{module}").__all__)
    assert exported == {
        "AxisDistribution", "Belt", "Brosseau", "ClonerParams", "Delta",
        "DeltaPair", "Gate", "HenyeyGreenstein", "KINDS", "MomentPair",
        "PureQubit", "Regime", "Tabulated", "UC_ALPHA", "Uniform",
        "VonMisesFisher", "apply_clone", "average_fidelity", "build_circuit",
        "build_merit", "choi_fidelity", "choi_from_params", "circuit_unitary",
        "clone_fidelity_sim", "clone_isometry", "dual_certificate",
        "load_tabulated", "max_sampled_fidelity", "moments",
        "numeric_optimum", "optimal_angles", "optimality_report",
        "pcc_params", "single_copy_fidelity", "spec_string", "uc_params",
        "validate_moments",
    }


def _top_level_definitions(tree: ast.Module) -> set[str]:
    """Names a module binds by a def, a class or an assignment of its own."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_each_module_all_names_are_defined_there():
    # each public name has one import path, the module that defines it, so
    # an __all__ entry that only re-exports another module's name must fail
    for module in _API_MODULES:
        exported = importlib.import_module(f"axiclone.{module}").__all__
        assert len(exported) == len(set(exported)), module
        tree = ast.parse((SRC / "axiclone" / f"{module}.py").read_text(
            encoding="utf-8"))
        missing = set(exported) - _top_level_definitions(tree)
        assert not missing, f"{module} does not define {sorted(missing)}"


def _functions(cls_or_module) -> list:
    """Functions and methods a module or class defines itself."""
    found = []
    for value in vars(cls_or_module).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            found += [f for f in (value.fget, value.fset) if f is not None]
        elif isinstance(value, types.FunctionType):
            found.append(value)
    return found


def test_every_annotation_resolves():
    # an annotation naming a module the code imports only inside a function
    # cannot be evaluated; get_type_hints must resolve every one in src/
    checked = 0
    for path in sorted((SRC / "axiclone").glob("*.py")):
        name = "axiclone" if path.stem == "__init__" else f"axiclone.{path.stem}"
        module = importlib.import_module(name)
        functions = [f for f in _functions(module) if f.__module__ == name]
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                functions += _functions(value)
        for function in functions:
            typing.get_type_hints(function)
            checked += 1
    assert checked > 50
