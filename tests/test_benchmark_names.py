"""The names the benchmark reads from the package still resolve.

The benchmark under perfbench/ reaches into the package by name: its tracer
wraps methods and functions, and its spot checks read series coefficients.
A removed or renamed name shows there only as a crash of a traced run, so
these tests read the same names in the ordinary suite.

Claims covered:
    - every (owner, attribute) that perfbench/tracer.py wraps exists
    - the untimed spot checks of perfbench/workloads.py find no problem
    - installing the tracer wraps the package's functions, a run_identity
      call through the wrappers is traced, and uninstalling puts back every
      attribute of every supercat module and traced class
    - the environment cannot steer what the benchmark checks: `verify all`
      under SUPERCAT_ORDER=5 still passes the catalogue check at the default
      orders, and no module under src/supercat/ reads os.environ or os.getenv
"""

import ast
import importlib
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import supercat
import supercat.cli  # noqa: F401  (the tracer wraps supercat.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "supercat"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's modules, imported from its directory as run.py does."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return {name: importlib.import_module(name) for name in ("tracer", "workloads")}


def _state(owners):
    """Every attribute of every supercat module and of each traced class."""
    holders = [m for key, m in sys.modules.items()
               if key == "supercat" or key.startswith("supercat.")]
    holders += [owner for owner in owners if isinstance(owner, type)]
    return {(holder, key): value for holder in holders
            for key, value in list(vars(holder).items())}


def test_every_traced_name_resolves(bench):
    targets = bench["tracer"].targets(supercat)
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets
               if not hasattr(owner, attr)]
    assert missing == []
    assert len(targets) >= 20


def test_spot_checks_find_no_problem(bench):
    assert bench["workloads"].spot_checks(supercat) == []


def test_uninstall_restores_every_patched_attribute(bench):
    tracer_module = bench["tracer"]
    owners = [owner for owner, _, _, _ in tracer_module.targets(supercat)]
    before = _state(owners)
    tracer = tracer_module.Tracer()
    tracer.install(supercat)
    try:
        assert any(value is not before.get(key) for key, value in _state(owners).items())
        report = supercat.run_identity("e2", 3)
    finally:
        tracer.uninstall()
    assert report.passed
    assert tracer.spans  # the call went through a wrapper
    after = _state(owners)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_environment_cannot_change_the_default_orders(bench, monkeypatch):
    # the check workloads.build gives catalogue-default, called directly
    # because build makes the benchmark's output directory
    monkeypatch.setenv("SUPERCAT_ORDER", "5")
    out = StringIO()
    with redirect_stdout(out):
        assert supercat.cli.main(["verify", "all", "--format", "json"]) == 0
    workloads = bench["workloads"]
    assert workloads._check_catalogue(workloads.DEFAULT_ORDERS)(out.getvalue()) is None


def _reads_environment(node) -> bool:
    """Whether `node` names os.environ or os.getenv, by attribute or by a
    `from os import`."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("environ", "getenv")
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in ("environ", "getenv") for alias in node.names)
    return False


def test_no_module_reads_the_environment():
    # a setting read from the environment would have to change this test
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    readers = [path.name for path in modules
               if any(map(_reads_environment, ast.walk(ast.parse(path.read_text()))))]
    assert readers == []
