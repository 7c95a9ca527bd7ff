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
"""

import importlib
import sys
from pathlib import Path

import pytest

import supercat
import supercat.cli  # noqa: F401  (the tracer wraps supercat.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
