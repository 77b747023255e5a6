"""The benchmark's calls into the package, checked in the main test suite.

``perfbench`` runs each workload registered in ``BENCHMARK.json`` through
the public API and folds the first ops' result lines into a digest recorded
in ``perfbench/expected.json``.  Its own self-tests run the benchmark
script in a subprocess and need numpy.  This module loads
``workloads.py`` and ``run.py`` by file path, with no subprocess and no
numpy, runs one cycle of each registered workload through ``run.one_op``
(the benchmark's ``run`` and ``check``), and compares the seed-0 digest.
A change to the package that breaks a call the benchmark makes, or
changes a result it digests, fails here.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REGISTRY = json.loads((ROOT / "BENCHMARK.json").read_text())
REGISTERED = [w["name"] for w in REGISTRY["workloads"]]


def _load(name: str, **imports):
    """The module ``perfbench/<name>.py``, with ``imports`` visible to it
    by name while it loads."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, imports):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    workloads = _load("workloads", oracle=_load("oracle"))
    return workloads, _load("run")


@pytest.mark.parametrize("name", REGISTERED)
def test_one_cycle_passes_every_check(bench, name):
    workloads, run = bench
    workload = workloads.WORKLOADS[name](0)
    for i in range(workload.cycle):
        _, ok, line = run.one_op(workload, workload.spec(i), None, i)
        assert ok, line


@pytest.mark.parametrize("name", REGISTERED)
def test_seed_zero_digest_matches_the_record(bench, name):
    workloads, run = bench
    expected = json.loads((BENCH / "expected.json").read_text())
    found, _ = run.digest(workloads.WORKLOADS[name](0), [], 0)
    assert found == expected[name]["0"]
