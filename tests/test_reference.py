"""The stored benchmark references, checked in the everyday test run.

``perfbench/reference/*-smoke.npz`` hold the final frame and every Picard
distance of both benchmark marches at smoke size and seed 0. Any change to
the solver's hot path must reproduce them to the benchmark's own tolerance
(``compare_reference``: 1e-12 relative). The workload module is loaded from
its file and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import cubelap as cl

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up in sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["march_wide", "march_oracle"])
def test_smoke_march_matches_stored_reference(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(cl, workloads.DEFAULT_SEED, True, tmp_path)
    assert inputs["reference"], f"no stored smoke reference for {name}"
    reports = workload.solve(cl, inputs)
    assert workloads.compare_reference(reports, inputs["reference"]) == []
