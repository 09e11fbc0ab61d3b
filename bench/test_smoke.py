"""Smoke test of the benchmark on each workload's N <= 120 inputs.

    python3 -m pytest bench/test_smoke.py
"""

import dataclasses
import json
import os

import pytest

import checks
import run
from instances import ROW4

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

# Failed operations per small pass: the three malformed graph files fail
# until they give exit 4.  With seconds=0 a run makes exactly one round.
KNOWN_FAILURES = {"classify-key": 0, "build": 0, "graph-file": 3}


def small_instances(workload, replace_row4=None):
    return tuple(
        replace_row4 if replace_row4 and inst.key == ROW4.key else inst
        for inst in run.WORKLOADS[workload].instances
        if checks.expected_n(inst)[0] <= 120)


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed(workload, trace):
    result = run.measure(workload, seed=1, seconds=0, trace=trace,
                         instances=small_instances(workload))
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    assert result["correct"]
    assert result["failed"] == \
        KNOWN_FAILURES[workload] * run.WORKLOADS[workload].small_passes


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_wrong_expected_value_is_a_failed_operation(workload):
    wrong = dataclasses.replace(ROW4, table_n=ROW4.table_n + 1)
    result = run.measure(workload, seed=1, seconds=0, trace=False,
                         instances=small_instances(workload, wrong))
    assert not result["correct"]
    assert result["failed"] == \
        (KNOWN_FAILURES[workload] + 1) * run.WORKLOADS[workload].small_passes
