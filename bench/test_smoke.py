"""Smoke test of the benchmark: every workload, tiny sizes, one pass.

Checks the contract between ``BENCHMARK.json`` and what ``bench/`` emits
(names, units, caps) and that every workload's own answer checks pass.
No assertion reads a wall-clock value.
"""

import copy
import json
import os
import re

import pytest

from bench import compare, harness, layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_shape(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
        names.append(entry["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [entry for entry in spec["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"] for entry in spec["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's 3420 s; beside the timed
    # passes a run spends 2-9 s (mean 5.3 s) on generation, set-ups and checks.
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 7) <= 3420


def test_per_layer_table_matches_benchmark_json(spec):
    table = [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _moves, _on in layers.PER_LAYER
    ]
    assert table == spec["per_layer"]


def _workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return [workload["name"] for workload in json.load(handle)["workloads"]]


@pytest.mark.parametrize("name", _workload_names())
def test_workload_emits_the_declared_metrics(spec, name):
    for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        document = harness.run_workload(name, seed=2, seconds=0.0, trace=trace, tiny=True)
        assert document["failures"] == []
        assert document["correct"] and document["failed"] == 0 and document["attempted"] >= 1
        emitted = {key: value["unit"] for key, value in document["metrics"].items()}
        assert emitted == {entry["name"]: entry["unit"] for entry in declared}
        values = [value["value"] for value in document["metrics"].values()]
        assert all(isinstance(value, (int, float)) for value in values)
        if not trace:
            assert all(value > 0 for value in values)
            declared_named = {entry["name"]: entry["unit"] for entry in compare.NAMED}
            named = {key: value["unit"] for key, value in document["named"].items()}
            assert named.items() <= declared_named.items() and "failed_ratio" in named


def test_compare_flags_regressions_and_unresolved(spec, capsys):
    metrics = {
        entry["name"]: {"unit": entry["unit"], "median": 10.0, "spread": 0.01}
        for entry in spec["end_to_end"]
    }
    base = {
        "workloads": {
            workload["name"]: {"metrics": copy.deepcopy(metrics)} for workload in spec["workloads"]
        }
    }
    assert compare.compare(base, base, spec) == 0
    first = spec["workloads"][0]["name"]
    entry = spec["end_to_end"][-1]
    worse = copy.deepcopy(base)
    factor = 1 + 2 * entry["bound"] if entry["better"] == "lower" else 1 - 2 * entry["bound"]
    worse["workloads"][first]["metrics"][entry["name"]]["median"] = 10.0 * factor
    assert compare.compare(base, worse, spec) == 1
    noisy = copy.deepcopy(base)
    noisy["workloads"][first]["metrics"][entry["name"]]["spread"] = 2 * entry["bound"]
    assert compare.compare(base, noisy, spec) == 0
    assert "unresolved" in capsys.readouterr().out
    for side in (base, noisy):
        side["workloads"][first]["metrics"]["failed_ratio"] = {
            "unit": "ratio", "median": 0.0, "spread": None,
        }
    failing = copy.deepcopy(base)
    failing["workloads"][first]["metrics"]["failed_ratio"]["median"] = 0.001
    assert compare.compare(base, failing, spec) == 1
    assert compare.compare(base, noisy, spec) == 0
