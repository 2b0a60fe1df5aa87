"""BENCHMARK.json names every workload and metric the benchmark emits."""

import json
import re

import pytest

import metrics
import run
from common import ROOT, Outcome, Tally

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(metrics.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_end_to_end_metrics_match_with_units_and_bounds():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match_with_units():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.PER_LAYER
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_names_and_units_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_result_line_carries_every_metric_with_its_unit(monkeypatch, capsys, workload, trace):
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    outcome = Outcome(Tally(attempted=5), {name: 1.5 for name in wanted})
    monkeypatch.setattr(run, "measure", lambda args: (outcome, {}))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 5 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_failed_operations_make_the_result_incorrect(monkeypatch, capsys):
    outcome = Outcome(Tally(attempted=5, failed=1, problems=["x"]),
                      {name: 1.0 for name in metrics.END_TO_END})
    monkeypatch.setattr(run, "measure", lambda args: (outcome, {}))
    assert run.main(["--workload", "paper-cold", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
