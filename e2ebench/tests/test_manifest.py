"""The workloads and ``BENCHMARK.json`` name the same metrics."""

from __future__ import annotations

import importlib
import json

import pytest

from e2ebench.run import ROOT, WORKLOADS, _declared

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_manifest_lists_every_workload():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)


def test_declared_reads_each_list_with_its_units():
    assert _declared(False) == {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert _declared(True) == {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert "setup_s" in _declared(False)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_measures_only_declared_per_layer_metrics(name):
    workload = importlib.import_module(f"e2ebench.{name}")
    assert set(workload.PER_LAYER) <= set(_declared(True))
    assert len(set(workload.PER_LAYER)) == len(workload.PER_LAYER)


def test_every_per_layer_metric_is_measured_on_some_workload():
    measured = set()
    for name in WORKLOADS:
        measured |= set(importlib.import_module(f"e2ebench.{name}").PER_LAYER)
    assert measured == set(_declared(True))
