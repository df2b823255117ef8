"""Tiny runs of each workload through the worker's item runner and oracles."""

import pytest

import generate
import worker
from oracles import load_reference
from taitkit import cli

TINY_TABLE = {"3_1", "hopf", "8_17-flyped", "gen-rational-2.3.2.3",
              "gen-montesinos-2.1_3_2.2", "gen-braid3-1.1.1.1.1.1.1.1.1.1"}
TINY = {
    "flype_check": {"distinguished-n10", "related-00", "mutant-00"},
}


def tiny_items(workload: str, seed: int = 5):
    items = generate.build_workload(workload, seed)
    if workload == "table_invariants":
        return [item for item in items if item.table[0]["name"] in TINY_TABLE]
    return [item for item in items if item.name in TINY[workload]]


def run(items, tmp_path):
    worker.write_inputs(items, tmp_path)
    return worker.run_items(items, tmp_path, load_reference())


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_tiny_workload_passes_its_oracles(workload, tmp_path):
    items = tiny_items(workload)
    samples = run(items, tmp_path)
    assert [s["item"] for s in samples] == list(range(len(items)))
    assert all(s["ok"] for s in samples)


def test_wrong_output_fails_the_item(tmp_path):
    (item,) = [item for item in tiny_items("table_invariants") if item.name == "invariants-3_1"]
    item.expect["determinants"]["3_1"] = 5
    (sample,) = run([item], tmp_path)
    assert not sample["ok"]


def test_escaping_exception_fails_only_its_item(tmp_path, monkeypatch):
    items = tiny_items("flype_check")
    original = cli.main

    def flaky(argv):
        if argv[argv.index("--input") + 1].endswith("related-00.json"):
            raise RuntimeError("boom")
        return original(argv)

    monkeypatch.setattr(cli, "main", flaky)
    samples = run(items, tmp_path)
    assert [s["ok"] for s in samples] == [item.name != "related-00" for item in items]

