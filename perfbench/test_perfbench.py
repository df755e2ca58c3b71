"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

run.import_package()
import workloads  # noqa: E402  (needs the package path set up above)


def _inputs_bytes(workload, seed, hash_seed):
    """Generated inputs, serialised in a fresh interpreter."""
    code = ("import inputs, json, sys; "
            "print(json.dumps(inputs.GENERATORS[sys.argv[1]](int(sys.argv[2])), sort_keys=True))")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, "-c", code, workload, str(seed)], cwd=BENCH_DIR,
                         env=env, capture_output=True, check=True, timeout=120)
    return out.stdout


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    assert _inputs_bytes(workload, 3, 1) == _inputs_bytes(workload, 3, 2)


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_different_seeds_give_different_inputs(workload):
    gen = inputs.GENERATORS[workload]
    assert json.dumps(gen(3), sort_keys=True) != json.dumps(gen(4), sort_keys=True)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(inputs.GENERATORS) == sorted(workloads.WORKLOADS)


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_end_to_end_metric_names_match_benchmark_json(capsys):
    assert run.main(["--workload", "transfer-long", "--seed", "1", "--seconds", "0.1",
                     "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["unit"] == units[k] and m["value"] > 0 for k, m in result["metrics"].items())


def test_per_layer_metric_names_match_benchmark_json(capsys, monkeypatch):
    monkeypatch.setattr(workloads.TransferLong, "trace_jobs", 1)
    assert run.main(["--workload", "transfer-long", "--seed", "1", "--seconds", "0.1",
                     "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(m["unit"] == units[k] for k, m in result["metrics"].items())
    assert result["metrics"]["sft.exact_counts.calls"]["value"] == inputs.TRANSFER_MAX_N


def test_wrong_expected_count_is_a_failure(capsys, monkeypatch):
    wrong = dict(workloads.FLAGSHIP_EXPECTED, **{"type:(5)": 10187})
    monkeypatch.setattr(workloads, "FLAGSHIP_EXPECTED", wrong)
    assert run.main(["--workload", "a5-density", "--seed", "1", "--seconds", "0.1",
                     "--trace", "0"]) == 1
    result = _last_json(capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_p90_interpolates_between_closest_ranks():
    assert run.p90([float(i) for i in range(1, 11)]) == pytest.approx(9.1)
    assert run.p90([2.0]) == 2.0


def test_self_time_subtracts_child_spans():
    from tracer import Tracer

    t = Tracer()
    t.spans = [("outer", 0.0, 10.0, -1, 0), ("inner", 1.0, 4.0, 0, 0),
               ("inner", 5.0, 6.0, 0, 0), ("leaf", 2.0, 3.0, 1, 0)]
    self_s, total_s = t.times()
    assert self_s == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert total_s == {"outer": 10.0, "inner": 4.0, "leaf": 1.0}


def test_tracer_restores_the_package():
    from cheblink import permgroup, sft
    from tracer import Tracer

    before = (sft.orbit_list, sft.conjugacy_classes, permgroup.FiniteGroup.mul)
    t = Tracer()
    t.install()
    try:
        assert sft.orbit_list is not before[0]
        assert sft.conjugacy_classes is not before[1]
    finally:
        t.uninstall()
    assert (sft.orbit_list, sft.conjugacy_classes, permgroup.FiniteGroup.mul) == before
