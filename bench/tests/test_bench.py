"""Tests of the benchmark itself: inputs, checks and failure accounting.

Run with `python -m pytest bench/tests -q` from the repository root."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import metrics
from run import judge
from scenarios import GENERATORS, write_instance
from workloads import WORKLOADS, run_library_round

from hybridflow import EngineConfig, build_state, engine, parse_scenario

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_gives_byte_identical_xml(workload, tmp_path):
    first = write_instance(workload, 7, 2, tmp_path / "a").parent
    second = write_instance(workload, 7, 2, tmp_path / "b").parent
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert GENERATORS[workload](8, 2) != GENERATORS[workload](7, 2)
    assert GENERATORS[workload](7, 3) != GENERATORS[workload](7, 2)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generated_scenarios_parse_and_validate(workload, seed, tmp_path):
    for index in range(2):
        model = parse_scenario(write_instance(workload, seed, index, tmp_path / str(index)))
        state = build_state(model, EngineConfig(seed=seed))
        assert state.consistency_errors() == []
        assert abs(state.ledger_residual()) <= 1e-9


def test_raising_instance_fails_and_round_keeps_its_step_count(tmp_path, monkeypatch):
    workload = replace(WORKLOADS["micro_corridor"], round_steps=30)
    real_step = engine.advance_step
    first_state = []

    def abort_first_instance(state, config):
        first_state[:] = first_state or [state]
        if state is first_state[0] and state.step == 5:
            raise engine.OverlapDetected("injected")
        return real_step(state, config)

    monkeypatch.setattr(engine, "advance_step", abort_first_instance)
    rounds = []
    for _ in range(2):
        first_state.clear()
        rounds.append((False, run_library_round(workload, 3, tmp_path)))
    instances = rounds[0][1].instances
    assert [i.steps for i in instances] == [5, 24]
    assert instances[0].error.startswith("OverlapDetected at step 5")
    assert rounds[0][1].clock.steps == 29      # 30 attempts, one of them aborted
    correct, attempted, failed, _ = judge(rounds)
    assert (correct, attempted, failed) == (True, 4, 2)


def test_benchmark_json_matches_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [entry[:3] for entry in metrics.PER_LAYER]


def test_judge_counts_failures_and_flags_rounds_that_differ():
    from tracing import StepClock
    from workloads import Instance, Round

    def round_of(*instances):
        return (False, Round(instances=list(instances), clock=StepClock()))

    ok, broken = Instance(0, steps=10, digest="a"), Instance(1, steps=10, digest="b")
    broken.problems.append("ledger residual 2e-09")
    same = [round_of(ok, broken), round_of(ok, broken)]
    assert judge(same)[:3] == (True, 4, 2)
    other = Instance(0, steps=10, digest="c")
    assert judge([round_of(ok), round_of(other)])[:3] == (False, 2, 1)
