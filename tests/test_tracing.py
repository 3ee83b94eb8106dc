"""The benchmark wraps engine names; each must exist, be passed through and
come back."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from hybridflow.engine import EngineConfig, advance_step, build_state
from hybridflow.scenario import parse_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def load_bench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve_and_are_restored(monkeypatch):
    tracing = load_bench("tracing", monkeypatch)
    with tracing.Patches() as patches:
        tracing.install_tracer(patches, tracing.Tracer())
        saved = list(patches._saved)
        assert saved
        for owner, name, original in saved:
            assert getattr(owner, name) is not original
    for owner, name, original in saved:
        assert getattr(owner, name) is original, f"{owner}.{name} not restored"


def test_cli_round_passes_through_its_hook_points(tmp_path, monkeypatch):
    # the CLI round times the steps between `engine.build_state` and the
    # return of `SimulationEngine.run`, and checks the state that run returns
    monkeypatch.syspath_prepend(str(BENCH))   # its modules import each other
    workloads = load_bench("workloads", monkeypatch)
    workload = dataclasses.replace(workloads.WORKLOADS["hybrid_jams_cli"], round_steps=60)
    rnd = workloads.run_cli_round(workload, 1, tmp_path)
    inst, = rnd.instances
    assert inst.steps == 60
    assert rnd.export_s > 0
    assert inst.error is None
    # 60 steps are too few for the jams to split, refine, merge and coarsen
    assert len(inst.problems) == 1 and inst.problems[0].startswith("did not exercise ")


def test_perception_span_times_the_engines_perception(monkeypatch):
    # a span on a name the engine no longer calls would read 0 calls
    tracing = load_bench("tracing", monkeypatch)
    config = EngineConfig(seed=0)
    state = build_state(parse_scenario(FIXTURES / "ring"), config)
    tracer = tracing.Tracer()
    with_micro = 0
    with tracing.Patches() as patches:
        tracing.install_tracer(patches, tracer)
        for _ in range(20):
            with_micro += state.micro_vehicle_count() > 0
            advance_step(state, config)
    assert with_micro > 0
    assert tracer.totals("engine.perceive")[0] == with_micro
