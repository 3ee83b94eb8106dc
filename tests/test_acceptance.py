"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Expected values marked as derived were computed with independent oracles
(scalar formula evaluation, bisection, flux-jump ratio, enumeration).
"""

import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from hybridflow.cli import run_command
from hybridflow.engine import (EngineConfig, SimulationEngine, SimulationError,
                               advance_step, apply_system_influences, build_state)
from hybridflow.lod import Action
from hybridflow.macro import CellStore, FundamentalDiagram, MacroSegment
from hybridflow.micro import (AdjacentView, BehaviorContext, DriverArrays, DriverParams,
                              Perception, PerceptionArrays, Vehicle, behavior_chain,
                              behavior_chains, equilibrium_gap, LEFT, STAY)
from hybridflow.probes import CanaryProbe
from hybridflow.scenario import (ScenarioError, parse_scenario,
                                 serialize_scenario, write_scenario)
from probe_contract import CallSequenceProbe, fail_at_step

FIXTURES = Path(__file__).parent / "fixtures"
P = DriverParams()
INF = float("inf")


def ok(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def scalar_idm(v, s, dv, p=P):
    s_star = p.s0 + max(0.0, v * p.T + v * dv / (2.0 * math.sqrt(p.a_max * p.b)))
    inter = 0.0 if math.isinf(s) else (s_star / s) ** 2
    return p.a_max * (1.0 - (v / p.v0) ** p.delta - inter)


def kernel_idm(v, s, dv, p=P):
    """The engine's car following: the acceleration its behavior chain gives
    a lone driver at speed v behind a leader s ahead, closing at dv."""
    return behavior_chain(Vehicle("ego", "r", 0, 0.0, v, params=p),
                          Perception(leader_gap=s, leader_dv=dv),
                          BehaviorContext(lane_count=1)).acceleration


def write_single_road_scenario(root: Path, length=2000.0, lanes=1,
                               speed_limit=25.0, q=1800.0, duration=3600.0,
                               vehicles=(), v0="33.33"):
    root.mkdir(parents=True, exist_ok=True)
    (root / "scenario.xml").write_text(
        f'<?xml version="1.0"?>\n<simulation time_step="0.25" duration="{duration}">\n'
        '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
        '</simulation>\n')
    (root / "infra.xml").write_text(
        '<?xml version="1.0"?>\n<infrastructure>\n'
        '  <node id="a" kind="crossroads"/>\n  <node id="b" kind="crossroads"/>\n'
        f'  <road id="r" from="a" to="b" length="{length}" lanes="{lanes}" '
        f'speed_limit="{speed_limit}"/>\n</infrastructure>\n')
    veh_lines = "\n".join(vehicles)
    (root / "level.xml").write_text(
        '<?xml version="1.0"?>\n<level>\n'
        '  <input_point id="in" road="r" lanes="all" generation_ref="gen.xml" '
        'rhythm_ref="rhythm.xml"/>\n'
        '  <end_point id="out" road="r"/>\n'
        f'{veh_lines}\n</level>\n')
    (root / "gen.xml").write_text(
        '<?xml version="1.0"?>\n<generation>\n'
        '  <vehicle_length distribution="constant" value="4"/>\n'
        f'  <param name="v0" distribution="constant" value="{v0}"/>\n'
        '  <destination sink="out" weight="1"/>\n</generation>\n')
    (root / "rhythm.xml").write_text(
        '<?xml version="1.0"?>\n<rhythm kind="flow">\n'
        f'  <flow t="0" q="{q}"/>\n</rhythm>\n')


def test_c01_idm_point_checks():
    assert kernel_idm(0.0, INF, 0.0) == P.a_max
    assert abs(kernel_idm(P.v0, INF, 0.0)) <= 1e-12
    oracle = scalar_idm(20.0, 50.0, 3.0)
    assert abs(kernel_idm(20.0, 50.0, 3.0) - oracle) <= 1e-3
    ok("criterion 01", f"free-road bounds exact; worked example {oracle:.6f}")


def test_c02_equilibrium_consistency():
    for v in (1.0, 5.0, 10.0, 20.0, 25.0, 30.0):
        residual = kernel_idm(v, equilibrium_gap(v, P), 0.0)
        assert abs(residual) <= 1e-9, f"v={v}: residual {residual}"
    ok("criterion 02", "zero acceleration at the closed-form gap for 6 speeds")


def test_c03_platoon_convergence(tmp_path):
    vehicles = ['<vehicle road="r" lane="0" position="1000" speed="20" v0="20"/>']
    vehicles += [f'<vehicle road="r" lane="0" position="{940 - 60 * i}" speed="20"/>'
                 for i in range(10)]
    write_single_road_scenario(tmp_path / "platoon", length=15000.0,
                               speed_limit=35.0, q=0.0, duration=600.0,
                               vehicles=vehicles)
    model = parse_scenario(tmp_path / "platoon")
    config = EngineConfig(seed=0, lod_enabled=False)
    state = build_state(model, config)
    for _ in range(2400):
        advance_step(state, config)
    target = equilibrium_gap(20.0, P)
    assert target == pytest.approx(36.4445, abs=1e-3)
    fleet = sorted((v for c in state.clusters.values()
                    for v in c.vehicles.values()), key=lambda v: -v.position)
    assert len(fleet) == 11
    gaps = [a.position - a.length - b.position for a, b in zip(fleet, fleet[1:])]
    for gap in gaps:
        assert abs(gap - target) / target <= 0.01
    ok("criterion 03", f"10 follower gaps within 1% of {target:.2f} m after 600 s")


def test_c04_mobil_safety_randomized():
    rng = np.random.default_rng(2024)

    def view():
        return AdjacentView(float(rng.uniform(0.5, 150)), float(rng.uniform(-12, 15)),
                            float(rng.uniform(0.2, 150)), float(rng.uniform(0, 35)))

    speeds, scenes = [], []
    for _ in range(10_000):
        speeds.append(float(rng.uniform(0, 35)))
        scenes.append(Perception(leader_gap=float(rng.uniform(0.5, 150)),
                                 leader_dv=float(rng.uniform(-12, 15)),
                                 speed_limit=INF, left=view(), right=view(),
                                 follower_gap=float(rng.uniform(0.5, 150)),
                                 follower_speed=float(rng.uniform(0, 35))))
    # the engine's kernel, for unrouted 4 m drivers in the middle of three lanes
    n = len(scenes)
    _, decisions = behavior_chains(np.array(speeds), np.full(n, 4.0), np.ones(n, dtype=np.int64),
                                   DriverArrays.stack([P] * n),
                                   PerceptionArrays.of(scenes, [BehaviorContext(3)] * n))
    accepted = 0
    for v, pc, decision in zip(speeds, scenes, decisions.tolist()):
        if decision == STAY:
            continue
        accepted += 1
        side = pc.left if decision == LEFT else pc.right
        imposed = scalar_idm(side.follower_speed, side.follower_gap,
                             side.follower_speed - v)
        assert imposed >= -P.b_safe - 1e-9
    assert accepted > 100
    ok("criterion 04", f"{accepted} accepted changes in 10000 scenes, none unsafe")


def test_c05_ctm_shock_oracle():
    fd = FundamentalDiagram()
    dx, dt = 25.0, 0.25
    n = 120
    rho = np.where(np.arange(n) * dx < 1500.0, 0.01, 0.12)
    seg = MacroSegment(dx=[dx] * n, lanes=[1] * n, rho=rho, fd=fd)
    store = CellStore([seg], fd, dt)
    q1 = min(fd.v_f * 0.01, fd.w * (fd.rho_jam - 0.01))
    q2 = min(fd.v_f * 0.12, fd.w * (fd.rho_jam - 0.12))
    expected = (q2 - q1) / (0.12 - 0.01)
    assert expected == pytest.approx(-1.223776, abs=1e-5)
    centers = (np.arange(n) + 0.5) * dx
    mid = 0.065
    times, fronts = [], []
    for k in range(int(200.0 / dt) + 1):
        if k * dt >= 50.0:
            above = np.flatnonzero(seg.rho > mid)
            i = int(above[0])
            frac = (mid - seg.rho[i - 1]) / (seg.rho[i] - seg.rho[i - 1])
            times.append(k * dt)
            fronts.append(centers[i - 1] + frac * dx)
        store.step(*store.profiles(), np.array([q1]), np.array([q2]))
    slope = float(np.polyfit(times, fronts, 1)[0])
    assert abs(slope - expected) / abs(expected) <= 0.05
    ok("criterion 05", f"front speed {slope:.4f} vs flux-jump ratio {expected:.4f}")


def test_c06_ring_mass_conservation():
    model = parse_scenario(FIXTURES / "ring")
    config = EngineConfig(seed=7, lod_enabled=False)
    state = build_state(model, config)
    mass0 = state.total_mass()
    cycles = 0
    worst = 0.0
    for k in range(1, 10_001):
        advance_step(state, config)
        worst = max(worst, abs(state.total_mass() - mass0))
        if k % 400 == 0:
            target = state.cluster_at("chain0", 1500.0)
            kind = "refine" if target.representation == "macro" else "coarsen"
            apply_system_influences(state, [Action(kind, "chain0", 1500.0, "forced")])
            cycles += 1
            worst = max(worst, abs(state.total_mass() - mass0))
    assert cycles >= 20
    assert worst <= 1e-9 * mass0
    assert state.consistency_errors() == []
    ok("criterion 06",
       f"drift {worst:.2e} over 10000 steps and {cycles} forced conversions")


def test_c07_hybrid_vs_micro_outflow(tmp_path):
    def absorbed(root):
        model = parse_scenario(root)
        config = EngineConfig(seed=9, lod_enabled=False)
        state = build_state(model, config)
        for _ in range(14_400):
            advance_step(state, config)
        assert abs(state.ledger_residual()) < 1e-6
        return state.ledger.absorbed

    hybrid = absorbed(FIXTURES / "hybrid")
    reference_dir = tmp_path / "all_micro"
    shutil.copytree(FIXTURES / "hybrid", reference_dir)
    level = reference_dir / "level.xml"
    level.write_text("\n".join(
        line for line in level.read_text().splitlines()
        if "<cluster" not in line) + "\n")
    reference = absorbed(reference_dir)
    assert reference > 0
    rel = abs(hybrid - reference) / reference
    assert rel <= 0.10
    ok("criterion 07",
       f"outflow {hybrid} hybrid vs {reference} micro ({100 * rel:.2f}% apart)")


def test_c08_jam_localization():
    model = parse_scenario(FIXTURES / "jam")
    config = EngineConfig(seed=3)
    state = build_state(model, config)
    for _ in range(100):
        advance_step(state, config)
    kinds = [(t.step, t.kind, t.position, t.trigger) for t in state.transitions]
    K = model.lod.persistence
    assert kinds == [(K, "split", 1000.0, "jam"),
                     (K, "split", 1300.0, "jam"),
                     (K, "refine", 1150.0, "jam")], kinds
    refined = state.cluster_at("chain0", 1150.0)
    assert refined.representation == "micro"
    # minimal: flagged cell plus one pad each side, and it contains the
    # restricted interval [1200, 1300)
    assert refined.end - refined.start == pytest.approx(300.0)
    assert refined.start <= 1200.0 and refined.end >= 1300.0
    for t in state.transitions:
        assert t.pre_mass == pytest.approx(t.post_mass, abs=1e-9)
    ok("criterion 08",
       f"flag at step {K} exactly; refined extent [{refined.start:.0f}, "
       f"{refined.end:.0f}) holds the restricted cell")


def test_c09_anti_flapping():
    model = parse_scenario(FIXTURES / "jam")
    config = EngineConfig(seed=3)
    state = build_state(model, config)
    for _ in range(1600):      # restriction lifts at t=200 s (step 800)
        advance_step(state, config)
    switches = [t for t in state.transitions if t.kind in ("refine", "coarsen")]
    coarsens = [t for t in switches if t.kind == "coarsen"]
    assert len(coarsens) == 1
    assert coarsens[0].trigger == "recovery"
    assert coarsens[0].step > 800
    cooldown = model.lod.cooldown
    overlapping = [
        (a, b) for a in switches for b in switches
        if a is not b and abs(a.step - b.step) < cooldown
        and abs(a.position - b.position) < model.lod.min_cluster_length]
    assert overlapping == []
    ok("criterion 09",
       f"single recovery coarsen at step {coarsens[0].step}; no switch pair "
       f"within {cooldown} steps")


def test_c10_determinism(tmp_path):
    def run(out):
        rc = run_command(["run", "--scenario", str(FIXTURES / "hybrid"),
                          "--steps", "1200", "--seed", "42", "--out", str(out)])
        assert rc == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    names = ["steps.csv", "trajectories.csv", "transitions.csv", "audit.json"]
    for name in names:
        assert (tmp_path / "b" / name).read_bytes() == \
            (tmp_path / "a" / name).read_bytes(), f"b/{name} differs"
    ok("criterion 10", "byte-identical outputs across reruns")


def test_c11_engine_probe_contract(monkeypatch):
    probe = CallSequenceProbe()
    SimulationEngine(EngineConfig(steps=0), [probe]).run(
        parse_scenario(FIXTURES / "minimal"))
    assert probe.calls == ["start", "initialized", "final"]

    probes = [CallSequenceProbe(), CallSequenceProbe(), CallSequenceProbe()]
    engine = SimulationEngine(EngineConfig(steps=100), probes)
    with monkeypatch.context() as patch:
        fail_at_step(patch, 7)
        with pytest.raises(SimulationError, match="injected failure at step 7"):
            engine.run(parse_scenario(FIXTURES / "minimal"))
    for p in probes:
        assert p.calls.count("error") == 1

    canary = CanaryProbe()
    SimulationEngine(EngineConfig(steps=1000, seed=5), [canary]).run(
        parse_scenario(FIXTURES / "hybrid"))
    assert canary.problems == []
    assert len(canary.digests) == 1002      # initialized + 1000 steps + final
    assert canary.digests[-1] == canary.digests[-2]   # final view is the last step
    ok("criterion 11",
       "0-step sequence, single on_error per probe, 1000 consistent snapshots")


def test_c12_generation_rate_and_ledger(tmp_path):
    write_single_road_scenario(tmp_path / "gen", q=1800.0, duration=3600.0)
    model = parse_scenario(tmp_path / "gen")
    config = EngineConfig(seed=1, lod_enabled=False)
    state = build_state(model, config)
    worst = 0.0
    for _ in range(14_400):
        advance_step(state, config)
        worst = max(worst, abs(state.ledger_residual()))
    realized = state.ledger.inserted / 3600.0
    assert abs(realized - 0.5) / 0.5 <= 0.01
    assert worst <= 1e-9
    queued = sum(len(g.retry) for g in state.generators)
    net = state.micro_vehicle_count()
    assert state.ledger.inserted - state.ledger.absorbed == net + queued
    ok("criterion 12",
       f"{state.ledger.inserted} insertions in 1 h (rate {realized:.4f}/s); "
       f"worst ledger residual {worst:.2e}")


def test_c13_scenario_round_trip(tmp_path):
    golden = [FIXTURES / "minimal" / "scenario.xml",
              FIXTURES / "navigation" / "navigation-model.xml",
              FIXTURES / "hybrid" / "scenario.xml",
              FIXTURES / "ring" / "scenario.xml",
              FIXTURES / "jam" / "scenario.xml"]
    for root in golden:
        model = parse_scenario(root)
        first = serialize_scenario(model)
        write_scenario(model, tmp_path / root.parent.name)
        second = serialize_scenario(
            parse_scenario(tmp_path / root.parent.name / "scenario.xml"))
        assert first == second, f"{root} round trip not canonical"

    mutants = {
        "missing file": lambda d: (d / "in1-generation.xml").unlink(),
        "syntax": lambda d: (d / "infrastructure.xml").write_text(
            (d / "infrastructure.xml").read_text()[:50]),
        "dangling": lambda d: (d / "infrastructure.xml").write_text(
            (d / "infrastructure.xml").read_text().replace('to="nb"', 'to="zz"')),
        "schema": lambda d: (d / "infrastructure.xml").write_text(
            (d / "infrastructure.xml").read_text().replace('lanes="2"', 'lanes="9"')),
    }
    for name, mutate in mutants.items():
        target = tmp_path / f"mutant_{name.replace(' ', '_')}"
        shutil.copytree(FIXTURES / "minimal", target)
        mutate(target)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(target)
        assert ".xml" in str(err.value), f"{name}: diagnostic lacks a file name"
    ok("criterion 13",
       f"{len(golden)} golden fixtures canonical; {len(mutants)} mutants diagnosed")
