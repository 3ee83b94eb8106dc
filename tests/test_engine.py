"""Engine contract tests: phases, probes, influences, determinism."""

from pathlib import Path

import numpy as np
import pytest

from hybridflow.engine import (AddVehicle, EngineConfig, FaultInjected,
                               RemoveVehicle, Scene, SimulationEngine,
                               UnknownTarget, advance_step,
                               apply_system_influences, build_state)
from hybridflow.generation import InsertionSpec
from hybridflow.micro import DriverParams, Vehicle
from hybridflow.probes import CallSequenceProbe, CanaryProbe, MassAuditProbe
from hybridflow.scenario import parse_scenario

FIXTURES = Path(__file__).parent / "fixtures"


def load(name):
    return parse_scenario(FIXTURES / name)


class TestRunAndProbes:
    def test_zero_step_callback_sequence(self):
        probe = CallSequenceProbe()
        engine = SimulationEngine(EngineConfig(steps=0), [probe])
        engine.run(load("minimal"))
        assert probe.calls == ["start", "initialized", "final"]

    def test_steps_produce_step_end_events(self):
        probe = CallSequenceProbe()
        engine = SimulationEngine(EngineConfig(steps=3), [probe])
        engine.run(load("minimal"))
        assert probe.calls == ["start", "initialized",
                               "step_end", "step_end", "step_end", "final"]

    def test_invalid_dt_fires_on_error_before_any_step(self):
        probe = CallSequenceProbe()
        engine = SimulationEngine(EngineConfig(steps=10, dt=30.0), [probe])
        with pytest.raises(Exception):
            engine.run(load("hybrid"))
        assert probe.calls == ["start", "error"]
        assert engine.report.steps_executed == 0

    def test_error_injection_calls_on_error_exactly_once_per_probe(self):
        probes = [CallSequenceProbe(), CallSequenceProbe()]
        engine = SimulationEngine(EngineConfig(steps=50, abort_at_step=5), probes)
        with pytest.raises(FaultInjected):
            engine.run(load("minimal"))
        for probe in probes:
            assert probe.calls.count("error") == 1
            assert probe.calls.count("step_end") == 5
            assert "final" not in probe.calls

    def test_probe_failure_does_not_stop_others(self):
        class Bomb(CallSequenceProbe):
            def on_step_end(self, state):
                super().on_step_end(state)
                if state.step == 2:
                    raise RuntimeError("probe bug")

        bomb, witness = Bomb(), CallSequenceProbe()
        engine = SimulationEngine(EngineConfig(steps=4), [bomb, witness])
        engine.run(load("minimal"))
        assert witness.calls.count("step_end") == 4
        assert any(event == "on_step_end" for _, event, _ in engine.report.probe_failures)

    def test_probes_notified_in_registration_order(self):
        order = []

        class Tagged(CallSequenceProbe):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

            def on_step_end(self, state):
                order.append(self.tag)

        engine = SimulationEngine(EngineConfig(steps=2),
                                  [Tagged("a"), Tagged("b")])
        engine.run(load("minimal"))
        assert order == ["a", "b", "a", "b"]


class TestPhases:
    def test_phase_sequence_is_fixed(self):
        model = load("minimal")
        config = EngineConfig(steps=3, trace_phases=True)
        state = build_state(model, config)
        for _ in range(3):
            advance_step(state, config)
        cycle = ["perception", "memorization", "decision", "natural",
                 "reaction_micro", "reaction_macro", "system", "advance"]
        assert state.phase_trace == cycle * 3

    def test_time_advances_with_steps(self):
        model = load("minimal")
        config = EngineConfig(steps=5)
        state = build_state(model, config)
        for k in range(5):
            advance_step(state, config)
            assert state.step == k + 1
            assert state.time == pytest.approx((k + 1) * 0.25)


class TestKinematics:
    def test_free_vehicle_first_step(self):
        model = load("minimal")
        config = EngineConfig(steps=1)
        state = build_state(model, config)
        cluster = next(iter(state.clusters.values()))
        veh = Vehicle(id="k", road="r1", lane=0, position=100.0, speed=0.0)
        cluster.vehicles[veh.id] = veh
        advance_step(state, config)
        a = veh.params.a_max
        assert veh.speed == pytest.approx(a * 0.25)
        assert veh.position == pytest.approx(100.0 + 0.5 * a * 0.25 ** 2)

    def test_vehicle_reaching_sink_is_absorbed(self):
        model = load("minimal")
        config = EngineConfig(steps=1)
        state = build_state(model, config)
        cluster = next(iter(state.clusters.values()))
        veh = Vehicle(id="k", road="r1", lane=0, position=999.0, speed=20.0)
        cluster.vehicles[veh.id] = veh
        advance_step(state, config)
        assert veh.id not in cluster.vehicles
        assert state.ledger.absorbed == 1

    def test_speeds_never_negative_and_positions_monotone(self):
        model = parse_scenario(FIXTURES / "navigation" / "navigation-model.xml")
        config = EngineConfig(steps=400, seed=2)
        state = build_state(model, config)
        last_pos = {}
        for _ in range(400):
            advance_step(state, config)
            for c in state.clusters.values():
                for v in c.vehicles.values():
                    assert v.speed >= 0.0
                    key = (v.id, v.road, v.lane)
                    if key in last_pos:
                        assert v.position >= last_pos[key] - 1e-2
                    last_pos[key] = v.position


class TestPerceptionOracle:
    def brute_force(self, state, veh, horizon=200.0):
        """Exhaustive pairwise neighbor scan on one road."""
        road = state.network.roads[veh.road]
        others = [v for c in state.clusters.values()
                  for v in c.vehicles.values() if v.id != veh.id and v.road == veh.road]
        def nearest(lane, ahead):
            best = None
            for other in others:
                if other.lane != lane:
                    continue
                d = other.position - veh.position if ahead else veh.position - other.position
                if d <= 1e-9 or d > horizon:
                    continue
                if best is None or d < best[0]:
                    best = (d, other)
            return best
        return nearest

    def test_matches_exhaustive_scan(self):
        model = load("minimal")
        config = EngineConfig(steps=1, seed=0)
        state = build_state(model, config)
        cluster = next(iter(state.clusters.values()))
        rng = np.random.default_rng(31)
        for i in range(50):
            veh = Vehicle(id=f"b{i}", road="r1", lane=int(rng.integers(0, 2)),
                          position=float(rng.uniform(0, 990)), speed=float(rng.uniform(0, 30)))
            # keep a clear margin so the placement itself is legal
            if any(abs(veh.position - o.position) < 6.0 and veh.lane == o.lane
                   for o in cluster.vehicles.values()):
                continue
            cluster.vehicles[veh.id] = veh
        scene = Scene(state, config)
        for veh in cluster.vehicles.values():
            perception, _ = scene.perceive(veh)
            oracle = self.brute_force(state, veh)
            lead = oracle(veh.lane, ahead=True)
            if lead is None:
                assert perception.leader_gap == float("inf")
            else:
                expected = max(lead[0] - lead[1].length, 0.01)
                assert perception.leader_gap == pytest.approx(expected)
                assert perception.leader_dv == pytest.approx(veh.speed - lead[1].speed)
            fol = oracle(veh.lane, ahead=False)
            if fol is not None:
                assert perception.follower_gap == pytest.approx(fol[0] - veh.length)


class TestSystemInfluences:
    def spec(self, lane=0, position=0.0):
        return InsertionSpec(road="r1", lane=lane, position=position, speed=10.0,
                             params=DriverParams(), length=4.0, destination="out1")

    def test_empty_set_is_identity(self):
        model = load("minimal")
        state = build_state(model, EngineConfig(steps=0))
        digest = state.state_digest()
        apply_system_influences(state, [])
        assert state.state_digest() == digest

    def test_removal_frees_gap_for_insertion(self):
        model = load("minimal")
        state = build_state(model, EngineConfig(steps=0))
        cluster = next(iter(state.clusters.values()))
        blocker = Vehicle(id="x", road="r1", lane=0, position=4.0, speed=0.0)
        cluster.vehicles[blocker.id] = blocker
        # alone, the insertion would fail against the blocker
        influences = [RemoveVehicle("x", "out1"), AddVehicle(self.spec())]
        apply_system_influences(state, influences)
        assert "x" not in cluster.vehicles
        assert state.ledger.absorbed == 1
        assert state.ledger.inserted == 1
        assert len(cluster.vehicles) == 1

    def test_unknown_removal_target(self):
        model = load("minimal")
        state = build_state(model, EngineConfig(steps=0))
        with pytest.raises(UnknownTarget):
            apply_system_influences(state, [RemoveVehicle("ghost", "out1")])

    def test_blocked_insertion_without_generator_fails(self):
        model = load("minimal")
        state = build_state(model, EngineConfig(steps=0))
        cluster = next(iter(state.clusters.values()))
        blocker = Vehicle(id="x", road="r1", lane=0, position=4.0, speed=0.0)
        cluster.vehicles[blocker.id] = blocker
        with pytest.raises(Exception):
            apply_system_influences(state, [AddVehicle(self.spec())])


class TestDeterminism:
    def digests(self, steps=300):
        model = parse_scenario(FIXTURES / "hybrid")
        config = EngineConfig(steps=steps, seed=42)
        state = build_state(model, config)
        out = []
        for _ in range(steps):
            advance_step(state, config)
            out.append(state.state_digest())
        return out

    def test_identical_digests_across_runs(self):
        assert self.digests() == self.digests()


class TestCanary:
    def test_canary_never_sees_inconsistent_state(self):
        canary = CanaryProbe()
        audit = MassAuditProbe()
        engine = SimulationEngine(EngineConfig(steps=1000, seed=5),
                                  [canary, audit])
        engine.run(parse_scenario(FIXTURES / "hybrid"))
        assert canary.problems == []
        assert audit.violations == []
        assert len(canary.digests) == 1002   # initialized + 1000 steps + final


class TestWallClockTrigger:
    def test_overload_coarsens_like_budget_pressure(self):
        model = parse_scenario(FIXTURES / "ring")
        config = EngineConfig(steps=80, seed=1, wall_clock_budget_ms=0.0)
        state = build_state(model, config)
        for _ in range(80):
            advance_step(state, config)
        budget_actions = [t for t in state.transitions if t.trigger == "budget"]
        assert budget_actions and budget_actions[0].kind == "coarsen"


class TestSpeedCaps:
    def build(self, tmp_path):
        root = tmp_path / "signs"
        root.mkdir()
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n'
            '<simulation time_step="0.25" duration="60">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            '</simulation>\n')
        (root / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n'
            '  <node id="a" kind="crossroads"/>\n  <node id="b" kind="crossroads"/>\n'
            '  <road id="r" from="a" to="b" length="1000" lanes="2" speed_limit="25">\n'
            '    <sign kind="speed_limit" position="300" value="15" lanes="0"/>\n'
            '    <sign kind="yield" position="800" lanes="all"/>\n'
            '  </road>\n</infrastructure>\n')
        (root / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n  <end_point id="out" road="r"/>\n'
            '  <restriction road="r" start="500" end="600" factor="0.4" '
            'from_t="0" to_t="100"/>\n</level>\n')
        model = parse_scenario(root)
        config = EngineConfig(steps=1)
        return build_state(model, config), config

    def test_sign_restriction_and_yield_caps(self, tmp_path):
        state, config = self.build(tmp_path)
        scene = Scene(state, config)
        assert scene.speed_cap("r", 0, 100.0) == 25.0       # before everything
        assert scene.speed_cap("r", 0, 350.0) == 15.0       # past the limit sign
        assert scene.speed_cap("r", 1, 350.0) == 25.0       # other lane unaffected
        assert scene.speed_cap("r", 1, 550.0) == 0.4 * 25.0  # inside restriction
        assert scene.speed_cap("r", 0, 790.0) == 5.0         # yield approach
        state.time = 150.0                                   # restriction expired
        scene2 = Scene(state, config)
        assert scene2.speed_cap("r", 1, 550.0) == 25.0


class TestSaturatedGate:
    """A jammed downstream cell closes the boundary; vehicles wait, mass holds."""

    def build(self, tmp_path):
        root = tmp_path / "wall"
        root.mkdir()
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n'
            '<simulation time_step="0.25" duration="200">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            '</simulation>\n')
        (root / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n'
            '  <node id="a" kind="crossroads"/>\n  <node id="b" kind="crossroads"/>\n'
            '  <road id="r" from="a" to="b" length="1000" lanes="1" speed_limit="25"/>\n'
            '</infrastructure>\n')
        vehicles = "\n".join(
            f'  <vehicle road="r" lane="0" position="{60 * i + 40}" speed="15"/>'
            for i in range(5))
        (root / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n'
            '  <cluster representation="micro" road="r" start="0" end="500"/>\n'
            '  <cluster representation="macro" road="r" start="500" end="1000"/>\n'
            '  <initial_density road="r" start="500" end="1000" value="0.15"/>\n'
            f'{vehicles}\n</level>\n')
        return parse_scenario(root)

    def test_vehicles_block_at_closed_gate_and_mass_is_constant(self, tmp_path):
        model = self.build(tmp_path)
        config = EngineConfig(seed=0, lod_enabled=False)
        state = build_state(model, config)
        mass0 = state.total_mass()
        assert mass0 == pytest.approx(5 + 0.15 * 500, abs=1e-9)
        for _ in range(800):
            advance_step(state, config)
            assert abs(state.total_mass() - mass0) < 1e-9 * mass0
        fleet = [v for c in state.clusters.values() for v in c.vehicles.values()]
        assert len(fleet) == 5   # nobody crossed into the jammed half
        leader = max(fleet, key=lambda v: v.position)
        assert leader.position < 500.0
        assert leader.speed == pytest.approx(0.0, abs=1e-6)
        # the macro half never discharged (wall at the chain end, jammed full)
        macro = state.cluster_at("chain0", 700.0)
        assert macro.segment.total_mass() == pytest.approx(75.0, abs=1e-9)


class TestScriptedGenerationEndToEnd:
    def build(self, tmp_path):
        root = tmp_path / "script"
        root.mkdir()
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n'
            '<simulation time_step="0.25" duration="60">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            '</simulation>\n')
        (root / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n'
            '  <node id="a" kind="crossroads"/>\n  <node id="b" kind="crossroads"/>\n'
            '  <road id="r" from="a" to="b" length="800" lanes="2" speed_limit="25"/>\n'
            '</infrastructure>\n')
        (root / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n'
            '  <input_point id="in" road="r" lanes="all" generation_ref="gen.xml" '
            'rhythm_ref="rhythm.xml"/>\n'
            '  <end_point id="out" road="r"/>\n</level>\n')
        (root / "gen.xml").write_text(
            '<?xml version="1.0"?>\n<generation>\n'
            '  <destination sink="out" weight="1"/>\n</generation>\n')
        (root / "rhythm.xml").write_text(
            '<?xml version="1.0"?>\n<rhythm kind="script">\n'
            '  <event t="1.0" lane="0" speed="20" v0="22"/>\n'
            '  <event t="1.1" lane="1" speed="18"/>\n'
            '  <event t="30.0" lane="0" speed="-1"/>\n'
            '</rhythm>\n')
        return parse_scenario(root)

    def test_events_materialize_at_their_times(self, tmp_path):
        model = self.build(tmp_path)
        config = EngineConfig(seed=0, lod_enabled=False)
        state = build_state(model, config)
        inserted_at = {}
        for _ in range(240):
            advance_step(state, config)
            for c in state.clusters.values():
                for v in c.vehicles.values():
                    inserted_at.setdefault(v.id, state.step)
        # both t=1.0 and t=1.1 events fall in the step covering [1.0, 1.25)
        assert sorted(inserted_at.values())[:2] == [5, 5]
        assert state.ledger.inserted == 3
        assert abs(state.ledger_residual()) < 1e-9
        # speed="-1" means as fast as the limit allows
        last = max((v for c in state.clusters.values()
                    for v in c.vehicles.values()), key=lambda v: v.id, default=None)
        if last is not None and inserted_at[last.id] >= 121:
            assert last.speed <= 25.0 + 1e-9


class TestMergeJunction:
    """Two roads insert onto one; crossings interleave without overlap."""

    def build(self, tmp_path):
        root = tmp_path / "merge"
        root.mkdir()
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n'
            '<simulation time_step="0.25" duration="500">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            '</simulation>\n')
        (root / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n'
            '  <node id="a" kind="crossroads"/>\n  <node id="b" kind="crossroads"/>\n'
            '  <node id="m" kind="highway_insertion"/>\n'
            '  <node id="c" kind="crossroads"/>\n'
            '  <road id="rA" from="a" to="m" length="600" lanes="1" speed_limit="25"/>\n'
            '  <road id="rB" from="b" to="m" length="600" lanes="1" speed_limit="20"/>\n'
            '  <road id="rC" from="m" to="c" length="800" lanes="1" speed_limit="25"/>\n'
            '  <turn node="m" from_road="rA" from_lane="0" to_road="rC" to_lane="0"/>\n'
            '  <turn node="m" from_road="rB" from_lane="0" to_road="rC" to_lane="0"/>\n'
            '</infrastructure>\n')
        (root / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n'
            '  <input_point id="inA" road="rA" lanes="all" generation_ref="gen.xml" '
            'rhythm_ref="rhythm.xml"/>\n'
            '  <input_point id="inB" road="rB" lanes="all" generation_ref="gen.xml" '
            'rhythm_ref="rhythm.xml"/>\n'
            '  <end_point id="out" road="rC"/>\n</level>\n')
        (root / "gen.xml").write_text(
            '<?xml version="1.0"?>\n<generation>\n'
            '  <param name="v0" distribution="normal" mean="26" sd="1"/>\n'
            '  <destination sink="out" weight="1"/>\n</generation>\n')
        (root / "rhythm.xml").write_text(
            '<?xml version="1.0"?>\n<rhythm kind="flow">\n'
            '  <flow t="0" q="500"/>\n</rhythm>\n')
        return parse_scenario(root)

    def test_interleaved_merge_conserves_and_never_overlaps(self, tmp_path):
        model = self.build(tmp_path)
        config = EngineConfig(seed=13)
        state = build_state(model, config)
        for _ in range(2000):
            advance_step(state, config)
            assert abs(state.ledger_residual()) < 1e-9
        assert state.consistency_errors() == []
        assert state.ledger.absorbed > 100   # both streams drain through


class TestMergeWithPendingQueue:
    """Micro+micro merge re-homes queued releases without losing mass."""

    def test_queue_reinserted_on_merge(self, tmp_path):
        from hybridflow.lod import Action
        from hybridflow.micro import Vehicle as V

        model = parse_scenario(FIXTURES / "hybrid")
        config = EngineConfig(steps=0, seed=1, lod_enabled=False)
        state = build_state(model, config)

        # refine the middle cluster so the corridor is micro/micro/micro
        apply_system_influences(state, [Action("refine", "chain0", 1000.0, "forced")])
        itf = state.interfaces[("chain0", 1400000)]
        up = state.clusters[itf.upstream_id]
        down = state.clusters[itf.downstream_id]
        assert up.representation == down.representation == "micro"

        # park two vehicles in the dissolving interface's queue
        for i in range(2):
            itf.pending.append(V(id=state.new_vehicle_id(), road="r1", lane=0,
                                 position=1400.0, speed=5.0))
        mass0 = state.total_mass()
        apply_system_influences(state, [Action("merge", "chain0", 1400.0, "forced")])
        assert state.total_mass() == pytest.approx(mass0, abs=1e-9)
        merged = state.cluster_at("chain0", 1400.0)
        assert merged.start <= 1000.0 or merged.end >= 2000.0
        # the two queued vehicles now live in a cluster (or an upstream queue)
        total_vehicles = sum(len(c.vehicles) for c in state.clusters.values())
        queued = sum(len(i.pending) for i in state.interfaces.values())
        assert total_vehicles + queued == mass0
        assert state.consistency_errors() == []
        # re-homed vehicles must be physically separated, not stacked
        placed = sorted((v for c in state.clusters.values()
                         for v in c.vehicles.values()), key=lambda v: v.position)
        for back, front in zip(placed, placed[1:]):
            assert front.position - front.length - back.position >= 0.0
        for _ in range(40):   # and the situation must integrate cleanly
            advance_step(state, config)
        assert state.consistency_errors() == []
