"""Engine contract tests: phases, probes, influences, determinism."""

import copy
import math
import re
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridflow.engine import (ActionRefused, AddVehicle, EngineConfig, EngineState,
                               RemoveVehicle, Scene, SimulationEngine,
                               SimulationError, UnknownTarget, _refresh_restrictions,
                               advance_step, apply_system_influences,
                               build_state)
from hybridflow import engine, lod
from hybridflow.generation import FlowMassGenerator, InsertionSpec
from hybridflow.hybrid import MACRO, MICRO
from hybridflow.lod import Action
from hybridflow.micro import DriverParams, Vehicle, VehicleIntent
from hybridflow.probes import CanaryProbe, MassAuditProbe
from hybridflow.scenario import parse_scenario
from model_oracle import behavior_chain
from perception_oracle import lane_view, perceive
from probe_contract import CallSequenceProbe, fail_at_step

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

    def test_invalid_dt_fires_on_error_before_any_step(self, sliver_scenario):
        probe = CallSequenceProbe()
        engine = SimulationEngine(EngineConfig(steps=10), [probe])
        with pytest.raises(SimulationError, match="stability bound"):
            engine.run(parse_scenario(sliver_scenario))
        assert probe.calls == ["start", "error"]
        assert engine.report.steps_executed == 0

    def test_error_injection_calls_on_error_exactly_once_per_probe(self, monkeypatch):
        fail_at_step(monkeypatch, 5)
        probes = [CallSequenceProbe(), CallSequenceProbe()]
        engine = SimulationEngine(EngineConfig(steps=50), probes)
        with pytest.raises(SimulationError, match="injected failure at step 5"):
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
    PHASES = ("_decide", "_natural", "_micro_reaction", "_macro_reaction",
              "_system_reaction")

    def test_phase_sequence_is_fixed(self, monkeypatch):
        calls = []   # (phase, step counter when it ran); state is the first argument
        for name in self.PHASES:
            def record(state, *args, _name=name, _phase=getattr(engine, name)):
                calls.append((_name, state.step))
                return _phase(state, *args)
            monkeypatch.setattr(engine, name, record)
        config = EngineConfig(steps=3)
        state = build_state(load("minimal"), config)
        for _ in range(3):
            advance_step(state, config)
        # every phase of a step runs before the step counter advances
        assert calls == [(name, k) for k in range(3) for name in self.PHASES]

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


def _signs(draw, rng, length, lanes):
    """Up to two stop, yield or speed-limit signs, each on all lanes or one."""
    out = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["stop", "yield", "speed_limit"]))
        on = "all" if lanes == 1 or draw(st.booleans()) else str(draw(st.integers(0, lanes - 1)))
        value = f' value="{rng.uniform(5, 30):.2f}"' if kind == "speed_limit" else ""
        out.append(f'<sign kind="{kind}" position="{rng.uniform(0, length):.2f}" '
                   f'lanes="{on}"{value}/>')
    return "".join(out)


@st.composite
def perception_scenes(draw):
    """A scenario with every situation perception distinguishes, as
    (file name -> XML text, lengths of the roads with vehicles, fraction of
    stop signs already served, seed):

    * a branch: road a (1-3 lanes) splits into b and c, each lane of a
      turning to b, to c, to both or nowhere, so routed vehicles on a must
      change lanes near the node and see leaders across it, while unrouted
      ones have no lane that leads on;
    * a line d -> e -> f whose macro tail f sits behind an open or a closed
      gate, with routed and unrouted vehicles;
    * a ring r0 -> r1 -> r2 -> r0 whose macro road r0 starts at the chain's
      wrap gate, open or closed, and a one-road loop s, where a vehicle's
      look-ahead comes back to its own lane;
    * signs on a, d and e, and a restriction that is active or not yet;
    * now and then a vehicle longer than 16 m, with a vehicle beside its
      body in the next lane.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    la, lb, lc = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    line, ring, loop = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    lengths = {"a": 400.0, "b": 150.0, "c": 150.0, "d": 300.0, "e": 150.0, "f": 300.0,
               "r0": 100.0, "r1": 120.0, "r2": 120.0, "s": 150.0}
    lanes = {"a": la, "b": lb, "c": lc, "d": line, "e": line, "f": line,
             "r0": ring, "r1": ring, "r2": ring, "s": loop}
    signs = {rid: _signs(draw, rng, lengths[rid], lanes[rid]) for rid in ("a", "d", "e")}
    limits = {rid: draw(st.sampled_from([25, 30, 36])) for rid in lengths}
    ends = {"a": ("p0", "x"), "b": ("x", "qb"), "c": ("x", "qc"), "d": ("l0", "l1"),
            "e": ("l1", "l2"), "f": ("l2", "l3"), "r0": ("g0", "g1"), "r1": ("g1", "g2"),
            "r2": ("g2", "g0"), "s": ("h0", "h0")}
    nodes = sorted({n for pair in ends.values() for n in pair})
    infra = ['<?xml version="1.0"?>', "<infrastructure>"]
    infra += [f'<node id="{n}" kind="{"highway_extraction" if n == "x" else "crossroads"}"/>'
              for n in nodes]
    for rid, (a, b) in ends.items():
        infra.append(f'<road id="{rid}" from="{a}" to="{b}" length="{lengths[rid]:g}" '
                     f'lanes="{lanes[rid]}" speed_limit="{limits[rid]}">'
                     f'{signs.get(rid, "")}</road>')
    # every lane of a turns to b, c, both or nowhere; b and c stay reachable
    targets = [draw(st.sampled_from([("b",), ("c",), ("b", "c"), ()])) for _ in range(la)]
    targets[0] = tuple(sorted(set(targets[0]) | {"b"}))
    targets[-1] = tuple(sorted(set(targets[-1]) | {"c"}))
    for lane, roads in enumerate(targets):
        for rid in roads:
            infra.append(f'<turn node="x" from_road="a" from_lane="{lane}" to_road="{rid}" '
                         f'to_lane="{draw(st.integers(0, lanes[rid] - 1))}"/>')
    for node, a, b in (("l1", "d", "e"), ("l2", "e", "f"), ("g1", "r0", "r1"),
                       ("g2", "r1", "r2"), ("g0", "r2", "r0"), ("h0", "s", "s")):
        infra.append(f'<turn node="{node}" from_road="{a}" to_road="{b}" lanes="all"/>')
    infra.append("</infrastructure>")

    jam = {True: "0.149", False: f"{rng.uniform(0, 0.05):.3f}"}
    active = draw(st.booleans())
    level = ['<?xml version="1.0"?>', "<level>",
             '<end_point id="sb" road="b"/>', '<end_point id="sc" road="c"/>',
             '<end_point id="sf" road="f"/>',
             '<cluster representation="micro"><extent road="d" start="0" end="300"/>'
             '<extent road="e" start="0" end="150"/></cluster>',
             '<cluster representation="macro" road="f" start="0" end="300"/>',
             f'<initial_density road="f" start="0" end="300" value="{jam[draw(st.booleans())]}"/>',
             '<cluster representation="macro" road="r0" start="0" end="100"/>',
             '<cluster representation="micro"><extent road="r1" start="0" end="120"/>'
             '<extent road="r2" start="0" end="120"/></cluster>',
             f'<initial_density road="r0" start="0" end="100" value="{jam[draw(st.booleans())]}"/>',
             f'<restriction road="{draw(st.sampled_from(["a", "d"]))}" start="100" end="250" '
             f'factor="0.3" from_t="{0 if active else 1000}"/>']
    destinations = {"a": ["sb", "sc", None], "b": ["sb", None], "c": ["sc", None],
                    "d": ["sf", None], "e": ["sf", None], "r1": [None], "r2": [None], "s": [None]}
    for rid, choices in destinations.items():
        for lane in range(lanes[rid]):
            placed, cursor = [], 0.0
            for _ in range(draw(st.integers(0, 3))):
                length = rng.uniform(16, 24) if rng.random() < 0.1 else rng.uniform(3, 6)
                cursor += float(rng.uniform(6.5, 90)) + (length if length > 6 else 0.0)
                if cursor > lengths[rid]:
                    break
                placed.append((cursor, length))
            for pos, length in placed:
                dest = choices[int(rng.integers(len(choices)))]
                dest = f' destination="{dest}"' if dest else ""
                speed = 0.0 if rng.random() < 0.15 else rng.uniform(0, 32)
                level.append(f'<vehicle road="{rid}" lane="{lane}" position="{pos:.2f}" '
                             f'speed="{speed:.2f}" length="{length:.2f}" '
                             f'v0="{rng.uniform(15, 38):.2f}"{dest}/>')
                if lane + 1 < lanes[rid] and draw(st.booleans()):
                    # a vehicle alongside in the next lane, anywhere beside a
                    # long vehicle's body
                    beside = pos + rng.uniform(-length if length > 6 else -3, 3)
                    level.append(f'<vehicle road="{rid}" lane="{lane + 1}" '
                                 f'position="{min(beside, lengths[rid]):.2f}" '
                                 f'speed="10"{dest}/>')
    level.append("</level>")
    files = {"scenario.xml": '<?xml version="1.0"?>\n<simulation time_step="0.25" '
                             'duration="60"><infrastructure ref="infrastructure.xml"/>'
                             '<level ref="level.xml"/></simulation>\n',
             "infrastructure.xml": "\n".join(infra) + "\n",
             "level.xml": "\n".join(level) + "\n"}
    return files, draw(st.sampled_from([0.0, 0.5])), int(rng.integers(2**31))


def _check_layout(state, scene):
    """The scene's layout holds every micro vehicle once, in (road, lane,
    position, id) order, with its cluster, and its arrays and per-lane index
    agree with the vehicles."""
    micro = [veh for c in state.clusters.values() if c.representation == MICRO
             for veh in c.vehicles.values()]
    assert sorted(map(id, scene.vehicles)) == sorted(map(id, micro))
    keys = [(veh.road, veh.lane, veh.position, veh.id) for veh in scene.vehicles]
    assert keys == sorted(keys)
    assert all(home.vehicles[veh.id] is veh for veh, home in zip(scene.vehicles, scene.homes))
    rows = state.road_arrays.index
    assert scene.road.tolist() == [rows[veh.road] for veh in scene.vehicles]
    assert scene.lane.tolist() == [veh.lane for veh in scene.vehicles]
    assert scene.x.tolist() == [veh.position for veh in scene.vehicles]
    assert scene.speed.tolist() == [veh.speed for veh in scene.vehicles]
    assert scene.length.tolist() == [veh.length for veh in scene.vehicles]
    for (road, lane), (positions, vehicles) in scene.index.items():
        on = [veh for veh in scene.vehicles if (veh.road, veh.lane) == (road, lane)]
        assert list(map(id, vehicles)) == list(map(id, on))
        assert positions == [veh.position for veh in on]
    assert sum(len(vehicles) for _, vehicles in scene.index.values()) == len(scene.vehicles)


def _scalar_decisions(state):
    """What the scalar models decide, vehicle by vehicle."""
    scene = Scene(state)
    out = {}
    for cluster in state.clusters.values():
        if cluster.representation == MICRO:
            for veh in cluster.vehicles.values():
                out[veh.id] = behavior_chain(veh, *perceive(scene, veh))
    return out


class TestPerceptionOracle:
    """The engine's batch perception against an exhaustive scan, and its
    batch decide against the scalar chain of `perception_oracle.perceive`
    and `model_oracle.behavior_chain`, which it must equal float for float,
    errors included."""

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
        scene = Scene(state)
        _, perception = scene.perceive()
        row = {veh.id: i for i, veh in enumerate(scene.vehicles)}
        for veh in cluster.vehicles.values():
            i = row[veh.id]
            oracle = self.brute_force(state, veh)
            lead = oracle(veh.lane, ahead=True)
            if lead is None:
                assert perception.leader_gap[0, i] == float("inf")
            else:
                expected = max(lead[0] - lead[1].length, 0.01)
                assert perception.leader_gap[0, i] == pytest.approx(expected)
                assert perception.leader_dv[0, i] == pytest.approx(veh.speed - lead[1].speed)
            fol = oracle(veh.lane, ahead=False)
            if fol is not None:
                assert perception.follower_gap[0, i] == pytest.approx(fol[0] - veh.length)


    @given(perception_scenes())
    def test_batch_equals_scalar_chain(self, scene):
        files, served, seed = scene
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                (Path(tmp) / name).write_text(text)
            state = build_state(parse_scenario(Path(tmp)), EngineConfig(seed=seed))
        rng = np.random.default_rng(seed)
        stops = [(rid, sign.position) for rid, road in state.network.roads.items()
                 for sign in road.signs if sign.kind == "stop"]
        config = EngineConfig(seed=seed)
        for _ in range(3):
            for cluster in state.clusters.values():
                for veh in cluster.vehicles.values():
                    veh.satisfied_stops.update(
                        stop for stop in stops if stop[0] == veh.road and rng.random() < served)
            expected = _scalar_decisions(state)
            scene = Scene(state)
            _check_layout(state, scene)
            accel, change = engine._decide(state, scene)
            assert sorted(veh.id for veh in scene.vehicles) == sorted(expected)
            for veh, a, c in zip(scene.vehicles, accel.tolist(), change.tolist()):
                intent = expected[veh.id]
                assert (a, c) == (intent.acceleration, intent.lane_change)
            try:
                advance_step(state, config)
            except SimulationError:
                break

    def build_branch(self, tmp_path, vehicle):
        root = tmp_path / "branch"
        root.mkdir(parents=True)
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n<simulation time_step="0.25" duration="60">'
            '<infrastructure ref="infra.xml"/><level ref="level.xml"/></simulation>\n')
        (root / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>'
            '<node id="p" kind="crossroads"/><node id="x" kind="highway_extraction"/>'
            '<node id="qb" kind="crossroads"/><node id="qc" kind="crossroads"/>'
            '<road id="a" from="p" to="x" length="400" lanes="2" speed_limit="25"/>'
            '<road id="b" from="x" to="qb" length="150" lanes="1" speed_limit="25"/>'
            '<road id="c" from="x" to="qc" length="150" lanes="1" speed_limit="25"/>'
            '<turn node="x" from_road="a" from_lane="0" to_road="b" to_lane="0"/>'
            '<turn node="x" from_road="a" from_lane="1" to_road="c" to_lane="0"/>'
            '</infrastructure>\n')
        (root / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level><end_point id="sb" road="b"/>'
            '<end_point id="sc" road="c"/>'
            '<vehicle road="a" lane="0" position="20" speed="10" destination="sb"/>'
            f'{vehicle}</level>\n')
        return build_state(parse_scenario(root), EngineConfig())

    @pytest.mark.parametrize("vehicle,negative", [
        ('<vehicle road="a" lane="1" position="300" speed="10" destination="sc"/>', True)])
    def test_raises_the_scalar_error(self, tmp_path, vehicle, negative):
        states = [self.build_branch(tmp_path / str(k), vehicle) for k in range(2)]
        if negative:
            for state in states:
                veh = next(v for c in state.clusters.values() for v in c.vehicles.values()
                           if v.road == "a" and v.lane == 1)
                veh.speed = -1.0
        with pytest.raises(ValueError) as scalar:
            _scalar_decisions(states[0])
        with pytest.raises(ValueError) as batch:
            engine._decide(states[1], Scene(states[1]))
        assert type(batch.value) is type(scalar.value)
        assert str(batch.value) == str(scalar.value)


    def test_unrouted_before_a_branch_keeps_its_lane(self, tmp_path):
        # no lane leads on without a route, so navigation has no target
        vehicle = '<vehicle road="a" lane="1" position="300" speed="10"/>'
        states = [self.build_branch(tmp_path / str(k), vehicle) for k in range(2)]
        expected = _scalar_decisions(states[0])
        scene = Scene(states[1])
        accel, change = engine._decide(states[1], scene)
        decided = list(zip(accel.tolist(), change.tolist()))
        assert decided == [(expected[veh.id].acceleration, expected[veh.id].lane_change)
                           for veh in scene.vehicles]
        assert not change.any()


REACTION_INFRA = """<?xml version="1.0"?>
<infrastructure>
  <node id="p" kind="crossroads"/><node id="x" kind="highway_extraction"/>
  <node id="qb" kind="crossroads"/><node id="qc" kind="crossroads"/>
  <node id="l0" kind="crossroads"/><node id="l1" kind="crossroads"/>
  <node id="l2" kind="crossroads"/><node id="l3" kind="crossroads"/>
  <node id="g0" kind="crossroads"/><node id="g1" kind="crossroads"/>
  <node id="g2" kind="crossroads"/>
  <road id="a" from="p" to="x" length="200" lanes="2" speed_limit="30"/>
  <road id="b" from="x" to="qb" length="100" lanes="1" speed_limit="30"/>
  <road id="c" from="x" to="qc" length="100" lanes="1" speed_limit="30"/>
  <road id="d" from="l0" to="l1" length="200" lanes="{line}" speed_limit="30"/>
  <road id="e" from="l1" to="l2" length="100" lanes="{line}" speed_limit="30"/>
  <road id="f" from="l2" to="l3" length="300" lanes="{line}" speed_limit="30"/>
  <road id="r0" from="g0" to="g1" length="100" lanes="{ring}" speed_limit="30"/>
  <road id="r1" from="g1" to="g2" length="120" lanes="{ring}" speed_limit="30"/>
  <road id="r2" from="g2" to="g0" length="120" lanes="{ring}" speed_limit="30"/>
  <turn node="x" from_road="a" from_lane="0" to_road="b" to_lane="0"/>
  <turn node="x" from_road="a" from_lane="1" to_road="c" to_lane="0"/>
  <turn node="l1" from_road="d" to_road="e" lanes="all"/>
  <turn node="l2" from_road="e" to_road="f" lanes="all"/>
  <turn node="g1" from_road="r0" to_road="r1" lanes="all"/>
  <turn node="g2" from_road="r1" to_road="r2" lanes="all"/>
  <turn node="g0" from_road="r2" to_road="r0" lanes="all"/>
</infrastructure>
"""

REACTION_LEVEL = """<?xml version="1.0"?>
<level>
  <end_point id="sb" road="b"/><end_point id="sc" road="c"/><end_point id="sf" road="f"/>
  <cluster representation="micro" road="d" start="0" end="100"/>
  <cluster representation="micro"><extent road="d" start="100" end="200"/>
    <extent road="e" start="0" end="100"/></cluster>
  <cluster representation="macro" road="f" start="0" end="300"/>
  <initial_density road="f" start="0" end="300" value="{line_density}"/>
  <cluster representation="macro" road="r0" start="0" end="100"/>
  <cluster representation="micro"><extent road="r1" start="0" end="120"/>
    <extent road="r2" start="0" end="120"/></cluster>
  <initial_density road="r0" start="0" end="100" value="{ring_density}"/>
</level>
"""


#: initial density of a macro road behind a gate: open (room) or closed
GATE_DENSITY = {"open": "0.0", "closed": "0.149"}


def reaction_state(line=1, ring=1, line_gate="open", ring_gate="open"):
    """The reaction scenes' network, with the given lane counts of the line
    and the ring and the given gates in front of their macro roads."""
    files = {"scenario.xml": '<?xml version="1.0"?>\n<simulation time_step="0.25" '
                             'duration="60"><infrastructure ref="infrastructure.xml"/>'
                             '<level ref="level.xml"/></simulation>\n',
             "infrastructure.xml": REACTION_INFRA.format(line=line, ring=ring),
             "level.xml": REACTION_LEVEL.format(line_density=GATE_DENSITY[line_gate],
                                                ring_density=GATE_DENSITY[ring_gate])}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        return build_state(parse_scenario(Path(tmp)), EngineConfig())


@st.composite
def reaction_scenes(draw):
    """A state, a scene and decisions that reach every path of the micro
    reaction, as (state, scene, accelerations, lane changes):

    * a branch a -> b, c whose lane 0 turns only to b and lane 1 only to c,
      so that vehicles routed the other way, or not at all, miss the turn
      and are held at the node, while the others land on b or c, short of
      a blocker there or not, or wait when the entry slot is occupied, and
      b and c end in sinks;
    * a line d -> e whose micro part is split at 100 m on d, so that
      vehicles cross from one micro cluster to the other, ahead of the gate
      to the macro road f;
    * a ring r1 -> r2 -> r0 whose macro road r0 sits behind the chain's
      wrap gate;
    * open gates with some or no budget left and closed gates;
    * accelerations that brake to a stop within the step, zero speeds and
      accelerations, vehicles that reach a road end or a gate within 1e-12
      m, vehicles standing still 5e-10 m before one, a vehicle at -0.0 m
      with speed and acceleration -0.0, vehicles close enough behind one
      another to be clamped or to overlap, and two at one spot, which the
      front-first order sorts by id.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = reaction_state(draw(st.integers(1, 2)), draw(st.integers(1, 2)),
                           draw(st.sampled_from(["open", "closed"])),
                           draw(st.sampled_from(["open", "closed"])))
    dt = state.dt
    spacing = draw(st.sampled_from([4.2, 8.0, 20.0, 30.0]))   # least spacing of fronts
    tailgate = draw(st.booleans())
    destinations = {"a": ["sb", "sc", None], "b": ["sb", None], "c": ["sc", None],
                    "d": ["sf", None], "e": ["sf", None], "r1": [None], "r2": [None]}
    accelerations = []

    def add(road_id, lane, position, speed, accel, destination=None, vid=None):
        veh = Vehicle(id=vid or state.new_vehicle_id(), road=road_id, lane=lane,
                      position=position, speed=speed, length=4.0,
                      route=engine._route_for(state, road_id, destination))
        # a vehicle within 1e-9 m before a boundary belongs to the cluster
        # before it, which `cluster_at` alone does not give
        chain = state.chain_of_road[road_id]
        home = state.cluster_at(chain.id, chain.to_chain_pos(road_id, position) - 1e-9)
        home.vehicles[veh.id] = veh
        accelerations.append((veh.id, accel))

    for road_id, choices in destinations.items():
        road = state.network.roads[road_id]
        for lane in range(road.lane_count):
            position = road.length - float(rng.uniform(0.0, 12.0))
            ahead = None   # (position, speed, acceleration) of the vehicle ahead
            while position > 0.5 and rng.random() < 0.85:
                speed = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 30.0))
                kind = rng.random()
                accel = 0.0 if kind < 0.1 else -1e3 if kind < 0.2 else \
                    float(rng.uniform(-9.0, 2.5))
                if ahead is None and kind > 0.9:
                    # stands 5e-10 m before the road end (a gate on e and
                    # r2), nearer than the gate queries look
                    position, speed, accel = road.length - 5e-10, 0.0, 0.0
                elif ahead is None and kind > 0.7:
                    # reaches the road end (a gate on e and r2), or stops
                    # within 1e-12 m of it
                    speed = (road.length - position
                             + float(rng.choice([-1e-12, -3e-13, 0.0, 3e-13]))) / dt
                    accel = 0.0
                elif tailgate and ahead is not None and ahead[0] > 5.0 and kind > 0.85:
                    # 0.1 m behind the vehicle ahead and, unless that one
                    # walks, up to 0.1 m into it after the step: clamped
                    overlap = float(rng.choice([0.0, 1e-12, 1e-4, 0.1]))
                    position, speed, accel = (ahead[0] - 4.1, ahead[1] + (0.1 + overlap) / dt,
                                              ahead[2])
                add(road_id, lane, position, speed, accel,
                    choices[int(rng.integers(len(choices)))])
                ahead = (position, speed, accel)
                position -= spacing + float(rng.exponential(15.0))
    if rng.random() < 0.5:
        add("a", 0, -0.0, -0.0, -0.0)
    if rng.random() < 0.3:
        # two vehicles at one spot before b's sink, stored out of id order
        first, second = state.new_vehicle_id(), state.new_vehicle_id()
        for vid in (second, first):
            add("b", 0, 99.0, 10.0, 0.0, vid=vid)

    scene = Scene(state)
    for key in scene.gate_budget:
        if scene.gate_budget[key] > 0:
            scene.gate_budget[key] = int(rng.integers(0, 3))
    intents = {vid: VehicleIntent(vid, accel, int(rng.choice([-1, 1]) * (rng.random() < 0.1)))
               for vid, accel in accelerations}
    return (state, scene, *aligned(scene, intents))


def aligned(scene, intents):
    """Intents by vehicle id as the decide's (acceleration, lane change)
    arrays aligned to the scene's layout; a vehicle without an intent keeps
    its speed and lane."""
    found = [intents.get(veh.id, VehicleIntent(veh.id, 0.0)) for veh in scene.vehicles]
    return (np.array([intent.acceleration for intent in found], dtype=float),
            np.array([intent.lane_change for intent in found], dtype=int))


def _integrate(veh, accel, dt):
    """The scalar ballistic update with a non-negative speed clamp."""
    v0 = veh.speed
    v1 = v0 + accel * dt
    if v1 < 0.0:
        veh.speed = 0.0
        return (v0 * v0) / (2.0 * -accel) if accel < 0 else 0.0
    veh.speed = v1
    return max(v0 * dt + 0.5 * accel * dt * dt, 0.0)


def _reference_reaction(state, scene, accel, change):
    """The per-vehicle micro reaction: vehicles front first, each integrated
    and walked in turn, then the overlap check."""
    accel_of = {veh.id: a for veh, a in zip(scene.vehicles, accel.tolist())}
    engine._apply_lane_changes(scene, change)
    removals = []
    moving = [(cluster, veh) for cluster in state.clusters.values()
              if cluster.representation == MICRO for veh in cluster.vehicles.values()]
    moving.sort(key=lambda cv: (cv[1].road, -cv[1].position, cv[1].lane, cv[1].id))
    for cluster, veh in moving:
        engine._walk(state, scene, cluster, veh, _integrate(veh, accel_of[veh.id], state.dt),
                     removals)
    engine._rehome_and_check(state)
    return removals


def _reaction_outcome(reaction, state, scene, accel, change):
    """Everything the micro reaction can change, after running it."""
    error = removals = None
    try:
        removals = reaction(state, scene, accel, change)
    except SimulationError as exc:
        error = (type(exc), str(exc))
    return {
        "error": error,
        "removals": removals and [(sink, veh.id) for sink, veh in removals],
        "clusters": [(cid, [(vid, veh.road, veh.lane, veh.position, veh.speed)
                            for vid, veh in cluster.vehicles.items()])
                     for cid, cluster in state.clusters.items()],
        "crossings": list(scene.crossings.items()),
        "gate_budget": list(scene.gate_budget.items()),
        "last_flows": list(state.last_flows.items()),
        "digest": state.state_digest(),
    }


class TestMicroReactionOracle:
    """The batch micro reaction against the per-vehicle loop it replaced:
    everything the reaction changes must be equal, the floats bit for bit
    through `state_digest`, and so must any error it raises."""

    @given(reaction_scenes())
    def test_batch_equals_per_vehicle_loop(self, scene):
        batch = copy.deepcopy(scene)
        expected = _reaction_outcome(_reference_reaction, *scene)
        assert _reaction_outcome(engine._micro_reaction, *batch) == expected

    @given(reaction_scenes())
    def test_every_vehicle_that_leaves_is_a_removal_or_a_crossing(self, scene):
        state, scene, accel, change = scene
        residual = state.ledger_residual()
        try:
            removals = engine._micro_reaction(state, scene, accel, change)
        except SimulationError:
            return   # an aborted reaction is compared with the loop above
        assert [c.id for c in state.clusters.values() if c.vehicles
                and c.representation != MICRO] == []
        # a crossing vehicle joins the macro segment later in the step
        left = len(removals) + sum(scene.crossings.values())
        assert state.ledger_residual() - residual == pytest.approx(left, abs=1e-9)


def _first_vehicle_scan(state, road_id, lane):
    """The look-up's oracle: the micro vehicle on a lane with the least
    (position, id), from a scan of every micro cluster."""
    best = None
    for cluster in state.clusters.values():
        if cluster.segment is not None:
            continue
        for veh in cluster.vehicles.values():
            if (veh.road, veh.lane) == (road_id, lane):
                if best is None or (veh.position, veh.id) < (best.position, best.id):
                    best = veh
    return best


class TestFirstVehicleOracle:
    """`_first_vehicle_on`, a walk of the scene's lane index, against a scan
    of every micro vehicle."""

    @given(reaction_scenes())
    def test_walk_equals_the_scan_through_the_reaction(self, scene):
        """At every look-up of the micro reaction, on every lane: also on
        lanes that vehicles left through a gate or a sink this step."""
        state, scene, accel, change = scene
        look_up = engine._first_vehicle_on

        def checked(scene, road_id, lane):
            for key in scene.index:
                assert look_up(scene, *key) is _first_vehicle_scan(state, *key)
            return look_up(scene, road_id, lane)

        with mock.patch.object(engine, "_first_vehicle_on", checked):
            try:
                engine._micro_reaction(state, scene, accel, change)
            except SimulationError:
                pass   # an aborted reaction is compared in TestMicroReactionOracle

    @staticmethod
    def add(state, road_id, lane, position, destination=None):
        veh = Vehicle(id=state.new_vehicle_id(), road=road_id, lane=lane,
                      position=position, speed=10.0, length=4.0,
                      route=engine._route_for(state, road_id, destination))
        chain = state.chain_of_road[road_id]
        state.cluster_at(chain.id, chain.to_chain_pos(road_id, position)).vehicles[veh.id] = veh
        return veh

    @staticmethod
    def walk(state, scene, veh, displacement):
        home = next(c for c in state.clusters.values() if veh.id in c.vehicles)
        return engine._walk(state, scene, home, veh, displacement, [])

    @pytest.mark.parametrize("leaving, arriving", [(("b", 5.0), ("a", 199.0, "sb")),
                                                   (("e", 5.0), ("d", 199.0, "sf"))])
    def test_a_vehicle_gone_this_step_blocks_no_landing(self, leaving, arriving):
        """The only vehicle on b (e) leaves at b's sink (through the gate
        into f); one from a (d) then lands where its step takes it."""
        state = reaction_state()
        gone = self.add(state, leaving[0], 0, leaving[1])
        veh = self.add(state, arriving[0], 0, arriving[1], arriving[2])
        scene = Scene(state)
        assert self.walk(state, scene, gone, 100.0) is None
        assert engine._first_vehicle_on(scene, leaving[0], 0) is None
        assert _first_vehicle_scan(state, leaving[0], 0) is None
        self.walk(state, scene, veh, 10.0)
        assert (veh.road, veh.position) == (leaving[0], 9.0)

    def test_a_landing_before_a_vehicle_that_moved_leads_the_lane(self):
        """b's vehicle moves first; one from a lands behind it, ahead of where
        that vehicle started, and the next from a lands behind the first."""
        state = reaction_state()
        ahead = self.add(state, "b", 0, 3.0)
        first = self.add(state, "a", 0, 199.0, "sb")
        second = self.add(state, "a", 0, 195.0, "sb")
        scene = Scene(state)
        self.walk(state, scene, ahead, 10.0)
        self.walk(state, scene, first, 12.0)
        assert first.position == 13.0 - 4.0 - 0.1
        assert engine._first_vehicle_on(scene, "b", 0) is first
        assert _first_vehicle_scan(state, "b", 0) is first
        self.walk(state, scene, second, 16.0)
        assert second.position == first.position - 4.0 - 0.1


class TestNodeRules:
    """`_walk` at a node, on two hand-built roads r1 -> r2: a vehicle whose
    entry slot is occupied waits at the node at the lower of its own and the
    blocker's speed, and one that reaches a blocker past the node lands
    0.1 m behind the blocker's rear at the blocker's speed."""

    @pytest.fixture
    def state(self, tmp_path):
        (tmp_path / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n'
            '<simulation time_step="0.25" duration="10">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            '</simulation>\n')
        (tmp_path / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n'
            '  <node id="a" kind="crossroads"/>\n  <node id="b" kind="crossroads"/>\n'
            '  <node id="c" kind="crossroads"/>\n'
            '  <road id="r1" from="a" to="b" length="200" lanes="1" speed_limit="25"/>\n'
            '  <road id="r2" from="b" to="c" length="200" lanes="1" speed_limit="25"/>\n'
            '  <turn node="b" from_road="r1" from_lane="0" to_road="r2" to_lane="0"/>\n'
            '</infrastructure>\n')
        (tmp_path / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n  <end_point id="out" road="r2"/>\n</level>\n')
        return build_state(parse_scenario(tmp_path), EngineConfig())

    @staticmethod
    def walk(state, ahead, behind, displacement):
        """Place a blocker at (position, speed) on r2 and a vehicle at
        (position, speed) on r1, and walk the vehicle."""
        (cluster,) = state.clusters.values()
        vehicles = [Vehicle(id=state.new_vehicle_id(), road=road, lane=0, position=position,
                            speed=speed, length=4.0)
                    for road, (position, speed) in (("r2", ahead), ("r1", behind))]
        cluster.vehicles.update((veh.id, veh) for veh in vehicles)
        veh = vehicles[1]
        assert engine._walk(state, Scene(state), cluster, veh, displacement, []) is cluster
        return veh.road, veh.position, veh.speed

    @pytest.mark.parametrize("own", [10.0, 2.0])
    def test_an_occupied_entry_holds_at_the_lower_speed(self, state, own):
        # the blocker's rear is 2 m behind the node
        assert self.walk(state, (2.0, 3.0), (198.0, own), 5.0) == \
            ("r1", 200.0 - engine.NODE_STANDOFF, min(own, 3.0))

    def test_a_landing_keeps_0_1_m_behind_the_blocker(self, state):
        assert self.walk(state, (20.0, 3.0), (195.0, 10.0), 30.0) == \
            ("r2", 20.0 - 4.0 - 0.1, 3.0)


class TestStopSign:
    def test_vehicle_halts_serves_the_sign_and_drives_on(self, tmp_path):
        """A vehicle from 100 m at 20 m/s halts before a stop at 500 m, which
        it then has served, and leaves the 1,000 m road at its sink."""
        (tmp_path / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n<simulation time_step="0.25" duration="100">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            '</simulation>\n')
        (tmp_path / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n'
            '  <node id="a" kind="crossroads"/>\n  <node id="b" kind="crossroads"/>\n'
            '  <road id="r" from="a" to="b" length="1000" lanes="1" speed_limit="25">\n'
            '    <sign kind="stop" position="500"/>\n  </road>\n</infrastructure>\n')
        (tmp_path / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n  <end_point id="out" road="r"/>\n'
            '  <vehicle road="r" lane="0" position="100" speed="20"/>\n</level>\n')
        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(parse_scenario(tmp_path), config)
        (veh,) = state.clusters["c0"].vehicles.values()
        served_at = None
        while not state.ledger.absorbed:
            advance_step(state, config)
            if served_at is None and veh.satisfied_stops:
                served_at = (state.step, veh.position)
        assert veh.satisfied_stops == {("r", 500.0)}
        assert served_at[0] == 108
        assert served_at[1] == pytest.approx(497.97, abs=0.005)
        assert state.step == 262


class TestGateSeam:
    """A vehicle 5e-10 m before a micro-to-macro gate is nearer than the
    gate queries look, while `cluster_at` already gives the macro cluster:
    it crosses the gate or waits at it, and never ends in the macro
    cluster, out of the mass."""

    @pytest.mark.parametrize("speed", [0.0, 10.0])
    @pytest.mark.parametrize("gate", ["open", "closed"])
    def test_crosses_or_waits_in_its_micro_cluster(self, gate, speed):
        state = reaction_state(line_gate=gate)
        chain = state.chain_of_road["e"]
        home = state.cluster_at(chain.id, chain.to_chain_pos("e", 50.0))
        home.vehicles["s"] = Vehicle(id="s", road="e", lane=0, position=100 - 5e-10,
                                     speed=speed, length=4.0)
        residual = state.ledger_residual()
        scene = Scene(state)
        engine._micro_reaction(state, scene, *aligned(scene, {}))
        crossed = sum(scene.crossings.values())
        assert crossed == (gate == "open")
        assert list(home.vehicles) == ([] if crossed else ["s"])
        assert [c.id for c in state.clusters.values() if c.vehicles
                and c.representation != MICRO] == []
        assert state.ledger_residual() - residual == pytest.approx(crossed, abs=1e-9)

    def test_a_macro_cluster_holding_vehicles_is_inconsistent(self):
        state = reaction_state()
        chain = state.chain_of_road["f"]
        macro = state.cluster_at(chain.id, chain.to_chain_pos("f", 50.0))
        macro.vehicles["s"] = Vehicle(id="s", road="f", lane=0, position=50.0, speed=0.0)
        assert state.consistency_errors() == [f"{macro.id} macro but holds vehicles"]


class TestLaneChangeConflicts:
    """Every vehicle decides on the lanes as they stood at the start of the
    step, so of two changes into one gap only the first, front first, is
    applied: a change is dropped when its nearest leader in the target lane,
    within the perception horizon, arrived there earlier in the same pass."""

    def build(self, tmp_path, vehicles):
        """A 2 km, 3-lane micro road holding vehicles given as (id, lane,
        position, speed), each 4 m long; returns the state and its scene."""
        (tmp_path / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n<simulation time_step="0.25" duration="60">'
            '<infrastructure ref="infra.xml"/><level ref="level.xml"/></simulation>\n')
        (tmp_path / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure><node id="a" kind="crossroads"/>'
            '<node id="b" kind="crossroads"/><road id="k" from="a" to="b" length="2000" '
            'lanes="3" speed_limit="36"/></infrastructure>\n')
        (tmp_path / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level><end_point id="out" road="k"/></level>\n')
        state = build_state(parse_scenario(tmp_path), EngineConfig())
        cluster = next(iter(state.clusters.values()))
        for vid, lane, position, speed in vehicles:
            cluster.vehicles[vid] = Vehicle(id=vid, road="k", lane=lane, position=position,
                                            speed=speed, length=4.0)
        return state, Scene(state)

    def lanes(self, state):
        return {vid: veh.lane for c in state.clusters.values() for vid, veh in c.vehicles.items()}

    def test_only_the_front_mover_enters_a_shared_gap(self, tmp_path):
        # micro_corridor at seed 1, instance 0, step 10: v91 (braking) and
        # v117, 4.09 m apart, both change into the empty lane 1; applying
        # both ran v117 into v91 and aborted the run with OverlapDetected
        state, scene = self.build(tmp_path, [("v91", 0, 1107.0305373318183, 18.738711293283984),
                                             ("v117", 2, 1102.9356225727104, 24.136489783954886)])
        intents = {"v91": VehicleIntent("v91", -43.30864850966139, 1),
                   "v117": VehicleIntent("v117", 0.056211140923778255, -1)}
        engine._micro_reaction(state, scene, *aligned(scene, intents))
        assert self.lanes(state) == {"v91": 1, "v117": 2}

    def test_a_vehicle_that_left_the_target_lane_does_not_block(self, tmp_path):
        state, scene = self.build(tmp_path, [("leaver", 1, 1100.0, 20.0),
                                             ("mover", 0, 1090.0, 20.0)])
        _, change = aligned(scene, {"leaver": VehicleIntent("leaver", 0.0, 1),
                                    "mover": VehicleIntent("mover", 0.0, 1)})
        engine._apply_lane_changes(scene, change)
        assert self.lanes(state) == {"leaver": 2, "mover": 1}

    @pytest.mark.parametrize("distance,lane", [(199.5, 0), (200.5, 1)])
    def test_an_arrival_blocks_only_within_the_horizon(self, tmp_path, distance, lane):
        state, scene = self.build(tmp_path, [("arrival", 2, 1500.0, 20.0),
                                             ("mover", 0, 1500.0 - distance, 20.0)])
        _, change = aligned(scene, {"arrival": VehicleIntent("arrival", 0.0, -1),
                                    "mover": VehicleIntent("mover", 0.0, 1)})
        engine._apply_lane_changes(scene, change)
        assert self.lanes(state) == {"arrival": 1, "mover": lane}


class TestLongVehicles:
    """A vehicle alongside blocks an adjacent slot whatever its length: the
    slot test looks as far ahead as the longest micro vehicle reaches back."""

    def scene(self, length, front):
        state = build_state(load("navigation/navigation-model.xml"), EngineConfig())
        cluster = next(iter(state.clusters.values()))
        car = Vehicle(id="car", road="main1", lane=0, position=100.0, speed=10.0, length=4.0)
        cluster.vehicles["car"] = car
        cluster.vehicles["long"] = Vehicle(id="long", road="main1", lane=1, position=front,
                                           speed=10.0, length=length)
        return Scene(state), car

    @pytest.mark.parametrize("length,front", [(15.0, 112.0), (20.0, 118.0), (60.0, 150.0)])
    def test_covers_the_slot_in_both_forms(self, length, front):
        scene, car = self.scene(length, front)
        assert scene.slot_occupied("main1", 1, 100.0, 4.0, "car")
        view = lane_view(scene, car, 1)
        assert (view.leader_gap, view.follower_gap) == (0.01, 0.01)
        _, perception = scene.perceive()
        i = scene.vehicles.index(car)
        assert (perception.leader_gap[1, i], perception.follower_gap[1, i]) == (0.01, 0.01)

    def test_a_registered_vehicle_widens_the_window(self):
        scene, car = self.scene(4.0, 120.0)
        assert not scene.slot_occupied("main1", 1, 100.0, 4.0, "car")
        scene.register(Vehicle(id="late", road="main1", lane=1, position=125.0, speed=0.0,
                               length=30.0))
        assert scene.slot_occupied("main1", 1, 100.0, 4.0, "car")


class TestInsertionAfterAnArrival:
    """An insertion at a road start sees a vehicle that walked onto the road
    earlier in the same step.  At 900 veh/h on both roads of this chain,
    seed 1 once put v16 at 0 m on r1 while v10 had just landed at 0.19 m,
    and the next step aborted with `OverlapDetected`."""

    def test_no_insertion_overlaps_an_arrival(self, tmp_path):
        (tmp_path / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n<simulation time_step="0.25" duration="500">'
            '<infrastructure ref="infra.xml"/><level ref="level.xml"/></simulation>\n')
        (tmp_path / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure><node id="a" kind="crossroads"/>'
            '<node id="b" kind="crossroads"/><node id="c" kind="crossroads"/>'
            '<road id="r0" from="a" to="b" length="300" lanes="1" speed_limit="25"/>'
            '<road id="r1" from="b" to="c" length="1000" lanes="1" speed_limit="25"/>'
            '<turn node="b" from_road="r0" to_road="r1" lanes="all"/></infrastructure>\n')
        (tmp_path / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>' + "".join(
                f'<input_point id="in{k}" road="r{k}" lanes="all" generation_ref="gen.xml" '
                'rhythm_ref="rhythm.xml"/>' for k in range(2))
            + '<end_point id="out" road="r1"/></level>\n')
        (tmp_path / "gen.xml").write_text(
            '<?xml version="1.0"?>\n<generation><destination sink="out" weight="1"/>'
            '</generation>\n')
        (tmp_path / "rhythm.xml").write_text(
            '<?xml version="1.0"?>\n<rhythm kind="flow"><flow t="0" q="900"/></rhythm>\n')
        config = EngineConfig(seed=1)
        state = build_state(parse_scenario(tmp_path), config)
        for _ in range(400):
            advance_step(state, config)
            on_r1 = sorted((veh for c in state.clusters.values() for veh in c.vehicles.values()
                            if veh.road == "r1"), key=lambda veh: veh.position)
            assert all(front.position - front.length >= back.position
                       for back, front in zip(on_r1, on_r1[1:])), state.step
        assert state.ledger.absorbed > 0


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
        influences = [RemoveVehicle("x"), AddVehicle(self.spec())]
        apply_system_influences(state, influences)
        assert "x" not in cluster.vehicles
        assert state.ledger.absorbed == 1
        assert state.ledger.inserted == 1
        assert len(cluster.vehicles) == 1

    def test_unknown_removal_target(self):
        model = load("minimal")
        state = build_state(model, EngineConfig(steps=0))
        with pytest.raises(UnknownTarget):
            apply_system_influences(state, [RemoveVehicle("ghost")])

    def blocked(self):
        """The minimal corridor with a vehicle standing on the entry slot."""
        state = build_state(load("minimal"), EngineConfig(steps=0))
        cluster = next(iter(state.clusters.values()))
        cluster.vehicles["x"] = Vehicle(id="x", road="r1", lane=0, position=4.0, speed=0.0)
        state.ledger.inserted += 1
        return state

    def test_blocked_insertion_without_generator_fails(self):
        state = self.blocked()
        with pytest.raises(Exception):
            apply_system_influences(state, [AddVehicle(self.spec())])

    def test_blocked_insertion_waits_in_its_generators_queue(self):
        state = self.blocked()
        (gen,) = state.generators
        spec = self.spec()
        apply_system_influences(state, [AddVehicle(spec, generator_id=gen.id)])
        assert list(gen.retry) == [spec]
        assert len(next(iter(state.clusters.values())).vehicles) == 1
        # the queued vehicle is in the network, held by its generator
        assert state.ledger.inserted == 2
        assert abs(state.ledger_residual()) <= 1e-9

    def test_an_insertion_into_a_macro_extent_is_refused(self):
        """No retry could place it, and queued it would hold up every later
        emission of its generator."""
        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(load("hybrid"), config)
        for _ in range(20):
            advance_step(state, config)
        (gen,) = state.generators
        macro = state.cluster_at("chain0", 1000.0)
        retry, inserted = list(gen.retry), state.ledger.inserted
        with pytest.raises(SimulationError, match=rf"^insertion on r1 lane 0 at 1000 "
                           rf"falls in macro cluster {macro.id}$"):
            apply_system_influences(state, [AddVehicle(self.spec(position=1000.0),
                                                       generator_id=gen.id)])
        assert list(gen.retry) == retry and state.ledger.inserted == inserted

    def test_a_named_generator_takes_only_insertions_at_its_connector(self):
        """Its queue places specs at its road's position 0 only. Queued at
        1700 m behind a standing vehicle, this spec used to wait for good, and
        to fail the run with `falls in macro cluster` once a coarsen turned
        its cluster macro."""
        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(load("hybrid"), config)
        for _ in range(20):
            advance_step(state, config)
        state.cluster_at("chain0", 1700.0).vehicles["x"] = Vehicle(
            id="x", road="r1", lane=0, position=1702.0, speed=0.0)
        state.ledger.inserted += 1
        (gen,) = state.generators
        digest, retry, inserted = state.state_digest(), list(gen.retry), state.ledger.inserted
        with pytest.raises(SimulationError, match=r"^insertion on r1 lane 0 at 1700 is not at "
                           r"the connector of generator in1 \(r1 at 0\)$"):
            apply_system_influences(state, [RemoveVehicle("x"), AddVehicle(
                self.spec(position=1700.0), generator_id=gen.id)])
        assert state.state_digest() == digest
        assert list(gen.retry) == retry and state.ledger.inserted == inserted
        apply_system_influences(state, [Action("coarsen", "chain0", 1700.0, "forced")])
        for _ in range(20):
            advance_step(state, config)
        assert abs(state.ledger_residual()) <= 1e-9

    def test_blocked_insertion_names_an_unknown_generator(self):
        state = self.blocked()
        with pytest.raises(UnknownTarget, match="ghost"):
            apply_system_influences(state, [AddVehicle(self.spec(), generator_id="ghost")])

    @pytest.mark.parametrize("blocked", [False, True], ids=["free-slot", "after-a-removal"])
    def test_unknown_generator_is_refused_before_anything_applies(self, blocked):
        state = self.blocked() if blocked else build_state(load("minimal"),
                                                            EngineConfig(steps=0))
        digest = state.state_digest()
        influences = [AddVehicle(self.spec(), generator_id="ghost")]
        if blocked:
            influences.append(RemoveVehicle("x"))
        with pytest.raises(UnknownTarget, match="ghost"):
            apply_system_influences(state, influences)
        assert state.state_digest() == digest

    def test_a_removal_set_is_refused_before_anything_applies(self):
        config = EngineConfig(seed=1)
        state = build_state(load("hybrid"), config)
        for _ in range(40):
            advance_step(state, config)
        assert any("v0" in c.vehicles for c in state.clusters.values())
        digest, absorbed = state.state_digest(), state.ledger.absorbed
        with pytest.raises(UnknownTarget, match="zz-ghost"):
            apply_system_influences(state, [RemoveVehicle("v0"), RemoveVehicle("zz-ghost")])
        assert state.state_digest() == digest
        assert state.ledger.absorbed == absorbed


class TestLedgerSums:
    """The ledger's continuous masses equal the exact sum of their terms
    after thousands of additions, not a drifting float running sum."""

    CORRIDORS = 8

    def build(self, tmp_path):
        root = tmp_path / "entries"
        root.mkdir()
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n'
            '<simulation time_step="0.25" duration="250">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            '</simulation>\n')
        roads, level = [], []
        for k in range(self.CORRIDORS):
            roads += [f'  <node id="a{k}" kind="crossroads"/>',
                      f'  <node id="b{k}" kind="crossroads"/>',
                      f'  <road id="r{k}" from="a{k}" to="b{k}" length="1000" lanes="2" '
                      'speed_limit="25"/>']
            level += [f'  <cluster representation="macro" road="r{k}" start="0" end="1000"/>',
                      f'  <input_point id="in{k}" road="r{k}" lanes="all" '
                      f'generation_ref="gen.xml" rhythm_ref="rhythm{k}.xml"/>',
                      f'  <end_point id="out{k}" road="r{k}"/>']
            (root / f"rhythm{k}.xml").write_text(
                '<?xml version="1.0"?>\n<rhythm kind="flow">\n'
                f'  <flow t="0" q="{1234.5 + 97.3 * k}"/>\n</rhythm>\n')
        (root / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n' + "\n".join(roads)
            + '\n</infrastructure>\n')
        (root / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n' + "\n".join(level) + '\n</level>\n')
        (root / "gen.xml").write_text(
            '<?xml version="1.0"?>\n<generation>\n'
            '  <vehicle_length distribution="constant" value="4"/>\n</generation>\n')
        return parse_scenario(root)

    def test_macro_masses_match_fsum_of_their_terms(self, tmp_path, monkeypatch):
        settled, discharged = [], []
        settle = FlowMassGenerator.settle_macro_inflow

        def record_settle(gen, accepted, dt):
            settled.append(settle(gen, accepted, dt))
            return settled[-1]

        monkeypatch.setattr(FlowMassGenerator, "settle_macro_inflow", record_settle)
        config = EngineConfig(seed=1)
        state = build_state(self.build(tmp_path), config)
        for _ in range(1000):
            advance_step(state, config)
            for cid in sorted(state.last_flows):
                # every corridor ends at a sink
                discharged.append(state.last_flows[cid][1] * state.dt)

        assert len(settled) == len(discharged) == 1000 * self.CORRIDORS
        exact_in, exact_out = math.fsum(settled), math.fsum(discharged)
        assert exact_in > 1000 and exact_out > 500
        assert abs(state.ledger.macro_in_mass - exact_in) <= 2 * math.ulp(exact_in)
        assert abs(state.ledger.macro_out_mass - exact_out) <= 2 * math.ulp(exact_out)


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

    def test_audit_checks_the_structure_at_the_canary_instants(self, monkeypatch):
        monkeypatch.setattr(EngineState, "consistency_errors",
                            lambda state: [f"injected at {state.step}"])
        canary, audit = CanaryProbe(), MassAuditProbe()
        SimulationEngine(EngineConfig(steps=3), [canary, audit]).run(load("minimal"))
        assert [step for step, _ in audit.problems] == [0, 1, 2, 3, 3]
        assert audit.problems == canary.problems


class TestTransitionStamps:
    """A forced transition between steps names the current step count, also
    after a step that raised inside the system phase."""

    def test_forced_actions_log_the_step_count(self, monkeypatch):
        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(load("hybrid"), config)
        for _ in range(3):
            advance_step(state, config)
        apply_system_influences(state, [Action("split", "chain0", 1000.0, "forced")])

        def fail(*args):
            raise SimulationError("injected in the system phase")

        # the system phase drains the generators' retry queues
        monkeypatch.setattr(engine, "drain", fail)
        with pytest.raises(SimulationError, match="injected in the system phase"):
            advance_step(state, config)
        monkeypatch.undo()
        apply_system_influences(state, [Action("refine", "chain0", 800.0, "forced")])
        assert state.step == 3
        assert [(t.kind, t.step) for t in state.transitions] == [("split", 3), ("refine", 3)]


class TestLodWithoutMacroCells:
    """With the LOD on and no macro cell anywhere, steps run, the plan is
    empty and the LOD does no cell-store work: no store rebuild, no
    concatenation and no per-segment reduction."""

    @pytest.mark.parametrize("name", ["minimal", "jam"])
    def test_steps_plan_nothing_without_store_work(self, monkeypatch, name):
        config = EngineConfig(seed=3)
        state = build_state(load(name), config)
        for _ in range(5):
            advance_step(state, config)
        if name == "jam":
            # refine the only macro cluster, after the LOD has counted its cells
            (cluster,) = state.clusters.values()
            apply_system_influences(state, [Action("refine", cluster.chain_id,
                                                   1000.0, "forced")])
        advance_step(state, config)   # the jam fixture's store is rebuilt empty here
        assert all(c.representation == MICRO for c in state.clusters.values())

        held = state.cells

        class NoStoreWork:
            def __getattr__(self, attr):
                assert attr not in ("concatenate", "maximum"), f"np.{attr} without cells"
                return getattr(np, attr)

        monkeypatch.setattr(lod, "np", NoStoreWork())
        for _ in range(30):
            advance_step(state, config)
        ctl = state.controller
        assert state.cells is held and len(held.slow) == 0
        assert all(c.representation == MICRO for c in state.clusters.values())
        assert ctl.plan(list(state.clusters.values()), held, list(state.interfaces.values()),
                        state.step, state.micro_vehicle_count(), lambda action: None) == []


class TestJamCountersEndAtARefine:
    """A forced refine then coarsen of one extent between two observations
    leaves its cells' jam counters at zero: the coarsen builds new cells."""

    def test_refine_then_coarsen_starts_the_counters_afresh(self):
        config = EngineConfig(seed=1)
        state = build_state(load("jam"), config)
        for _ in range(5):
            advance_step(state, config)
        (cluster,) = state.clusters.values()
        assert cluster.segment.slow.max() == 5
        apply_system_influences(state, [Action("refine", cluster.chain_id, 1000.0, "forced"),
                                        Action("coarsen", cluster.chain_id, 1000.0, "forced")])
        assert [t.kind for t in state.transitions] == ["refine", "coarsen"]
        assert cluster.representation == MACRO and not cluster.segment.slow.any()
        advance_step(state, config)
        assert cluster.segment.slow.max() == 1


def unstable_ring(config):
    """The ring after 10 steps and a split at 497.8 m: coarsening the micro
    extent [497.8, 1000) would make a 2.2 m cell."""
    state = build_state(load("ring"), config)
    for _ in range(10):
        advance_step(state, config)
    apply_system_influences(state, [Action("split", "chain0", 497.8, "forced")])
    return state


class TestActionRefused:
    """A forced action that fails a precondition is refused before it
    changes anything."""

    # hybrid: micro [0, 700), macro [700, 1400), micro [1400, 2000);
    # ring: micro [0, 1000), macro [1000, 2000)
    @pytest.mark.parametrize("scene, kind, chain, position, reason", [
        ("hybrid", "split", "chain0", 700.0, "700 is not strictly inside a cluster"),
        ("hybrid", "split", "chain0", 750.0, "a part would be shorter than 200 m"),
        ("hybrid", "split", "chain0", 1900.0, "a part would be shorter than 200 m"),
        ("hybrid", "split", "chain0", 1023.0, "1023 is not an interior cell edge"),
        ("hybrid", "merge", "chain0", 1000.0, "no interface at 1000"),
        ("ring", "merge", "chain0", 0.0, "the wrap boundary of a cyclic chain never merges"),
        ("hybrid", "merge", "chain0", 700.0, "micro meets macro"),
        ("hybrid", "refine", "chain0", 300.0, "it is micro already"),
        ("hybrid", "coarsen", "chain0", 1000.0, "it is macro already"),
        ("unstable", "coarsen", "chain0", 700.0, "time step 0.25 violates the stability bound"),
        ("hybrid", "widen", "chain0", 1000.0, "unknown action kind"),
        ("hybrid", "coarsen", "chain0", 5000.0, "5000 lies off the chain's [0, 2000]"),
        ("hybrid", "refine", "chain0", -50.0, "-50 lies off the chain's [0, 2000]"),
        ("hybrid", "split", "nochain", 100.0, "no such chain"),
    ], ids=["split-on-a-boundary", "split-too-short-macro", "split-too-short-micro",
            "split-off-a-cell-edge", "merge-without-interface", "merge-at-the-wrap",
            "merge-across-representations", "refine-micro",
            "coarsen-macro", "coarsen-unstable", "unknown-kind",
            "coarsen-past-the-end", "refine-before-the-start", "split-on-an-unknown-chain"])
    def test_refusal_changes_nothing(self, scene, kind, chain, position, reason):
        config = EngineConfig(seed=17, lod_enabled=False)
        state = {"hybrid": lambda: build_state(load("hybrid"), config),
                 "ring": lambda: build_state(load("ring"), config),
                 "unstable": lambda: unstable_ring(config)}[scene]()
        digest, transitions = state.state_digest(), list(state.transitions)
        with pytest.raises(ActionRefused, match=rf"^{kind}( of .*)? at {chain}@{position:g}: "
                           + re.escape(reason)):
            apply_system_influences(state, [Action(kind, chain, position, "forced")])
        assert state.state_digest() == digest
        assert state.transitions == transitions

    def test_unstable_coarsen_is_refused_and_the_run_steps_on(self):
        config = EngineConfig(seed=17, lod_enabled=False)
        state = unstable_ring(config)
        digest = state.state_digest()
        with pytest.raises(ActionRefused, match=r"coarsen of c3 at chain0@700: "
                           r"time step 0.25 violates the stability bound for 2.2 m cells"):
            apply_system_influences(state, [Action("coarsen", "chain0", 700.0, "forced")])
        assert state.state_digest() == digest
        for _ in range(5):
            advance_step(state, config)
        assert state.ledger_residual() <= 1e-9


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
        scene = Scene(state)
        assert scene.speed_cap("r", 0, 100.0) == 25.0       # before everything
        assert scene.speed_cap("r", 0, 350.0) == 15.0       # past the limit sign
        assert scene.speed_cap("r", 1, 350.0) == 25.0       # other lane unaffected
        assert scene.speed_cap("r", 1, 550.0) == 0.4 * 25.0  # inside restriction
        assert scene.speed_cap("r", 0, 790.0) == 5.0         # yield approach
        state.time = 150.0                                   # restriction expired
        scene2 = Scene(state)
        assert scene2.speed_cap("r", 1, 550.0) == 25.0


class TestGateQuery:
    """One nearest-gate query serves perception and the vehicle walk: it
    looks strictly ahead, wraps around a cycle, and filters closed gates
    within a horizon."""

    def build(self, tmp_path):
        # a 2 km ring of four 500 m roads, macro/micro/macro/micro: gates at
        # 1000 m (closed, jammed cell behind it) and at the wrap point 0 (open)
        root = tmp_path / "gates"
        root.mkdir()
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n'
            '<simulation time_step="0.25" duration="60">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            '</simulation>\n')
        roads = ["ra", "rb", "rc", "rd"]
        infra = [f'  <node id="n{k}" kind="crossroads"/>' for k in range(4)]
        level = []
        for k, rid in enumerate(roads):
            nxt = roads[(k + 1) % 4]
            infra += [f'  <road id="{rid}" from="n{k}" to="n{(k + 1) % 4}" length="500" '
                      'lanes="1" speed_limit="25"/>',
                      f'  <turn node="n{(k + 1) % 4}" from_road="{rid}" from_lane="0" '
                      f'to_road="{nxt}" to_lane="0"/>']
            rep = "macro" if k % 2 == 0 else "micro"
            level.append(f'  <cluster representation="{rep}" road="{rid}" start="0" end="500"/>')
        level.append('  <initial_density road="rc" start="0" end="500" value="0.15"/>')
        (root / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n' + "\n".join(infra)
            + '\n</infrastructure>\n')
        (root / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n' + "\n".join(level) + '\n</level>\n')
        state = build_state(parse_scenario(root), EngineConfig())
        return Scene(state), state.chain_of_road["ra"]

    def test_nearest_gate_ahead_wraps_and_filters(self, tmp_path):
        scene, chain = self.build(tmp_path)
        assert chain.cyclic and chain.length == 2000.0
        # each gate is named by the macro cluster it opens into
        wrap, mid = scene.state.cluster_at(chain.id, 0.0).id, \
            scene.state.cluster_at(chain.id, 1000.0).id
        assert scene.gates[chain.id] == [(1000.0, mid, False), (2000.0, wrap, True)]
        # the wrap gate at position 0, seen from just before the chain end
        assert scene.gate_ahead(chain, 1999.0) == (1.0, wrap)
        # the nearer of the two gates; a gate exactly here is behind
        assert scene.gate_ahead(chain, 900.0) == (100.0, mid)
        assert scene.gate_ahead(chain, 1500.0) == (500.0, wrap)
        assert scene.gate_ahead(chain, 1000.0) == (1000.0, wrap)
        # closed gates only, around the ring and within a horizon
        assert scene.gate_ahead(chain, 1999.0, closed_only=True) == (1001.0, mid)
        assert scene.gate_ahead(chain, 1999.0, 200.0, closed_only=True) is None
        assert scene.gate_ahead(chain, 900.0, 100.0, closed_only=True) == (100.0, mid)
        assert scene.gate_ahead(chain, 899.0, 100.0, closed_only=True) is None

    def test_crossing_spends_the_gate_budget(self, tmp_path):
        scene, chain = self.build(tmp_path)
        # each gate is named by the macro cluster it opens into
        wrap, mid = scene.state.cluster_at(chain.id, 0.0).id, \
            scene.state.cluster_at(chain.id, 1000.0).id
        assert not scene.cross_gate(mid)          # closed: no place at all
        places = scene.gate_budget[wrap]
        assert places == 15                      # an empty 100 m cell at 0.15 veh/m
        assert all(scene.cross_gate(wrap) for _ in range(places))
        assert not scene.cross_gate(wrap)
        assert scene.crossings == {wrap: places}


class TestRestrictionFactors:
    """Active restrictions cap the capacity factor of every macro cell they
    overlap by more than 1e-9 m; two overlapping restrictions take the lower
    factor."""

    def build(self, tmp_path):
        root = tmp_path / "works"
        root.mkdir()
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n'
            '<simulation time_step="0.25" duration="60">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            '</simulation>\n')
        (root / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n'
            '  <node id="a" kind="crossroads"/>\n  <node id="b" kind="crossroads"/>\n'
            '  <road id="r" from="a" to="b" length="1003.7" lanes="2" speed_limit="25"/>\n'
            '</infrastructure>\n')
        (root / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n  <end_point id="out" road="r"/>\n'
            '  <cluster representation="macro" road="r" start="0" end="1003.7"/>\n'
            '  <restriction road="r" start="250" end="430" factor="0.5" '
            'from_t="0" to_t="100"/>\n'
            '  <restriction road="r" start="401" end="501.8500000005" factor="0.3" '
            'from_t="40" to_t="200"/>\n</level>\n')
        return build_state(parse_scenario(root), EngineConfig())

    @staticmethod
    def cell_by_cell(state, cluster):
        """The factors computed one cell at a time."""
        chain = state.chains[cluster.chain_id]
        seg = cluster.segment
        factors = np.ones(len(seg))
        for rs in state.model.restrictions:
            if not rs.from_t <= state.time < rs.to_t or rs.road not in chain.roads:
                continue
            a = chain.to_chain_pos(rs.road, rs.start)
            b = chain.to_chain_pos(rs.road, rs.end)
            for i, s in enumerate(seg.start):
                e = s + seg.dx[i]
                if min(b, e) - max(a, s) > 1e-9:
                    factors[i] = min(factors[i], rs.factor)
        return factors

    def test_factors_equal_cell_by_cell_overlap(self, tmp_path):
        state = self.build(tmp_path)
        (cluster,) = state.clusters.values()
        seen = []
        for t in (0.0, 50.0, 150.0, 250.0):
            state.time = t
            _refresh_restrictions(state)
            expected = self.cell_by_cell(state, cluster)
            assert np.array_equal(cluster.segment.capacity_factor, expected), t
            seen.append(expected.tolist())
        one = [1.0] * 10
        assert seen[0] == one[:2] + [0.5] * 3 + one[5:]
        assert seen[1] == one[:2] + [0.5, 0.3, 0.3] + one[5:]
        assert seen[2] == one[:3] + [0.3, 0.3] + one[5:]   # 5e-10 m into cell 5 is none
        assert seen[3] == one


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


class TestDefaultRoute:
    """A released vehicle's route: the fastest to any sink it can reach."""

    def build(self, tmp_path):
        (tmp_path / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n<simulation time_step="0.25" duration="60">'
            '<infrastructure ref="infra.xml"/><level ref="level.xml"/></simulation>\n')
        (tmp_path / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>'
            '<node id="p" kind="crossroads"/><node id="x" kind="crossroads"/>'
            '<node id="q" kind="crossroads"/><node id="u" kind="crossroads"/>'
            '<node id="w" kind="crossroads"/>'
            '<road id="a" from="p" to="x" length="400" lanes="1" speed_limit="25"/>'
            '<road id="b" from="x" to="q" length="150" lanes="1" speed_limit="25"/>'
            '<road id="z" from="u" to="w" length="150" lanes="1" speed_limit="25"/>'
            '<turn node="x" from_road="a" to_road="b" lanes="all"/>'
            '</infrastructure>\n')
        (tmp_path / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level><end_point id="sb" road="b"/>'
            '<end_point id="sz" road="z"/></level>\n')
        return build_state(parse_scenario(tmp_path), EngineConfig())

    def test_an_unreachable_sink_is_skipped(self, tmp_path):
        route = engine._default_route(self.build(tmp_path), "a")
        assert (route.roads, route.destination) == (("a", "b"), "sb")

    def test_a_routing_fault_propagates(self, tmp_path, monkeypatch):
        state = self.build(tmp_path)

        def broken(*args):
            raise RuntimeError("routing fault")
        monkeypatch.setattr(engine, "compute_route", broken)
        with pytest.raises(RuntimeError, match="routing fault"):
            engine._default_route(state, "a")


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
    """A refine melts the queue at its outgoing interface into the refined
    cluster, so a micro pair's merge never finds a queue at their interface
    and never waits for one to drain.  A queue only stands behind a macro
    cluster, where a merge is refused as one across representations."""

    @staticmethod
    def queued_hybrid(tmp_path, config):
        """The hybrid corridor, its macro extent at 0.1 veh/m and a vehicle
        standing just past 1400 that makes the releases there queue: after
        12 steps one release waits at the macro/micro interface 1400."""
        root = tmp_path / "queued"
        shutil.copytree(FIXTURES / "hybrid", root)
        level = root / "level.xml"
        level.write_text(level.read_text().replace("</level>", (
            '  <initial_density road="r1" start="700" end="1400" value="0.1"/>\n'
            '  <vehicle road="r1" lane="0" position="1405" speed="0"/>\n</level>')))
        state = build_state(parse_scenario(root), config)
        for _ in range(12):
            advance_step(state, config)
        return state

    def test_forced_merge_over_a_queue_is_refused(self, tmp_path):
        config = EngineConfig(seed=1, lod_enabled=False)
        state = self.queued_hybrid(tmp_path, config)
        shared = state.interfaces[("chain0", 1400000)]
        assert state.cluster_at("chain0", 1399.0).segment is not None
        assert len(shared.pending) == 1
        queued = list(shared.pending)
        digest, ledger = state.state_digest(), copy.deepcopy(state.ledger)
        transitions, orphan = list(state.transitions), state.orphan_mass
        with pytest.raises(ActionRefused, match=r"merge of .* at chain0@1400: macro meets micro"):
            apply_system_influences(state, [Action("merge", "chain0", 1400.0, "forced")])
        assert state.state_digest() == digest
        assert state.ledger == ledger and state.orphan_mass == orphan
        assert state.transitions == transitions
        assert list(shared.pending) == queued
        advance_step(state, config)
        assert abs(state.ledger_residual()) <= 1e-9
        assert state.consistency_errors() == []

    def test_merge_proceeds_once_the_queue_has_drained(self, tmp_path):
        config = EngineConfig(seed=1, lod_enabled=False)
        state = self.queued_hybrid(tmp_path, config)
        shared = state.interfaces[("chain0", 1400000)]
        middle = state.cluster_at("chain0", 1000.0)
        assert len(shared.pending) == 1
        mass, held = middle.mass(), shared.mass()

        apply_system_influences(state, [Action("refine", "chain0", 1000.0, "forced")])
        assert not shared.pending and not shared.carryover.any()
        (record,) = state.transitions
        # the queued release is mass of the refined cluster, rounded with it
        assert record.pre_mass == mass + held
        assert len(middle.vehicles) == math.floor(mass + held)
        assert record.post_mass == pytest.approx(record.pre_mass, abs=1e-9)
        assert abs(state.ledger_residual()) <= 1e-9
        assert state.consistency_errors() == []

        apply_system_influences(state, [Action("merge", "chain0", 1400.0, "forced")])
        assert state.transitions[-1].kind == "merge"
        merged = state.cluster_at("chain0", 1400.0)
        assert (merged.start, merged.end) == (700.0, 2000.0)
        assert abs(state.ledger_residual()) <= 1e-9
        for _ in range(40):   # and the situation must integrate cleanly
            advance_step(state, config)
            assert state.consistency_errors() == []


class TestMergeRehoming:
    """A merge or a refine hands the mass it cannot seat to the nearest
    interface upstream whose upstream side is macro, else to its open
    chain's head source, else to `orphan_mass`, and loses no mass: what a
    macro pair's boundary cells have no room for, and a refine's rounding
    residual.  A micro pair's interface holds nothing to hand on."""

    def merge(self, state, position):
        before = state.ledger_residual()
        apply_system_influences(state, [Action("merge", "chain0", position, "forced")])
        assert abs(state.ledger_residual() - before) <= 1e-9
        record = state.transitions[-1]
        assert record.kind == "merge"
        assert abs(record.post_mass - record.pre_mass) <= 1e-9
        assert state.consistency_errors() == []
        return state.cluster_at("chain0", position)

    def test_fraction_moves_to_the_upstream_interface(self):
        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(load("hybrid"), config)
        apply_system_influences(state, [Action("split", "chain0", 1000.0, "forced")])
        for _ in range(300):
            advance_step(state, config)
        upstream = state.interfaces[("chain0", 1000000)]
        carried = float(np.sum(upstream.carryover))
        apply_system_influences(state, [Action("refine", "chain0", 1200.0, "forced")])
        refine = state.transitions[-1]
        refined = state.cluster_at("chain0", 1200.0)
        fraction = refine.post_mass - len(refined.vehicles)
        assert fraction > 0
        assert float(np.sum(upstream.carryover)) == pytest.approx(carried + fraction, abs=1e-12)
        assert state.interfaces[("chain0", 1400000)].mass() == 0.0
        merged = self.merge(state, 1400.0)
        assert (merged.start, merged.end) == (1000.0, 2000.0)
        assert state.itf_up[merged.id] is upstream
        assert float(np.sum(upstream.carryover)) == pytest.approx(carried + fraction, abs=1e-12)
        assert state.orphan_mass == 0.0

    def test_without_an_upstream_interface_the_mass_is_orphaned(self, tmp_path):
        # two jammed macro extents on a road no source feeds
        root = tmp_path / "headless"
        root.mkdir()
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n'
            '<simulation time_step="0.25" duration="10">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            '</simulation>\n')
        (root / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n'
            '  <node id="a" kind="crossroads"/>\n  <node id="b" kind="crossroads"/>\n'
            '  <road id="r1" from="a" to="b" length="2000" lanes="1" speed_limit="25"/>\n'
            '</infrastructure>\n')
        (root / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n'
            '  <end_point id="out1" road="r1"/>\n'
            '  <cluster representation="macro" road="r1" start="0" end="1000"/>\n'
            '  <cluster representation="macro" road="r1" start="1000" end="2000"/>\n'
            '  <initial_density road="r1" start="0" end="2000" value="0.15"/>\n'
            '</level>\n')
        state = build_state(parse_scenario(root), EngineConfig(seed=1, lod_enabled=False))
        assert all(np.all(c.segment.rho == state.fd.rho_jam) for c in state.clusters.values())
        state.interfaces[("chain0", 1000000)].add_fractional(0.25)
        state.ledger.add_macro_in(0.25)
        assert abs(state.ledger_residual()) <= 1e-9

        merged = self.merge(state, 1000.0)
        assert list(state.clusters.values()) == [merged]
        assert state.itf_up.get(merged.id) is None and "chain0" not in state.head_source
        assert state.orphan_mass == pytest.approx(0.25, abs=1e-12)
        assert abs(state.ledger_residual()) <= 1e-9

    def jammed_merge(self, state, position):
        """Fill the cells on both sides of the macro/macro interface at
        `position` up to jam density, bank 0.5 and one queued vehicle there
        and merge it; the 1.5 must move."""
        a, b = state.cluster_at("chain0", position - 1.0), state.cluster_at("chain0", position)
        shared = state.interfaces[("chain0", round(position * 1000))]
        # the boundary cell and every cell upstream of it seat nothing more
        a.segment.rho[:] = state.fd.rho_jam
        b.segment.rho[0] = state.fd.rho_jam
        shared.add_fractional(0.5)
        shared.pending.append(Vehicle(id=state.new_vehicle_id(), road="r1", lane=0,
                                      position=position, speed=0.0))
        rho = np.concatenate([a.segment.rho, b.segment.rho])
        merged = self.merge(state, position)
        assert (merged.start, merged.end) == (a.start, b.end)
        assert np.array_equal(merged.segment.rho, rho)
        return merged

    def test_macro_mass_without_room_moves_to_the_upstream_interface(self):
        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(load("hybrid"), config)
        for _ in range(300):
            advance_step(state, config)
        apply_system_influences(state, [Action("split", "chain0", 900.0, "forced"),
                                        Action("split", "chain0", 1200.0, "forced")])
        upstream = state.interfaces[("chain0", 900000)]
        carried = float(np.sum(upstream.carryover))
        merged = self.jammed_merge(state, 1200.0)
        assert state.itf_up[merged.id] is upstream
        assert float(np.sum(upstream.carryover)) == pytest.approx(carried + 1.5, abs=1e-12)
        assert state.orphan_mass == 0.0

    def test_macro_mass_without_room_moves_to_the_head_source(self):
        """The interface into the merged cluster has a micro upstream side,
        so the mass goes past it to the entry generator's accumulator."""
        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(load("hybrid"), config)
        for _ in range(300):
            advance_step(state, config)
        apply_system_influences(state, [Action("split", "chain0", 1000.0, "forced")])
        upstream = state.interfaces[("chain0", 700000)]
        gen = state.head_source["chain0"]
        waiting = float(np.sum(gen.accumulator))
        merged = self.jammed_merge(state, 1000.0)
        assert state.itf_up[merged.id] is upstream and upstream.mass() == 0.0
        assert float(np.sum(gen.accumulator)) == pytest.approx(waiting + 1.5, abs=1e-12)
        assert state.orphan_mass == 0.0


def held_behind_micro(state):
    """Ids of the interfaces that hold mass behind a micro cluster."""
    return [itf.id for itf in state.interfaces.values()
            if state.clusters[itf.upstream_id].segment is None and itf.mass() != 0.0]


@st.composite
def forced_sequences(draw):
    """A fixture, a seed, the LOD on or off, a warm-up and up to five forced
    actions, each followed by a few steps.  An action names its cluster or
    interface by index into the partition it meets, so most of them apply."""
    return (draw(st.sampled_from(["hybrid", "ring", "jam", "minimal"])),
            draw(st.integers(1, 99)), draw(st.booleans()),
            draw(st.sampled_from([0, 60, 300])),
            draw(st.lists(st.tuples(st.sampled_from(["split", "merge", "switch"]),
                                    st.integers(0, 5), st.floats(0.0, 1.0),
                                    st.integers(0, 30)), min_size=1, max_size=5)))


def forced_action(state, kind, index, where):
    """The action of this kind on the `index`-th cluster or interface of
    chain0: a switch refines a macro cluster and coarsens a micro one, and a
    split lands at the fraction `where` of the positions that leave both
    parts long enough, on a cell edge of a macro cluster."""
    if kind == "merge":
        positions = sorted(itf.position for itf in state.interfaces.values())
        return Action(kind, "chain0", positions[index % len(positions)], "forced") \
            if positions else None
    cluster = state.chain_clusters("chain0")[index % len(state.order["chain0"])]
    position = (cluster.start + cluster.end) / 2.0
    if kind == "switch":
        return Action("coarsen" if cluster.segment is None else "refine", "chain0",
                      position, "forced")
    least = state.policy.min_cluster_length
    lo, hi = cluster.start + least, cluster.end - least
    if cluster.segment is not None:
        edges = [float(e) for e in cluster.segment.start[1:] if lo - 1e-9 <= e <= hi + 1e-9]
        if edges:
            position = edges[min(int(where * len(edges)), len(edges) - 1)]
    elif lo <= hi:
        position = round(lo + where * (hi - lo), 1)
    return Action(kind, "chain0", position, "forced")


class TestNoHoldingBehindMicro:
    """An interface whose upstream cluster is micro holds no carryover and
    no queued vehicle, after every action and every step: a refine melts its
    outgoing interface into the refined cluster, and a fraction of a vehicle
    is banked only where a macro side can release it."""

    def test_a_refine_leaves_no_holding_behind_it(self):
        """Refined, the middle extent has micro on both sides: the 0.357 at
        1400 rounds into its vehicles with the cells' 8.643, and neither
        interface holds anything, at once or 400 steps later."""
        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(load("hybrid"), config)
        for _ in range(300):
            advance_step(state, config)
        assert state.interfaces[("chain0", 1400000)].mass() > 0
        apply_system_influences(state, [Action("refine", "chain0", 1000.0, "forced")])
        assert len(state.cluster_at("chain0", 1000.0).vehicles) == 9
        for step in range(401):
            if step:
                advance_step(state, config)
            assert held_behind_micro(state) == []
            for key in (("chain0", 700000), ("chain0", 1400000)):
                assert state.interfaces[key].mass() == 0.0
            assert state.consistency_errors() == []
            assert abs(state.ledger_residual()) <= 1e-9

    @settings(max_examples=30)
    @given(forced_sequences())
    def test_forced_sequences_keep_the_rule_and_the_mass(self, sequence):
        name, seed, lod_enabled, warmup, moves = sequence
        config = EngineConfig(seed=seed, lod_enabled=lod_enabled)
        state = build_state(load(name), config)
        checked = 0

        def check():
            nonlocal checked
            assert held_behind_micro(state) == []
            assert state.consistency_errors() == []
            assert abs(state.ledger_residual()) <= 1e-9
            for record in state.transitions[checked:]:
                assert abs(record.post_mass - record.pre_mass) <= 1e-9, record
            checked = len(state.transitions)

        for _ in range(warmup):
            advance_step(state, config)
            check()
        for kind, index, where, steps in moves:
            action = forced_action(state, kind, index, where)
            if action is not None:
                digest = state.state_digest()
                try:
                    apply_system_influences(state, [action])
                except ActionRefused:
                    assert state.state_digest() == digest
                check()
            for _ in range(steps):
                advance_step(state, config)
                check()


class TestBankedFraction:
    """A refine at an open chain's head banks its fractional residual in the
    entry generator's accumulator, which the ledger counts as not yet
    emitted; the cell store follows every change of the macro segments."""

    def test_forced_actions_keep_the_ledger_and_the_store(self):
        from hybridflow.lod import Action

        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(parse_scenario(FIXTURES / "hybrid"), config)
        for _ in range(300):
            advance_step(state, config)
        for kind, position in (("coarsen", 129.0), ("merge", 700.0), ("refine", 425.0)):
            apply_system_influences(state, [Action(kind, "chain0", position, "forced")])
            assert abs(state.ledger_residual()) <= 1e-9, kind
            advance_step(state, config)
            assert abs(state.ledger_residual()) <= 1e-9, kind
            assert state.consistency_errors() == [], kind
            for cluster in state.clusters.values():
                if cluster.representation == "macro":
                    assert np.shares_memory(cluster.segment.rho, state.cells.rho), kind
        assert [c.representation for c in state.chain_clusters("chain0")] == ["micro"] * 2


class TestDissolveQueue:
    """A coarsen melts the whole vehicles queued before the new macro extent,
    at its interface or in its head source's retry queue, into its entry
    cell: each adds 1/(dx * lanes) while the cell can seat one more, the
    rest stay queued, and no mass is lost."""

    QUEUED = 40   # more than a 100 m cell can seat

    def queued_fixture(self, name):
        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(load(name), config)
        for _ in range(300):
            advance_step(state, config)
        if name == "hybrid":
            queue = state.interfaces[("chain0", 1400000)].pending
            queue.extend(Vehicle(id=state.new_vehicle_id(), road="r1", lane=0,
                                 position=1400.0, speed=5.0) for _ in range(self.QUEUED))
            position = 1700.0
        else:
            (gen,) = state.generators
            queue = gen.retry
            queue.extend(InsertionSpec(road="r1", lane=0, position=0.0, speed=None,
                                       params=DriverParams(), length=4.0, destination="out1")
                         for _ in range(self.QUEUED))
            position = 500.0
        state.ledger.inserted += self.QUEUED   # the queued vehicles entered the network
        return state, queue, position

    @pytest.mark.parametrize("name", ["hybrid", "minimal"], ids=["interface", "retry"])
    def test_coarsen_dissolves_the_queue_into_the_entry_cell(self, monkeypatch, name):
        state, queue, position = self.queued_fixture(name)
        assert abs(state.ledger_residual()) <= 1e-9
        seen = []
        dissolve = engine._dissolve_queue

        def record(seg, waiting):
            seen.append((float(seg.rho[0]), len(waiting)))
            dissolve(seg, waiting)

        monkeypatch.setattr(engine, "_dissolve_queue", record)
        apply_system_influences(state, [Action("coarsen", "chain0", position, "forced")])
        (rho, waiting), = seen
        assert waiting == self.QUEUED
        seg = state.cluster_at("chain0", position).segment
        per_vehicle = 1.0 / (seg.dx[0] * seg.lanes[0])
        melted = 0
        while melted < waiting and (state.fd.rho_jam - rho) * seg.dx[0] * seg.lanes[0] >= 1.0:
            rho += per_vehicle
            melted += 1
        assert 0 < melted < waiting
        assert seg.rho[0] == rho
        assert len(queue) == waiting - melted
        assert abs(state.ledger_residual()) <= 1e-9
        (record_,) = state.transitions
        assert record_.post_mass == pytest.approx(record_.pre_mass, abs=1e-9)


class TestBoundaryRates:
    """The macro reaction reads a macro neighbour's boundary cell and a
    release queue's throttle as they stand before the step."""

    def test_macro_to_macro_flux_is_min_of_demand_and_supply(self):
        from hybridflow.lod import Action
        from model_oracle import demand, supply

        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(load("jam"), config)
        apply_system_influences(state, [Action("split", "chain0", 1000.0, "forced")])
        _refresh_restrictions(state)
        up, down = state.chain_clusters("chain0")
        assert (up.representation, down.representation, down.start) == ("macro", "macro", 1000.0)
        up.segment.rho[-1] = 0.016   # a demand no other cell of `up` has, below `down`'s supply
        expected = min(demand(up.segment.cell(len(up.segment) - 1), state.fd),
                       supply(down.segment.cell(0), state.fd))
        assert expected > 0.0
        advance_step(state, config)
        assert state.last_flows[down.id][0] == expected

    def test_throttled_release_stops_the_macro_outflow(self):
        from hybridflow.hybrid import RELEASE_QUEUE_THRESHOLD
        from model_oracle import demand

        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(load("hybrid"), config)
        for _ in range(300):
            advance_step(state, config)
        macro = state.cluster_at("chain0", 1000.0)
        assert demand(macro.segment.cell(len(macro.segment) - 1), state.fd) > 0.0
        itf = state.interfaces[("chain0", 1400000)]
        while len(itf.pending) <= RELEASE_QUEUE_THRESHOLD:
            itf.pending.append(Vehicle(id=state.new_vehicle_id(), road="r1", lane=0,
                                       position=1400.0, speed=5.0))
        advance_step(state, config)
        assert state.last_flows[macro.id][1] == 0.0


class TestRingWrap:
    """`reindex` gives a cyclic chain its wrap interface whatever the number
    of its clusters, so a one-cluster ring closes like any other boundary."""

    def test_split_of_a_one_cluster_ring_keeps_its_wrap(self, one_cluster_ring):
        from hybridflow.lod import Action

        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(parse_scenario(one_cluster_ring), config)
        apply_system_influences(state, [Action("split", "chain0", 1000.0, "jam")])
        wrap = state.interfaces.get(("chain0", 0))
        assert wrap is not None
        head = state.clusters[wrap.downstream_id]
        assert (state.clusters[wrap.upstream_id].end, head.start) == (2000.0, 0.0)
        assert state.consistency_errors() == []
        inflow = 0.0
        for _ in range(40):
            advance_step(state, config)
            inflow += state.last_flows[head.id][0]
        assert inflow > 0.0

    def test_one_cluster_macro_ring_closes_on_itself(self, one_cluster_ring):
        config = EngineConfig(seed=1, lod_enabled=False)
        state = build_state(parse_scenario(one_cluster_ring), config)
        (ring,) = state.clusters.values()
        for _ in range(2000):
            advance_step(state, config)
            inflow, outflow = state.last_flows[ring.id]
            assert inflow == outflow > 0.0
            assert abs(state.ledger_residual()) <= 1e-9


class TestInterfaceAudit:
    """`consistency_errors` checks the interfaces against the partition on
    its own, without `reindex` or the adjacency maps."""

    @pytest.fixture
    def state(self):
        state = build_state(load("ring"), EngineConfig(steps=0))
        assert sorted(state.interfaces) == [("chain0", 0), ("chain0", 1000000)]
        assert state.consistency_errors() == []
        return state

    def test_wrong_upstream_is_named(self, state):
        itf = state.interfaces[("chain0", 1000000)]
        itf.upstream_id = itf.downstream_id
        assert state.consistency_errors() == [
            f"interface {itf.id} at 1000.0: upstream {itf.downstream_id} ends at 2000.0"]

    def test_wrong_downstream_is_named(self, state):
        wrap = state.interfaces[("chain0", 0)]
        wrap.downstream_id = wrap.upstream_id
        assert state.consistency_errors() == [
            f"interface {wrap.id} at 0.0: downstream {wrap.upstream_id} starts at 1000.0",
            f"0 interfaces into {state.order['chain0'][0]} at 0.0 on chain0",
            f"2 interfaces into {wrap.upstream_id} at 1000.0 on chain0"]

    def test_missing_wrap_is_named(self, state):
        head = state.interfaces.pop(("chain0", 0)).downstream_id
        assert state.consistency_errors() == [f"0 interfaces into {head} at 0.0 on chain0"]

    def test_misfiled_interface_is_named(self, state):
        itf = state.interfaces.pop(("chain0", 1000000))
        state.interfaces[("chain0", 999000)] = itf
        assert state.consistency_errors() == [
            f"interface {itf.id} at 1000.0 filed under ('chain0', 999000)"]

    @pytest.mark.parametrize("holding", ["carryover", "queue"])
    def test_a_holding_behind_micro_is_named(self, state, holding):
        itf = state.interfaces[("chain0", 1000000)]   # micro [0, 1000) upstream
        state.interfaces[("chain0", 0)].add_fractional(0.5)   # a macro upstream may hold
        if holding == "carryover":
            itf.add_fractional(0.25)
        else:
            itf.pending.append(Vehicle(id="q", road="rc", lane=0, position=0.0, speed=0.0))
        assert state.consistency_errors() == [
            f"interface {itf.id} holds {itf.mass():g} behind micro {itf.upstream_id}"]

    def test_interface_to_a_missing_cluster_is_named(self, state):
        itf = state.interfaces[("chain0", 1000000)]
        down, itf.upstream_id = itf.downstream_id, "gone"
        assert state.consistency_errors() == [
            f"interface {itf.id} joins clusters off chain0",
            f"0 interfaces into {down} at 1000.0 on chain0"]


class TestMacroBoundaryConditions:
    """A macro extent needs a well-defined boundary flux: it may not end at a
    branching node or start at a node fed by other roads.  It holds no
    source but its open chain's head source, a flow source, since the macro
    reaction offers inflow from that source alone, and touches no sink but
    one at its open chain's end, since it lets mass out there alone.
    `build_state` refuses a declared extent that breaks a condition, and the
    planner never coarsens into one."""

    GEN = ('<?xml version="1.0"?>\n<generation>\n'
           '  <vehicle_length distribution="constant" value="4"/>\n'
           '  <param name="v0" distribution="constant" value="25"/>\n'
           '  <destination sink="out" weight="1"/>\n</generation>\n')
    # r1 (na -> nb) and r2 (nb -> nc) form one chain, each 1,000 m with one lane
    CHAIN = ('  <node id="na" kind="crossroads"/>\n  <node id="nb" kind="crossroads"/>\n'
             '  <node id="nc" kind="crossroads"/>\n'
             '  <road id="r1" from="na" to="nb" length="1000" lanes="1" speed_limit="25"/>\n'
             '  <road id="r2" from="nb" to="nc" length="1000" lanes="1" speed_limit="25"/>\n'
             '  <turn node="nb" from_road="r1" from_lane="0" to_road="r2" to_lane="0"/>\n')
    MACRO_CHAIN = ('  <cluster representation="macro">\n'
                   '    <extent road="r1" start="0" end="1000"/>\n'
                   '    <extent road="r2" start="0" end="1000"/>\n  </cluster>\n')
    TWO_MICRO = ('  <cluster representation="micro" road="r1" start="0" end="1000"/>\n'
                 '  <cluster representation="micro" road="r2" start="0" end="1000"/>\n')

    @staticmethod
    def source(gen_id, road, lanes="all"):
        return (f'  <input_point id="{gen_id}" road="{road}" lanes="{lanes}" '
                'generation_ref="gen.xml" rhythm_ref="rhythm.xml"/>\n')

    # r1 (na -> nb) and r2 (nb -> nc), each 1,000 m with two lanes, with a
    # sink at the end of each road: out1 ends r1 in the middle of the chain
    MID_SINK = ('  <node id="na" kind="crossroads"/>\n  <node id="nb" kind="crossroads"/>\n'
                '  <node id="nc" kind="crossroads"/>\n'
                '  <road id="r1" from="na" to="nb" length="1000" lanes="2" speed_limit="25"/>\n'
                '  <road id="r2" from="nb" to="nc" length="1000" lanes="2" speed_limit="25"/>\n'
                '  <turn node="nb" from_road="r1" to_road="r2" lanes="all"/>\n')
    MID_SINK_LEVEL = ('  <input_point id="in1" road="r1" lanes="all" generation_ref="gen.xml" '
                      'rhythm_ref="rhythm.xml"/>\n'
                      '  <end_point id="out1" road="r1"/>\n  <end_point id="out2" road="r2"/>\n')
    FLOW_600 = ('<?xml version="1.0"?>\n<rhythm kind="flow">\n  <flow t="0" q="600"/>\n'
                '</rhythm>\n')

    def write(self, root, infra, level, lod="", rhythm=None, destination="out"):
        root.mkdir()
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n<simulation time_step="0.25" duration="100">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            f'{lod}</simulation>\n')
        (root / "infra.xml").write_text(
            f'<?xml version="1.0"?>\n<infrastructure>\n{infra}</infrastructure>\n')
        (root / "level.xml").write_text(f'<?xml version="1.0"?>\n<level>\n{level}</level>\n')
        (root / "gen.xml").write_text(self.GEN.replace('"out"', f'"{destination}"'))
        (root / "rhythm.xml").write_text(rhythm or (
            '<?xml version="1.0"?>\n<rhythm kind="flow">\n  <flow t="0" q="1200"/>\n</rhythm>\n'))
        return parse_scenario(root)

    def test_mid_chain_source_refuses_a_declared_macro_extent(self, tmp_path):
        model = self.write(tmp_path / "mid", self.CHAIN, self.source("in", "r2")
                           + '  <end_point id="out" road="r2"/>\n' + self.MACRO_CHAIN)
        with pytest.raises(SimulationError, match="macro extent would drop source in$"):
            build_state(model, EngineConfig(seed=1, lod_enabled=False))

    def test_budget_never_coarsens_the_extent_of_a_mid_chain_source(self, tmp_path):
        level = self.source("in", "r2") + '  <end_point id="out" road="r2"/>\n' + self.TWO_MICRO
        inserted = {}
        for lod_enabled in (False, True):
            model = self.write(tmp_path / f"lod_{lod_enabled}", self.CHAIN, level,
                               lod='  <lod micro_vehicle_budget="0"/>\n')
            config = EngineConfig(seed=1, lod_enabled=lod_enabled)
            state = build_state(model, config)
            (gen,) = state.generators
            for _ in range(400):
                advance_step(state, config)
                assert state.entry_cluster(gen).representation == MICRO
            assert abs(state.ledger_residual()) <= 1e-9
            inserted[lod_enabled] = state.ledger.inserted
        assert inserted[True] == inserted[False] == 33

    def test_two_sources_at_one_head_refuse_a_declared_macro_extent(self, tmp_path):
        infra = ('  <node id="na" kind="crossroads"/>\n  <node id="nb" kind="crossroads"/>\n'
                 '  <road id="r1" from="na" to="nb" length="2000" lanes="2" '
                 'speed_limit="25"/>\n')
        level = (self.source("in1", "r1", "0") + self.source("in2", "r1", "1")
                 + '  <end_point id="out" road="r1"/>\n  <cluster representation="macro">\n'
                 '    <extent road="r1" start="0" end="2000"/>\n  </cluster>\n')
        model = self.write(tmp_path / "two", infra, level)
        with pytest.raises(SimulationError, match="macro extent would drop source in2$"):
            build_state(model, EngineConfig(seed=1, lod_enabled=False))

    def test_extent_ending_at_a_branching_node_is_refused(self, tmp_path):
        infra = (self.CHAIN
                 + '  <node id="nd" kind="crossroads"/>\n'
                 '  <road id="r3" from="nb" to="nd" length="1000" lanes="1" speed_limit="25"/>\n'
                 '  <turn node="nb" from_road="r1" from_lane="0" to_road="r3" to_lane="0"/>\n')
        level = ('  <end_point id="out" road="r2"/>\n  <end_point id="out3" road="r3"/>\n'
                 '  <cluster representation="macro" road="r1" start="0" end="1000"/>\n')
        model = self.write(tmp_path / "branch", infra, level)
        with pytest.raises(SimulationError, match="macro extent ends at a branching node"):
            build_state(model, EngineConfig(seed=1, lod_enabled=False))

    def test_extent_starting_at_a_fed_node_is_refused(self, tmp_path):
        infra = (self.CHAIN
                 + '  <node id="nd" kind="crossroads"/>\n'
                 '  <road id="r3" from="nd" to="nb" length="1000" lanes="1" speed_limit="25"/>\n'
                 '  <turn node="nb" from_road="r3" from_lane="0" to_road="r2" to_lane="0"/>\n')
        level = ('  <end_point id="out" road="r2"/>\n'
                 '  <cluster representation="macro" road="r2" start="0" end="1000"/>\n')
        model = self.write(tmp_path / "fed", infra, level)
        with pytest.raises(SimulationError,
                           match="macro extent starts at a node fed by other roads"):
            build_state(model, EngineConfig(seed=1, lod_enabled=False))

    def test_scripted_source_refuses_a_declared_macro_extent(self, tmp_path):
        """The macro reaction never runs a script, so a scripted source under a
        macro extent would insert nothing at all."""
        infra = ('  <node id="na" kind="crossroads"/>\n  <node id="nb" kind="crossroads"/>\n'
                 '  <road id="r1" from="na" to="nb" length="1000" lanes="2" '
                 'speed_limit="25"/>\n')
        script = ('<?xml version="1.0"?>\n<rhythm kind="script">\n'
                  + "".join(f'  <event t="{t}" lane="0"/>\n' for t in (1, 2, 5, 10, 20))
                  + '</rhythm>\n')
        level = self.source("in1", "r1") + '  <end_point id="out" road="r1"/>\n'
        model = self.write(tmp_path / "micro", infra, level, rhythm=script)
        config = EngineConfig(seed=1)
        state = build_state(model, config)
        for _ in range(200):
            advance_step(state, config)
        assert state.ledger.inserted == 5
        model = self.write(tmp_path / "macro", infra, level
                           + '  <cluster representation="macro" road="r1" start="0" '
                           'end="1000"/>\n', rhythm=script)
        with pytest.raises(SimulationError, match="macro extent would drop source in1$"):
            build_state(model, EngineConfig(seed=1))

    @pytest.mark.parametrize("clusters", [
        '  <cluster representation="macro">\n    <extent road="r1" start="0" end="1000"/>\n'
        '    <extent road="r2" start="0" end="1000"/>\n  </cluster>\n',
        '  <cluster representation="micro" road="r1" start="0" end="1000"/>\n'
        '  <cluster representation="macro" road="r2" start="0" end="1000"/>\n',
        '  <cluster representation="macro" road="r1" start="0" end="1000"/>\n'
        '  <cluster representation="micro" road="r2" start="0" end="1000"/>\n'],
        ids=["over", "from", "to"])
    def test_mid_chain_sink_refuses_a_declared_macro_extent(self, tmp_path, clusters):
        """A macro extent over, starting at or ending at a sink that does not
        end its chain would carry past it the vehicles that sink absorbs."""
        model = self.write(tmp_path / "mid_sink", self.MID_SINK, self.MID_SINK_LEVEL + clusters,
                           rhythm=self.FLOW_600, destination="out2")
        with pytest.raises(SimulationError, match="macro extent would pass sink out1$"):
            build_state(model, EngineConfig(seed=1))

    def test_budget_never_coarsens_over_a_mid_chain_sink(self, tmp_path):
        """All micro, every vehicle leaves at out1, the first sink on its way;
        a zero micro budget leaves that so."""
        absorbed = {}
        for budget in ("", '  <lod micro_vehicle_budget="0"/>\n'):
            model = self.write(tmp_path / f"budget{len(budget)}", self.MID_SINK,
                               self.MID_SINK_LEVEL, lod=budget, rhythm=self.FLOW_600,
                               destination="out2")
            config = EngineConfig(seed=1)
            state = build_state(model, config)
            for _ in range(2400):
                advance_step(state, config)
            assert state.transitions == []
            assert state.ledger.macro_out_mass == 0.0
            assert abs(state.ledger_residual()) <= 1e-9
            absorbed[budget] = state.ledger.absorbed
        assert list(absorbed.values()) == [186, 186]

    def test_sink_at_a_ring_wrap_refuses_the_macro_extent_after_it(self, tmp_path):
        """A ring's wrap is the end of its last road and the start of its first,
        so a sink there touches the cluster starting the chain."""
        root = tmp_path / "ring_sink"
        root.mkdir()
        ring = FIXTURES / "ring"
        for name in ("scenario.xml", "infrastructure.xml"):
            (root / name).write_text((ring / name).read_text())
        (root / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n  <end_point id="out" road="rd"/>\n'
            '  <cluster representation="macro">\n'
            '    <extent road="ra" start="0" end="500"/>\n'
            '    <extent road="rb" start="0" end="500"/>\n  </cluster>\n'
            '  <cluster representation="micro">\n'
            '    <extent road="rc" start="0" end="500"/>\n'
            '    <extent road="rd" start="0" end="500"/>\n  </cluster>\n</level>\n')
        with pytest.raises(SimulationError, match="macro extent would pass sink out$"):
            build_state(parse_scenario(root), EngineConfig(seed=1))
