"""Influence-reaction simulation engine.

Each step runs a fixed phase sequence: perception, memorization, decision,
the environment's natural action, per-level reaction (micro integration,
then macro cell updates, whose boundary rates read the cells as they
stand), and finally the engine's own reaction to system influences
(removals, level-of-detail actions, insertions).  Probes observe the
state only between steps, when it is consistent.

The engine is deterministic: given the same scenario, seed and number of
steps it produces identical states.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .generation import (FlowMassGenerator, InsertionSpec, ScriptedGenerator,
                         stream_seed)
from .hybrid import (MACRO, MICRO, BoundaryInterface, Cluster,
                     absorb_crossed_remainder, aggregate_cluster,
                     boundary_gate_open, build_cell_layout,
                     disaggregate_cluster, drain, lanes_at,
                     macro_to_micro_release, pos_key)
from .hybrid import total_mass as _hybrid_total_mass
from .lod import (Action, LodController, bank_mass_into_segment, merge_clusters,
                  split_cluster)
from .macro import CellStore, MacroSegment
from .macro import ctm_step  # noqa: F401 - the benchmark tracer wraps this name
from .macro import cell_mean_speed  # noqa: F401 - the benchmark tracer wraps this name
from .micro import (NAV_HORIZON, VIEW_OFFSETS, DriverArrays, DriverParams, PerceptionArrays,
                    Vehicle, behavior_chains)
from .micro import behavior_chain  # noqa: F401 - the benchmark tracer wraps this name
from .network import (MAX_LANES, Route, SinkPoint, UnreachableError, compute_route,
                      lanes_toward, permitted_entry_lane, road_successors)
from .scenario import ScenarioModel

INF = float("inf")

#: standstill offset from walls, blocked gates and missed turns
NODE_STANDOFF = 0.5
#: approach speed imposed near a yield sign
YIELD_SPEED = 5.0
YIELD_ZONE = 30.0
#: a vehicle this slow within this distance of a stop sign has served it
STOP_SPEED = 0.3
STOP_ZONE = 5.0
#: bumper overlaps beyond this abort the run as a model bug
OVERLAP_TOLERANCE = 0.25
#: perceived gaps never drop below this; near-contact reads as emergency
MIN_PERCEIVED_GAP = 0.01
#: how far ahead and behind a vehicle perceives others, m
PERCEPTION_HORIZON = 200.0
#: more boundaries than this in one step means the walk is not advancing
MAX_BOUNDARIES = 50


class SimulationError(RuntimeError):
    """Raised when the run must terminate abnormally."""


class ScenarioRefused(SimulationError):
    """The declared input parsed, but `build_state` cannot build it."""


class OverlapDetected(SimulationError):
    """Integration produced a negative gap beyond tolerance."""


class UnknownTarget(SimulationError):
    """A system influence referenced a vehicle or generator that does not
    exist."""


class ActionRefused(SimulationError):
    """A structural action fails a precondition (see `_refusal`); it is
    refused before it changes anything."""


# ---------------------------------------------------------------------------
# Influences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AddVehicle:
    spec: InsertionSpec
    generator_id: str | None = None


@dataclass(frozen=True)
class RemoveVehicle:
    vehicle_id: str


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

class Probe:
    """Observer notified only at consistent instants; must not mutate state."""

    def on_simulation_start(self) -> None:
        pass

    def on_initialized(self, state) -> None:
        pass

    def on_step_end(self, state) -> None:
        pass

    def on_final(self, state) -> None:
        pass

    def on_error(self, error: BaseException) -> None:
        pass


@dataclass
class RunReport:
    steps_executed: int = 0
    probe_failures: list = field(default_factory=list)
    wall_time: float = 0.0


@dataclass
class EngineConfig:
    steps: int | None = None          # overrides scenario duration
    seed: int = 0
    lod_enabled: bool = True


def _compensated_add(acc: list[float], term: float) -> None:
    """One Neumaier summation step on acc = [running sum, lost round-off]."""
    total = acc[0] + term
    if abs(acc[0]) >= abs(term):
        acc[1] += (acc[0] - total) + term
    else:
        acc[1] += (term - total) + acc[0]
    acc[0] = total


@dataclass
class Ledger:
    """What sources emitted and sinks destroyed.

    The continuous masses add tens of thousands of small terms, which a
    plain float sum drifts from by more than the 1e-9 audit bound; each is
    kept as a compensated [sum, round-off] pair instead."""

    inserted: int = 0                 # whole vehicles emitted by sources
    absorbed: int = 0                 # whole vehicles destroyed at sinks
    # continuous inflow into macro entries, outflow at macro chain ends
    macro_in: list[float] = field(default_factory=lambda: [0.0, 0.0])
    macro_out: list[float] = field(default_factory=lambda: [0.0, 0.0])

    @property
    def macro_in_mass(self) -> float:
        return self.macro_in[0] + self.macro_in[1]

    @property
    def macro_out_mass(self) -> float:
        return self.macro_out[0] + self.macro_out[1]

    def add_macro_in(self, mass: float) -> None:
        _compensated_add(self.macro_in, mass)

    def add_macro_out(self, mass: float) -> None:
        _compensated_add(self.macro_out, mass)


@dataclass(frozen=True)
class TransitionRecord:
    step: int
    kind: str
    cluster_ids: tuple
    chain_id: str
    position: float
    trigger: str
    pre_mass: float
    post_mass: float


# ---------------------------------------------------------------------------
# Engine state
# ---------------------------------------------------------------------------

class EngineState:
    """Everything the simulation mutates, plus deterministic id and rng
    bookkeeping.  Probes receive this object read-only."""

    def __init__(self, model: ScenarioModel, config: EngineConfig):
        self.model = model
        self.network = model.network
        self.chains = {c.id: c for c in model.chains}
        self.chain_of_road = {rid: c for c in model.chains for rid in c.roads}
        self.road_arrays = RoadArrays.of(self.network, self.chain_of_road)
        self.fd = model.fd
        self.policy = model.lod
        self.release_mix = model.release_mix
        self.dt = model.time_step
        self.seed = config.seed
        self.step = 0
        self.time = 0.0

        self.clusters: dict[str, Cluster] = {}
        self.order: dict[str, list[str]] = {}
        self.interfaces: dict[tuple[str, int], BoundaryInterface] = {}
        self.itf_up: dict[str, BoundaryInterface] = {}
        self.itf_down: dict[str, BoundaryInterface] = {}
        self.generators: list = []
        self.chain_generators: dict[str, list] = {}   # static, by chain id
        self.sinks_by_road: dict[str, list] = {}
        # static, by open chain id: the flow source feeding the head cluster
        # and the sink draining the last one, wherever they exist
        self.head_source: dict[str, FlowMassGenerator] = {}
        self.tail_sink: dict[str, SinkPoint] = {}
        self.controller = LodController(model.lod)
        self.ledger = Ledger()
        self.transitions: list[TransitionRecord] = []
        self.orphan_mass = 0.0
        self.last_flows: dict[str, list[float]] = {}
        self.cells = CellStore([], self.fd, self.dt)   # see cell_store

        self._next_vehicle = 0
        self._next_cluster = 0
        self._next_interface = 0
        self.lod_rng = np.random.default_rng(stream_seed(config.seed, "disaggregate"))
        self._release_rngs: dict[tuple[str, int], np.random.Generator] = {}
        self._route_cache: dict[tuple[str, str | None], Route | None] = {}
        self._edge_lookups: dict[tuple, object] = {}   # see reindex
        self.initial_mass = 0.0

    # -- identifiers and streams -------------------------------------------

    def new_vehicle_id(self) -> str:
        vid = f"v{self._next_vehicle}"
        self._next_vehicle += 1
        return vid

    def new_cluster_id(self) -> str:
        cid = f"c{self._next_cluster}"
        self._next_cluster += 1
        return cid

    def new_interface_id(self) -> str:
        iid = f"i{self._next_interface}"
        self._next_interface += 1
        return iid

    def release_rng(self, chain_id: str, position: float) -> np.random.Generator:
        key = (chain_id, pos_key(position))
        if key not in self._release_rngs:
            self._release_rngs[key] = np.random.default_rng(
                stream_seed(self.seed, f"release:{chain_id}:{key[1]}"))
        return self._release_rngs[key]

    # -- topology helpers ----------------------------------------------------

    def chain_clusters(self, chain_id: str) -> list[Cluster]:
        return [self.clusters[cid] for cid in self.order[chain_id]]

    def cluster_at(self, chain_id: str, chain_pos: float) -> Cluster:
        starts, ids = self.cluster_starts(chain_id)
        idx = bisect.bisect_right(starts, chain_pos + 1e-9) - 1
        return self.clusters[ids[max(idx, 0)]]

    def reindex(self) -> None:
        """Rebuild cluster order, and link one interface to each boundary of
        the partition: every pair of adjacent clusters, keyed by the
        downstream start, and the (last, first) pair of a cyclic chain, even
        when that pair is one cluster.  An existing interface keeps its
        holdings and only changes sides; a missing one is created."""
        self.order = {}
        for cid, cluster in self.clusters.items():
            self.order.setdefault(cluster.chain_id, []).append(cid)
        self.itf_up = {}
        self.itf_down = {}
        for chain_id, ids in self.order.items():
            ids.sort(key=lambda cid: self.clusters[cid].start)
            chain = self.chains[chain_id]
            pairs = list(zip(ids, ids[1:]))
            if chain.cyclic:
                pairs.append((ids[-1], ids[0]))
            for up_id, down_id in pairs:
                pos = self.clusters[down_id].start
                key = (chain_id, pos_key(pos))
                if key not in self.interfaces:
                    self.interfaces[key] = BoundaryInterface(
                        id=self.new_interface_id(), chain_id=chain_id, position=pos,
                        upstream_id=up_id, downstream_id=down_id,
                        lanes=lanes_at(chain, self.network, pos))
                itf = self.interfaces[key]
                itf.upstream_id, itf.downstream_id = up_id, down_id
                self.itf_down[up_id] = itf
                self.itf_up[down_id] = itf
        self._edge_lookups = {}

    # The look-ups below depend only on the partition and the network, so
    # each answer is kept until the next `reindex`.

    def cluster_starts(self, chain_id: str) -> tuple[np.ndarray, list[str]]:
        """Start of each cluster of a chain, ascending, and the clusters' ids."""
        key = ("starts", chain_id)
        if key not in self._edge_lookups:
            ids = self.order[chain_id]
            self._edge_lookups[key] = (
                np.array([self.clusters[cid].start for cid in ids], dtype=float), ids)
        return self._edge_lookups[key]

    def next_road(self, road_id: str, route: Route | None) -> str | None:
        """Road a vehicle takes after this one: its route's next road, or
        the only successor when it has no route; None when neither exists."""
        if route is not None:
            return route.next_after(road_id)
        succ = road_successors(self.network, road_id)
        return succ[0] if len(succ) == 1 else None

    def next_entry(self, road_id: str, lane: int, route: Route | None):
        """(next road, entry lane) a vehicle in this lane continues on, or
        None when its path ends or the node has no turn for the lane."""
        key = ("entry", road_id, lane, route)
        if key not in self._edge_lookups:
            nxt = self.next_road(road_id, route)
            entry = None if nxt is None else \
                permitted_entry_lane(self.network, road_id, lane, nxt)
            self._edge_lookups[key] = None if entry is None else (nxt, entry)
        return self._edge_lookups[key]

    def permitted_lanes(self, road_id: str, route: Route | None) -> frozenset[int] | None:
        """Lanes of a road from which a vehicle's path continues; None when a
        sink ends the road, so that any lane will do."""
        key = ("permitted", road_id, route)
        if key not in self._edge_lookups:
            permitted = None
            if not self.sinks_by_road.get(road_id):
                nxt = self.next_road(road_id, route)
                permitted = frozenset() if nxt is None \
                    else lanes_toward(self.network, road_id, nxt)
            self._edge_lookups[key] = permitted
        return self._edge_lookups[key]

    def entry_cluster(self, gen) -> Cluster | None:
        """Cluster holding a generator's connector, at its road's start (None
        off every chain)."""
        key = ("generator", gen.id)
        if key not in self._edge_lookups:
            chain = self.chain_of_road.get(gen.road)
            self._edge_lookups[key] = None if chain is None else self.cluster_at(
                chain.id, chain.offset_of(gen.road))
        return self._edge_lookups[key]

    # -- audits ----------------------------------------------------------------

    def total_mass(self) -> float:
        return _hybrid_total_mass(self.clusters.values(), self.interfaces.values(),
                                  self.generators) + self.orphan_mass

    def accumulator_mass(self) -> float:
        total = 0.0
        for gen in self.generators:
            if isinstance(gen, FlowMassGenerator):
                total += float(np.sum(gen.accumulator))
        return total

    def ledger_residual(self) -> float:
        """(emitted - destroyed) minus what the network actually holds."""
        led = self.ledger
        held = self.total_mass() - self.accumulator_mass() - self.initial_mass
        return (led.inserted + led.macro_in_mass
                - led.absorbed - led.macro_out_mass) - held

    def cell_store(self, macro: list[Cluster]) -> CellStore:
        """The cell store over these macro clusters' segments, in this order;
        rebuilt, with its CFL check, when they are not the segments it holds."""
        held = self.cells.segments
        if len(held) != len(macro) or any(seg is not c.segment
                                           for seg, c in zip(held, macro)):
            self.cells = CellStore([c.segment for c in macro], self.fd, self.dt)
        return self.cells

    def micro_vehicle_count(self) -> int:
        return sum(len(c.vehicles) for c in self.clusters.values()
                   if c.segment is None)

    def consistency_errors(self) -> list[str]:
        """Partition, interface and bounds invariants: the structural pass
        of `MassAuditProbe`, which checks them at every consistent instant;
        `CanaryProbe` reads them too.  The interfaces are checked against
        the clusters alone, not through `reindex` or its adjacency maps, and
        one behind a micro cluster may hold no carryover and no queue."""
        problems: list[str] = []
        for chain_id, ids in self.order.items():
            chain = self.chains[chain_id]
            cursor = 0.0
            for cid in ids:
                c = self.clusters[cid]
                if abs(c.start - cursor) > 1e-6:
                    problems.append(f"gap/overlap at {c.start} on {chain_id}")
                cursor = c.end
            if abs(cursor - chain.length) > 1e-6:
                problems.append(f"chain {chain_id} not covered to {chain.length}")
        for c in self.clusters.values():
            if c.segment is None:
                chain = self.chains[c.chain_id]
                for veh in c.vehicles.values():
                    pos = chain.to_chain_pos(veh.road, veh.position)
                    if not (c.start - 1e-6 <= pos <= c.end + 1e-6):
                        problems.append(f"{veh.id} outside {c.id}")
                    if veh.speed < 0:
                        problems.append(f"{veh.id} negative speed")
            else:
                if np.any(c.segment.rho < -1e-9) or \
                        np.any(c.segment.rho > self.fd.rho_jam + 1e-9):
                    problems.append(f"{c.id} density out of range")
                if c.vehicles:
                    problems.append(f"{c.id} macro but holds vehicles")
        # one interface per boundary: into every cluster but an open chain's head
        into: dict[str, int] = {}
        for key, itf in self.interfaces.items():
            chain = self.chains[itf.chain_id]
            up = self.clusters.get(itf.upstream_id)
            down = self.clusters.get(itf.downstream_id)
            if up is None or down is None or \
                    {up.chain_id, down.chain_id} != {itf.chain_id}:
                problems.append(f"interface {itf.id} joins clusters off {itf.chain_id}")
                continue
            if key != (itf.chain_id, pos_key(itf.position)):
                problems.append(f"interface {itf.id} at {itf.position} filed under {key}")
            wrap = chain.cyclic and abs(itf.position) <= 1e-6
            if abs(up.end - (chain.length if wrap else itf.position)) > 1e-6:
                problems.append(f"interface {itf.id} at {itf.position}: upstream "
                                f"{up.id} ends at {up.end}")
            if abs(down.start - itf.position) > 1e-6:
                problems.append(f"interface {itf.id} at {itf.position}: downstream "
                                f"{down.id} starts at {down.start}")
            if up.segment is None and (itf.pending or itf.carryover.any()):
                problems.append(f"interface {itf.id} holds {itf.mass():g} behind micro {up.id}")
            into[down.id] = into.get(down.id, 0) + 1
        for c in self.clusters.values():
            n = into.get(c.id, 0)
            if n != 1 and (c.start > 1e-6 or self.chains[c.chain_id].cyclic):
                problems.append(f"{n} interfaces into {c.id} at {c.start} on {c.chain_id}")
        return problems

    def state_digest(self) -> str:
        """Stable hash of the dynamic state, for canaries and determinism."""
        h = hashlib.sha256()
        h.update(f"{self.step},{self.time!r},{self.ledger}".encode())
        for cid in sorted(self.clusters):
            c = self.clusters[cid]
            h.update(f"{cid},{c.representation},{c.start!r},{c.end!r}".encode())
            if c.segment is None:
                for veh in sorted(c.vehicles.values(), key=lambda v: v.id):
                    h.update(f"{veh.id},{veh.road},{veh.lane},{veh.position!r},"
                             f"{veh.speed!r}".encode())
            else:
                h.update(c.segment.rho.tobytes())
        for key in sorted(self.interfaces):
            itf = self.interfaces[key]
            h.update(f"{key},{itf.carryover.tolist()!r},{len(itf.pending)}".encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# State construction
# ---------------------------------------------------------------------------

def build_state(model: ScenarioModel, config: EngineConfig) -> EngineState:
    """Materialize the initial engine state from a parsed scenario."""
    state = EngineState(model, config)
    network = state.network

    for sink in network.end_points.values():
        state.sinks_by_road.setdefault(sink.road, []).append(sink)
    for road_sinks in state.sinks_by_road.values():
        road_sinks.sort(key=lambda s: s.id)

    for gp in sorted(model.generation_points, key=lambda g: g.input.id):
        if gp.kind == "flow":
            state.generators.append(FlowMassGenerator(
                gp.input.id, gp.input.road, gp.input.lanes, gp.profile,
                gp.mix, config.seed, poisson=gp.poisson))
        else:
            state.generators.append(ScriptedGenerator(gp.input.id, gp.input.road, gp.events))
    for gen in state.generators:
        state.chain_generators.setdefault(state.chain_of_road[gen.road].id, []).append(gen)
    for chain in model.chains:
        if chain.cyclic:
            continue
        head = next((gen for gen in state.chain_generators.get(chain.id, ())
                     if gen.road == chain.roads[0]), None)
        if isinstance(head, FlowMassGenerator):
            state.head_source[chain.id] = head
        if state.sinks_by_road.get(chain.roads[-1]):
            state.tail_sink[chain.id] = state.sinks_by_road[chain.roads[-1]][0]

    # cluster layout: the declared partition, otherwise one micro cluster per chain
    for chain in model.chains:
        parts = model.partition.get(chain.id) or [(0.0, chain.length, MICRO)]
        for start, end, rep in parts:
            cluster = Cluster(id=state.new_cluster_id(), chain_id=chain.id,
                              start=start, end=end)
            if rep == MACRO:
                _to_macro(state, cluster, densities=model.densities)
            state.clusters[cluster.id] = cluster
    state.reindex()

    # initial vehicles
    for spec in sorted(model.vehicles, key=lambda v: (v.road, v.lane, v.position)):
        chain = state.chain_of_road[spec.road]
        cluster = state.cluster_at(chain.id, chain.to_chain_pos(spec.road, spec.position))
        if cluster.segment is not None:
            raise ScenarioRefused(f"initial vehicle on {spec.road}@{spec.position} "
                                  f"falls in macro cluster {cluster.id}")
        veh = Vehicle(id=state.new_vehicle_id(), road=spec.road, lane=spec.lane,
                      position=spec.position, speed=spec.speed, length=spec.length,
                      params=spec.params,
                      route=_route_for(state, spec.road, spec.destination))
        cluster.vehicles[veh.id] = veh

    _validate_macro_boundaries(state)
    state.initial_mass = state.total_mass() - state.accumulator_mass()
    return state


def _to_macro(state: EngineState, cluster: Cluster, densities) -> None:
    chain = state.chains[cluster.chain_id]
    dx, lanes, starts = build_cell_layout(chain, state.network, cluster.start,
                                          cluster.end, state.policy.target_dx)
    rho = np.zeros(len(dx))
    for i, s in enumerate(starts):
        mid = s + dx[i] / 2.0
        road_id, road_pos = chain.locate(mid)
        for spec in densities:
            if spec.road == road_id and spec.start - 1e-9 <= road_pos < spec.end + 1e-9:
                rho[i] = spec.value
    if np.any(rho > state.fd.rho_jam + 1e-12):
        raise ScenarioRefused("initial density above jam density")
    cluster.segment = MacroSegment(dx=dx, lanes=lanes, rho=rho, fd=state.fd, start=starts)
    cluster.vehicles = {}


def _validate_macro_boundaries(state: EngineState) -> None:
    for cluster in state.clusters.values():
        if cluster.segment is None:
            continue
        problem = _macro_boundary_problem(state, cluster)
        if problem:
            raise ScenarioRefused(f"cluster {cluster.id}: {problem}")


def _macro_boundary_problem(state: EngineState, cluster: Cluster) -> str | None:
    """Why this extent cannot be macroscopic, or None if it can."""
    chain = state.chains[cluster.chain_id]
    if not chain.cyclic:
        if cluster.end >= chain.length - 1e-6 and state.itf_down.get(cluster.id) is None:
            road = state.network.roads[chain.roads[-1]]
            # a sink discharges, a dead end is a valid blocking wall, but a
            # branching node would need a flux-splitting model
            if chain.id not in state.tail_sink and state.network.outgoing(road.to_node):
                return "macro extent ends at a branching node"
        if cluster.start <= 1e-6:
            head = state.network.roads[chain.roads[0]]
            if state.network.incoming(head.from_node):
                return "macro extent starts at a node fed by other roads"
    # the macro reaction takes in only its open chain's head source, which
    # enters the head cluster, and lets out only at the sink ending the chain
    head_source = state.head_source.get(chain.id)
    dropped = [gen.id for gen in state.chain_generators.get(chain.id, ())
               if gen is not head_source and state.entry_cluster(gen) is cluster]
    if dropped:
        return f"macro extent would drop source {', '.join(dropped)}"
    passed = []
    for rid in chain.roads if chain.cyclic else chain.roads[:-1]:
        at = chain.offset_of(rid) + state.network.roads[rid].length
        wraps = chain.cyclic and at >= chain.length - 1e-6 and cluster.start <= 1e-6
        if wraps or cluster.start - 1e-6 <= at <= cluster.end + 1e-6:
            passed += [sink.id for sink in state.sinks_by_road.get(rid, ())]
    if passed:
        return f"macro extent would pass sink {', '.join(passed)}"
    dxs = build_cell_layout(chain, state.network, cluster.start, cluster.end,
                            state.policy.target_dx)[0]
    if state.dt > float(np.min(dxs)) / state.fd.max_wave_speed + 1e-12:
        return (f"time step {state.dt} violates the stability bound for "
                f"{float(np.min(dxs)):.1f} m cells")
    return None


def _route_for(state: EngineState, road_id: str, destination: str | None) -> Route | None:
    key = (road_id, destination)
    if key in state._route_cache:
        return state._route_cache[key]
    route: Route | None = None
    if destination is not None:
        route = compute_route(state.network, road_id, destination, state.fd.v_f)
    state._route_cache[key] = route
    return route


def _default_route(state: EngineState, road_id: str) -> Route | None:
    """Fastest route to any sink, used for vehicles released from macro."""
    key = (road_id, "*")
    if key in state._route_cache:
        return state._route_cache[key]
    best: tuple[float, str, Route] | None = None
    for sid in sorted(state.network.end_points):
        try:
            route = compute_route(state.network, road_id, sid, state.fd.v_f)
        except UnreachableError:
            continue
        t = sum(state.network.roads[r].length
                / min(state.network.roads[r].speed_limit, state.fd.v_f)
                for r in route.roads)
        if best is None or (t, sid) < (best[0], best[1]):
            best = (t, sid, route)
    route = best[2] if best else None
    state._route_cache[key] = route
    return route


# ---------------------------------------------------------------------------
# Perception scene
# ---------------------------------------------------------------------------

#: batch perception numbers a (road, lane) group as road row * stride + lane;
#: a neighbour lane off the road (-1 or the lane count) then numbers a group
#: that holds no vehicle
_LANE_STRIDE = MAX_LANES + 1


@dataclass(frozen=True)
class RoadArrays:
    """Per-road constants in sorted road-id order, for batch perception."""

    index: dict               # road id -> row
    length: np.ndarray
    lane_count: np.ndarray
    speed_limit: np.ndarray
    chain_offset: np.ndarray  # where the road starts on its chain
    chain: np.ndarray         # chain number of the road
    chain_number: dict        # chain id -> chain number
    signed: list              # (row, road) of every road with signs

    @classmethod
    def of(cls, network, chain_of_road) -> RoadArrays:
        ids = sorted(network.roads)
        roads = [network.roads[rid] for rid in ids]
        chain_number = {cid: k for k, cid in
                        enumerate(sorted({c.id for c in chain_of_road.values()}))}
        return cls(index={rid: k for k, rid in enumerate(ids)},
                   length=np.array([r.length for r in roads], dtype=float),
                   lane_count=np.array([r.lane_count for r in roads]),
                   speed_limit=np.array([r.speed_limit for r in roads], dtype=float),
                   chain_offset=np.array([chain_of_road[r].offset_of(r) for r in ids],
                                         dtype=float),
                   chain=np.array([chain_number[chain_of_road[r].id] for r in ids]),
                   chain_number=chain_number,
                   signed=[(k, r) for k, r in enumerate(roads) if r.signs])


def _sort_keys(group: np.ndarray, position: np.ndarray) -> np.ndarray:
    """(group, position) pairs as complex numbers, which numpy sorts and
    searches by real part, then imaginary part, with exact comparisons."""
    keys = np.empty(group.shape, dtype=complex)
    keys.real = group
    keys.imag = position
    return keys


class Scene:
    """Per-step view used by perception and insertion checks; it also
    holds this step's gate budgets and counts the crossings.

    The step's one micro layout: every micro vehicle and its cluster
    (`vehicles`, `homes`) in (road, lane, position, id) order, and the
    arrays `road`, `lane`, `x`, `speed` and `length` aligned to it.
    Insertion checks see the positions from the start of the step, plus
    this step's lane changes, arrivals on a road and insertions."""

    def __init__(self, state: EngineState):
        self.state = state
        layout = sorted(((veh, cluster) for cluster in state.clusters.values()
                         if cluster.segment is None
                         for veh in cluster.vehicles.values()),
                        key=lambda vc: (vc[0].road, vc[0].lane, vc[0].position, vc[0].id))
        self.vehicles = [veh for veh, _ in layout]
        self.homes = [home for _, home in layout]
        rows = state.road_arrays.index
        self.road = np.array([rows[veh.road] for veh in self.vehicles], dtype=int)
        self.lane = np.array([veh.lane for veh in self.vehicles], dtype=int)
        self.x = np.array([veh.position for veh in self.vehicles], dtype=float)
        self.speed = np.array([veh.speed for veh in self.vehicles], dtype=float)
        self.length = np.array([veh.length for veh in self.vehicles], dtype=float)
        # per (road, lane): parallel sorted lists of positions and vehicles
        self.index: dict[tuple[str, int], tuple[list, list]] = {}
        for veh in self.vehicles:
            positions, vehicles = self.index.setdefault((veh.road, veh.lane), ([], []))
            positions.append(veh.position)
            vehicles.append(veh)
        # ids of the vehicles that left through a gate or a sink this step;
        # the index still lists them
        self.departed: set[str] = set()
        # how far ahead of a slot the front of a vehicle covering it can be
        self.reach = float(self.length.max(initial=0.0)) + 1e-9
        # micro->macro gates per chain, sorted by position, as (position,
        # id of the macro cluster the gate opens into, open); each cluster
        # has one interface into it, so its id names the gate, its budget
        # and its crossings.  A cycle's wrap gate sits at the chain end.
        self.gates: dict[str, list[tuple[float, str, bool]]] = {}
        self.gate_budget: dict[str, int] = {}
        self.crossings: dict[str, int] = {}
        for itf in state.interfaces.values():
            down = state.clusters[itf.downstream_id]
            if down.segment is not None and state.clusters[itf.upstream_id].segment is None:
                chain = state.chains[itf.chain_id]
                pos = itf.position if itf.position > 1e-9 or not chain.cyclic \
                    else chain.length
                open_ = boundary_gate_open(down.segment, itf.lanes)
                self.gates.setdefault(chain.id, []).append((pos, down.id, open_))
                self.gate_budget[down.id] = int(math.floor(down.segment.room(0))) \
                    if open_ else 0
        for entries in self.gates.values():
            entries.sort()

    # -- speed caps -----------------------------------------------------------

    def speed_cap(self, road_id: str, lane: int, position: float) -> float:
        state = self.state
        cap = state.network.speed_limit_at(road_id, lane, position)
        for sign in state.network.roads[road_id].signs:
            if sign.kind == "yield" and sign.applies_to(lane) and \
                    sign.position - YIELD_ZONE <= position <= sign.position:
                cap = min(cap, YIELD_SPEED)
        for rs in state.model.restrictions:
            if rs.road == road_id and rs.from_t <= state.time < rs.to_t \
                    and rs.start <= position < rs.end:
                cap = min(cap, rs.factor * state.fd.v_f)
        return cap

    # -- neighbor queries -------------------------------------------------------

    def gate_ahead(self, chain, cpos: float, horizon: float = INF,
                   closed_only: bool = False):
        """Nearest micro-to-macro gate strictly ahead of a chain position and
        within the horizon, as (distance, id of the macro cluster it opens
        into), or None.  Ahead wraps around cyclic chains."""
        best = None
        for pos, into, open_ in self.gates.get(chain.id, ()):
            if closed_only and open_:
                continue
            d = pos - cpos
            if chain.cyclic and d <= 1e-9:
                d += chain.length
            if 1e-9 < d <= horizon and (best is None or d < best[0]):
                best = (d, into)
        return best

    def cross_gate(self, cluster_id: str) -> bool:
        """Spend one place of the budget of the gate into a macro cluster and
        count the crossing; False when the gate has no place left or the
        cluster has no gate."""
        if self.gate_budget.get(cluster_id, 0) < 1:
            return False
        self.gate_budget[cluster_id] -= 1
        self.crossings[cluster_id] = self.crossings.get(cluster_id, 0) + 1
        return True

    def _leader_on(self, road_id: str, lane: int, position: float,
                   exclude: str | None):
        """(distance to front bumper, vehicle) for the nearest leader."""
        found = self.index.get((road_id, lane))
        if found is None:
            return None
        positions, vehicles = found
        i = bisect.bisect_right(positions, position)
        while i < len(positions):
            if vehicles[i].id != exclude and positions[i] > position + 1e-9:
                return positions[i] - position, vehicles[i]
            i += 1
        return None

    def _follower_on(self, road_id: str, lane: int, position: float,
                     exclude: str | None):
        found = self.index.get((road_id, lane))
        if found is None:
            return None
        positions, vehicles = found
        i = bisect.bisect_left(positions, position)
        while i > 0:
            if vehicles[i - 1].id != exclude and positions[i - 1] < position - 1e-9:
                return position - positions[i - 1], vehicles[i - 1]
            i -= 1
        return None

    def _leader_beyond(self, veh: Vehicle, lane: int) -> tuple[float, float] | None:
        """(gap, speed difference) to the first vehicle on the roads after the
        vehicle's own, reached from `lane` along its path, when that vehicle
        is within the perception horizon."""
        state = self.state
        offset = state.network.roads[veh.road].length - veh.position
        remaining = PERCEPTION_HORIZON - offset
        road_id = veh.road
        while remaining > 0:
            hop = state.next_entry(road_id, lane, veh.route)
            if hop is None:
                return None
            road_id, lane = hop
            found = self._leader_on(road_id, lane, -1.0, veh.id)
            if found is not None and found[0] - 1.0 + offset <= PERCEPTION_HORIZON:
                dist = found[0] - 1.0 + offset
                return (max(dist - found[1].length, MIN_PERCEIVED_GAP),
                        veh.speed - found[1].speed)
            length = state.network.roads[road_id].length
            remaining -= length
            offset += length
        return None

    # -- batch perception -------------------------------------------------------

    def perceive(self):
        """Perception of every vehicle of the layout at once, as arrays.

        Returns (DriverArrays, PerceptionArrays) aligned to the layout, or
        None when there is no micro vehicle.  Neighbours in the own and both
        adjacent lanes come from searches in one sorted key array, and stop
        signs, closed gates and speed caps are applied per sign, gate or
        restriction over all vehicles at once.  Entry by entry the floats
        equal those of the scalar `Perception` and `BehaviorContext` that
        the tests build one vehicle at a time from this scene's queries."""
        if not self.vehicles:
            return None
        state, roads = self.state, self.state.road_arrays
        vehicles, road, lane, x = self.vehicles, self.road, self.lane, self.x
        speed, length = self.speed, self.length
        n = len(vehicles)

        # rows: own lane, right, left (micro.VIEW_OFFSETS)
        view_lane = lane + VIEW_OFFSETS
        exists = np.array((np.ones(n, dtype=bool), lane < roads.lane_count[road] - 1,
                           lane > 0))
        group = road * _LANE_STRIDE + view_lane
        sorted_group = group[0]
        sorted_keys = _sort_keys(sorted_group, x)

        at = np.searchsorted(sorted_keys, _sort_keys(group, x + 1e-9), "right")
        ahead = np.minimum(at, n - 1)
        dist = x[ahead] - x
        found = (at < n) & (sorted_group[ahead] == group) & (dist <= PERCEPTION_HORIZON)
        gap = dist - length[ahead]
        lead_gap = np.where(found, np.where(MIN_PERCEIVED_GAP > gap, MIN_PERCEIVED_GAP, gap),
                            INF)
        lead_dv = np.where(found, speed - speed[ahead], 0.0)
        distance = roads.length[road] - x
        beyond = exists & ~found & (PERCEPTION_HORIZON - distance > 0)
        for k in np.flatnonzero(beyond).tolist():
            row, i = divmod(k, n)
            leader = self._leader_beyond(vehicles[i], int(view_lane[row, i]))
            if leader is not None:
                lead_gap[row, i], lead_dv[row, i] = leader

        # standing obstacles: unserved stop signs, then closed gates
        sign = self._stop_distances(vehicles, road, x, view_lane)
        if sign is not None:
            hit = (sign <= PERCEPTION_HORIZON) & (sign < lead_gap)
            lead_gap = np.where(hit, sign, lead_gap)
            lead_dv = np.where(hit, speed, lead_dv)
        gate = self.gate_distances(road, x, PERCEPTION_HORIZON, closed_only=True)
        if gate is not None:
            hit = gate < lead_gap
            lead_gap = np.where(hit, gate, lead_gap)
            lead_dv = np.where(hit, speed, lead_dv)

        at = np.searchsorted(sorted_keys, _sort_keys(group, x - 1e-9), "left") - 1
        behind = np.maximum(at, 0)
        dist = x - x[behind]
        found = (at >= 0) & (sorted_group[behind] == group) & (dist <= PERCEPTION_HORIZON)
        fol_gap = np.where(found, dist - length, INF)
        fol_speed = np.where(found, speed[behind], 0.0)

        # slot_occupied: a vehicle alongside blocks an adjacent lane outright
        side = group[1:]
        lo = np.searchsorted(sorted_keys, _sort_keys(side, x - length - 1e-9), "right")
        hi = np.searchsorted(sorted_keys, _sort_keys(side, x + self.reach), "right")
        rear = x - length
        occupied = np.zeros(side.shape, dtype=bool)
        for k in range(int(np.max(hi - lo, initial=0))):
            occupied |= (lo + k < hi) & (rear[np.minimum(lo + k, n - 1)] < x + 1e-9)
        occupied = np.concatenate((np.zeros((1, n), dtype=bool), occupied & exists[1:]))
        lead_gap[occupied] = MIN_PERCEIVED_GAP
        lead_dv[occupied] = 0.0
        fol_gap[occupied] = MIN_PERCEIVED_GAP
        fol_speed = np.where(occupied, speed, fol_speed)

        permitted = [None] * n
        for i in np.flatnonzero(distance < NAV_HORIZON).tolist():
            permitted[i] = state.permitted_lanes(vehicles[i].road, vehicles[i].route)
        perception = PerceptionArrays(
            exists=exists, leader_gap=lead_gap, leader_dv=lead_dv, follower_gap=fol_gap,
            follower_speed=fol_speed, speed_limit=self._speed_caps(road, lane, x),
            distance_to_node=distance, permitted_lanes=permitted)
        return DriverArrays.stack([veh.params for veh in vehicles]), perception

    def gate_distances(self, road: np.ndarray, x: np.ndarray, horizon: float = INF,
                       closed_only: bool = False) -> np.ndarray | None:
        """Per vehicle, `gate_ahead(..., horizon, closed_only)` as a distance,
        INF where there is none; None when no gate qualifies."""
        state, roads = self.state, self.state.road_arrays
        best = None
        for chain_id, entries in self.gates.items():
            gates = [pos for pos, _into, open_ in entries if not (closed_only and open_)]
            if not gates:
                continue
            if best is None:
                best = np.full(len(x), INF)
                cpos = roads.chain_offset[road] + x
            chain = state.chains[chain_id]
            on = roads.chain[road] == roads.chain_number[chain_id]
            for pos in gates:
                d = pos - cpos
                if chain.cyclic:
                    d = np.where(d <= 1e-9, d + chain.length, d)
                hit = on & (d > 1e-9) & (d <= horizon) & (d < best)
                best = np.where(hit, d, best)
        return best

    def _stop_distances(self, vehicles, road, x, view_lane) -> np.ndarray | None:
        """Per vehicle and view row, the distance to the nearest stop sign
        ahead that applies to the row's lane and that the vehicle has not
        served, INF where there is none; None when no road with vehicles has
        a stop sign."""
        best = None
        for ri, road_obj in self.state.road_arrays.signed:
            stops = [sign for sign in road_obj.signs if sign.kind == "stop"]
            rows = np.flatnonzero(road == ri).tolist()
            if not stops or not rows:
                continue
            if best is None:
                best = np.full(view_lane.shape, INF)
            for sign in stops:
                unserved = np.zeros(len(x), dtype=bool)
                unserved[rows] = [(road_obj.id, sign.position) not in vehicles[i].satisfied_stops
                                  for i in rows]
                d = sign.position - x
                hit = unserved & ~(sign.position <= x + 1e-9) & (d < best)
                if sign.lanes is not None:
                    hit &= np.isin(view_lane, sorted(sign.lanes))
                best = np.where(hit, d, best)
        return best

    def _speed_caps(self, road: np.ndarray, lane: np.ndarray, x: np.ndarray) -> np.ndarray:
        """`speed_cap` of every vehicle at its own position and lane."""
        state, roads = self.state, self.state.road_arrays
        cap = roads.speed_limit[road]
        for ri, road_obj in roads.signed:
            on = road == ri
            if not on.any():
                continue
            applies = [on if sign.lanes is None else on & np.isin(lane, sorted(sign.lanes))
                       for sign in road_obj.signs]
            nearest = np.full(len(x), -1.0)
            for sign, at in zip(road_obj.signs, applies):
                if sign.kind == "speed_limit":
                    hit = at & (sign.position <= x) & (sign.position > nearest)
                    nearest = np.where(hit, sign.position, nearest)
                    cap = np.where(hit, min(road_obj.speed_limit, float(sign.value)), cap)
            for sign, at in zip(road_obj.signs, applies):
                if sign.kind == "yield":
                    hit = at & (sign.position - YIELD_ZONE <= x) & (x <= sign.position)
                    cap = np.where(hit & (YIELD_SPEED < cap), YIELD_SPEED, cap)
        for rs in state.model.restrictions:
            if rs.road in roads.index and rs.from_t <= state.time < rs.to_t:
                limit = rs.factor * state.fd.v_f
                hit = (road == roads.index[rs.road]) & (rs.start <= x) & (x < rs.end)
                cap = np.where(hit & (limit < cap), limit, cap)
        return cap

    # -- insertion support -------------------------------------------------------

    def slot_occupied(self, road_id: str, lane: int, position: float,
                      length: float, exclude: str | None) -> bool:
        """True when [position-length, position] intersects a vehicle there."""
        found = self.index.get((road_id, lane))
        if found is None:
            return False
        positions, vehicles = found
        i = bisect.bisect_left(positions, position - length - 1e-9)
        while i < len(positions):
            pos, other = positions[i], vehicles[i]
            if pos > position + self.reach:   # no vehicle reaches back this far
                break
            if other.id != exclude and pos > position - length - 1e-9 \
                    and pos - other.length < position + 1e-9:
                return True
            i += 1
        return False

    def can_insert(self, road_id: str, lane: int, position: float, speed: float,
                   params: DriverParams, length: float) -> bool:
        found = self.index.get((road_id, lane))
        if found is not None:
            i = bisect.bisect_left(found[0], position - 1e-9)
            if i < len(found[0]) and abs(found[0][i] - position) <= 1e-9:
                return False   # a vehicle already sits exactly there
        found = self._leader_on(road_id, lane, position, None)
        if found is not None:
            gap = found[0] - found[1].length
            if gap < params.s0 + speed * params.T:
                return False
        found = self._follower_on(road_id, lane, position, None)
        if found is not None:
            dist, follower = found
            gap = dist - length
            if gap < follower.params.s0 + follower.speed * follower.params.T:
                return False
        return True

    def register(self, veh: Vehicle) -> None:
        """Keep the index usable for subsequent insertions this step."""
        self.reach = max(self.reach, veh.length + 1e-9)
        positions, vehicles = self.index.setdefault((veh.road, veh.lane), ([], []))
        i = bisect.bisect_right(positions, veh.position)
        positions.insert(i, veh.position)
        vehicles.insert(i, veh)


# ---------------------------------------------------------------------------
# Step phases
# ---------------------------------------------------------------------------

def _refresh_restrictions(state: EngineState) -> None:
    """Apply the time-dependent capacity factors to every macro cell."""
    active = [rs for rs in state.model.restrictions
              if rs.from_t <= state.time < rs.to_t]
    for cluster in state.clusters.values():
        if cluster.segment is None:
            continue
        chain = state.chains[cluster.chain_id]
        seg = cluster.segment
        seg.capacity_factor[:] = 1.0
        for rs in active:
            if rs.road not in chain.roads:
                continue
            a = chain.to_chain_pos(rs.road, rs.start)
            b = chain.to_chain_pos(rs.road, rs.end)
            overlap = np.minimum(b, seg.start + seg.dx) - np.maximum(a, seg.start) > 1e-9
            np.minimum(seg.capacity_factor, rs.factor, out=seg.capacity_factor,
                       where=overlap)


def _decide(state: EngineState, scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Phases 1-3 for all micro vehicles in one batch: perceive, decide,
    memorize; returns the layout-aligned accelerations and lane changes.
    Decisions read only the step-start state: memorization writes the
    vehicle's own memory, which no other vehicle perceives."""
    batch = scene.perceive()
    if batch is None:
        return np.zeros(0), np.zeros(0, dtype=int)
    params, perception = batch
    accel, change = behavior_chains(scene.speed, scene.length, scene.lane, params, perception)
    for i in np.flatnonzero(~(scene.speed > STOP_SPEED)).tolist():
        _serve_stop_signs(state, scene.vehicles[i])
    return accel, change


def _serve_stop_signs(state: EngineState, veh: Vehicle) -> None:
    """A halted vehicle, as the caller selects them, has served a stop sign
    it stands just before."""
    for sign in state.network.roads[veh.road].signs:
        if sign.kind != "stop" or not sign.applies_to(veh.lane):
            continue
        d = sign.position - veh.position
        if 0.0 <= d <= STOP_ZONE:
            veh.satisfied_stops.add((veh.road, sign.position))


def _natural(state: EngineState) -> list[tuple[str, InsertionSpec]]:
    """Phase 4: generator emissions."""
    emissions: list[tuple[str, InsertionSpec]] = []
    for gen in state.generators:
        entry_cluster = state.entry_cluster(gen)
        if entry_cluster is not None and entry_cluster.segment is not None:
            continue   # handled as continuous inflow in the macro reaction
        for spec in gen.generation_influences(state.time, state.dt):
            emissions.append((gen.id, spec))
            state.ledger.inserted += 1
    return emissions


# -- micro reaction -----------------------------------------------------------

def _apply_lane_changes(scene: Scene, change: np.ndarray) -> None:
    """Instantaneous lane swaps by the layout-aligned `change`, front-most
    first, each written into `scene.lane`.  Every vehicle decided on the
    lanes as they stood at the start of the step, so a change is dropped when
    the target slot is occupied or when its nearest leader there, within the
    perception horizon, arrived by an earlier change of this pass.  Front
    first, no earlier change lands behind the mover."""
    movers = np.flatnonzero(change)
    movers = movers[np.lexsort((scene.lane[movers], -scene.x[movers], scene.road[movers]))]
    arrived: set[str] = set()
    for i, step in zip(movers.tolist(), change[movers].tolist()):
        veh = scene.vehicles[i]
        target = veh.lane + step
        if not 0 <= target < scene.state.network.roads[veh.road].lane_count:
            continue
        if scene.slot_occupied(veh.road, target, veh.position, veh.length, veh.id):
            continue
        found = scene._leader_on(veh.road, target, veh.position, veh.id)
        if found and found[0] <= PERCEPTION_HORIZON and found[1].id in arrived:
            continue
        positions, vehicles = scene.index[(veh.road, veh.lane)]
        k = next(k for k, other in enumerate(vehicles) if other is veh)
        del positions[k], vehicles[k]
        veh.lane = scene.lane[i] = target
        scene.register(veh)
        arrived.add(veh.id)


def _micro_reaction(state: EngineState, scene: Scene, accel: np.ndarray,
                    change: np.ndarray) -> list:
    """Integrate all micro vehicles by the layout-aligned decisions; returns
    the sink removals.  Gate crossings are counted on the scene.

    Vehicles move front first, in (road, -position, lane, id) order, a
    stable sort of the layout, by the ballistic update with a non-negative
    speed clamp (Treiber and Kanagaraj 2015), computed for all of them in
    one array pass.  A vehicle that stops short of its road end and of the
    nearest gate ahead only takes its new position and speed; the others
    walk through `_walk` at their turn, because a walk onto the next road
    reads where the vehicles there stand."""
    _apply_lane_changes(scene, change)
    removals: list[tuple[str, Vehicle]] = []
    vehicles = scene.vehicles
    if not vehicles:
        return removals
    roads, dt = state.road_arrays, state.dt
    road, lane, x, v0 = scene.road.copy(), scene.lane.copy(), scene.x, scene.speed

    # the scalar update's operand order; np.where picks between equal
    # operands as Python's min and max do
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v1 = v0 + accel * dt
        stopped = v1 < 0.0
        ballistic = v0 * dt + 0.5 * accel * dt * dt
        moved = np.where(stopped, np.where(accel < 0, (v0 * v0) / (2.0 * -accel), 0.0),
                         np.where(0.0 > ballistic, 0.0, ballistic))
        speed = np.where(stopped, 0.0, v1)
        to_end = roads.length[road] - x
        gate = scene.gate_distances(road, x)
        reach = to_end if gate is None else np.where(gate < to_end, gate, to_end)
        walks = ~(moved < reach - 1e-12)
        x1 = x + moved
        stays = _stays_home(state, scene, x1)

    order = np.lexsort((lane, -x, road)).tolist()
    moved, speed, x_new = moved.tolist(), speed.tolist(), x1.tolist()
    walks, stays = walks.tolist(), stays.tolist()
    live = np.ones(len(vehicles), dtype=bool)
    for i in order:
        veh = vehicles[i]
        veh.speed = speed[i]
        if walks[i]:
            holder = _walk(state, scene, scene.homes[i], veh, moved[i], removals)
        else:
            veh.position = x_new[i]
            if stays[i]:
                continue
            holder = _settle(state, scene, scene.homes[i], veh)
        live[i] = holder is not None
        road[i], lane[i], x1[i] = roads.index[veh.road], veh.lane, veh.position
    if _gap_suspect(road[live], lane[live], x1[live], scene.length[live]):
        _rehome_and_check(state)
    return removals


def _stays_home(state: EngineState, scene: Scene, x: np.ndarray) -> np.ndarray:
    """Per vehicle of the layout, True where `EngineState.cluster_at` gives
    its own cluster for its new position `x`, as `_settle` asks; False may
    still mean home."""
    roads = state.road_arrays
    bounds: dict[str, tuple[int, float, float, float]] = {}
    for home in scene.homes:
        if home.id not in bounds:
            starts, ids = state.cluster_starts(home.chain_id)
            k = ids.index(home.id)
            bounds[home.id] = (roads.chain_number[home.chain_id],
                               starts[k] if k else -INF,
                               starts[k + 1] if k + 1 < len(ids) else INF,
                               state.chains[home.chain_id].length - 1e-9)
    chain, lo, hi, top = np.array([bounds[home.id] for home in scene.homes]).T
    cpos = roads.chain_offset[scene.road] + x
    probe = np.where(top < cpos, top, cpos) + 1e-9
    return (roads.chain[scene.road] == chain) & (lo <= probe) & (probe < hi)


def _gap_suspect(road: np.ndarray, lane: np.ndarray, x: np.ndarray,
                 length: np.ndarray) -> bool:
    """Whether `_rehome_and_check` could act: some bumper gap between
    neighbours in a lane is negative or not a number.  The scalar check
    orders vehicles at one position by id; their gap is minus a length, so
    such a tie shows here or leaves the scalar check idle in either order."""
    order = np.lexsort((x, lane, road))
    road, lane, x, length = road[order], lane[order], x[order], length[order]
    gap = x[1:] - length[1:] - x[:-1]
    return bool(((road[1:] == road[:-1]) & (lane[1:] == lane[:-1]) & ~(gap >= 0.0)).any())


def _walk(state: EngineState, scene: Scene, cluster: Cluster, veh: Vehicle,
          displacement: float, removals) -> Cluster | None:
    """Advance one vehicle along its path, handling gates, sinks and nodes.
    Returns the cluster holding it afterwards, None once it left."""
    remaining, start = displacement, veh.road
    for _ in range(MAX_BOUNDARIES):
        road = state.network.roads[veh.road]
        chain = state.chain_of_road[veh.road]
        gate = scene.gate_ahead(chain, chain.to_chain_pos(veh.road, veh.position))
        gate_dist, gate_into = gate if gate is not None else (INF, None)

        dist_to_end = road.length - veh.position
        if remaining < min(dist_to_end, gate_dist) - 1e-12:
            veh.position += remaining
            break

        if gate_dist <= dist_to_end + 1e-12:
            # reached a micro-to-macro boundary
            if scene.cross_gate(gate_into):
                _leave(state, scene, cluster, veh)
                return None
            veh.position += max(gate_dist - NODE_STANDOFF, 0.0)
            veh.speed = 0.0
            break

        # reached the road end
        sinks = state.sinks_by_road.get(veh.road)
        if sinks:
            _leave(state, scene, cluster, veh)
            removals.append((sinks[0].id, veh))
            return None
        hop = state.next_entry(veh.road, veh.lane, veh.route)
        if hop is None:
            _hold_at_node(veh, road)
            break
        nxt, entry = hop
        next_chain = state.chain_of_road[nxt]
        target = state.cluster_at(next_chain.id, next_chain.to_chain_pos(nxt, 0.0))
        if target.segment is not None:
            if scene.cross_gate(target.id):
                _leave(state, scene, cluster, veh)
                return None
            _hold_at_node(veh, road)
            break
        remaining -= dist_to_end
        blocker = _first_vehicle_on(scene, nxt, entry)
        if blocker is not None and blocker.position - blocker.length - 0.1 < remaining:
            landing = blocker.position - blocker.length - 0.1
            if landing < 0.0:
                # the entry slot is occupied: wait at the node
                _hold_at_node(veh, road, min(veh.speed, blocker.speed))
                break
            veh.road, veh.lane, veh.position = nxt, entry, landing
            veh.speed = min(veh.speed, blocker.speed)
            veh.satisfied_stops.clear()
            break
        veh.road, veh.lane, veh.position = nxt, entry, 0.0
        veh.satisfied_stops.clear()
    else:
        raise SimulationError(f"{veh.id} crossed too many boundaries in one step")

    owner = _settle(state, scene, cluster, veh)
    if owner is not None and veh.road != start:
        scene.register(veh)   # insertions this step must see the arrival
    return owner


def _settle(state: EngineState, scene: Scene, cluster: Cluster,
            veh: Vehicle) -> Cluster | None:
    """Hand a vehicle to the cluster that owns its position, within or
    across chains, when that is no longer its own; returns the owner, None
    once it left.  A macro owner means that the vehicle reached a gate
    within the 1e-9 m that `Scene.gate_ahead` leaves out: it crosses the
    gate, or it waits at the gate in the micro cluster before it."""
    chain = state.chain_of_road[veh.road]
    cpos = chain.to_chain_pos(veh.road, veh.position)
    owner = state.cluster_at(chain.id, min(cpos, chain.length - 1e-9))
    if owner.segment is not None:
        if scene.cross_gate(owner.id):
            _leave(state, scene, cluster, veh)
            return None
        veh.position -= max(cpos - owner.start, 0.0)
        veh.speed = 0.0
        owner = state.clusters[state.itf_up[owner.id].upstream_id]
    if owner.id != cluster.id:
        cluster.vehicles.pop(veh.id, None)
        owner.vehicles[veh.id] = veh
        _flow(state, cluster.id, 0.0, 1.0 / state.dt)
        _flow(state, owner.id, 1.0 / state.dt, 0.0)
    return owner


def _leave(state: EngineState, scene: Scene, cluster: Cluster, veh: Vehicle) -> None:
    """Take a vehicle out of the micro layout through a gate or a sink:
    out of its cluster, counted as outflow and as departed on the scene."""
    cluster.vehicles.pop(veh.id, None)
    _flow(state, cluster.id, 0.0, 1.0 / state.dt)
    scene.departed.add(veh.id)


def _hold_at_node(veh: Vehicle, road, speed: float = 0.0) -> None:
    """Stop a vehicle short of the node at its road's end."""
    veh.position = max(veh.position, road.length - NODE_STANDOFF)
    veh.speed = speed


def _first_vehicle_on(scene: Scene, road_id: str, lane: int):
    """Vehicle nearest to the start of a lane, least (position, id) first,
    among the micro vehicles that stand on it now.

    A walk of the lane's index: its entries are those of every vehicle on
    the lane this step, some since gone to another road or out of the
    micro layout.  Each entry's key is where the vehicle stood when it
    joined the index, and a vehicle only moves forward from there, so no
    entry beyond a key greater than the best position found can beat it."""
    found = scene.index.get((road_id, lane))
    if found is None:
        return None
    best = None
    for key, veh in zip(*found):
        if best is not None and key > best.position:
            break
        if (veh.road, veh.lane) == (road_id, lane) and veh.id not in scene.departed \
                and (best is None or (veh.position, veh.id) < (best.position, best.id)):
            best = veh
    return best


def _rehome_and_check(state: EngineState) -> None:
    """Detect residual overlaps; clamp small ones, abort on real ones."""
    by_lane: dict[tuple[str, int], list[Vehicle]] = {}
    for cluster in state.clusters.values():
        if cluster.segment is not None:
            continue
        for veh in cluster.vehicles.values():
            by_lane.setdefault((veh.road, veh.lane), []).append(veh)
    for vehicles in by_lane.values():
        vehicles.sort(key=lambda v: (v.position, v.id))
        for back, front in zip(vehicles, vehicles[1:]):
            gap = front.position - front.length - back.position
            if gap < -OVERLAP_TOLERANCE:
                raise OverlapDetected(
                    f"{back.id} overlaps {front.id} by {-gap:.3f} m")
            if gap < 0.0:
                back.position = front.position - front.length - 1e-3
                back.speed = min(back.speed, front.speed)


# -- macro reaction -----------------------------------------------------------

def _macro_reaction(state: EngineState, scene: Scene) -> None:
    """Advance every macro segment: each segment's boundary rates, one pass
    over all cells, then each segment's boundary settlement, in chain and
    start order."""
    macro = [c for chain_id in sorted(state.order) for c in state.chain_clusters(chain_id)
             if c.segment is not None]
    if not macro:
        return
    # Boundary rates read the cells and release queues here, as the natural
    # phase saw them, because the micro reaction writes no macro density and
    # no interface queue: it only counts gate crossings on the scene, and
    # `absorb_crossed_remainder` runs in the settlement below.
    store = state.cell_store(macro)
    dem, sup = store.profiles()
    inflow, supply, micro_up = zip(*(_boundary_rates(state, scene, store, dem, sup, c)
                                     for c in macro))
    accepted, outflow = store.step(dem, sup, np.array(inflow, dtype=float),
                                   np.array(supply, dtype=float))
    for settled in zip(macro, inflow, micro_up, accepted.tolist(), outflow.tolist()):
        _settle_segment(state, scene, *settled)


def _boundary_rates(state: EngineState, scene: Scene, store: CellStore, dem: np.ndarray,
                    sup: np.ndarray, cluster: Cluster) -> tuple[float, float, bool]:
    """A macro segment's offered upstream inflow and downstream supply, veh/s,
    and whether the inflow is counted micro crossings."""
    itf_up = state.itf_up.get(cluster.id)
    itf_down = state.itf_down.get(cluster.id)
    inflow = 0.0
    micro_up = False
    if itf_up is not None:
        up = state.clusters[itf_up.upstream_id]
        if up.segment is None:
            micro_up = True
            inflow = scene.crossings.get(cluster.id, 0) / state.dt
        else:
            inflow = min(float(dem[store.last[store.slot[up.segment]]]),
                         float(sup[store.first[store.slot[cluster.segment]]]))
    else:
        gen = state.head_source.get(cluster.chain_id)
        if gen is not None:
            inflow = gen.offer_macro_inflow(state.time, state.dt)

    if itf_down is not None:
        down = state.clusters[itf_down.downstream_id]
        if down.segment is not None:
            supply = float(sup[store.first[store.slot[down.segment]]])
        else:
            supply = 0.0 if itf_down.throttled() else INF
    else:
        sink = state.tail_sink.get(cluster.chain_id)
        supply = sink.capacity if sink is not None else 0.0
    return inflow, supply, micro_up


def _settle_segment(state: EngineState, scene: Scene, cluster: Cluster, inflow: float,
                    micro_up: bool, accepted: float, outflow: float) -> None:
    """Book a stepped segment's boundary flows: crossed remainders, settled
    entry mass, releases into a micro downstream and sink outflow."""
    _flow(state, cluster.id, accepted, outflow)
    itf_up = state.itf_up.get(cluster.id)
    if micro_up:
        absorb_crossed_remainder(cluster.segment, inflow, accepted, state.dt)
    elif itf_up is None:
        gen = state.head_source.get(cluster.chain_id)
        if gen is not None:
            state.ledger.add_macro_in(gen.settle_macro_inflow(accepted, state.dt))

    itf_down = state.itf_down.get(cluster.id)
    if itf_down is not None:
        down = state.clusters[itf_down.downstream_id]
        if down.segment is None:
            _release_into_micro(state, scene, itf_down, outflow, cluster, down)
    elif cluster.chain_id in state.tail_sink:
        state.ledger.add_macro_out(outflow * state.dt)


def _release_into_micro(state: EngineState, scene: Scene, itf: BoundaryInterface,
                        outflow: float, up: Cluster, down: Cluster) -> None:
    chain = state.chains[itf.chain_id]
    road_id, road_pos = chain.locate(itf.position if itf.position > 1e-9 else 0.0)
    rng = state.release_rng(itf.chain_id, itf.position)
    macro_to_micro_release(
        itf, outflow, up.segment.cell(len(up.segment) - 1), state.fd, state.dt,
        lambda lane, speed: _released_vehicle(state, rng, road_id, lane, road_pos, speed),
        lambda veh: _admit(state, scene, down, veh))


def _released_vehicle(state: EngineState, rng, road_id: str, lane: int,
                      position: float, speed: float) -> Vehicle:
    """A vehicle condensed from macro mass: release-mix driver, speed capped
    by the road's limit, fastest route to any sink."""
    params, length = state.release_mix.sample(rng)
    return Vehicle(id=state.new_vehicle_id(), road=road_id, lane=lane,
                   position=position,
                   speed=min(speed, state.network.roads[road_id].speed_limit),
                   length=length, params=params, route=_default_route(state, road_id))


# -- system reaction ------------------------------------------------------------

def _system_reaction(state: EngineState, scene: Scene, config: EngineConfig,
                     removals: list, emissions: list) -> None:
    """Phase 6: removals, then level-of-detail actions, then insertions."""
    state.ledger.absorbed += len(removals)

    if config.lod_enabled:
        _observe_and_plan(state)

    by_gen = {gen.id: gen for gen in state.generators}
    for gen_id, spec in emissions:
        by_gen[gen_id].retry.append(spec)
    for gen in state.generators:
        entry = state.entry_cluster(gen)
        if entry is not None and entry.segment is not None:
            _dissolve_queue(entry.segment, gen.retry)
        else:
            drain(gen.retry, lambda spec: _try_insert_spec(state, scene, spec))


def _micro_cluster_of(state: EngineState, spec: InsertionSpec) -> Cluster:
    """The cluster an insertion lands in, which must be micro."""
    chain = state.chain_of_road[spec.road]
    cluster = state.cluster_at(chain.id, chain.to_chain_pos(spec.road, spec.position))
    if cluster.segment is not None:
        raise SimulationError(f"insertion on {spec.road} lane {spec.lane} at "
                              f"{spec.position:g} falls in macro cluster {cluster.id}")
    return cluster


def _try_insert_spec(state: EngineState, scene: Scene, spec: InsertionSpec) -> bool:
    cluster = _micro_cluster_of(state, spec)
    speed = spec.speed
    if speed is None:
        speed = min(spec.params.v0, scene.speed_cap(spec.road, spec.lane, spec.position))
    veh = Vehicle(id="", road=spec.road, lane=spec.lane, position=spec.position,
                  speed=speed, length=spec.length, params=spec.params)
    if not _admit(state, scene, cluster, veh):
        return False
    veh.route = _route_for(state, spec.road, spec.destination)
    return True


def _admit(state: EngineState, scene: Scene, cluster: Cluster, veh: Vehicle) -> bool:
    """Place a vehicle in a micro cluster when the insertion gap allows and
    count it as inflow.  A vehicle without an id gets one only once placed,
    so refused insertions consume no vehicle id."""
    if not scene.can_insert(veh.road, veh.lane, veh.position, veh.speed,
                            veh.params, veh.length):
        return False
    veh.id = veh.id or state.new_vehicle_id()
    cluster.vehicles[veh.id] = veh
    scene.register(veh)
    _flow(state, cluster.id, 1.0 / state.dt, 0.0)
    return True


def _dissolve_queue(seg: MacroSegment, queue) -> None:
    """Queued whole vehicles melt into the entry cell's density, front
    first, while the cell can seat one more."""
    while queue and seg.room(0) >= 1.0:
        seg.rho[0] += 1.0 / (seg.dx[0] * seg.lanes[0])
        queue.popleft()


# -- level-of-detail observation and application ---------------------------------

def _observe_and_plan(state: EngineState) -> None:
    clusters = sorted(state.clusters.values(), key=lambda c: (c.chain_id, c.start))
    macro = [c for c in clusters if c.segment is not None]
    # one speed pass over the cell store serves the cell counters and the
    # cluster ratios (mean speed over free speed)
    store = state.cell_store(macro)
    speeds, _, means = store.observe()
    v_f = state.fd.v_f
    ratios = dict(zip((c.id for c in macro), (means / v_f).tolist()))
    for c in clusters:
        if c.segment is not None:
            continue
        if c.vehicles:
            ratios[c.id] = sum(v.speed for v in c.vehicles.values()) \
                / len(c.vehicles) / v_f
        else:
            ratios[c.id] = 1.0           # empty extents count as free flow
    state.controller.observe(clusters, ratios, store, speeds / v_f, state.step)

    plan = state.controller.plan(clusters, store, list(state.interfaces.values()),
                                 state.step, state.micro_vehicle_count(),
                                 lambda action: _refusal(state, action))
    for action in plan:
        # the plan completes this step, so its transitions carry the next stamp
        _apply_action(state, action, state.step + 1)


def _refusal(state: EngineState, action: Action) -> str | None:
    """Why the action cannot apply to the current partition, or None: every
    precondition of each kind, shared by the planner and forced actions."""
    def refuse(reason: str, *targets: str) -> str:
        of = f" of {' and '.join(targets)}" if targets else ""
        return f"{action.kind}{of} at {action.chain_id}@{action.position:g}: {reason}"

    pos = action.position
    chain = state.chains.get(action.chain_id)
    if chain is None:
        return refuse("no such chain")
    if not 0.0 <= pos <= chain.length:
        return refuse(f"{pos:g} lies off the chain's [0, {chain.length:g}]")
    if action.kind == "merge":
        itf = state.interfaces.get((action.chain_id, pos_key(pos)))
        if itf is None:
            return refuse(f"no interface at {pos:g}")
        up, down = state.clusters[itf.upstream_id], state.clusters[itf.downstream_id]
        if abs(up.end - down.start) > 1e-9:
            return refuse("the wrap boundary of a cyclic chain never merges", up.id, down.id)
        if up.representation != down.representation:
            return refuse(f"{up.representation} meets {down.representation}", up.id, down.id)
        return None
    if action.kind == "split":
        cluster = state.cluster_at(action.chain_id, pos - 1e-6)
        if not cluster.start + 1e-9 < pos < cluster.end - 1e-9:
            return refuse(f"{pos:g} is not strictly inside a cluster")
        least = state.policy.min_cluster_length
        if min(pos - cluster.start, cluster.end - pos) < least - 1e-9:
            return refuse(f"a part would be shorter than {least:g} m", cluster.id)
        if cluster.segment is not None and not np.any(
                np.abs(cluster.segment.start[1:] - pos) <= 1e-6):
            return refuse(f"{pos:g} is not an interior cell edge", cluster.id)
        return None
    cluster = state.cluster_at(action.chain_id, pos)
    if action.kind == "refine":
        return None if cluster.segment is not None else refuse("it is micro already", cluster.id)
    if action.kind == "coarsen":
        problem = "it is macro already" if cluster.segment is not None \
            else _macro_boundary_problem(state, cluster)
        return refuse(problem, cluster.id) if problem else None
    return refuse("unknown action kind")


def _apply_action(state: EngineState, action: Action, stamp: int) -> None:
    """Resolve the action's anchor against the current partition and apply
    it, or raise `ActionRefused` before any change; `stamp` is the step its
    transition record names."""
    refusal = _refusal(state, action)
    if refusal:
        raise ActionRefused(refusal)
    chain = state.chains[action.chain_id]
    if action.kind == "split":
        cluster = state.cluster_at(action.chain_id, action.position - 1e-6)
        pre = cluster.mass()
        left, right = split_cluster(cluster, action.position, chain)
        left.id, right.id = state.new_cluster_id(), state.new_cluster_id()
        del state.clusters[cluster.id]
        state.clusters[left.id] = left
        state.clusters[right.id] = right
        state.reindex()
        _log_transition(state, stamp, action, (left.id, right.id), pre,
                        left.mass() + right.mass())
        return

    if action.kind == "merge":
        itf = state.interfaces.pop((action.chain_id, pos_key(action.position)))
        a, b = state.clusters.pop(itf.upstream_id), state.clusters.pop(itf.downstream_id)
        pre = a.mass() + b.mass() + itf.mass()
        merged, leftover = merge_clusters(a, b, itf, state.new_cluster_id)
        state.clusters[merged.id] = merged
        state.reindex()
        _bank_fraction(state, merged, leftover)
        _log_transition(state, stamp, action, (a.id, b.id, merged.id), pre,
                        merged.mass() + leftover)
        return

    cluster = state.cluster_at(action.chain_id, action.position)
    if action.kind == "refine":
        # the outgoing interface turns micro upstream: its holdings melt first
        itf_down = state.itf_down.get(cluster.id)
        held = itf_down.mass() if itf_down is not None else 0.0
        pre = cluster.mass() + held
        unseated = bank_mass_into_segment(cluster.segment, len(cluster.segment) - 1, held)
        if itf_down is not None:
            itf_down.carryover[:] = 0.0
            itf_down.pending.clear()
        vehicles, residual = disaggregate_cluster(
            cluster, chain, state.network,
            lambda road_id, lane, position, speed: _released_vehicle(
                state, state.lod_rng, road_id, lane, position, speed),
            state.release_mix.min_spacing())
        residual += unseated
        _bank_fraction(state, cluster, residual)
        state.controller.mark_switch(cluster, state.step, refined=True)
        _log_transition(state, stamp, action, (cluster.id,), pre,
                        cluster.mass() + residual)
        return

    if action.kind == "coarsen":
        itf_up = state.itf_up.get(cluster.id)
        gen = state.head_source.get(cluster.chain_id) if itf_up is None else None

        def held_upstream() -> float:
            return (itf_up.mass() if itf_up is not None else 0.0) \
                + (float(len(gen.retry)) if gen is not None else 0.0)

        pre = cluster.mass() + held_upstream()
        aggregate_cluster(cluster, chain, state.network, state.fd,
                          state.policy.target_dx)
        seg = cluster.segment
        if itf_up is not None:
            # the downstream side is continuous now: fractional carryover and
            # whole queued vehicles dissolve into the entry cell
            frac = float(np.sum(itf_up.carryover))
            if frac > 0:
                left = bank_mass_into_segment(seg, 0, frac)
                itf_up.carryover *= left / frac
            _dissolve_queue(seg, itf_up.pending)
        elif gen is not None:
            _dissolve_queue(seg, gen.retry)
        state.controller.mark_switch(cluster, state.step, refined=False)
        _log_transition(state, stamp, action, (cluster.id,), pre,
                        cluster.mass() + held_upstream())


def _bank_fraction(state: EngineState, cluster: Cluster, fraction: float) -> None:
    """Bank a fraction of a vehicle at the nearest interface upstream behind
    a macro cluster, else at the open chain's head source, else orphan it."""
    if fraction <= 0:
        return
    itf = first = state.itf_up.get(cluster.id)
    while itf is not None and state.clusters[itf.upstream_id].segment is None:
        itf = state.itf_up.get(itf.upstream_id)
        if itf is first:   # round a ring that is all micro
            itf = None
    if itf is not None:
        itf.add_fractional(fraction)
        return
    gen = state.head_source.get(cluster.chain_id)
    if gen is not None:
        # the accumulator holds mass not yet emitted, so the ledger takes the
        # fraction back out of what entered the macro side
        gen.accumulator += fraction / len(gen.accumulator)
        state.ledger.add_macro_in(-fraction)
        return
    state.orphan_mass += fraction


def _flow(state: EngineState, cluster_id: str, rate_in: float,
          rate_out: float) -> None:
    entry = state.last_flows.setdefault(cluster_id, [0.0, 0.0])
    entry[0] += rate_in
    entry[1] += rate_out


def _log_transition(state: EngineState, step: int, action: Action,
                    cluster_ids: tuple, pre: float, post: float) -> None:
    state.transitions.append(TransitionRecord(
        step=step, kind=action.kind, cluster_ids=cluster_ids,
        chain_id=action.chain_id, position=action.position,
        trigger=action.trigger, pre_mass=pre, post_mass=post))


# ---------------------------------------------------------------------------
# Public step operations
# ---------------------------------------------------------------------------

def advance_step(state: EngineState, config: EngineConfig) -> EngineState:
    """Run one full phase cycle; the state is consistent again on return."""
    state.last_flows = {}
    _refresh_restrictions(state)

    scene = Scene(state)
    accel, change = _decide(state, scene)
    emissions = _natural(state)
    removals = _micro_reaction(state, scene, accel, change)
    _macro_reaction(state, scene)
    _system_reaction(state, scene, config, removals, emissions)

    state.step += 1
    state.time = state.step * state.dt
    return state


def apply_system_influences(state: EngineState, influences) -> EngineState:
    """Apply external system influences: removals, LOD actions, insertions.

    Application order is removals, then structural actions, then
    insertions, each class ordered by target identifier.  An unknown
    vehicle named by a removal, or generator named by an insertion, is
    refused before anything applies.  So is an insertion that names a
    generator but does not stand at its connector (the generator's road,
    position 0): only there can the generator's queue place it later, so a
    blocked insertion waits in the queue only from there.  An action that
    fails a precondition (`_refusal`) is refused before it changes
    anything, but what the set applied before it stays applied.  An
    insertion into a macro extent, or a blocked one without a generator
    queue, raises `SimulationError`."""
    removed = sorted({i.vehicle_id for i in influences if isinstance(i, RemoveVehicle)})
    actions = [i for i in influences if isinstance(i, Action)]
    additions = sorted((i for i in influences if isinstance(i, AddVehicle)),
                       key=lambda i: (i.spec.road, i.spec.lane, i.spec.position))
    by_gen = {g.id: g for g in state.generators}
    for infl in additions:
        if infl.generator_id is None:
            continue
        gen, spec = by_gen.get(infl.generator_id), infl.spec
        if gen is None:
            raise UnknownTarget(f"no generator {infl.generator_id!r}")
        if (spec.road, spec.position) != (gen.road, 0.0):
            _micro_cluster_of(state, spec)   # one in a macro extent is refused as such
            raise SimulationError(f"insertion on {spec.road} lane {spec.lane} at "
                                  f"{spec.position:g} is not at the connector of "
                                  f"generator {gen.id} ({gen.road} at 0)")
    holders = [next((c for c in state.clusters.values() if vid in c.vehicles), None)
               for vid in removed]
    if None in holders:
        raise UnknownTarget(f"no vehicle {removed[holders.index(None)]!r}")

    for vid, holder in zip(removed, holders):
        del holder.vehicles[vid]
        state.ledger.absorbed += 1

    for action in actions:
        _apply_action(state, action, state.step)

    scene = Scene(state)
    for infl in additions:
        if not _try_insert_spec(state, scene, infl.spec):
            if infl.generator_id is None:
                raise SimulationError(
                    f"insertion on {infl.spec.road} lane {infl.spec.lane} blocked "
                    f"and no generator queue given")
            # a queued insertion is held by its generator, as an emission is
            by_gen[infl.generator_id].retry.append(infl.spec)
        state.ledger.inserted += 1
    return state


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def notify_probes(probes, event: str, *args) -> list[tuple[str, str, str]]:
    """Deliver one event to every probe in registration order.

    A probe failure never blocks the others; failures are returned for the
    run report."""
    failures = []
    for probe in probes:
        try:
            getattr(probe, event)(*args)
        except Exception as exc:   # noqa: BLE001 - probes must not kill the run
            failures.append((type(probe).__name__, event, repr(exc)))
    return failures


class SimulationEngine:
    """Reference engine: runs the phases in sequence, notifying probes at
    every consistent instant."""

    def __init__(self, config: EngineConfig, probes=()):
        self.config = config
        self.probes = list(probes)
        self.report = RunReport()

    def _notify(self, event: str, *args) -> None:
        self.report.probe_failures.extend(notify_probes(self.probes, event, *args))

    def run(self, model: ScenarioModel) -> EngineState:
        """Execute the scenario to completion (or error), notifying probes
        at every consistent instant.  Errors propagate after on_error."""
        started = time.perf_counter()
        self._notify("on_simulation_start")
        state = None
        try:
            state = build_state(model, self.config)
            steps = self.config.steps
            if steps is None:
                steps = int(round(model.duration / state.dt))
            self._notify("on_initialized", state)
            for _ in range(steps):
                advance_step(state, self.config)
                self.report.steps_executed += 1
                self._notify("on_step_end", state)
            self._notify("on_final", state)
            return state
        except Exception as exc:
            self._notify("on_error", exc)
            raise
        finally:
            self.report.wall_time = time.perf_counter() - started

