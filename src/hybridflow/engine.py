"""Influence-reaction simulation engine.

Each step runs a fixed phase sequence: perception, memorization, decision,
the environment's natural action, per-level reaction (micro integration,
then macro cell updates), and finally the engine's own reaction to system
influences (removals, level-of-detail actions, insertions).  Probes observe
the state only between steps, when it is consistent.

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
                     disaggregate_cluster, lanes_at, macro_to_micro_release,
                     micro_to_macro_flux, pos_key)
from .hybrid import total_mass as _hybrid_total_mass
from .lod import Action, LodController, bank_mass_into_segment, merge_clusters, split_cluster
from .macro import MacroSegment, ctm_step
from .macro import cell_mean_speed  # noqa: F401 - the benchmark tracer wraps this name
from .micro import (AdjacentView, BehaviorContext, DriverParams, Perception,
                    Vehicle, VehicleIntent, behavior_chain)
from .network import Route, compute_route, lanes_to_destination, permitted_entry_lane
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


class SimulationError(RuntimeError):
    """Raised when the run must terminate abnormally."""


class OverlapDetected(SimulationError):
    """Integration produced a negative gap beyond tolerance."""


class UnknownTarget(SimulationError):
    """A system influence referenced a vehicle that does not exist."""


class FaultInjected(SimulationError):
    """Deliberate failure from the test hook."""


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
    sink_id: str


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
    error: str | None = None
    wall_time: float = 0.0


@dataclass
class EngineConfig:
    steps: int | None = None          # overrides scenario duration
    dt: float | None = None           # overrides scenario time step
    seed: int = 0
    perception_horizon: float = 200.0
    nav_horizon: float = 300.0
    lod_enabled: bool = True
    abort_at_step: int | None = None  # fault-injection hook for error-path tests
    trace_phases: bool = False
    # optional, non-deterministic: coarsen under load when a step's wall time
    # exceeds this bound (the deterministic vehicle budget is the default)
    wall_clock_budget_ms: float | None = None


@dataclass
class Ledger:
    inserted: int = 0                 # whole vehicles emitted by sources
    absorbed: int = 0                 # whole vehicles destroyed at sinks
    macro_in_mass: float = 0.0        # continuous inflow into macro entries
    macro_out_mass: float = 0.0       # continuous outflow at macro chain ends


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
        self.fd = model.fd
        self.policy = model.lod
        self.release_mix = model.release_mix
        self.dt = config.dt if config.dt is not None else model.time_step
        self.seed = config.seed
        self.step = 0
        self.time = 0.0

        self.clusters: dict[str, Cluster] = {}
        self.order: dict[str, list[str]] = {}
        self.interfaces: dict[tuple[str, int], BoundaryInterface] = {}
        self.itf_up: dict[str, BoundaryInterface] = {}
        self.itf_down: dict[str, BoundaryInterface] = {}
        self.generators: list = []
        self.sinks_by_road: dict[str, list] = {}
        self.controller = LodController(model.lod)
        self.ledger = Ledger()
        self.transitions: list[TransitionRecord] = []
        self.orphan_mass = 0.0
        self.last_step_wall_ms: float | None = None
        self.in_system_phase = False
        self.last_flows: dict[str, list[float]] = {}
        self.phase_trace: list[str] = []

        self._next_vehicle = 0
        self._next_cluster = 0
        self._next_interface = 0
        self.lod_rng = np.random.default_rng(stream_seed(config.seed, "disaggregate"))
        self._release_rngs: dict[tuple[str, int], np.random.Generator] = {}
        self._route_cache: dict[tuple[str, str | None], Route | None] = {}
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
        ids = self.order[chain_id]
        starts = [self.clusters[cid].start for cid in ids]
        idx = bisect.bisect_right(starts, chain_pos + 1e-9) - 1
        return self.clusters[ids[max(idx, 0)]]

    def reindex(self) -> None:
        """Rebuild cluster order and interface adjacency maps."""
        self.order = {}
        for cid, cluster in self.clusters.items():
            self.order.setdefault(cluster.chain_id, []).append(cid)
        for chain_id in self.order:
            self.order[chain_id].sort(key=lambda cid: self.clusters[cid].start)
        self.itf_up = {}
        self.itf_down = {}
        for itf in self.interfaces.values():
            self.itf_down[itf.upstream_id] = itf
            self.itf_up[itf.downstream_id] = itf

    def generator_at_entry(self, cluster: Cluster):
        """Flow source whose connector sits at this cluster's upstream edge."""
        chain = self.chains[cluster.chain_id]
        for gen in self.generators:
            if self.chain_of_road.get(gen.road) is not chain:
                continue
            if abs(chain.to_chain_pos(gen.road, gen.position) - cluster.start) < 1e-6:
                return gen
        return None

    def sink_at_end(self, cluster: Cluster):
        """Sink at this cluster's downstream edge, if the edge is a road end."""
        chain = self.chains[cluster.chain_id]
        road_id, pos = _locate_upstream(chain, cluster.end)
        if abs(pos - self.network.roads[road_id].length) > 1e-6:
            return None
        sinks = self.sinks_by_road.get(road_id)
        return sinks[0] if sinks else None

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

    def micro_vehicle_count(self) -> int:
        return sum(len(c.vehicles) for c in self.clusters.values()
                   if c.representation == MICRO)

    def consistency_errors(self) -> list[str]:
        """Partition, bounds and representation invariants, for canaries."""
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
            if c.representation == MICRO:
                if c.segment is not None:
                    problems.append(f"{c.id} micro but has a segment")
                chain = self.chains[c.chain_id]
                for veh in c.vehicles.values():
                    pos = chain.to_chain_pos(veh.road, veh.position)
                    if not (c.start - 1e-6 <= pos <= c.end + 1e-6):
                        problems.append(f"{veh.id} outside {c.id}")
                    if veh.speed < 0:
                        problems.append(f"{veh.id} negative speed")
            else:
                if c.segment is None:
                    problems.append(f"{c.id} macro without segment")
                elif np.any(c.segment.rho < -1e-9) or \
                        np.any(c.segment.rho > self.fd.rho_jam + 1e-9):
                    problems.append(f"{c.id} density out of range")
        return problems

    def state_digest(self) -> str:
        """Stable hash of the dynamic state, for canaries and determinism."""
        h = hashlib.sha256()
        h.update(f"{self.step},{self.time!r},{self.ledger}".encode())
        for cid in sorted(self.clusters):
            c = self.clusters[cid]
            h.update(f"{cid},{c.representation},{c.start!r},{c.end!r}".encode())
            if c.representation == MICRO:
                for veh in sorted(c.vehicles.values(), key=lambda v: v.id):
                    h.update(f"{veh.id},{veh.road},{veh.lane},{veh.position!r},"
                             f"{veh.speed!r}".encode())
            else:
                h.update(c.segment.rho.tobytes())
        for key in sorted(self.interfaces):
            itf = self.interfaces[key]
            h.update(f"{key},{itf.carryover.tolist()!r},{len(itf.pending)}".encode())
        return h.hexdigest()


def _locate_upstream(chain, chain_pos: float) -> tuple[str, float]:
    """Map a boundary coordinate to the road it terminates (end side)."""
    if chain_pos <= 1e-9:
        chain_pos = chain.length if chain.cyclic else 0.0
    for rid, off in zip(reversed(chain.roads), reversed(chain.offsets)):
        if chain_pos > off + 1e-9:
            return rid, chain_pos - off
    return chain.roads[0], chain_pos


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
            events = []
            for t, raw in gp.events:
                params = DriverParams(**raw["overrides"])
                events.append((t, InsertionSpec(
                    road=gp.input.road, lane=raw["lane"], position=0.0,
                    speed=None if raw["speed"] < 0 else raw["speed"],
                    params=params, length=raw["length"],
                    destination=raw["destination"])))
            state.generators.append(ScriptedGenerator(gp.input.id, gp.input.road,
                                                      events, config.seed))

    # cluster layout: declared specs, otherwise one micro cluster per chain
    declared: dict[str, list[tuple[float, float, str]]] = {}
    for spec in model.cluster_specs:
        chain = state.chain_of_road[spec.extents[0][0]]
        start = chain.to_chain_pos(spec.extents[0][0], spec.extents[0][1])
        end_road, _, end_pos = spec.extents[-1]
        end = chain.to_chain_pos(end_road, end_pos)
        declared.setdefault(chain.id, []).append((start, end, spec.representation))

    for chain in model.chains:
        parts = sorted(declared.get(chain.id, [])) or [(0.0, chain.length, MICRO)]
        previous = None
        for start, end, rep in parts:
            cluster = Cluster(id=state.new_cluster_id(), chain_id=chain.id,
                              start=start, end=end)
            if rep == MACRO:
                _to_macro(state, cluster, densities=model.densities)
            state.clusters[cluster.id] = cluster
            if previous is not None:
                _new_interface(state, chain, previous, cluster)
            previous = cluster
        if chain.cyclic:
            ids = [cid for cid, c in state.clusters.items() if c.chain_id == chain.id]
            ids.sort(key=lambda cid: state.clusters[cid].start)
            if len(ids) > 1:
                _new_interface(state, chain, state.clusters[ids[-1]],
                               state.clusters[ids[0]], position=0.0)
    state.reindex()

    # initial vehicles
    for spec in sorted(model.vehicles, key=lambda v: (v.road, v.lane, v.position)):
        chain = state.chain_of_road[spec.road]
        cluster = state.cluster_at(chain.id, chain.to_chain_pos(spec.road, spec.position))
        if cluster.representation != MICRO:
            raise SimulationError(f"initial vehicle on {spec.road}@{spec.position} "
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
        raise SimulationError("initial density above jam density")
    cluster.segment = MacroSegment(dx=dx, lanes=lanes, rho=rho, fd=state.fd)
    cluster.cell_starts = starts
    cluster.representation = MACRO
    cluster.vehicles = {}


def _new_interface(state: EngineState, chain, up: Cluster, down: Cluster,
                   position: float | None = None) -> BoundaryInterface:
    pos = down.start if position is None else position
    itf = BoundaryInterface(id=state.new_interface_id(), chain_id=chain.id,
                            position=pos, upstream_id=up.id, downstream_id=down.id,
                            lanes=lanes_at(chain, state.network, pos))
    state.interfaces[(chain.id, pos_key(pos))] = itf
    return itf


def _validate_macro_boundaries(state: EngineState) -> None:
    for cluster in state.clusters.values():
        if cluster.representation != MACRO:
            continue
        problem = _macro_boundary_problem(state, cluster)
        if problem:
            raise SimulationError(f"cluster {cluster.id}: {problem}")


def _macro_boundary_problem(state: EngineState, cluster: Cluster) -> str | None:
    """Why this extent cannot be macroscopic, or None if it can."""
    chain = state.chains[cluster.chain_id]
    if not chain.cyclic:
        if cluster.end >= chain.length - 1e-6 and state.itf_down.get(cluster.id) is None:
            road_id, _ = _locate_upstream(chain, chain.length)
            road = state.network.roads[road_id]
            # a sink discharges, a dead end is a valid blocking wall, but a
            # branching node would need a flux-splitting model
            if not state.sinks_by_road.get(road_id) and state.network.outgoing(road.to_node):
                return "macro extent ends at a branching node"
        if cluster.start <= 1e-6:
            head = state.network.roads[chain.roads[0]]
            if state.network.incoming(head.from_node):
                return "macro extent starts at a node fed by other roads"
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
        except Exception:
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

class Scene:
    """Per-step, read-only view used by perception and insertion checks."""

    def __init__(self, state: EngineState, config: EngineConfig):
        self.state = state
        self.horizon = config.perception_horizon
        self.nav_horizon = config.nav_horizon
        # per (road, lane): parallel sorted lists of positions and vehicles
        self.index: dict[tuple[str, int], tuple[list, list]] = {}
        grouped: dict[tuple[str, int], list] = {}
        for cluster in state.clusters.values():
            if cluster.representation != MICRO:
                continue
            for veh in cluster.vehicles.values():
                grouped.setdefault((veh.road, veh.lane), []).append(veh)
        for key, vehicles in grouped.items():
            vehicles.sort(key=lambda v: (v.position, v.id))
            self.index[key] = ([v.position for v in vehicles], vehicles)
        # micro->macro gates, per chain, sorted by position
        self.gates: dict[str, list[tuple[float, bool]]] = {}
        self.gate_entries: dict[str, list] = {}
        self.gate_budget: dict[tuple[str, int], int] = {}
        for key, itf in state.interfaces.items():
            down = state.clusters[itf.downstream_id]
            up = state.clusters[itf.upstream_id]
            if down.representation == MACRO and up.representation == MICRO:
                open_ = boundary_gate_open(down.segment, itf.lanes)
                free = down.segment.room(0)
                self.gates.setdefault(itf.chain_id, []).append((itf.position, open_))
                self.gate_entries.setdefault(itf.chain_id, []).append((itf.position, key))
                self.gate_budget[key] = int(math.floor(free)) if open_ else 0
        for entries in self.gates.values():
            entries.sort()
        for entries in self.gate_entries.values():
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

    def _gate_ahead(self, chain_id: str, cpos: float, horizon: float):
        """Nearest closed gate within the horizon, as a distance, or None."""
        chain = self.state.chains[chain_id]
        best = None
        for pos, open_ in self.gates.get(chain_id, []):
            d = pos - cpos
            if chain.cyclic and d <= 1e-9:
                d += chain.length
            if 1e-9 < d <= horizon and not open_:
                best = d if best is None else min(best, d)
        return best

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

    def _sign_obstacle(self, veh: Vehicle, lane: int) -> float | None:
        """Distance to the nearest unserved stop sign ahead on this road."""
        best = None
        for sign in self.state.network.roads[veh.road].signs:
            if sign.kind != "stop" or not sign.applies_to(lane):
                continue
            if sign.position <= veh.position + 1e-9:
                continue
            if (veh.road, sign.position) in veh.satisfied_stops:
                continue
            d = sign.position - veh.position
            best = d if best is None else min(best, d)
        return best

    def _next_road(self, road_id: str, route: Route | None) -> str | None:
        if route is not None:
            return route.next_after(road_id)
        succ = sorted({t.to_road for t in
                       self.state.network.nodes[self.state.network.roads[road_id].to_node].turns
                       if t.from_road == road_id})
        return succ[0] if len(succ) == 1 else None

    def lane_view(self, veh: Vehicle, lane: int) -> AdjacentView:
        """Leader/follower views in one lane of the vehicle's road."""
        state = self.state
        road = state.network.roads[veh.road]
        chain = state.chain_of_road[veh.road]
        cpos = chain.to_chain_pos(veh.road, veh.position)

        lead_gap, lead_dv = INF, 0.0
        found = self._leader_on(veh.road, lane, veh.position, veh.id)
        if found is not None and found[0] <= self.horizon:
            dist, leader = found
            lead_gap = max(dist - leader.length, MIN_PERCEIVED_GAP)
            lead_dv = veh.speed - leader.speed
        else:
            remaining = self.horizon - (road.length - veh.position)
            cursor_road, cursor_route = veh.road, veh.route
            offset = road.length - veh.position
            hop_lane = lane
            while remaining > 0 and math.isinf(lead_gap):
                nxt = self._next_road(cursor_road, cursor_route)
                if nxt is None:
                    break
                entry = permitted_entry_lane(state.network, cursor_road, hop_lane, nxt)
                if entry is None:
                    break
                found = self._leader_on(nxt, entry, -1.0, veh.id)
                if found is not None and found[0] - 1.0 + offset <= self.horizon:
                    dist = found[0] - 1.0 + offset
                    lead_gap = max(dist - found[1].length, MIN_PERCEIVED_GAP)
                    lead_dv = veh.speed - found[1].speed
                    break
                nxt_len = state.network.roads[nxt].length
                remaining -= nxt_len
                offset += nxt_len
                cursor_road, hop_lane = nxt, entry

        # a vehicle physically alongside blocks the lane outright
        if lane != veh.lane and self.slot_occupied(veh.road, lane, veh.position,
                                                   veh.length, veh.id):
            return AdjacentView(leader_gap=MIN_PERCEIVED_GAP, leader_dv=0.0,
                                follower_gap=MIN_PERCEIVED_GAP, follower_speed=veh.speed)

        # standing obstacles: unserved stop signs and closed gates
        sign_d = self._sign_obstacle(veh, lane)
        if sign_d is not None and sign_d <= self.horizon and sign_d < lead_gap:
            lead_gap, lead_dv = sign_d, veh.speed
        gate_d = self._gate_ahead(chain.id, cpos, self.horizon)
        if gate_d is not None and gate_d < lead_gap:
            lead_gap, lead_dv = gate_d, veh.speed

        fol_gap, fol_speed = INF, 0.0
        found = self._follower_on(veh.road, lane, veh.position, veh.id)
        if found is not None and found[0] <= self.horizon:
            dist, follower = found
            fol_gap = dist - veh.length
            fol_speed = follower.speed
        return AdjacentView(leader_gap=lead_gap, leader_dv=lead_dv,
                            follower_gap=fol_gap, follower_speed=fol_speed)

    def perceive(self, veh: Vehicle) -> tuple[Perception, BehaviorContext]:
        state = self.state
        road = state.network.roads[veh.road]
        own = self.lane_view(veh, veh.lane)
        left = self.lane_view(veh, veh.lane - 1) if veh.lane > 0 else None
        right = self.lane_view(veh, veh.lane + 1) \
            if veh.lane < road.lane_count - 1 else None
        perception = Perception(
            leader_gap=own.leader_gap, leader_dv=own.leader_dv,
            speed_limit=self.speed_cap(veh.road, veh.lane, veh.position),
            left=left, right=right,
            follower_gap=own.follower_gap, follower_speed=own.follower_speed)

        permitted = None
        distance = road.length - veh.position
        sink_here = bool(state.sinks_by_road.get(veh.road))
        if not sink_here:
            nxt = self._next_road(veh.road, veh.route)
            if nxt is None:
                permitted = frozenset()
            elif veh.route is not None:
                permitted = frozenset(lanes_to_destination(
                    state.network, veh.road, road.to_node, veh.route))
            else:
                node = state.network.nodes[road.to_node]
                permitted = frozenset(t.from_lane for t in node.turns
                                      if t.from_road == veh.road and t.to_road == nxt)
        ctx = BehaviorContext(lane_count=road.lane_count, permitted_lanes=permitted,
                              distance_to_node=distance, nav_horizon=self.nav_horizon)
        return perception, ctx

    # -- insertion support -------------------------------------------------------

    def slot_occupied(self, road_id: str, lane: int, position: float,
                      length: float, exclude: str | None) -> bool:
        """True when [position-length, position] intersects a vehicle there."""
        found = self.index.get((road_id, lane))
        if found is None:
            return False
        positions, vehicles = found
        i = bisect.bisect_left(positions, position - length - 16.0)
        while i < len(positions):
            pos, other = positions[i], vehicles[i]
            if pos > position + 16.0:   # no plausible vehicle reaches back this far
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
        if cluster.representation != MACRO:
            continue
        chain = state.chains[cluster.chain_id]
        seg = cluster.segment
        seg.capacity_factor[:] = 1.0
        for rs in active:
            if rs.road not in chain.roads:
                continue
            a = chain.to_chain_pos(rs.road, rs.start)
            b = chain.to_chain_pos(rs.road, rs.end)
            for i, s in enumerate(cluster.cell_starts):
                e = s + seg.dx[i]
                if min(b, e) - max(a, s) > 1e-9:
                    seg.capacity_factor[i] = min(seg.capacity_factor[i], rs.factor)


def _decide(state: EngineState, scene: Scene,
            vehicles: list[Vehicle]) -> dict[str, VehicleIntent]:
    """Phases 1-3: perceive, memorize, decide.  Memorization writes only the
    vehicle's own memory, which no other vehicle perceives, so each vehicle
    memorizes as soon as it has decided."""
    intents: dict[str, VehicleIntent] = {}
    for veh in vehicles:
        perception, ctx = scene.perceive(veh)
        intents[veh.id] = behavior_chain(veh, perception, ctx)
        veh.prev_leader_gap = perception.leader_gap    # memorization
        _serve_stop_signs(state, veh)
    return intents


def _serve_stop_signs(state: EngineState, veh: Vehicle) -> None:
    """A vehicle halted just before a stop sign has served it."""
    if veh.speed > STOP_SPEED:
        return
    for sign in state.network.roads[veh.road].signs:
        if sign.kind != "stop" or not sign.applies_to(veh.lane):
            continue
        d = sign.position - veh.position
        if 0.0 <= d <= STOP_ZONE:
            veh.satisfied_stops.add((veh.road, sign.position))


@dataclass
class _BoundarySnapshot:
    """Interface boundary conditions frozen during the natural phase."""

    demand_up: dict = field(default_factory=dict)    # interface key -> veh/s
    supply_down: dict = field(default_factory=dict)  # interface key -> veh/s
    throttled: dict = field(default_factory=dict)    # interface key -> bool


def _natural(state: EngineState) -> tuple[list[tuple[str, InsertionSpec]], _BoundarySnapshot]:
    """Phase 4: generator emissions and frozen macro boundary conditions."""
    emissions: list[tuple[str, InsertionSpec]] = []
    for gen in state.generators:
        entry_cluster = _entry_cluster(state, gen)
        if entry_cluster is not None and entry_cluster.representation == MACRO:
            continue   # handled as continuous inflow in the macro reaction
        for spec in gen.generation_influences(state.time, state.dt):
            emissions.append((gen.id, spec))
            state.ledger.inserted += 1

    snap = _BoundarySnapshot()
    for key, itf in state.interfaces.items():
        up = state.clusters[itf.upstream_id]
        down = state.clusters[itf.downstream_id]
        if up.representation == MACRO:
            snap.demand_up[key] = float(up.segment.demand_profile()[-1])
        if down.representation == MACRO:
            snap.supply_down[key] = float(down.segment.supply_profile()[0])
        else:
            snap.throttled[key] = itf.throttled()
    return emissions, snap


def _entry_cluster(state: EngineState, gen) -> Cluster | None:
    chain = state.chain_of_road.get(gen.road)
    if chain is None:
        return None
    return state.cluster_at(chain.id, chain.to_chain_pos(gen.road, gen.position))


# -- micro reaction -----------------------------------------------------------

def _apply_lane_changes(state: EngineState, scene: Scene,
                        intents: dict[str, VehicleIntent]) -> None:
    """Instantaneous lane swaps, front-most first, cancelled on overlap."""
    movers: list[Vehicle] = []
    for cluster in state.clusters.values():
        if cluster.representation != MICRO:
            continue
        for veh in cluster.vehicles.values():
            intent = intents.get(veh.id)
            if intent is not None and intent.lane_change != 0:
                movers.append(veh)
    movers.sort(key=lambda v: (v.road, -v.position, v.lane, v.id))
    for veh in movers:
        target = veh.lane + intents[veh.id].lane_change
        if not 0 <= target < state.network.roads[veh.road].lane_count:
            continue
        if scene.slot_occupied(veh.road, target, veh.position, veh.length, veh.id):
            continue
        positions, vehicles = scene.index[(veh.road, veh.lane)]
        for i, other in enumerate(vehicles):
            if other.id == veh.id:
                positions.pop(i)
                vehicles.pop(i)
                break
        veh.lane = target
        scene.register(veh)


def _integrate(veh: Vehicle, accel: float, dt: float) -> float:
    """Ballistic update with a non-negative speed clamp; returns displacement."""
    v0 = veh.speed
    v1 = v0 + accel * dt
    if v1 < 0.0:
        veh.speed = 0.0
        return (v0 * v0) / (2.0 * -accel) if accel < 0 else 0.0
    veh.speed = v1
    return max(v0 * dt + 0.5 * accel * dt * dt, 0.0)


def _micro_reaction(state: EngineState, scene: Scene,
                    intents: dict[str, VehicleIntent]) -> tuple[dict, list]:
    """Integrate all micro vehicles; returns (gate crossings, sink removals)."""
    _apply_lane_changes(state, scene, intents)

    crossings: dict[tuple[str, int], int] = {}
    removals: list[tuple[str, Vehicle]] = []
    moving: list[tuple[Cluster, Vehicle]] = []
    for cluster in state.clusters.values():
        if cluster.representation == MICRO:
            for veh in cluster.vehicles.values():
                moving.append((cluster, veh))
    moving.sort(key=lambda cv: (cv[1].road, -cv[1].position, cv[1].lane, cv[1].id))

    for cluster, veh in moving:
        intent = intents.get(veh.id)
        accel = intent.acceleration if intent is not None else 0.0
        displacement = _integrate(veh, accel, state.dt)
        _walk(state, scene, cluster, veh, displacement, crossings, removals)

    _rehome_and_check(state)
    return crossings, removals


def _walk(state: EngineState, scene: Scene, cluster: Cluster, veh: Vehicle,
          displacement: float, crossings, removals) -> None:
    """Advance one vehicle along its path, handling gates, sinks and nodes."""
    remaining = displacement
    guard = 0
    while True:
        guard += 1
        if guard > 50:
            raise SimulationError(f"{veh.id} crossed too many boundaries in one step")
        road = state.network.roads[veh.road]
        chain = state.chain_of_road[veh.road]
        cpos = chain.to_chain_pos(veh.road, veh.position)

        gate_dist = INF
        gate_key = None
        for pos, key in scene.gate_entries.get(chain.id, ()):
            pos = pos if pos > 1e-9 else (chain.length if chain.cyclic else 0.0)
            d = pos - cpos
            if chain.cyclic and d <= 1e-9:
                d += chain.length
            if 1e-9 < d < gate_dist:
                gate_dist, gate_key = d, key

        dist_to_end = road.length - veh.position
        if remaining < min(dist_to_end, gate_dist) - 1e-12:
            veh.position += remaining
            break

        if gate_dist <= dist_to_end + 1e-12:
            # reached a micro-to-macro boundary
            if scene.gate_budget.get(gate_key, 0) >= 1:
                scene.gate_budget[gate_key] -= 1
                crossings[gate_key] = crossings.get(gate_key, 0) + 1
                cluster.vehicles.pop(veh.id, None)
                _flow(state, cluster.id, 0.0, 1.0 / state.dt)
                return
            veh.position += max(gate_dist - NODE_STANDOFF, 0.0)
            veh.speed = 0.0
            break

        # reached the road end
        sinks = state.sinks_by_road.get(veh.road, [])
        if sinks:
            cluster.vehicles.pop(veh.id, None)
            removals.append((sinks[0].id, veh))
            _flow(state, cluster.id, 0.0, 1.0 / state.dt)
            return
        nxt = scene._next_road(veh.road, veh.route)
        if nxt is None:
            veh.position = max(veh.position, road.length - NODE_STANDOFF)
            veh.speed = 0.0
            break
        entry = permitted_entry_lane(state.network, veh.road, veh.lane, nxt)
        if entry is None:
            veh.position = max(veh.position, road.length - NODE_STANDOFF)
            veh.speed = 0.0
            break
        next_chain = state.chain_of_road[nxt]
        entry_cpos = next_chain.to_chain_pos(nxt, 0.0)
        target = state.cluster_at(next_chain.id, entry_cpos)
        if target.representation == MACRO:
            key = (next_chain.id, pos_key(target.start))
            if scene.gate_budget.get(key, 0) >= 1:
                scene.gate_budget[key] -= 1
                crossings[key] = crossings.get(key, 0) + 1
                cluster.vehicles.pop(veh.id, None)
                _flow(state, cluster.id, 0.0, 1.0 / state.dt)
                return
            veh.position = max(veh.position, road.length - NODE_STANDOFF)
            veh.speed = 0.0
            break
        remaining -= dist_to_end
        blocker = _first_vehicle_on(state, nxt, entry)
        if blocker is not None and blocker.position - blocker.length - 0.1 < remaining:
            landing = blocker.position - blocker.length - 0.1
            if landing < 0.0:
                # the entry slot is occupied: wait at the node
                veh.position = max(veh.position, road.length - NODE_STANDOFF)
                veh.speed = min(veh.speed, blocker.speed)
                break
            veh.road, veh.lane, veh.position = nxt, entry, landing
            veh.speed = min(veh.speed, blocker.speed)
            veh.satisfied_stops.clear()
            break
        veh.road, veh.lane, veh.position = nxt, entry, 0.0
        veh.satisfied_stops.clear()

    # ownership may have changed within or across chains
    chain = state.chain_of_road[veh.road]
    cpos = chain.to_chain_pos(veh.road, veh.position)
    owner = state.cluster_at(chain.id, min(cpos, chain.length - 1e-9))
    if owner.id != cluster.id:
        cluster.vehicles.pop(veh.id, None)
        owner.vehicles[veh.id] = veh
        _flow(state, cluster.id, 0.0, 1.0 / state.dt)
        _flow(state, owner.id, 1.0 / state.dt, 0.0)


def _first_vehicle_on(state: EngineState, road_id: str, lane: int):
    """Vehicle nearest to the start of a lane, from the live cluster state."""
    best = None
    for cluster in state.clusters.values():
        if cluster.representation != MICRO:
            continue
        for veh in cluster.vehicles.values():
            if (veh.road, veh.lane) == (road_id, lane):
                if best is None or (veh.position, veh.id) < (best.position, best.id):
                    best = veh
    return best


def _rehome_and_check(state: EngineState) -> None:
    """Detect residual overlaps; clamp small ones, abort on real ones."""
    by_lane: dict[tuple[str, int], list[Vehicle]] = {}
    for cluster in state.clusters.values():
        if cluster.representation != MICRO:
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

def _macro_reaction(state: EngineState, scene: Scene, snap: _BoundarySnapshot,
                    crossings: dict) -> None:
    """Advance every macro segment with the frozen boundary conditions."""
    for chain_id in sorted(state.order):
        for cluster in state.chain_clusters(chain_id):
            if cluster.representation != MACRO:
                continue
            _step_segment(state, scene, snap, crossings, cluster)


def _step_segment(state: EngineState, scene: Scene, snap: _BoundarySnapshot,
                  crossings: dict, cluster: Cluster) -> None:
    seg = cluster.segment
    itf_up = state.itf_up.get(cluster.id)
    itf_down = state.itf_down.get(cluster.id)
    gen = state.generator_at_entry(cluster) if itf_up is None else None

    chain = state.chains[cluster.chain_id]
    wrap_flux = None
    if itf_up is None and itf_down is None and chain.cyclic:
        # whole-chain macro ring: the wrap flux closes on the segment itself
        wrap_flux = min(float(seg.demand_profile()[-1]), float(seg.supply_profile()[0]))

    inflow = 0.0
    micro_up = False
    if wrap_flux is not None:
        inflow = wrap_flux
    elif itf_up is not None:
        key = (itf_up.chain_id, pos_key(itf_up.position))
        up = state.clusters[itf_up.upstream_id]
        if up.representation == MICRO:
            micro_up = True
            inflow = micro_to_macro_flux(crossings.get(key, 0), state.dt)
        else:
            inflow = min(snap.demand_up[key], snap.supply_down[key])
    elif gen is not None:
        inflow = gen.offer_macro_inflow(state.time, state.dt)

    if wrap_flux is not None:
        supply = wrap_flux
    elif itf_down is not None:
        key_down = (itf_down.chain_id, pos_key(itf_down.position))
        down = state.clusters[itf_down.downstream_id]
        if down.representation == MACRO:
            supply = snap.supply_down[key_down]
        else:
            supply = 0.0 if snap.throttled.get(key_down, False) else INF
    else:
        sink = state.sink_at_end(cluster)
        supply = sink.capacity if sink is not None else 0.0

    accepted, outflow = ctm_step(seg, inflow, supply, state.dt)
    _flow(state, cluster.id, accepted, outflow)

    if micro_up:
        absorb_crossed_remainder(seg, inflow, accepted, state.dt)
    elif itf_up is None and gen is not None:
        settled = gen.settle_macro_inflow(accepted, state.dt)
        state.ledger.macro_in_mass += settled

    if itf_down is not None:
        down = state.clusters[itf_down.downstream_id]
        if down.representation == MICRO:
            _release_into_micro(state, scene, itf_down, outflow, cluster, down)
    else:
        sink = state.sink_at_end(cluster)
        if sink is not None:
            state.ledger.macro_out_mass += outflow * state.dt


def _release_into_micro(state: EngineState, scene: Scene, itf: BoundaryInterface,
                        outflow: float, up: Cluster, down: Cluster) -> None:
    chain = state.chains[itf.chain_id]
    road_id, road_pos = chain.locate(itf.position if itf.position > 1e-9 else 0.0)
    rng = state.release_rng(itf.chain_id, itf.position)
    road = state.network.roads[road_id]

    def make_vehicle(lane: int, speed: float) -> Vehicle:
        params, length = state.release_mix.sample(rng)
        return Vehicle(id=state.new_vehicle_id(), road=road_id, lane=lane,
                       position=road_pos, speed=min(speed, road.speed_limit),
                       length=length, params=params,
                       route=_default_route(state, road_id))

    def try_insert(veh: Vehicle) -> bool:
        if not scene.can_insert(veh.road, veh.lane, veh.position, veh.speed,
                                veh.params, veh.length):
            return False
        down.vehicles[veh.id] = veh
        scene.register(veh)
        _flow(state, down.id, 1.0 / state.dt, 0.0)
        return True

    macro_to_micro_release(itf, outflow, up.segment.cell(len(up.segment) - 1),
                           state.fd, state.dt, make_vehicle, try_insert)


# -- system reaction ------------------------------------------------------------

def _system_reaction(state: EngineState, scene: Scene, config: EngineConfig,
                     removals: list, emissions: list) -> None:
    """Phase 6: removals, then level-of-detail actions, then insertions."""
    state.ledger.absorbed += len(removals)

    if config.lod_enabled:
        _observe_and_plan(state, config)

    _drain_pending_micro_interfaces(state, scene)

    by_gen = {gen.id: gen for gen in state.generators}
    for gen_id, spec in emissions:
        by_gen[gen_id].retry.append(spec)
    for gen in state.generators:
        entry = _entry_cluster(state, gen)
        if entry is not None and entry.representation == MACRO:
            _dissolve_queue(entry.segment, gen.retry)
            continue
        kept = []
        while gen.retry:
            spec = gen.retry.popleft()
            if not _try_insert_spec(state, scene, spec):
                kept.append(spec)
                break
        kept.extend(gen.retry)
        gen.retry.clear()
        gen.retry.extend(kept)


def _try_insert_spec(state: EngineState, scene: Scene, spec: InsertionSpec) -> bool:
    speed = spec.speed
    cap = scene.speed_cap(spec.road, spec.lane, spec.position)
    if speed is None:
        speed = min(spec.params.v0, cap)
    if not scene.can_insert(spec.road, spec.lane, spec.position, speed,
                            spec.params, spec.length):
        return False
    chain = state.chain_of_road[spec.road]
    cluster = state.cluster_at(chain.id, chain.to_chain_pos(spec.road, spec.position))
    if cluster.representation != MICRO:
        return False
    veh = Vehicle(id=state.new_vehicle_id(), road=spec.road, lane=spec.lane,
                  position=spec.position, speed=speed, length=spec.length,
                  params=spec.params,
                  route=_route_for(state, spec.road, spec.destination))
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


def _drain_pending_micro_interfaces(state: EngineState, scene: Scene) -> None:
    """Pending releases at interfaces whose downstream is micro keep trying,
    even when the upstream side is no longer macroscopic."""
    for key in sorted(state.interfaces):
        itf = state.interfaces[key]
        down = state.clusters[itf.downstream_id]
        up = state.clusters[itf.upstream_id]
        if down.representation != MICRO or not itf.pending:
            continue
        if up.representation == MACRO:
            continue   # the macro reaction already drained it this step
        kept = []
        while itf.pending:
            veh = itf.pending.popleft()
            if scene.can_insert(veh.road, veh.lane, veh.position, veh.speed,
                                veh.params, veh.length):
                down.vehicles[veh.id] = veh
                scene.register(veh)
                _flow(state, down.id, 1.0 / state.dt, 0.0)
            else:
                kept.append(veh)
                break
        kept.extend(itf.pending)
        itf.pending.clear()
        itf.pending.extend(kept)


# -- level-of-detail observation and application ---------------------------------

def _cluster_ratio(state: EngineState, cluster: Cluster) -> float:
    """Mean speed over free speed; empty extents count as free flow."""
    if cluster.representation == MACRO:
        return cluster.segment.mean_speed() / state.fd.v_f
    if not cluster.vehicles:
        return 1.0
    mean = sum(v.speed for v in cluster.vehicles.values()) / len(cluster.vehicles)
    return mean / state.fd.v_f


def _observe_and_plan(state: EngineState, config: EngineConfig) -> None:
    clusters = sorted(state.clusters.values(), key=lambda c: (c.chain_id, c.start))
    ratios = {c.id: _cluster_ratio(state, c) for c in clusters}
    cell_ratios = {c.id: c.segment.cell_speeds() / state.fd.v_f
                   for c in clusters if c.representation == MACRO}
    state.controller.observe(clusters, ratios, cell_ratios, state.step)

    micro_count = state.micro_vehicle_count()
    if config.wall_clock_budget_ms is not None and state.last_step_wall_ms \
            is not None and state.last_step_wall_ms > config.wall_clock_budget_ms:
        # present the overload as unbounded budget pressure for this plan
        micro_count = max(micro_count, state.policy.micro_vehicle_budget + 1)

    plan = state.controller.plan(clusters, list(state.interfaces.values()),
                                 state.step, micro_count,
                                 lambda c: _macro_boundary_problem(state, c) is None)
    for action in plan:
        _apply_action(state, action)


def _apply_action(state: EngineState, action: Action) -> None:
    """Resolve the action's anchor against the current partition and apply it."""
    chain = state.chains[action.chain_id]
    if action.kind == "split":
        cluster = state.cluster_at(action.chain_id, action.position - 1e-6)
        if not cluster.start + 1e-9 < action.position < cluster.end - 1e-9:
            return
        pre = cluster.mass()
        left, right = split_cluster(cluster, action.position, chain,
                                    state.policy.min_cluster_length)
        left.id, right.id = state.new_cluster_id(), state.new_cluster_id()
        del state.clusters[cluster.id]
        state.clusters[left.id] = left
        state.clusters[right.id] = right
        # an interface where the old cluster fed out sat at its end (right
        # part); one feeding in sat at its start (left part)
        for itf in state.interfaces.values():
            if itf.upstream_id == cluster.id:
                itf.upstream_id = right.id
            if itf.downstream_id == cluster.id:
                itf.downstream_id = left.id
        _new_interface(state, chain, left, right)
        state.reindex()
        state.controller.inherit_split(cluster.id, (left.id, right.id))
        _log_transition(state, action, (left.id, right.id), pre, left.mass() + right.mass())
        return

    if action.kind == "merge":
        key = (action.chain_id, pos_key(action.position))
        itf = state.interfaces.get(key)
        if itf is None:
            return
        a = state.clusters[itf.upstream_id]
        b = state.clusters[itf.downstream_id]
        pre = a.mass() + b.mass() + itf.mass()
        merged, homeless, fraction = merge_clusters(a, b, itf, chain,
                                                    state.new_cluster_id)
        del state.clusters[a.id], state.clusters[b.id]
        del state.interfaces[key]
        state.clusters[merged.id] = merged
        for other in state.interfaces.values():
            if other.upstream_id in (a.id, b.id):
                other.upstream_id = merged.id
            if other.downstream_id in (a.id, b.id):
                other.downstream_id = merged.id
        state.reindex()
        outside = _rehome_queue(state, merged, chain, itf.position, homeless, fraction)
        state.controller.inherit_merge((a.id, b.id), merged.id)
        _log_transition(state, action, (a.id, b.id, merged.id), pre,
                        merged.mass() + outside)
        return

    cluster = state.cluster_at(action.chain_id, action.position)
    if action.kind == "refine" and cluster.representation == MACRO:
        pre = cluster.mass()
        min_spacing = state.release_mix.min_spacing()

        def make_vehicle(road_id, lane, position, speed):
            params, length = state.release_mix.sample(state.lod_rng)
            road = state.network.roads[road_id]
            return Vehicle(id=state.new_vehicle_id(), road=road_id, lane=lane,
                           position=position, speed=min(speed, road.speed_limit),
                           length=length, params=params,
                           route=_default_route(state, road_id))

        vehicles, residual = disaggregate_cluster(cluster, chain, state.network,
                                                  make_vehicle, min_spacing)
        _bank_fraction(state, cluster, residual)
        state.controller.mark_switch(cluster.id, state.step, refined=True)
        _log_transition(state, action, (cluster.id,), pre,
                        cluster.mass() + residual)
        return

    if action.kind == "coarsen" and cluster.representation == MICRO:
        itf_up_pre = state.itf_up.get(cluster.id)
        gen_pre = state.generator_at_entry(cluster) if itf_up_pre is None else None
        side = (itf_up_pre.mass() if itf_up_pre is not None else 0.0) \
            + (float(len(gen_pre.retry)) if gen_pre is not None else 0.0)
        pre = cluster.mass() + side
        aggregate_cluster(cluster, chain, state.network, state.fd,
                          state.policy.target_dx)
        itf_up = state.itf_up.get(cluster.id)
        seg = cluster.segment
        if itf_up is not None:
            # the downstream side is continuous now: fractional carryover and
            # whole queued vehicles dissolve into the entry cell
            frac = float(np.sum(itf_up.carryover))
            if frac > 0:
                left = bank_mass_into_segment(seg, 0, frac)
                itf_up.carryover *= left / frac
            _dissolve_queue(seg, itf_up.pending)
        else:
            gen = state.generator_at_entry(cluster)
            if gen is not None:
                _dissolve_queue(seg, gen.retry)
        side = (itf_up.mass() if itf_up is not None else 0.0) \
            + (float(len(gen_pre.retry)) if gen_pre is not None else 0.0)
        state.controller.mark_switch(cluster.id, state.step, refined=False)
        _log_transition(state, action, (cluster.id,), pre, cluster.mass() + side)
        return


def _rehome_queue(state: EngineState, merged: Cluster, chain, position: float,
                  vehicles: list, fraction: float) -> float:
    """Give the dissolved interface's holdings a conservation-safe home.
    Returns the mass that ended up outside the merged cluster."""
    outside = 0.0
    if merged.representation == MICRO and vehicles:
        for veh in vehicles:
            placed = _place_near(state, merged, chain, position, veh)
            if not placed:
                outside += 1.0
                itf_up = state.itf_up.get(merged.id)
                if itf_up is not None:
                    itf_up.pending.append(veh)
                else:
                    state.orphan_mass += 1.0
    if fraction > 0:
        outside += fraction
        _bank_fraction(state, merged, fraction)
    return outside


def _bank_fraction(state: EngineState, cluster: Cluster, fraction: float) -> None:
    if fraction <= 0:
        return
    itf_up = state.itf_up.get(cluster.id)
    if itf_up is not None:
        itf_up.add_fractional(fraction)
        return
    gen = state.generator_at_entry(cluster)
    if gen is not None and isinstance(gen, FlowMassGenerator):
        gen.accumulator += fraction / len(gen.accumulator)
        return
    state.orphan_mass += fraction


def _place_near(state: EngineState, cluster: Cluster, chain, position: float,
                veh: Vehicle) -> bool:
    """Walk upstream from a boundary position to the first safe slot."""
    peers = sorted((v for v in cluster.vehicles.values()
                    if (v.road, v.lane) == (veh.road, veh.lane)),
                   key=lambda v: -v.position)
    candidate = veh.position
    for peer in peers:
        if peer.position <= candidate + 1e-9:
            lead_gap = INF
            ahead = [v for v in peers if v.position > candidate]
            if ahead:
                lead = min(ahead, key=lambda v: v.position)
                lead_gap = lead.position - lead.length - candidate
            if lead_gap >= veh.params.s0 and candidate - veh.length - peer.position \
                    >= peer.params.s0:
                break
            candidate = peer.position - peer.length - veh.params.s0
    start_road_pos = max(cluster.start - chain.offset_of(veh.road), 0.0)
    if candidate < start_road_pos:
        return False
    ahead = [v for v in peers if v.position > candidate]
    if ahead:
        lead = min(ahead, key=lambda v: v.position)
        if lead.position - lead.length - candidate < veh.params.s0:
            return False
    veh.position = candidate
    cluster.vehicles[veh.id] = veh
    return True


def _flow(state: EngineState, cluster_id: str, rate_in: float,
          rate_out: float) -> None:
    entry = state.last_flows.setdefault(cluster_id, [0.0, 0.0])
    entry[0] += rate_in
    entry[1] += rate_out


def _log_transition(state: EngineState, action: Action, cluster_ids: tuple,
                    pre: float, post: float) -> None:
    # during the system phase the counter still names the previous stamp
    step = state.step + 1 if state.in_system_phase else state.step
    state.transitions.append(TransitionRecord(
        step=step, kind=action.kind, cluster_ids=cluster_ids,
        chain_id=action.chain_id, position=action.position,
        trigger=action.trigger, pre_mass=pre, post_mass=post))


# ---------------------------------------------------------------------------
# Public step operations
# ---------------------------------------------------------------------------

def advance_step(state: EngineState, config: EngineConfig) -> EngineState:
    """Run one full phase cycle; the state is consistent again on return."""
    step_started = time.perf_counter()
    trace = state.phase_trace if config.trace_phases else None
    state.last_flows = {}
    _refresh_restrictions(state)

    vehicles = []
    for cid in sorted(state.clusters):
        cluster = state.clusters[cid]
        if cluster.representation == MICRO:
            vehicles.extend(sorted(cluster.vehicles.values(), key=lambda v: v.id))
    scene = Scene(state, config)

    if trace is not None:
        trace.extend(["perception", "memorization", "decision"])
    intents = _decide(state, scene, vehicles)

    if trace is not None:
        trace.append("natural")
    emissions, snap = _natural(state)

    if trace is not None:
        trace.append("reaction_micro")
    crossings, removals = _micro_reaction(state, scene, intents)

    if trace is not None:
        trace.append("reaction_macro")
    _macro_reaction(state, scene, snap, crossings)

    if trace is not None:
        trace.append("system")
    state.in_system_phase = True
    try:
        _system_reaction(state, scene, config, removals, emissions)
    finally:
        state.in_system_phase = False

    state.step += 1
    state.time = state.step * state.dt
    state.last_step_wall_ms = (time.perf_counter() - step_started) * 1000.0
    if trace is not None:
        trace.append("advance")
    return state


def apply_system_influences(state: EngineState, influences) -> EngineState:
    """Apply external system influences: removals, LOD actions, insertions.

    Application order is removals, then structural actions, then
    insertions, each class ordered by target identifier."""
    removals = sorted((i for i in influences if isinstance(i, RemoveVehicle)),
                      key=lambda i: i.vehicle_id)
    actions = [i for i in influences if isinstance(i, Action)]
    additions = sorted((i for i in influences if isinstance(i, AddVehicle)),
                       key=lambda i: (i.spec.road, i.spec.lane, i.spec.position))

    for infl in removals:
        found = None
        for cluster in state.clusters.values():
            if infl.vehicle_id in cluster.vehicles:
                found = cluster
                break
        if found is None:
            raise UnknownTarget(f"no vehicle {infl.vehicle_id!r}")
        del found.vehicles[infl.vehicle_id]
        state.ledger.absorbed += 1

    for action in actions:
        _apply_action(state, action)

    scene = Scene(state, EngineConfig())
    for infl in additions:
        if not _try_insert_spec(state, scene, infl.spec):
            if infl.generator_id is not None:
                gen = {g.id: g for g in state.generators}.get(infl.generator_id)
                if gen is None:
                    raise UnknownTarget(f"no generator {infl.generator_id!r}")
                gen.retry.append(infl.spec)
            else:
                raise SimulationError(
                    f"insertion on {infl.spec.road} lane {infl.spec.lane} blocked "
                    f"and no generator queue given")
        else:
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
                if self.config.abort_at_step is not None \
                        and state.step == self.config.abort_at_step:
                    raise FaultInjected(f"configured abort at step {state.step}")
                advance_step(state, self.config)
                self.report.steps_executed += 1
                self._notify("on_step_end", state)
            self._notify("on_final", state)
            return state
        except Exception as exc:
            self.report.error = repr(exc)
            self._notify("on_error", exc)
            raise
        finally:
            self.report.wall_time = time.perf_counter() - started

