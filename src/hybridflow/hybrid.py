"""Clusters and micro/macro boundary bookkeeping.

A cluster is a contiguous extent of one chain simulated under exactly one
representation: vehicle-by-vehicle (micro) or as cell densities (macro).
Boundary interfaces between adjacent clusters carry fractional-vehicle
accumulators and pending-release queues so that switching representation
and exchanging flux never create or destroy mass.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .macro import FundamentalDiagram, MacroSegment, cell_mean_speed
from .micro import Vehicle
from .network import Chain, RoadNetwork

MICRO = "micro"
MACRO = "macro"

#: pending releases beyond this report zero supply to the upstream segment
RELEASE_QUEUE_THRESHOLD = 5


class OverCapacity(RuntimeError):
    """More vehicles in an extent than its jam capacity can hold."""


def pos_key(position: float) -> int:
    """Chain position rounded to the millimetre: the key of interfaces, cell
    persistence counters and per-boundary release streams."""
    return int(round(position * 1000))


@dataclass
class Cluster:
    """One extent of a chain with exactly one active representation."""

    id: str
    chain_id: str
    start: float                    # chain coordinate, inclusive
    end: float                      # chain coordinate, exclusive
    representation: str = MICRO
    vehicles: dict[str, Vehicle] = field(default_factory=dict)
    segment: MacroSegment | None = None
    cell_starts: np.ndarray | None = None   # chain coordinate per cell

    @property
    def length(self) -> float:
        return self.end - self.start

    def mass(self) -> float:
        if self.representation == MICRO:
            return float(len(self.vehicles))
        return self.segment.total_mass()


@dataclass
class BoundaryInterface:
    """Coupling state between an upstream and a downstream cluster."""

    id: str
    chain_id: str
    position: float                 # chain coordinate = downstream start
    upstream_id: str
    downstream_id: str
    lanes: int                      # lane count of the road at the boundary
    carryover: np.ndarray = None    # fractional vehicles, one slot per lane
    pending: deque = field(default_factory=deque)
    release_lane_cursor: int = 0

    def __post_init__(self):
        if self.carryover is None:
            self.carryover = np.zeros(self.lanes)

    def mass(self) -> float:
        return float(np.sum(self.carryover)) + float(len(self.pending))

    def throttled(self) -> bool:
        return len(self.pending) > RELEASE_QUEUE_THRESHOLD

    def accumulate(self, outflow: float, dt: float) -> None:
        """Bank one step of macro outflow as fractional vehicles per lane."""
        self.carryover += outflow * dt / self.lanes

    def due_release_lanes(self) -> list[int]:
        """Lanes owing a whole vehicle; decrements their accumulators."""
        due: list[int] = []
        for lane in range(self.lanes):
            while self.carryover[lane] >= 1.0 - 1e-9:
                self.carryover[lane] -= 1.0
                due.append(lane)
        return due

    def add_fractional(self, mass: float) -> None:
        """Bank leftover conversion mass, spread equally across lanes."""
        if mass > 0:
            self.carryover += mass / self.lanes


# ---------------------------------------------------------------------------
# Cell layout
# ---------------------------------------------------------------------------

def build_cell_layout(chain: Chain, network: RoadNetwork, start: float,
                      end: float, target_dx: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell geometry over [start, end): (dx, lanes, cell start positions).

    Cells never straddle road boundaries; each per-road piece is divided
    into equal cells whose count rounds the piece length to the target."""
    dxs: list[float] = []
    lanes: list[int] = []
    starts: list[float] = []
    for road_id, a, b in chain.pieces(start, end):
        piece = b - a
        n = max(1, round(piece / target_dx))
        cell = piece / n
        off = chain.offset_of(road_id)
        lane_count = network.roads[road_id].lane_count
        for i in range(n):
            dxs.append(cell)
            lanes.append(lane_count)
            starts.append(off + a + i * cell)
    return np.array(dxs), np.array(lanes, dtype=float), np.array(starts)


def lanes_at(chain: Chain, network: RoadNetwork, chain_pos: float) -> int:
    """Lane count of the road under a chain coordinate (wraps on cycles)."""
    if chain_pos >= chain.length - 1e-9:
        chain_pos = 0.0 if chain.cyclic else chain.length - 1e-9
    road_id, _ = chain.locate(max(chain_pos, 0.0))
    return network.roads[road_id].lane_count


# ---------------------------------------------------------------------------
# Flux arithmetic
# ---------------------------------------------------------------------------

def micro_to_macro_flux(crossed: int, dt: float) -> float:
    """Inflow rate offered to the downstream segment by crossing vehicles."""
    return crossed / dt


def boundary_gate_open(segment: MacroSegment, incoming_lanes: int) -> bool:
    """True when the first macro cell can seat one more vehicle per lane.

    When closed, upstream micro vehicles are held by a virtual standing
    leader at the boundary instead of crossing."""
    return segment.room(0) >= incoming_lanes


def absorb_crossed_remainder(segment: MacroSegment, inflow: float,
                             accepted: float, dt: float) -> None:
    """Bank crossed mass the step's supply did not take into the first cell.

    Vehicles that physically crossed are already gone from the micro side,
    so their whole mass must live in the segment."""
    leftover = (inflow - accepted) * dt
    if leftover <= 0:
        return
    cell_mass = segment.dx[0] * segment.lanes[0]
    segment.rho[0] += leftover / cell_mass
    if segment.rho[0] > segment.fd.rho_jam + 1e-9:
        raise OverCapacity(
            f"boundary cell density {segment.rho[0]:.6f} exceeds jam density; "
            f"gate should have blocked the crossing")
    segment.rho[0] = min(segment.rho[0], segment.fd.rho_jam)


def macro_to_micro_release(interface: BoundaryInterface, outflow: float,
                           boundary_cell, fd: FundamentalDiagram, dt: float,
                           make_vehicle, try_insert) -> list[Vehicle]:
    """Turn banked macro outflow into whole vehicles downstream.

    `make_vehicle(lane, speed)` builds a candidate (drawing driver
    parameters from the caller's seeded stream); `try_insert(vehicle)`
    places it when the insertion gap allows and reports success.  Pending
    candidates from earlier steps are retried first, in FIFO order."""
    interface.accumulate(outflow, dt)
    speed = cell_mean_speed(boundary_cell, fd)

    inserted: list[Vehicle] = []
    retry = deque()
    while interface.pending:
        veh = interface.pending.popleft()
        if try_insert(veh):
            inserted.append(veh)
        else:
            retry.append(veh)
            # FIFO: nothing behind a blocked candidate may jump it
            retry.extend(interface.pending)
            interface.pending.clear()
    interface.pending = retry

    for lane in interface.due_release_lanes():
        veh = make_vehicle(lane, speed)
        if not interface.pending and try_insert(veh):
            inserted.append(veh)
        else:
            interface.pending.append(veh)
    return inserted


# ---------------------------------------------------------------------------
# Representation conversion
# ---------------------------------------------------------------------------

def aggregate_cluster(cluster: Cluster, chain: Chain, network: RoadNetwork,
                      fd: FundamentalDiagram, target_dx: float) -> None:
    """Replace vehicle state by cell densities; total mass is the vehicle count.

    Cells that would exceed jam density push the excess to their upstream
    neighbor, mirroring queue spillback; if the whole extent cannot hold the
    vehicles the state was already inconsistent and OverCapacity is raised."""
    if cluster.representation != MICRO:
        raise ValueError(f"cluster {cluster.id} is not micro")
    dx, lanes, starts = build_cell_layout(chain, network, cluster.start,
                                          cluster.end, target_dx)
    counts = np.zeros(len(dx))
    bounds = np.append(starts, cluster.end)
    for veh in cluster.vehicles.values():
        pos = chain.to_chain_pos(veh.road, veh.position)
        i = int(np.searchsorted(bounds, pos, side="right") - 1)
        counts[min(max(i, 0), len(dx) - 1)] += 1.0

    capacity = fd.rho_jam * dx * lanes
    for i in range(len(dx) - 1, 0, -1):
        if counts[i] > capacity[i]:
            counts[i - 1] += counts[i] - capacity[i]
            counts[i] = capacity[i]
    if counts[0] > capacity[0] + 1e-9:
        raise OverCapacity(f"{counts.sum():.0f} vehicles exceed jam capacity "
                           f"{capacity.sum():.2f} of cluster {cluster.id}")
    counts[0] = min(counts[0], capacity[0])

    cluster.segment = MacroSegment(dx=dx, lanes=lanes, rho=counts / (dx * lanes), fd=fd)
    cluster.cell_starts = starts
    cluster.vehicles = {}
    cluster.representation = MACRO


def disaggregate_cluster(cluster: Cluster, chain: Chain, network: RoadNetwork,
                         make_vehicle, min_spacing: float = 6.0) -> tuple[list[Vehicle], float]:
    """Replace cell densities by spaced vehicles; returns (vehicles, residual).

    Whole vehicles are carved out of the running density total with a single
    accumulator scanned downstream to upstream, so the count differs from
    the true mass by less than one vehicle; the residual is returned for the
    caller to bank in the upstream carryover.  `make_vehicle(road, lane,
    position, speed)` draws driver parameters from the caller's stream.
    `min_spacing` is the tightest front-to-front spacing ever placed
    (standstill gap plus vehicle length); cells denser than that push the
    excess to upstream cells."""
    if cluster.representation != MACRO:
        raise ValueError(f"cluster {cluster.id} is not macro")
    seg = cluster.segment
    speeds = seg.cell_speeds()
    vehicles: list[Vehicle] = []
    acc = 0.0
    spill = 0.0   # vehicles pushed upstream by the minimum-spacing rule
    for i in range(len(seg) - 1, -1, -1):
        dx = float(seg.dx[i])
        lanes = int(seg.lanes[i])
        speed = float(speeds[i])
        start = float(cluster.cell_starts[i])
        road_id, road_pos = chain.locate(min(start + 1e-6, chain.length))
        road_pos = start - chain.offset_of(road_id)
        speed = min(speed, network.roads[road_id].speed_limit)
        per_lane = float(seg.rho[i]) * dx
        for lane in range(lanes):
            acc += per_lane + spill
            spill = 0.0
            k = int(math.floor(acc + 1e-9))
            acc -= k
            if k <= 0:
                continue
            k_max = max(1, int(math.floor(dx / min_spacing)))
            if k > k_max:
                spill += k - k_max
                k = k_max
            spacing = dx / k
            for j in range(k):
                vehicles.append(make_vehicle(road_id, lane,
                                             road_pos + dx - spacing * (j + 0.5),
                                             speed))
    residual = acc + spill
    cluster.segment = None
    cluster.cell_starts = None
    cluster.vehicles = {v.id: v for v in vehicles}
    cluster.representation = MICRO
    return vehicles, residual


def total_mass(clusters, interfaces=(), generators=()) -> float:
    """Conservation audit: vehicles + densities + accumulators + queues."""
    mass = 0.0
    for c in clusters:
        mass += c.mass()
    for itf in interfaces:
        mass += itf.mass()
    for gen in generators:
        mass += gen.mass()
    return mass
