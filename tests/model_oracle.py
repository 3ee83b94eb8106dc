"""Scalar driving and flow models, one vehicle or one cell at a time: the
reference that the engine's batch kernels must equal float for float.

`behavior_chain` is the reference of `micro.behavior_chains` (and of its
one-vehicle form `micro.behavior_chain`), `demand` and `supply` of
`macro.demand_supply`, `cell_step` of `macro.CellStore.step`, and
`mean_speed` of each segment's mean in `macro.CellStore.observe`.  Each
formula is written as the models state it: IDM (Treiber, Hennecke and
Helbing 2000), MOBIL (Kesting, Treiber and Helbing 2007) and the cell
transmission model (Daganzo 1994).  Conventions follow `hybridflow.micro`:
a gap is bumper-to-bumper, lane 0 is leftmost."""

from __future__ import annotations

import math
from typing import NamedTuple

from hybridflow.macro import FundamentalDiagram, MacroCell, MacroSegment, cell_mean_speed
from hybridflow.micro import (INF, LEFT, NAV_HORIZON, RIGHT, STAY, AdjacentView,
                              BehaviorContext, DriverParams, NonPositiveGap, Perception,
                              Vehicle)


# ---------------------------------------------------------------------------
# Longitudinal model
# ---------------------------------------------------------------------------

def desired_gap(v: float, dv: float, params: DriverParams) -> float:
    """Dynamical desired gap, floored at the standstill gap s0."""
    dynamic = v * params.T + v * dv / (2.0 * math.sqrt(params.a_max * params.b))
    return params.s0 + max(0.0, dynamic)


def idm_acceleration(v: float, s: float, dv: float, params: DriverParams) -> float:
    """Acceleration from own speed v, gap s and closing speed dv.

    s may be +inf (free road).  Raises NonPositiveGap for s <= 0: overlaps
    must be resolved by the caller, they are not a driving situation."""
    if v < 0:
        raise ValueError(f"speed must be non-negative, got {v}")
    if s <= 0:
        raise NonPositiveGap(f"gap must be positive, got {s}")
    free = (v / params.v0) ** params.delta
    interaction = 0.0 if math.isinf(s) else (desired_gap(v, dv, params) / s) ** 2
    return params.a_max * (1.0 - free - interaction)


# ---------------------------------------------------------------------------
# Lane changing
# ---------------------------------------------------------------------------

def _follower_accel_after(view: AdjacentView, v_self: float,
                          params: DriverParams) -> float:
    """New follower's acceleration if we moved in front of it."""
    if view.follower_gap <= 0:
        return -INF
    return idm_acceleration(view.follower_speed, view.follower_gap,
                            view.follower_speed - v_self, params)


def is_change_safe(view: AdjacentView | None, v_self: float,
                   params: DriverParams) -> bool:
    """Safety criterion: target slot exists and the prospective follower is
    not forced below -b_safe."""
    if view is None or view.leader_gap <= 0 or view.follower_gap <= 0:
        return False
    return _follower_accel_after(view, v_self, params) >= -params.b_safe


def _incentive(perception: Perception, view: AdjacentView, v: float,
               own_length: float, params: DriverParams) -> float:
    """Acceleration gain of a change, politeness-weighted over neighbors."""
    a_self = idm_acceleration(v, perception.leader_gap, perception.leader_dv, params)
    a_self_new = idm_acceleration(v, view.leader_gap, view.leader_dv, params)

    # prospective follower: now trails the target-lane leader, would trail us
    a_new = _follower_accel_after(view, v, params)
    gap_now = view.follower_gap + own_length + view.leader_gap
    dv_now = view.follower_speed - (v - view.leader_dv) if math.isfinite(view.leader_gap) else 0.0
    a_new_now = idm_acceleration(view.follower_speed, gap_now, dv_now, params) \
        if view.follower_gap > 0 else 0.0

    # old follower: trails us now, would trail our current leader
    if perception.follower_gap <= 0 or math.isinf(perception.follower_gap):
        a_old_now = a_old_after = 0.0
    else:
        a_old_now = idm_acceleration(perception.follower_speed, perception.follower_gap,
                                     perception.follower_speed - v, params)
        gap_after = perception.follower_gap + own_length + perception.leader_gap
        dv_after = (perception.follower_speed - (v - perception.leader_dv)
                    if math.isfinite(perception.leader_gap) else 0.0)
        a_old_after = idm_acceleration(perception.follower_speed, gap_after, dv_after, params)

    return (a_self_new - a_self
            + params.p * ((a_new - a_new_now) + (a_old_after - a_old_now)))


def mobil_decide(perception: Perception, v: float, params: DriverParams,
                 own_length: float = 4.0) -> int:
    """Pick LEFT, RIGHT or STAY.

    A side is eligible when the safety criterion holds and the incentive
    exceeds the threshold; the larger incentive wins, ties go right."""
    candidates: list[tuple[float, int]] = []
    for direction, view in ((RIGHT, perception.right), (LEFT, perception.left)):
        if not is_change_safe(view, v, params):
            continue
        gain = _incentive(perception, view, v, own_length, params)
        if gain > params.da_th:
            candidates.append((gain, direction))
    if not candidates:
        return STAY
    # max incentive; on an exact tie the earlier entry (RIGHT) survives
    best = max(candidates, key=lambda c: c[0])
    return best[1]


# ---------------------------------------------------------------------------
# Behavior chain
# ---------------------------------------------------------------------------

class Intent(NamedTuple):
    """`micro.VehicleIntent` plus the rule of the chain that produced it."""

    vehicle_id: str
    acceleration: float
    lane_change: int
    reason: str


def behavior_chain(vehicle: Vehicle, perception: Perception,
                   ctx: BehaviorContext) -> Intent:
    """Arbitrate navigation, overtaking and car following, in that order.

    Navigation fires when the current lane cannot reach the route's next
    road and the node is within the navigation horizon; it is gated by the
    safety criterion only.  Otherwise the incentive model may change lanes.
    Exactly one intent is returned either way."""
    params = vehicle.params
    v = vehicle.speed
    v0_eff = min(params.v0, perception.speed_limit)
    eff = DriverParams(v0=max(v0_eff, 0.1), T=params.T, a_max=params.a_max,
                       b=params.b, delta=params.delta, s0=params.s0,
                       p=params.p, da_th=params.da_th, b_safe=params.b_safe)

    accel = idm_acceleration(v, perception.leader_gap, perception.leader_dv, eff)

    # None means any lane continues and an empty set that none does: either
    # way navigation has no lane to aim for
    must_change = (bool(ctx.permitted_lanes)
                   and vehicle.lane not in ctx.permitted_lanes
                   and ctx.distance_to_node < NAV_HORIZON)
    if must_change:
        # hold back as if the node were a standing obstacle until the change lands
        if ctx.distance_to_node > 0:
            accel = min(accel, idm_acceleration(v, ctx.distance_to_node, v, eff))
        target = min(ctx.permitted_lanes, key=lambda l: (abs(l - vehicle.lane), l))
        direction = RIGHT if target > vehicle.lane else LEFT
        view = perception.right if direction == RIGHT else perception.left
        if is_change_safe(view, v, params):
            return Intent(vehicle.id, accel, direction, "navigation")
        return Intent(vehicle.id, accel, STAY, "navigation_blocked")

    decision = mobil_decide(perception, v, eff, vehicle.length)
    if decision != STAY:
        return Intent(vehicle.id, accel, decision, "overtaking")
    return Intent(vehicle.id, accel, STAY, "acceleration")


# ---------------------------------------------------------------------------
# Cell transmission
# ---------------------------------------------------------------------------

def demand(cell: MacroCell, fd: FundamentalDiagram) -> float:
    """Sending capacity of a cell toward downstream, veh/s over all lanes."""
    return cell.lanes * min(fd.v_f * cell.rho, cell.capacity_factor * fd.q_max)


def supply(cell: MacroCell, fd: FundamentalDiagram) -> float:
    """Receiving capacity of a cell from upstream, veh/s over all lanes."""
    return cell.lanes * min(cell.capacity_factor * fd.q_max,
                            fd.w * (fd.rho_jam - cell.rho))


def cell_step(segment: MacroSegment, upstream_inflow: float,
              downstream_supply: float, dt: float) -> tuple[float, float]:
    """Advance the segment one step, cell by cell; returns (accepted inflow,
    outflow) in veh/s.  Each interface carries min(demand, supply), the
    boundaries are capped by the first cell's supply and the offered
    downstream supply.  Mutates segment.rho in place."""
    fd = segment.fd
    cells = [segment.cell(i) for i in range(len(segment))]
    flux = ([min(upstream_inflow, supply(cells[0], fd))]
            + [min(demand(up, fd), supply(down, fd)) for up, down in zip(cells, cells[1:])]
            + [min(demand(cells[-1], fd), downstream_supply)])
    for i, cell in enumerate(cells):
        rho = cell.rho + dt / (cell.dx * cell.lanes) * (flux[i] - flux[i + 1])
        segment.rho[i] = min(max(rho, 0.0), fd.rho_jam)
    return flux[0], flux[-1]


def mean_speed(segment: MacroSegment) -> float:
    """Mass-weighted mean speed of a segment, v_f when it holds no mass; the
    mass and the mass times speed are summed over the cells left to right."""
    fd = segment.fd
    total = moving = 0.0
    for i in range(len(segment)):
        cell = segment.cell(i)
        mass = cell.rho * cell.dx * cell.lanes
        total += mass
        moving += mass * cell_mean_speed(cell, fd)
    return fd.v_f if total <= 0 else moving / total
