"""Microscopic vehicle dynamics.

Car following uses the intelligent-driver acceleration law; lane changing
uses an incentive/safety trade-off weighted by a politeness factor.  A
three-part behavior chain arbitrates between mandatory navigation changes,
opportunistic overtaking, and plain longitudinal control.

The scalar functions take one vehicle at a time and are the reference.
`behavior_chains` is their array form over many vehicles, which the engine
runs once per step; entry by entry it returns exactly the scalar chain's
floats.

Conventions: `position` is the front bumper, measured from the road start.
A gap is always bumper-to-bumper (leader rear minus own front).  All
functions here are pure; state mutation is the engine's job.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

INF = float("inf")

#: direction encoding for lane changes (lane 0 is leftmost)
LEFT, STAY, RIGHT = -1, 0, 1
#: distance to the next node within which a needed lane change is mandatory, m
NAV_HORIZON = 300.0


class NonPositiveGap(ValueError):
    """Car-following evaluated with a vanishing or negative gap."""


class DesiredSpeedReached(ValueError):
    """No finite equilibrium gap exists at or above the desired speed."""


@dataclass(frozen=True)
class DriverParams:
    """Driving-style parameters shared by car following and lane changing.

    v0      desired speed, m/s
    T       desired time headway, s
    a_max   maximum acceleration, m/s^2
    b       comfortable deceleration, m/s^2
    delta   acceleration exponent
    s0      minimum bumper-to-bumper gap, m
    p       politeness factor in [0, 1]
    da_th   lane-change incentive threshold, m/s^2
    b_safe  maximum deceleration a change may impose on the new follower, m/s^2
    """

    v0: float = 33.33
    T: float = 1.6
    a_max: float = 0.73
    b: float = 1.67
    delta: float = 4.0
    s0: float = 2.0
    p: float = 0.3
    da_th: float = 0.1
    b_safe: float = 4.0

    def __post_init__(self):
        if min(self.v0, self.T, self.a_max, self.b, self.s0, self.b_safe) <= 0:
            raise ValueError("v0, T, a_max, b, s0 and b_safe must be positive")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if not 0 <= self.p <= 1:
            raise ValueError("politeness must lie in [0, 1]")
        if self.da_th < 0:
            raise ValueError("incentive threshold must be >= 0")

    @cached_property
    def packed(self) -> bytes:
        """The nine parameters as float64 bytes in field order, the row
        `DriverArrays.stack` reads."""
        return struct.pack("9d", self.v0, self.T, self.a_max, self.b, self.delta,
                           self.s0, self.p, self.da_th, self.b_safe)


# the nine parameter names in field order, as scenario files spell them
PARAM_NAMES = tuple(f.name for f in fields(DriverParams))


@dataclass
class Vehicle:
    """Microscopic particle: kinematic state plus driving style and route."""

    id: str
    road: str
    lane: int
    position: float            # m, front bumper from road start
    speed: float               # m/s
    length: float = 4.0
    params: DriverParams = field(default_factory=DriverParams)
    route: object = None       # network.Route or None (follow unique turns)
    # stop signs already served, as (road id, sign position) pairs
    satisfied_stops: set = field(default_factory=set)


@dataclass(frozen=True)
class AdjacentView:
    """What the driver sees in one neighboring lane."""

    leader_gap: float = INF        # to prospective leader, bumper-to-bumper
    leader_dv: float = 0.0         # own speed minus prospective leader's
    follower_gap: float = INF      # prospective follower's front to own rear
    follower_speed: float = 0.0


@dataclass(frozen=True)
class Perception:
    """One vehicle's view of its surroundings at a consistent instant."""

    leader_gap: float = INF
    leader_dv: float = 0.0
    speed_limit: float = INF       # effective limit at the current position
    left: AdjacentView | None = None
    right: AdjacentView | None = None
    follower_gap: float = INF      # same-lane follower, for politeness terms
    follower_speed: float = 0.0


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
    must be resolved by the caller, they are not a driving situation.
    """
    if v < 0:
        raise ValueError(f"speed must be non-negative, got {v}")
    if s <= 0:
        raise NonPositiveGap(f"gap must be positive, got {s}")
    free = (v / params.v0) ** params.delta
    interaction = 0.0 if math.isinf(s) else (desired_gap(v, dv, params) / s) ** 2
    return params.a_max * (1.0 - free - interaction)


def equilibrium_gap(v: float, params: DriverParams) -> float:
    """Gap at which a follower at speed v exactly holds its speed.

    Closed form of idm_acceleration(v, s, 0) = 0; only defined below the
    desired speed."""
    if v >= params.v0:
        raise DesiredSpeedReached(f"no equilibrium gap at v={v} >= v0={params.v0}")
    return desired_gap(v, 0.0, params) / math.sqrt(1.0 - (v / params.v0) ** params.delta)


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

@dataclass(frozen=True)
class BehaviorContext:
    """Navigation facts the chain needs beyond raw perception."""

    lane_count: int
    permitted_lanes: frozenset[int] | None = None   # None: any lane continues
    distance_to_node: float = INF                   # m to the next node


class VehicleIntent(NamedTuple):
    """The single influence a vehicle emits each step."""

    vehicle_id: str
    acceleration: float
    lane_change: int = STAY
    reason: str = "acceleration"


def behavior_chain(vehicle: Vehicle, perception: Perception,
                   ctx: BehaviorContext) -> VehicleIntent:
    """Arbitrate navigation, overtaking and car following, in that order.

    Navigation fires when the current lane cannot reach the route's next
    road and the node is within the navigation horizon; it is gated by the
    safety criterion only.  Otherwise the incentive model may change lanes.
    Exactly one intent is returned either way.
    """
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
            return VehicleIntent(vehicle.id, accel, direction, "navigation")
        return VehicleIntent(vehicle.id, accel, STAY, "navigation_blocked")

    decision = mobil_decide(perception, v, eff, vehicle.length)
    if decision != STAY:
        return VehicleIntent(vehicle.id, accel, decision, "overtaking")
    return VehicleIntent(vehicle.id, accel, STAY, "acceleration")


# ---------------------------------------------------------------------------
# Array form
# ---------------------------------------------------------------------------
#
# Entry i of every array describes vehicle i.  Each formula keeps the scalar
# code's operand order, and min/max keep Python's choice between equal
# operands, so every float equals the scalar chain's.  Powers go through
# Python's own `**`: `np.power` differs from it in the last bit on some
# inputs.

#: lane offset of each row of a view stack: row d is the lane in direction d
VIEW_OFFSETS = np.array([[STAY], [RIGHT], [LEFT]])


class DriverArrays(NamedTuple):
    """`DriverParams` of many vehicles, one float64 array per field."""

    v0: np.ndarray
    T: np.ndarray
    a_max: np.ndarray
    b: np.ndarray
    delta: np.ndarray
    s0: np.ndarray
    p: np.ndarray
    da_th: np.ndarray
    b_safe: np.ndarray

    @classmethod
    def stack(cls, params: list[DriverParams]) -> DriverArrays:
        rows = np.frombuffer(b"".join([p.packed for p in params]), dtype=np.float64)
        return cls(*rows.reshape(len(params), 9).T)


@dataclass(frozen=True)
class PerceptionArrays:
    """`Perception` and `BehaviorContext` of n vehicles.

    The view fields are (3, n) stacks whose row d is the lane in direction
    d (STAY, RIGHT, LEFT: rows 0, 1 and -1), so row 0 holds the scalar
    Perception's own fields and rows 1 and -1 its `right` and `left` views.
    Where `exists` is False the lane is missing, the scalar view is None and
    the other entries are not read.  `permitted_lanes` is a list read only
    where `distance_to_node` is below NAV_HORIZON."""

    exists: np.ndarray
    leader_gap: np.ndarray
    leader_dv: np.ndarray
    follower_gap: np.ndarray
    follower_speed: np.ndarray
    speed_limit: np.ndarray
    distance_to_node: np.ndarray
    permitted_lanes: list


def _py_min(a, b):
    """Python's min(a, b) entry by entry: `a` unless `b` is smaller."""
    return np.where(b < a, b, a)


def _py_max(a, b):
    """Python's max(a, b) entry by entry: `a` unless `b` is larger."""
    return np.where(b > a, b, a)


def _powers(bases: np.ndarray, exponents, where: np.ndarray) -> np.ndarray:
    """bases ** exponents through Python's float power, at `where` unless the
    base is zero or negative; 0.0 elsewhere.  A zero base gives 0.0 for the
    exponents used here (>= 1); a negative one makes the scalar call raise
    before its power."""
    at = where & ~(bases <= 0.0)
    out = np.zeros(bases.shape)
    if isinstance(exponents, np.ndarray):
        full = np.empty(bases.shape)
        full[...] = exponents
        exponents = full[at].tolist()
    else:
        exponents = repeat(exponents)
    out[at] = list(map(pow, bases[at].tolist(), exponents))
    return out


def _navigation(lane: np.ndarray, perception: PerceptionArrays):
    """Which vehicles must change lanes for their route, and to which side:
    toward the nearest permitted lane, the lower index on a tie."""
    must = np.zeros(len(lane), dtype=bool)
    side = np.zeros(len(lane), dtype=np.int64)
    lanes = lane.tolist()
    for i in np.flatnonzero(perception.distance_to_node < NAV_HORIZON).tolist():
        permitted = perception.permitted_lanes[i]
        if not permitted or lanes[i] in permitted:
            continue
        must[i] = True
        target = min(permitted, key=lambda l: (abs(l - lanes[i]), l))
        side[i] = RIGHT if target > lanes[i] else LEFT
    return must, side


def behavior_chains(speed: np.ndarray, length: np.ndarray, lane: np.ndarray,
                    params: DriverArrays, perception: PerceptionArrays):
    """`behavior_chain` for n vehicles at once.

    Returns (acceleration, lane_change), one entry per vehicle: the scalar
    intent's `acceleration` and `lane_change` (LEFT, STAY or RIGHT).  Raises
    `idm_acceleration`'s ValueError, for the first negative entry of `speed`,
    when any is negative.  Gaps must be positive wherever IDM reads them:
    the perception floors leader gaps at a positive minimum, and the rows
    below mask every other non-positive gap out.  IDM runs in stages of
    stacked rows: first the driver's own acceleration and both sides'
    safety, then, where a side is safe, both sides' incentives, then the
    navigation gate.
    """
    negative = speed[speed < 0]
    if negative.size:
        raise ValueError(f"speed must be non-negative, got {negative[0].item()}")
    n = len(speed)
    v = speed
    lg, ldv = perception.leader_gap, perception.leader_dv
    fg, fs = perception.follower_gap, perception.follower_speed
    root = 2.0 * np.sqrt(params.a_max * params.b)

    def accelerations(v, s, dv, free, where):
        """idm_acceleration over stacked rows given their free-road terms
        (v / v0) ** delta; 0.0 outside `where`."""
        dynamic = v * params.T + v * dv / root
        ratio = (params.s0 + _py_max(0.0, dynamic)) / s
        interaction = _powers(ratio, 2, where & ~np.isinf(s))
        return np.where(where, params.a_max * (1.0 - free - interaction), 0.0)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v0 = _py_max(_py_min(params.v0, perception.speed_limit), 0.1)
        # the driver's own acceleration and each side's safety criterion
        base = perception.exists[1:] & ~(lg[1:] <= 0) & ~(fg[1:] <= 0)
        where = np.concatenate((np.ones((1, n), dtype=bool), base))
        speeds = np.concatenate((v[None], fs[1:]))
        free = _powers(speeds / v0, params.delta, where)
        a = accelerations(speeds, np.concatenate((lg[:1], fg[1:])),
                          np.concatenate((ldv[:1], fs[1:] - v)), free, where)
        accel, a_new = a[0], a[1:]
        safe = base & (a_new >= -params.b_safe)

        # incentives of both sides, with the old follower's terms shared
        decision = np.zeros(n, dtype=np.int64)
        if safe.any():
            old = safe.any(axis=0) & ~((fg[0] <= 0) | np.isinf(fg[0]))
            free_old = _powers(fs[0] / v0, params.delta, old)
            gap_now = fg[1:] + length + lg[1:]
            dv_now = np.where(np.isfinite(lg[1:]), fs[1:] - (v - ldv[1:]), 0.0)
            gap_after = fg[0] + length + lg[0]
            dv_after = np.where(np.isfinite(lg[0]), fs[0] - (v - ldv[0]), 0.0)
            b = accelerations(
                np.concatenate((v[None], v[None], fs[1:], fs[:1], fs[:1])),
                np.concatenate((lg[1:], gap_now, fg[:1], gap_after[None])),
                np.concatenate((ldv[1:], dv_now, (fs[0] - v)[None], dv_after[None])),
                np.concatenate((free[:1], free[:1], free[1:], free_old[None], free_old[None])),
                np.concatenate((safe, safe, old[None], old[None])))
            a_self_new, a_new_now, a_old_now, a_old_after = b[:2], b[2:4], b[4], b[5]
            gain = (a_self_new - accel
                    + params.p * ((a_new - a_new_now) + (a_old_after - a_old_now)))
            right_ok, left_ok = safe & (gain > params.da_th)
            go_left = left_ok & (~right_ok | (gain[1] > gain[0]))
            decision = np.where(go_left, LEFT, np.where(right_ok, RIGHT, STAY))

        # navigation: hold back before the node; change only where safe
        # under the driver's own desired speed
        must, side = _navigation(lane, perception)
        if must.any():
            columns = np.arange(n)
            exists, gap, fol_gap, fol_speed = (
                rows[side, columns] for rows in (perception.exists, lg, fg, fs))
            target = must & exists & ~(gap <= 0) & ~(fol_gap <= 0)
            hold = must & (perception.distance_to_node > 0)
            c = accelerations(np.array((v, fol_speed)),
                              np.array((perception.distance_to_node, fol_gap)),
                              np.array((v, fol_speed - v)),
                              np.array((free[0], _powers(fol_speed / params.v0, params.delta,
                                                         target))),
                              np.array((hold, target)))
            accel = np.where(hold & (c[0] < accel), c[0], accel)
            nav_ok = target & (c[1] >= -params.b_safe)
            decision = np.where(must, np.where(nav_ok, side, STAY), decision)
    return accel, decision
