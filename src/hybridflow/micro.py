"""Microscopic vehicle dynamics.

Car following uses the intelligent-driver acceleration law; lane changing
uses an incentive/safety trade-off weighted by a politeness factor.  A
three-part behavior chain arbitrates between mandatory navigation changes,
opportunistic overtaking, and plain longitudinal control.

`behavior_chains` runs the chain over many vehicles at once, as arrays;
the engine calls it once per step, and `behavior_chain` is its form for
one vehicle.  The scalar statement of the models, one vehicle at a time,
is the tests' oracle (`tests/model_oracle.py`): entry by entry the batch
returns exactly its floats.  `equilibrium_gap` is the closed-form steady
state, which no kernel computes.

Conventions: `position` is the front bumper, measured from the road start.
A gap is always bumper-to-bumper (leader rear minus own front).  All
functions here are pure; state mutation is the engine's job.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields
from functools import cached_property
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


def _power(base: float, exponent: float) -> float:
    """IDM's power rule: base ** exponent as the exact IEEE products
    base * base for exponent 2 and (base * base) * (base * base) for 4, and
    Python's `**` for any other exponent."""
    if exponent == 2:
        return base * base
    if exponent == 4:
        square = base * base
        return square * square
    return base ** exponent


def equilibrium_gap(v: float, params: DriverParams) -> float:
    """Gap at which a follower at speed v exactly holds its speed: the
    closed-form steady state of the acceleration law, defined only below
    the desired speed."""
    if v >= params.v0:
        raise DesiredSpeedReached(f"no equilibrium gap at v={v} >= v0={params.v0}")
    return (params.s0 + max(0.0, v * params.T)) \
        / math.sqrt(1.0 - _power(v / params.v0, params.delta))


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


def behavior_chain(vehicle: Vehicle, perception: Perception,
                   ctx: BehaviorContext) -> VehicleIntent:
    """`behavior_chains` for one vehicle, from its scalar perception.

    Raises NonPositiveGap when the leader gap is not positive, and
    ValueError when the speed is negative."""
    if perception.leader_gap <= 0:
        raise NonPositiveGap(f"gap must be positive, got {perception.leader_gap}")
    accel, change = behavior_chains(
        np.array([vehicle.speed], dtype=float), np.array([vehicle.length], dtype=float),
        np.array([vehicle.lane]), DriverArrays.stack([vehicle.params]),
        PerceptionArrays.of([perception], [ctx]))
    return VehicleIntent(vehicle.id, accel.item(), change.item())


# ---------------------------------------------------------------------------
# Array form
# ---------------------------------------------------------------------------
#
# Entry i of every array describes vehicle i.  Each formula keeps the
# operand order of the scalar models in `tests/model_oracle.py`, and min/max
# keep Python's choice between equal operands, so every float equals the
# scalar chain's.  Powers follow `_power`, entry by entry: for IDM's
# exponents 2 and 4 (the default delta of Treiber, Hennecke and Helbing
# 2000) it takes IEEE products, each rounded to nearest on every CPU, which
# the batch computes as array products; other exponents go through
# Python's `**`.  Not `np.power`: its last bit depends on the SIMD code
# numpy dispatches to on the CPU.  Nor libm's `pow` for 2 and 4: its last
# bit is the C library's, and it costs one Python call per entry.

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

    @classmethod
    def of(cls, perceptions: list[Perception],
           contexts: list[BehaviorContext]) -> PerceptionArrays:
        """The arrays of n scalar perceptions and their contexts."""
        missing = AdjacentView()
        views = [(p, p.right or missing, p.left or missing) for p in perceptions]

        def rows(name):
            return np.array([[getattr(view, name) for view in row] for row in views],
                            dtype=float).reshape(-1, 3).T

        return cls(exists=np.array([(True, p.right is not None, p.left is not None)
                                    for p in perceptions], dtype=bool).reshape(-1, 3).T,
                   leader_gap=rows("leader_gap"), leader_dv=rows("leader_dv"),
                   follower_gap=rows("follower_gap"), follower_speed=rows("follower_speed"),
                   speed_limit=np.array([p.speed_limit for p in perceptions], dtype=float),
                   distance_to_node=np.array([c.distance_to_node for c in contexts],
                                             dtype=float),
                   permitted_lanes=[c.permitted_lanes for c in contexts])


def _py_min(a, b):
    """Python's min(a, b) entry by entry: `a` unless `b` is smaller."""
    return np.where(b < a, b, a)


def _py_max(a, b):
    """Python's max(a, b) entry by entry: `a` unless `b` is larger."""
    return np.where(b > a, b, a)


def _squares(bases: np.ndarray, where: np.ndarray) -> np.ndarray:
    """bases * bases at `where` unless the base is zero or negative; 0.0
    elsewhere.  A zero base gives 0.0 for any exponent used here (>= 1); a
    negative one makes the scalar model raise before its power."""
    square = np.where(where & ~(bases <= 0.0), bases, 0.0)
    square *= square
    return square


def _powers(bases: np.ndarray, exponents, where: np.ndarray) -> np.ndarray:
    """`_power` of each base and its exponent (a scalar or an array that
    broadcasts to the bases), masked as `_squares` is.  Exponents 2 and 4
    are array products of the squares; any other exponent goes through
    Python's `**` one entry at a time."""
    square = _squares(bases, where)
    exponents = np.asarray(exponents)
    four = exponents == 4
    if four.all():
        return square * square
    two = exponents == 2
    out = np.where(two, square, square * square)
    other = ~(two | four) & where & ~(bases <= 0.0)
    if other.any():
        out[other] = list(map(_power, bases[other].tolist(),
                              np.broadcast_to(exponents, bases.shape)[other].tolist()))
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
    """The behavior chain for n vehicles at once.

    Returns (acceleration, lane_change), one entry per vehicle: the scalar
    chain's `acceleration` and `lane_change` (LEFT, STAY or RIGHT).  Raises
    the acceleration law's ValueError, for the first negative entry of
    `speed`, when any is negative.  Gaps must be positive wherever IDM reads them:
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
        """The acceleration law over stacked rows given their free-road terms
        (v / v0) ** delta; 0.0 outside `where`."""
        dynamic = v * params.T + v * dv / root
        ratio = (params.s0 + _py_max(0.0, dynamic)) / s
        interaction = _squares(ratio, where & ~np.isinf(s))
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
