"""Car-following and lane-changing unit tests.

Derived expectations are frozen from independent scalar evaluation of the
acceleration law (and bisection for the equilibrium gap), not from the
implementation under test.  The models are tested where the engine runs
them, in the batch kernel `behavior_chains`; the scalar chain of
`model_oracle` is the reference it must equal bit for bit.
"""

import math

import numpy as np
import pytest

import model_oracle
from hybridflow.micro import (AdjacentView, BehaviorContext, DesiredSpeedReached,
                              DriverArrays, DriverParams, NonPositiveGap, Perception,
                              PerceptionArrays, Vehicle, behavior_chain, behavior_chains,
                              _powers, _squares, equilibrium_gap, LEFT, RIGHT, STAY)

P = DriverParams()   # canonical car settings

INF = float("inf")


def scalar_idm(v, s, dv, p=P):
    """Independent re-statement of the acceleration law for cross-checking."""
    s_star = p.s0 + max(0.0, v * p.T + v * dv / (2.0 * math.sqrt(p.a_max * p.b)))
    inter = 0.0 if math.isinf(s) else (s_star / s) ** 2
    return p.a_max * (1.0 - (v / p.v0) ** p.delta - inter)


def chains(speeds, perceptions, p=P):
    """`behavior_chains` for unrouted 4 m drivers in the middle lane of
    three, one per perception: (accelerations, lane changes)."""
    n = len(perceptions)
    return behavior_chains(np.array(speeds, dtype=float), np.full(n, 4.0),
                           np.ones(n, dtype=np.int64), DriverArrays.stack([p] * n),
                           PerceptionArrays.of(perceptions, [BehaviorContext(3)] * n))


def idm(v, s, dv, p=P):
    """Car following in the batch kernel: the acceleration of drivers at
    speed v behind a leader s ahead, closing at dv, entry by entry over
    arrays; a float for floats."""
    v, s, dv = np.broadcast_arrays(np.asarray(v, dtype=float), s, dv)
    accel, _ = chains(v.ravel(), [Perception(leader_gap=float(gap), leader_dv=float(closing))
                                  for gap, closing in zip(s.ravel(), dv.ravel())], p)
    return accel.reshape(v.shape)[()]


def decide(perception, v, p=P):
    """The batch kernel's lane change for one perception."""
    return chains([v], [perception], p)[1].item()


class TestIdm:
    def test_standing_free_road_gives_max_acceleration(self):
        assert idm(0.0, INF, 0.0) == P.a_max

    def test_at_desired_speed_free_road_gives_zero(self):
        assert abs(idm(P.v0, INF, 0.0)) < 1e-12

    def test_worked_example(self):
        # independent evaluation gives -0.457269 for v=20, s=50, dv=3
        expected = scalar_idm(20.0, 50.0, 3.0)
        assert abs(expected - (-0.4572690804521492)) < 1e-12
        assert abs(idm(20.0, 50.0, 3.0) - expected) < 1e-3

    def test_rejects_non_positive_gap(self):
        for gap in (0.0, -5.0):
            with pytest.raises(NonPositiveGap):
                behavior_chain(Vehicle("t", "r", 0, 0.0, 10.0),
                               Perception(leader_gap=gap), BehaviorContext(1))

    def test_never_exceeds_max_acceleration(self):
        rng = np.random.default_rng(42)
        v, s, dv = rng.uniform([0, 0.5, -20], [40, 500, 20], (2000, 3)).T
        assert np.all(idm(v, s, dv) <= P.a_max + 1e-12)

    def test_monotonicity_grid(self):
        speeds = np.linspace(0, 33, 12)
        gaps = np.linspace(2, 200, 12)
        dvs = np.linspace(-10, 10, 9)
        # axis 0 is v, 1 is s, 2 is dv
        acc = idm(*np.meshgrid(speeds, gaps, dvs, indexing="ij"))
        # non-increasing in v
        assert np.all(acc[:-1] >= acc[1:] - 1e-9)
        # non-decreasing in s
        assert np.all(acc[:, :-1] <= acc[:, 1:] + 1e-9)
        # non-increasing in dv
        assert np.all(acc[:, :, :-1] >= acc[:, :, 1:] - 1e-9)


class TestEquilibriumGap:
    def test_standstill_gap(self):
        assert equilibrium_gap(0.0, P) == P.s0

    def test_against_bisection(self):
        lo, hi = P.s0, 10_000.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if idm(20.0, mid, 0.0) > 0:
                hi = mid
            else:
                lo = mid
        assert abs(equilibrium_gap(20.0, P) - (lo + hi) / 2.0) < 1e-3
        assert abs(equilibrium_gap(20.0, P) - 36.4445) < 1e-3

    @pytest.mark.parametrize("v", [1.0, 5.0, 10.0, 25.0])
    def test_defining_property(self, v):
        assert abs(idm(v, equilibrium_gap(v, P), 0.0)) < 1e-9

    def test_error_at_desired_speed(self):
        with pytest.raises(DesiredSpeedReached):
            equilibrium_gap(P.v0, P)


class TestPowers:
    """IDM's power rule in the batch kernel: exponent 2 is b*b and 4 is
    (b*b)*(b*b), both bit for bit, any other exponent Python's `**`, and
    0.0 where the base is not positive or `where` is False."""

    BASES = np.concatenate(([0.0, -0.0, -1.5, math.nan, INF, 1e-3, 0.7, 1.0, 1.3],
                            np.random.default_rng(3).uniform(0.0, 2.0, 1000)))

    @staticmethod
    def expected(base, exponent, at):
        if not at or not base > 0.0 and not math.isnan(base):
            return 0.0
        if exponent == 2:
            return base * base
        if exponent == 4:
            return (base * base) * (base * base)
        return base ** exponent

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64).tolist()

    @pytest.mark.parametrize("exponent", [2, 4, 4.0, 3.5])
    def test_scalar_exponent(self, exponent):
        where = np.arange(self.BASES.size) % 7 != 3
        found = _powers(self.BASES, exponent, where)
        assert self.bits(found) == self.bits(
            [self.expected(b, exponent, at) for b, at in zip(self.BASES.tolist(), where)])

    def test_squares_are_the_powers_of_two(self):
        """`_squares`, which the interaction term takes, is exponent 2."""
        where = np.arange(self.BASES.size) % 5 != 1
        assert self.bits(_squares(self.BASES, where)) == self.bits(
            [self.expected(b, 2, at) for b, at in zip(self.BASES.tolist(), where)])

    def test_exponents_mixed_in_one_batch(self):
        """Exponents by entry, as per-driver deltas, over a stack of rows."""
        exponents = np.resize([1.0, 2.0, 3.5, 4.0], self.BASES.size)
        bases = np.stack((self.BASES, self.BASES[::-1]))
        where = np.ones(bases.shape, dtype=bool)
        where[1, ::5] = False
        found = _powers(bases, exponents, where)
        assert self.bits(found.ravel()) == self.bits(
            [self.expected(b, e, at) for row, at_row in zip(bases.tolist(), where.tolist())
             for b, e, at in zip(row, exponents.tolist(), at_row)])


def perception(leader_gap=INF, leader_dv=0.0, left=None, right=None,
               follower_gap=INF, follower_speed=0.0, speed_limit=INF):
    return Perception(leader_gap=leader_gap, leader_dv=leader_dv,
                      speed_limit=speed_limit, left=left, right=right,
                      follower_gap=follower_gap, follower_speed=follower_speed)


class TestMobil:
    def test_no_adjacent_lanes_stays(self):
        assert decide(perception(leader_gap=10.0, leader_dv=5.0), 20.0) == STAY

    def test_slow_leader_empty_left_lane_changes_left(self):
        p0 = DriverParams(p=0.0)
        view = AdjacentView()   # empty lane
        decision = decide(perception(leader_gap=20.0, leader_dv=10.0, left=view), 20.0, p0)
        # gain is the free-road vs car-following difference, well above threshold
        gain = scalar_idm(20.0, INF, 0.0, p0) - scalar_idm(20.0, 20.0, 10.0, p0)
        assert gain > p0.da_th
        assert decision == LEFT

    def test_close_fast_follower_blocks_change(self):
        # follower 5 m behind at 30 m/s would need about -1008 m/s^2
        assert scalar_idm(30.0, 5.0, 10.0) < -P.b_safe
        view = AdjacentView(leader_gap=INF, leader_dv=0.0,
                            follower_gap=5.0, follower_speed=30.0)
        decision = decide(perception(leader_gap=20.0, leader_dv=10.0, left=view), 20.0)
        assert decision == STAY

    def test_tie_breaks_right(self):
        empty = AdjacentView()
        decision = decide(perception(leader_gap=15.0, leader_dv=8.0,
                                     left=empty, right=empty), 20.0, DriverParams(p=0.0))
        assert decision == RIGHT

    def test_safety_property_randomized(self):
        """No accepted change may force the new follower below -b_safe."""
        rng = np.random.default_rng(7)
        speeds, scenes = [], []
        for _ in range(3000):
            speeds.append(rng.uniform(0, 35))
            scenes.append(perception(
                leader_gap=rng.uniform(1, 120), leader_dv=rng.uniform(-10, 15),
                follower_gap=rng.uniform(1, 120), follower_speed=rng.uniform(0, 35),
                left=AdjacentView(rng.uniform(1, 120), rng.uniform(-10, 15),
                                  rng.uniform(0.2, 120), rng.uniform(0, 35)),
                right=AdjacentView(rng.uniform(1, 120), rng.uniform(-10, 15),
                                   rng.uniform(0.2, 120), rng.uniform(0, 35))))
        _, decisions = chains(speeds, scenes)
        accepted = 0
        for v, pc, decision in zip(speeds, scenes, decisions.tolist()):
            if decision == STAY:
                continue
            accepted += 1
            view = pc.left if decision == LEFT else pc.right
            follower_acc = scalar_idm(view.follower_speed, view.follower_gap,
                                      view.follower_speed - v)
            assert follower_acc >= -P.b_safe - 1e-9
        assert accepted > 20   # the scene generator does produce changes


class TestBehaviorChain:
    """The engine's chain, `behavior_chain` for one vehicle, against the
    oracle's, which also names the rule that decided."""

    def vehicle(self, lane=0, speed=20.0):
        return Vehicle(id="t", road="r", lane=lane, position=100.0, speed=speed)

    @staticmethod
    def chain(vehicle, pc, ctx):
        """The oracle's intent, once the engine's chain agrees with it on
        every field but the reason."""
        intent = model_oracle.behavior_chain(vehicle, pc, ctx)
        assert behavior_chain(vehicle, pc, ctx) == intent[:3]
        return intent

    def test_free_road_acceleration_only(self):
        ctx = BehaviorContext(lane_count=2, permitted_lanes=None)
        intent = self.chain(self.vehicle(), perception(), ctx)
        assert intent.lane_change == STAY
        assert abs(intent.acceleration - scalar_idm(20.0, INF, 0.0)) < 1e-12
        assert intent.reason == "acceleration"

    def test_mandatory_change_toward_exit_lane(self):
        # must reach the rightmost lane before the node; right lane is free
        ctx = BehaviorContext(lane_count=2, permitted_lanes=frozenset({1}),
                              distance_to_node=100.0)
        intent = self.chain(self.vehicle(lane=0), perception(right=AdjacentView()), ctx)
        assert intent.lane_change == RIGHT
        assert intent.reason == "navigation"

    def test_mandatory_change_blocked_by_safety(self):
        blocked = AdjacentView(leader_gap=INF, leader_dv=0.0,
                               follower_gap=3.0, follower_speed=30.0)
        ctx = BehaviorContext(lane_count=2, permitted_lanes=frozenset({1}),
                              distance_to_node=100.0)
        intent = self.chain(self.vehicle(lane=0), perception(right=blocked), ctx)
        assert intent.lane_change == STAY
        assert intent.reason == "navigation_blocked"
        # held back against the node as a standing obstacle
        assert intent.acceleration <= scalar_idm(20.0, 100.0, 20.0) + 1e-9

    def test_stop_sign_deceleration(self):
        # standing virtual leader 30 m ahead at v=15
        intent = self.chain(self.vehicle(speed=15.0),
                            perception(leader_gap=30.0, leader_dv=15.0),
                            BehaviorContext(lane_count=1))
        assert abs(intent.acceleration - scalar_idm(15.0, 30.0, 15.0)) < 1e-12

    def test_speed_limit_caps_desired_speed(self):
        intent = self.chain(self.vehicle(speed=20.0), perception(speed_limit=20.0),
                            BehaviorContext(lane_count=1))
        assert abs(intent.acceleration) < 1e-9   # at the capped desired speed

    def test_exactly_one_influence(self):
        ctx = BehaviorContext(lane_count=3, permitted_lanes=None)
        pc = perception(leader_gap=12.0, leader_dv=8.0,
                        left=AdjacentView(), right=AdjacentView())
        intent = self.chain(self.vehicle(lane=1), pc, ctx)
        assert intent.lane_change in (LEFT, STAY, RIGHT)
        assert math.isfinite(intent.acceleration)


    def test_equals_the_oracle_on_random_perceptions(self):
        """Accelerations bit for bit and lane changes, one vehicle at a time
        and in one batch whose drivers' deltas mix 1, 2, 3.5 and 4."""
        scenes = random_scenes(np.random.default_rng(5), 20_000)
        assert {veh.params.delta for veh, _, _ in scenes} == {1.0, 2.0, 3.5, 4.0}
        intents = [model_oracle.behavior_chain(*scene) for scene in scenes]
        assert {i.reason for i in intents} == {"acceleration", "overtaking", "navigation",
                                              "navigation_blocked"}
        for scene, intent in zip(scenes[:1500], intents):
            found = behavior_chain(*scene)
            assert found.acceleration.hex() == intent.acceleration.hex()
            assert found.lane_change == intent.lane_change
        vehicles, perceptions, contexts = zip(*scenes)
        accel, change = behavior_chains(
            np.array([veh.speed for veh in vehicles]), np.array([veh.length for veh in vehicles]),
            np.array([veh.lane for veh in vehicles]),
            DriverArrays.stack([veh.params for veh in vehicles]),
            PerceptionArrays.of(list(perceptions), list(contexts)))
        assert accel.tobytes() == np.array([i.acceleration for i in intents]).tobytes()
        assert change.tolist() == [i.lane_change for i in intents]

    @pytest.mark.parametrize("speed, gap, error", [
        (10.0, 0.0, NonPositiveGap), (10.0, -5.0, NonPositiveGap), (-1.0, 20.0, ValueError)])
    def test_raises_the_oracle_error(self, speed, gap, error):
        args = (self.vehicle(speed=speed), perception(leader_gap=gap), BehaviorContext(1))
        with pytest.raises(error) as expected:
            model_oracle.behavior_chain(*args)
        with pytest.raises(error) as found:
            behavior_chain(*args)
        assert (type(found.value), str(found.value)) == (type(expected.value),
                                                        str(expected.value))


def random_scenes(rng, n):
    """n (Vehicle, Perception, BehaviorContext) triples that reach every
    branch of the chain: missing, blocked and overlapping lanes, free roads,
    speed limits below the desired speed, any politeness, and routes that
    force a change near the node."""
    def gap():
        return INF if rng.random() < 0.15 else float(rng.uniform(0.01, 150))

    def view():
        if rng.random() < 0.2:
            return None
        return AdjacentView(gap(), float(rng.uniform(-12, 15)),
                            gap() if rng.random() < 0.9 else float(rng.uniform(-3, 0)),
                            float(rng.uniform(0, 35)))

    scenes = []
    for k in range(n):
        params = DriverParams(v0=float(rng.uniform(5, 40)), p=float(rng.uniform(0, 1)),
                              delta=float(rng.choice([1.0, 2.0, 3.5, 4.0])),
                              da_th=float(rng.choice([0.0, 0.1, 0.3])),
                              b_safe=float(rng.uniform(0.5, 6)))
        lane = int(rng.integers(0, 3))
        vehicle = Vehicle(id=f"v{k}", road="r", lane=lane, position=0.0,
                          speed=float(rng.choice([0.0, rng.uniform(0, 40)])),
                          length=float(rng.uniform(3, 12)), params=params)
        pc = Perception(
            leader_gap=gap(), leader_dv=float(rng.uniform(-12, 15)),
            speed_limit=float(rng.choice([INF, rng.uniform(0, 30)])),
            left=view() if lane > 0 else None, right=view() if lane < 2 else None,
            follower_gap=gap() if rng.random() < 0.9 else float(rng.uniform(-3, 0)),
            follower_speed=float(rng.uniform(0, 35)))
        permitted = [None, frozenset(), frozenset({0}), frozenset({2}),
                     frozenset({0, 1})][int(rng.integers(0, 5))]
        ctx = BehaviorContext(lane_count=3, permitted_lanes=permitted,
                              distance_to_node=float(rng.choice([0.0, rng.uniform(0, 400)])))
        scenes.append((vehicle, pc, ctx))
    return scenes


class TestDriverParams:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            DriverParams(v0=-1)
        with pytest.raises(ValueError):
            DriverParams(p=1.5)
        with pytest.raises(ValueError):
            DriverParams(delta=0.5)
