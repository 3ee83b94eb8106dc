"""Lane-change decisions: incentive vs safety.

Sweeps a two-lane situation: the driver follows a slow leader while the
left lane carries a follower at varying distance.  The decision flips from
"change" to "stay" exactly where the imposed deceleration on that follower
would exceed the safety bound.  Each decision and acceleration is the
behavior chain the engine runs.
"""

from hybridflow import DriverParams, Perception, Vehicle, behavior_chain
from hybridflow.micro import AdjacentView, BehaviorContext, LEFT, STAY

params = DriverParams()
v_self = 22.0


def chain(v, perception, style=params):
    """The engine's behavior chain for an unrouted driver at speed v in the
    right lane of two."""
    return behavior_chain(Vehicle("ego", "road", 1, 0.0, v, params=style), perception,
                          BehaviorContext(lane_count=2))


print(f"ego at {v_self} m/s behind a leader 15 m ahead going 14 m/s")
print(f"safety bound: follower deceleration >= -{params.b_safe} m/s^2\n")
print(f"{'follower gap':>13} {'follower speed':>15} {'imposed accel':>14} {'decision':>9}")

for follower_gap in (60.0, 40.0, 25.0, 15.0, 8.0, 4.0):
    for follower_speed in (18.0, 26.0, 33.0):
        view = AdjacentView(leader_gap=float("inf"), leader_dv=0.0,
                            follower_gap=follower_gap,
                            follower_speed=follower_speed)
        perception = Perception(leader_gap=15.0, leader_dv=v_self - 14.0,
                                speed_limit=float("inf"), left=view, right=None,
                                follower_gap=float("inf"), follower_speed=0.0)
        # the follower's own chain, with the ego as its leader
        imposed = chain(follower_speed, Perception(leader_gap=follower_gap,
                                                   leader_dv=follower_speed - v_self)).acceleration
        decision = chain(v_self, perception).lane_change
        label = {LEFT: "LEFT", STAY: "stay"}.get(decision, str(decision))
        print(f"{follower_gap:13.1f} {follower_speed:15.1f} {imposed:14.2f} {label:>9}")

print("""
Politeness: with p=1 the driver weighs the follower's loss as its own;
the same marginal situations flip to "stay" earlier.""")
polite = DriverParams(p=1.0)
for follower_gap in (60.0, 40.0, 25.0):
    view = AdjacentView(leader_gap=float("inf"), leader_dv=0.0,
                        follower_gap=follower_gap, follower_speed=26.0)
    perception = Perception(leader_gap=15.0, leader_dv=v_self - 14.0,
                            speed_limit=float("inf"), left=view, right=None,
                            follower_gap=float("inf"), follower_speed=0.0)
    selfish = chain(v_self, perception).lane_change
    courteous = chain(v_self, perception, polite).lane_change
    print(f"  follower gap {follower_gap:5.1f} m: p=0.3 -> "
          f"{'LEFT' if selfish == LEFT else 'stay'}, p=1.0 -> "
          f"{'LEFT' if courteous == LEFT else 'stay'}")
