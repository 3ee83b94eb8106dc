"""Lane-change decisions: incentive vs safety.

Sweeps a two-lane situation: the driver follows a slow leader while the
left lane carries a follower at varying distance.  The decision flips from
"change" to "stay" exactly where the imposed deceleration on that follower
would exceed the safety bound.
"""

from hybridflow import DriverParams, idm_acceleration, mobil_decide
from hybridflow.micro import AdjacentView, Perception, LEFT, STAY

params = DriverParams()
v_self = 22.0

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
        imposed = idm_acceleration(follower_speed, follower_gap,
                                   follower_speed - v_self, params)
        decision = mobil_decide(perception, v_self, params)
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
    selfish = mobil_decide(perception, v_self, params)
    courteous = mobil_decide(perception, v_self, polite)
    print(f"  follower gap {follower_gap:5.1f} m: p=0.3 -> "
          f"{'LEFT' if selfish == LEFT else 'stay'}, p=1.0 -> "
          f"{'LEFT' if courteous == LEFT else 'stay'}")
