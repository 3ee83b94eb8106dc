"""Car following from first principles.

Walks through the acceleration law: free-road behavior, the interaction
term, the equilibrium gap, and a small platoon relaxing behind a slow
leader.  Every acceleration comes from the batch behavior chain the
engine runs each step.  Run with `python demos/01_car_following.py`.
"""

import numpy as np

from hybridflow import DriverParams, Perception, equilibrium_gap
from hybridflow.micro import BehaviorContext, DriverArrays, PerceptionArrays, behavior_chains

params = DriverParams()
print("driver parameters:", params, "\n")


def accelerations(speeds, gaps, closing):
    """The engine's behavior chain for drivers alone on one-lane roads:
    driver i at speeds[i], gaps[i] behind a leader it closes on at
    closing[i] m/s."""
    n = len(speeds)
    perception = PerceptionArrays.of(
        [Perception(leader_gap=float(g), leader_dv=float(dv)) for g, dv in zip(gaps, closing)],
        [BehaviorContext(lane_count=1)] * n)
    accel, _ = behavior_chains(np.array(speeds, dtype=float), np.full(n, 4.0),
                               np.zeros(n, dtype=np.int64), DriverArrays.stack([params] * n),
                               perception)
    return accel


# --- 1. free road: acceleration decays as speed approaches the target -----
print("free-road acceleration vs speed")
speeds = np.linspace(0, params.v0, 8)
for v, a in zip(speeds, accelerations(speeds, [float("inf")] * 8, [0.0] * 8)):
    bar = "#" * int(40 * max(a, 0) / params.a_max)
    print(f"  v = {v:5.1f} m/s   a = {a:+.3f} m/s^2  {bar}")

# --- 2. closing in on a leader: the interaction term takes over -----------
print("\napproaching a leader 3 m/s slower, by gap")
gaps = (150, 100, 60, 40, 25, 15, 8)
for gap, a in zip(gaps, accelerations([25.0] * 7, gaps, [3.0] * 7)):
    print(f"  gap = {gap:4d} m   a = {a:+8.3f} m/s^2")

# --- 3. the gap at which following is exactly comfortable ------------------
print("\nequilibrium gaps (zero acceleration while following)")
speeds = (5, 10, 15, 20, 25, 30)
gaps = [equilibrium_gap(float(v), params) for v in speeds]
for v, gap, check in zip(speeds, gaps, accelerations(speeds, gaps, [0.0] * 6)):
    print(f"  v = {v:2d} m/s   gap = {gap:7.2f} m   residual = {check:+.1e}")

# --- 4. a platoon relaxing behind a steady leader --------------------------
# integrate five followers with the same ballistic rule the engine uses
print("\nplatoon behind a leader pinned at 18 m/s (positions every 30 s)")
dt = 0.25
positions = np.array([500.0, 420.0, 340.0, 260.0, 180.0, 100.0])
speeds = np.array([18.0, 25.0, 25.0, 25.0, 25.0, 25.0])
length = 4.0
for step in range(int(240 / dt) + 1):
    if step % int(30 / dt) == 0:
        gaps = -(np.diff(positions) + length)
        print(f"  t = {step * dt:5.0f} s   gaps:",
              "  ".join(f"{g:6.2f}" for g in gaps))
    accel = np.zeros_like(speeds)
    accel[1:] = accelerations(speeds[1:], positions[:-1] - length - positions[1:],
                              speeds[1:] - speeds[:-1])
    speeds = np.maximum(speeds + accel * dt, 0.0)
    positions += speeds * dt + 0.5 * np.maximum(accel, -speeds / dt) * dt * dt

print(f"\n  target gap at 18 m/s: {equilibrium_gap(18.0, params):.2f} m")
