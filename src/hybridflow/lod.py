"""Runtime level-of-detail policy.

Macro cells whose mean speed stays far below the free speed for several
consecutive steps are flagged as jammed; the planner then isolates the
flagged region (splits at padded cell edges) and refines it to the
microscopic representation.  Refined clusters coarsen back once their speed
ratio has recovered, and a vehicle budget can force coarsening under load.
Hysteresis plus a per-cluster cooldown keep representations from flapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hybrid import MACRO, MICRO, BoundaryInterface, Cluster, pos_key
from .macro import MacroSegment


class TooSmall(ValueError):
    """A split would leave a part below the minimum cluster length."""


class NotAdjacent(ValueError):
    """Merge requested for clusters that do not share a boundary."""


class RepresentationMismatch(ValueError):
    """Merge requested across different representations."""


@dataclass(frozen=True)
class LodPolicy:
    """Thresholds governing jam detection and representation switching.

    theta_down  flag a cell when mean speed / free speed drops below this
    theta_up    consider traffic recovered above this ratio
    persistence consecutive steps a condition must hold (K)
    cooldown    steps a cluster must wait between representation switches
    """

    theta_down: float = 0.5
    theta_up: float = 0.8
    persistence: int = 10
    min_cluster_length: float = 200.0
    micro_vehicle_budget: int = 100_000
    cooldown: int = 50
    target_dx: float = 100.0

    def __post_init__(self):
        if not 0 < self.theta_down < self.theta_up <= 1:
            raise ValueError("need 0 < theta_down < theta_up <= 1")
        if self.persistence < 1 or self.cooldown < 0:
            raise ValueError("persistence >= 1 and cooldown >= 0 required")


@dataclass(frozen=True)
class Action:
    """One planned structural change, anchored by chain position so the
    engine can resolve the target cluster after earlier actions applied."""

    kind: str          # "split" | "refine" | "coarsen" | "merge"
    chain_id: str
    position: float    # split/merge: boundary; refine/coarsen: any inner point
    trigger: str       # "jam" | "budget" | "recovery"


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def split_cluster(cluster: Cluster, position: float, chain,
                  min_cluster_length: float = 0.0) -> tuple[Cluster, Cluster]:
    """Partition one cluster at a chain position into two of the same
    representation.  Vehicles split by position, cells by index; macro
    splits must land on an interior cell edge."""
    if not cluster.start < position < cluster.end:
        raise ValueError(f"split position {position} outside cluster "
                         f"({cluster.start}, {cluster.end})")
    if min(position - cluster.start, cluster.end - position) < min_cluster_length - 1e-9:
        raise TooSmall(f"split at {position} leaves a part below "
                       f"{min_cluster_length} m")
    if cluster.representation == MACRO:
        edges = cluster.cell_starts
        idx = int(np.argmin(np.abs(edges - position)))
        if abs(edges[idx] - position) > 1e-6 or idx == 0:
            raise ValueError(f"split position {position} is not an interior cell edge")
        position = float(edges[idx])

    left = Cluster(id=f"{cluster.id}a", chain_id=cluster.chain_id,
                   start=cluster.start, end=position,
                   representation=cluster.representation)
    right = Cluster(id=f"{cluster.id}b", chain_id=cluster.chain_id,
                    start=position, end=cluster.end,
                    representation=cluster.representation)
    if cluster.representation == MICRO:
        for vid, veh in cluster.vehicles.items():
            pos = chain.to_chain_pos(veh.road, veh.position)
            (left if pos < position else right).vehicles[vid] = veh
    else:
        seg = cluster.segment
        left.segment = MacroSegment(dx=seg.dx[:idx], lanes=seg.lanes[:idx],
                                    rho=seg.rho[:idx], fd=seg.fd,
                                    capacity_factor=seg.capacity_factor[:idx])
        left.cell_starts = cluster.cell_starts[:idx].copy()
        right.segment = MacroSegment(dx=seg.dx[idx:], lanes=seg.lanes[idx:],
                                     rho=seg.rho[idx:], fd=seg.fd,
                                     capacity_factor=seg.capacity_factor[idx:])
        right.cell_starts = cluster.cell_starts[idx:].copy()
    return left, right


def bank_mass_into_segment(segment: MacroSegment, cell: int, mass: float) -> float:
    """Add mass to a cell, spilling upstream past jam density; returns what
    could not be banked anywhere (normally zero)."""
    i = cell
    while mass > 1e-15 and i >= 0:
        room = segment.room(i)
        take = min(room, mass)
        if take > 0:
            segment.rho[i] += take / (segment.dx[i] * segment.lanes[i])
            mass -= take
        i -= 1
    return mass


def merge_clusters(a: Cluster, b: Cluster, shared: BoundaryInterface,
                   chain, make_cluster_id) -> tuple[Cluster, list, float]:
    """Concatenate two adjacent same-representation clusters.

    Returns (merged cluster, vehicles needing re-insertion, fractional mass
    needing a new home).  For macro pairs the shared interface's carryover
    and queue dissolve into the boundary cell, so both extras are empty; for
    micro pairs the caller places the queue and banks the fraction upstream.
    """
    if abs(a.end - b.start) > 1e-9:
        raise NotAdjacent(f"{a.id} ends at {a.end}, {b.id} starts at {b.start}")
    if a.representation != b.representation:
        raise RepresentationMismatch(f"{a.representation} vs {b.representation}")

    merged = Cluster(id=make_cluster_id(), chain_id=a.chain_id,
                     start=a.start, end=b.end, representation=a.representation)
    homeless_vehicles: list = []
    homeless_mass = 0.0
    if a.representation == MICRO:
        merged.vehicles.update(a.vehicles)
        merged.vehicles.update(b.vehicles)
        homeless_vehicles = list(shared.pending)
        homeless_mass = float(np.sum(shared.carryover))
    else:
        sa, sb = a.segment, b.segment
        merged.segment = MacroSegment(
            dx=np.concatenate([sa.dx, sb.dx]),
            lanes=np.concatenate([sa.lanes, sb.lanes]),
            rho=np.concatenate([sa.rho, sb.rho]),
            fd=sa.fd,
            capacity_factor=np.concatenate([sa.capacity_factor, sb.capacity_factor]))
        merged.cell_starts = np.concatenate([a.cell_starts, b.cell_starts])
        extra = shared.mass()
        if extra > 0:
            left = bank_mass_into_segment(merged.segment, len(sa.dx), extra)
            homeless_mass = left
    return merged, homeless_vehicles, homeless_mass


# ---------------------------------------------------------------------------
# Jam detection and planning
# ---------------------------------------------------------------------------

class LodController:
    """Keeps persistence counters and cooldowns; turns them into plans.

    Cell counters are keyed by absolute chain position so they survive
    splits, merges and representation switches of the enclosing cluster.
    """

    def __init__(self, policy: LodPolicy):
        self.policy = policy
        self.cell_low: dict[tuple[str, int], int] = {}     # consecutive slow steps
        self.cluster_high: dict[str, int] = {}             # consecutive recovered steps
        self.last_jam_step: dict[str, int] = {}
        self.cooldown_until: dict[str, int] = {}
        self.refined_at: dict[str, int] = {}

    # -- bookkeeping hooks the engine calls on structural changes ----------

    def mark_switch(self, cluster_id: str, step: int, refined: bool) -> None:
        self.cooldown_until[cluster_id] = step + self.policy.cooldown
        if refined:
            self.refined_at[cluster_id] = step
        else:
            self.refined_at.pop(cluster_id, None)
        self.cluster_high.pop(cluster_id, None)

    def inherit_split(self, parent: str, children: tuple[str, str]) -> None:
        until = self.cooldown_until.pop(parent, None)
        jam = self.last_jam_step.pop(parent, None)
        refined = self.refined_at.pop(parent, None)
        self.cluster_high.pop(parent, None)
        for child in children:
            if until is not None:
                self.cooldown_until[child] = until
            if jam is not None:
                self.last_jam_step[child] = jam
            if refined is not None:
                self.refined_at[child] = refined

    def inherit_merge(self, parents: tuple[str, str], child: str) -> None:
        untils = [self.cooldown_until.pop(p, None) for p in parents]
        jams = [self.last_jam_step.pop(p, None) for p in parents]
        refined = [self.refined_at.pop(p, None) for p in parents]
        for p in parents:
            self.cluster_high.pop(p, None)
        if any(u is not None for u in untils):
            self.cooldown_until[child] = max(u for u in untils if u is not None)
        if any(j is not None for j in jams):
            self.last_jam_step[child] = max(j for j in jams if j is not None)
        if any(r is not None for r in refined):
            self.refined_at[child] = max(r for r in refined if r is not None)

    def in_cooldown(self, cluster_id: str, step: int) -> bool:
        return step < self.cooldown_until.get(cluster_id, -1)

    # -- observation --------------------------------------------------------

    def observe(self, clusters: list[Cluster], ratios: dict[str, float],
                cell_ratios: dict[str, np.ndarray], step: int) -> None:
        """Advance persistence counters from this step's consistent state.

        `ratios` maps cluster id to mean-speed / free-speed; `cell_ratios`
        maps macro cluster ids to the per-cell ratio array."""
        live_cells: set[tuple[str, int]] = set()
        for cluster in clusters:
            if cluster.representation == MACRO:
                arr = cell_ratios[cluster.id]
                for start, ratio in zip(cluster.cell_starts, arr):
                    key = (cluster.chain_id, pos_key(float(start)))
                    live_cells.add(key)
                    if ratio < self.policy.theta_down:
                        self.cell_low[key] = self.cell_low.get(key, 0) + 1
                    else:
                        self.cell_low[key] = 0
            ratio = ratios[cluster.id]
            if ratio > self.policy.theta_up:
                self.cluster_high[cluster.id] = self.cluster_high.get(cluster.id, 0) + 1
            else:
                self.cluster_high[cluster.id] = 0
            if ratio < self.policy.theta_down:
                self.last_jam_step[cluster.id] = step
        # drop counters for cells that no longer exist (refined regions)
        for key in [k for k in self.cell_low if k not in live_cells]:
            del self.cell_low[key]

    def detect_jam(self, cluster: Cluster) -> np.ndarray:
        """Per-cell flags: speed ratio below theta_down for K consecutive steps."""
        if cluster.representation != MACRO:
            raise ValueError("jam flags are defined for macro clusters")
        flags = np.zeros(len(cluster.segment), dtype=bool)
        for i, start in enumerate(cluster.cell_starts):
            key = (cluster.chain_id, pos_key(float(start)))
            flags[i] = self.cell_low.get(key, 0) >= self.policy.persistence
        return flags

    # -- planning ------------------------------------------------------------

    def _jam_region(self, cluster: Cluster, flags: np.ndarray) -> tuple[float, float] | None:
        """Flagged cells padded by one cell, grown to the minimum length."""
        idx = np.flatnonzero(flags)
        if len(idx) == 0:
            return None
        lo = max(int(idx[0]) - 1, 0)
        hi = min(int(idx[-1]) + 1, len(flags) - 1)
        edges = np.append(cluster.cell_starts, cluster.end)
        start, end = float(edges[lo]), float(edges[hi + 1])
        while end - start < self.policy.min_cluster_length and (lo > 0 or hi < len(flags) - 1):
            if lo > 0:
                lo -= 1
                start = float(edges[lo])
            if end - start < self.policy.min_cluster_length and hi < len(flags) - 1:
                hi += 1
                end = float(edges[hi + 1])
        # a split may not leave a sliver on either side
        if start - cluster.start < self.policy.min_cluster_length:
            start = cluster.start
        if cluster.end - end < self.policy.min_cluster_length:
            end = cluster.end
        return start, end

    def plan(self, clusters: list[Cluster], interfaces: list[BoundaryInterface],
             step: int, micro_vehicles: int,
             macro_capable) -> list[Action]:
        """Deterministic plan: refine jams, coarsen recovered or over-budget
        micro clusters, merge recovered same-representation neighbors.

        `macro_capable(cluster)` tells whether a micro cluster may be
        aggregated (linear downstream boundary, CFL-safe layout)."""
        actions: list[Action] = []
        used: set[str] = set()
        ordered = sorted(clusters, key=lambda c: (c.chain_id, c.start))

        # 1. jam-flagged macro clusters: isolate the region, then refine it
        for cluster in ordered:
            if cluster.representation != MACRO or self.in_cooldown(cluster.id, step):
                continue
            region = self._jam_region(cluster, self.detect_jam(cluster))
            if region is None:
                continue
            start, end = region
            if start - cluster.start > 1e-9:
                actions.append(Action("split", cluster.chain_id, start, "jam"))
            if cluster.end - end > 1e-9:
                actions.append(Action("split", cluster.chain_id, end, "jam"))
            actions.append(Action("refine", cluster.chain_id,
                                  (start + end) / 2.0, "jam"))
            used.add(cluster.id)

        # 2. recovered refined clusters coarsen back
        for cluster in ordered:
            if cluster.representation != MICRO or cluster.id in used:
                continue
            if cluster.id not in self.refined_at:
                continue
            if self.in_cooldown(cluster.id, step) or not macro_capable(cluster):
                continue
            if self.cluster_high.get(cluster.id, 0) >= self.policy.persistence:
                actions.append(Action("coarsen", cluster.chain_id,
                                      (cluster.start + cluster.end) / 2.0, "recovery"))
                used.add(cluster.id)

        # 3. over budget: coarsen the least recently jammed micro clusters
        if micro_vehicles > self.policy.micro_vehicle_budget:
            shedding = micro_vehicles
            by_activity = sorted(
                (c for c in ordered if c.representation == MICRO and c.id not in used),
                key=lambda c: (self.last_jam_step.get(c.id, -1), c.chain_id, c.start))
            for cluster in by_activity:
                if shedding <= self.policy.micro_vehicle_budget:
                    break
                if self.in_cooldown(cluster.id, step) or not macro_capable(cluster):
                    continue
                actions.append(Action("coarsen", cluster.chain_id,
                                      (cluster.start + cluster.end) / 2.0, "budget"))
                used.add(cluster.id)
                shedding -= len(cluster.vehicles)

        # 4. merge adjacent recovered clusters of equal representation
        by_id = {c.id: c for c in clusters}
        for itf in sorted(interfaces, key=lambda i: (i.chain_id, i.position)):
            up, down = by_id.get(itf.upstream_id), by_id.get(itf.downstream_id)
            if up is None or down is None or up.id in used or down.id in used:
                continue
            if up.id == down.id or up.representation != down.representation:
                continue
            if abs(up.end - down.start) > 1e-9:
                continue   # the wrap boundary of a cyclic chain never merges
            if self.in_cooldown(up.id, step) or self.in_cooldown(down.id, step):
                continue
            if min(self.cluster_high.get(up.id, 0),
                   self.cluster_high.get(down.id, 0)) >= self.policy.persistence:
                actions.append(Action("merge", itf.chain_id, itf.position, "recovery"))
                used.update((up.id, down.id))

        return actions

