"""Runtime level-of-detail policy.

Macro cells whose mean speed stays far below the free speed for several
consecutive steps are flagged as jammed; the planner then isolates the
flagged region (splits at padded cell edges) and refines it to the
microscopic representation.  Refined clusters coarsen back once their speed
ratio has recovered, and a vehicle budget can force coarsening under load.
Hysteresis plus a per-cluster cooldown keep representations from flapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hybrid import BoundaryInterface, Cluster
from .macro import CellStore, MacroSegment


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
        # written so that NaN fails as well
        if not (0 < self.target_dx < math.inf and 0 <= self.min_cluster_length < math.inf):
            raise ValueError("need a finite target_dx > 0 and min_cluster_length >= 0")
        if self.micro_vehicle_budget < 0:
            raise ValueError("micro_vehicle_budget >= 0 required")


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

def split_cluster(cluster: Cluster, position: float, chain) -> tuple[Cluster, Cluster]:
    """Partition one cluster at a chain position into two of the same
    representation.  Vehicles split by position, cells by index at the cell
    edge nearest the position.  The engine's `_refusal` checks the position
    first."""
    if cluster.segment is not None:
        idx = int(np.argmin(np.abs(cluster.segment.start - position)))
        position = float(cluster.segment.start[idx])

    # both parts keep the parent's LOD memory; recovery counts afresh
    inherited = dict(chain_id=cluster.chain_id, last_jam_step=cluster.last_jam_step,
                     cooldown_until=cluster.cooldown_until, refined=cluster.refined)
    left = Cluster(id=f"{cluster.id}a", start=cluster.start, end=position, **inherited)
    right = Cluster(id=f"{cluster.id}b", start=position, end=cluster.end, **inherited)
    if cluster.segment is None:
        for vid, veh in cluster.vehicles.items():
            pos = chain.to_chain_pos(veh.road, veh.position)
            (left if pos < position else right).vehicles[vid] = veh
    else:
        left.segment = cluster.segment.part(0, idx)
        right.segment = cluster.segment.part(idx, len(cluster.segment))
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
                   make_cluster_id) -> tuple[Cluster, float]:
    """Concatenate two adjacent same-representation clusters; returns (merged
    cluster, the mass no cell could seat).  A macro pair dissolves the
    interface's carryover and queue into the boundary cell, spilling
    upstream; a micro pair's interface holds nothing.  The merged cluster
    keeps the later jam and cooldown of the two, is refined if either was,
    and counts recovery afresh."""
    merged = Cluster(id=make_cluster_id(), chain_id=a.chain_id, start=a.start, end=b.end,
                     last_jam_step=max(a.last_jam_step, b.last_jam_step),
                     cooldown_until=max(a.cooldown_until, b.cooldown_until),
                     refined=a.refined or b.refined)
    if a.segment is None:
        merged.vehicles = a.vehicles | b.vehicles
        return merged, 0.0
    merged.segment = MacroSegment.join(a.segment, b.segment)
    return merged, bank_mass_into_segment(merged.segment, len(a.segment), shared.mass())


# ---------------------------------------------------------------------------
# Jam detection and planning
# ---------------------------------------------------------------------------

class LodController:
    """Advances the jam counters and turns them and each cluster's LOD
    memory into plans.

    That memory (recovered steps, last jam, cooldown end, refined) lives on
    the `Cluster`, and each cell's count of consecutive slow steps lives on
    its `MacroSegment` as `slow`, a view into the cell store like `rho`.
    Splits, merges and switches carry both with the state they belong to,
    so the controller keeps nothing but its policy.
    """

    def __init__(self, policy: LodPolicy):
        self.policy = policy

    # -- the cluster memory a representation switch resets -----------------

    def mark_switch(self, cluster: Cluster, step: int, refined: bool) -> None:
        cluster.cooldown_until = step + self.policy.cooldown
        cluster.refined = refined
        cluster.recovered_steps = 0

    def in_cooldown(self, cluster: Cluster, step: int) -> bool:
        return step < cluster.cooldown_until

    # -- observation --------------------------------------------------------

    def observe(self, clusters: list[Cluster], ratios: dict[str, float],
                store: CellStore, cell_ratios: np.ndarray, step: int) -> None:
        """Advance the cluster memory and the cell counters from this step's
        consistent state.

        `ratios` maps cluster id to mean-speed / free-speed; `store` is the
        cell store over the macro clusters' segments and `cell_ratios` its
        per-cell ratio array."""
        for cluster in clusters:
            ratio = ratios[cluster.id]
            cluster.recovered_steps = cluster.recovered_steps + 1 \
                if ratio > self.policy.theta_up else 0
            if ratio < self.policy.theta_down:
                cluster.last_jam_step = step
        # in place: the segments' counters are views into the store's
        store.slow[:] = np.where(cell_ratios < self.policy.theta_down, store.slow + 1, 0)

    # -- planning ------------------------------------------------------------

    def _jam_region(self, cluster: Cluster, flags: np.ndarray) -> tuple[float, float]:
        """Flagged cells (at least one) padded by one cell, grown to the
        minimum length."""
        idx = np.flatnonzero(flags)
        lo = max(int(idx[0]) - 1, 0)
        hi = min(int(idx[-1]) + 1, len(flags) - 1)
        edges = np.append(cluster.segment.start, cluster.end)
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

    def plan(self, clusters: list[Cluster], store: CellStore,
             interfaces: list[BoundaryInterface], step: int, micro_vehicles: int,
             refused) -> list[Action]:
        """Deterministic plan: refine jams, coarsen recovered or over-budget
        micro clusters, merge recovered same-representation neighbors.

        `clusters` come in (chain, start) order, as `EngineState.ordered`
        holds them.  `store` is the cell store `observe` advanced; the jam
        pass visits, in store order, only its segments with a cell at the
        persistence count.  `refused(action)` gives the reason a coarsen or
        merge cannot apply, or None; only actions that pass the policy are
        asked."""
        actions: list[Action] = []
        used: set[str] = set()

        # 1. jam-flagged macro clusters: isolate the region, then refine it
        persistence = self.policy.persistence
        hot = np.flatnonzero(np.maximum.reduceat(store.slow, store.first) >= persistence) \
            if len(store.slow) else ()
        for k in hot:
            cluster = next(c for c in clusters if c.segment is store.segments[k])
            if self.in_cooldown(cluster, step):
                continue
            start, end = self._jam_region(cluster, cluster.segment.slow >= persistence)
            if start - cluster.start > 1e-9:
                actions.append(Action("split", cluster.chain_id, start, "jam"))
            if cluster.end - end > 1e-9:
                actions.append(Action("split", cluster.chain_id, end, "jam"))
            actions.append(Action("refine", cluster.chain_id,
                                  (start + end) / 2.0, "jam"))
            used.add(cluster.id)

        # 2. recovered refined clusters coarsen back
        for cluster in clusters:
            if cluster.segment is not None or cluster.id in used:
                continue
            if not cluster.refined or cluster.recovered_steps < persistence:
                continue
            if self.in_cooldown(cluster, step):
                continue
            action = Action("coarsen", cluster.chain_id,
                            (cluster.start + cluster.end) / 2.0, "recovery")
            if not refused(action):
                actions.append(action)
                used.add(cluster.id)

        # 3. over budget: coarsen the least recently jammed micro clusters
        if micro_vehicles > self.policy.micro_vehicle_budget:
            shedding = micro_vehicles
            by_activity = sorted(
                (c for c in clusters if c.segment is None and c.id not in used),
                key=lambda c: (c.last_jam_step, c.chain_id, c.start))
            for cluster in by_activity:
                if shedding <= self.policy.micro_vehicle_budget:
                    break
                if self.in_cooldown(cluster, step):
                    continue
                action = Action("coarsen", cluster.chain_id,
                                (cluster.start + cluster.end) / 2.0, "budget")
                if not refused(action):
                    actions.append(action)
                    used.add(cluster.id)
                    shedding -= len(cluster.vehicles)

        # 4. merge adjacent recovered clusters of equal representation
        by_id = {c.id: c for c in clusters}
        for itf in sorted(interfaces, key=lambda i: (i.chain_id, i.position)):
            pair = (by_id[itf.upstream_id], by_id[itf.downstream_id])
            if any(c.id in used or self.in_cooldown(c, step)
                   or c.recovered_steps < persistence for c in pair):
                continue
            action = Action("merge", itf.chain_id, itf.position, "recovery")
            if not refused(action):
                actions.append(action)
                used.update(c.id for c in pair)

        return actions

