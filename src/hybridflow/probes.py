"""Stock observation probes.

Probes are the only output pathway: models never write files themselves.
Each writer accumulates rows while the engine notifies it at consistent
instants and renders them at the end of the run; one auditor checks both
the conservation ledger and the structural invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import EngineState, Probe


def fmt(x) -> str:
    """Decimal rendering with 9 significant digits, stable across runs."""
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return f"{x:.9g}"
    return str(x)


def _lane_length(state: EngineState, cluster) -> float:
    """Drivable length of an extent, weighted by lanes."""
    chain = state.chains[cluster.chain_id]
    lane_length = 0.0
    for road_id, a, b in chain.pieces(cluster.start, cluster.end):
        lane_length += (b - a) * state.network.roads[road_id].lane_count
    return lane_length


STEP_COLUMNS = ("step", "time", "cluster", "chain", "representation", "start",
                "end", "vehicles", "mean_density", "mean_speed", "inflow",
                "outflow", "inserted", "absorbed", "total_mass")
TRAJECTORY_COLUMNS = ("step", "time", "vehicle", "road", "lane", "position", "speed")


class StepRecordProbe(Probe):
    """Collects the per-step cluster records for later export: each step one
    row per cluster plus a totals row, as tuples in `STEP_COLUMNS` order.
    A macro cluster's vehicles and mean speed come from one observation
    pass over the cell store; lane lengths are kept per extent for the run."""

    def __init__(self):
        self.rows: list[tuple] = []
        self._lane_lengths: dict[tuple[str, float, float], float] = {}

    def on_initialized(self, state: EngineState) -> None:
        self._lane_lengths.clear()   # a new run may lay other roads under an extent

    def on_step_end(self, state: EngineState) -> None:
        step, time = state.step, state.time
        clusters = [c for chain_id in sorted(state.order) for c in state.chain_clusters(chain_id)]
        # the macro reaction's order: a store rebuilt here serves the next step
        store = state.cell_store([c for c in clusters if c.segment is not None])
        _, mass, means = store.observe()
        means = means.tolist()
        for cluster in clusters:
            extent = (cluster.chain_id, cluster.start, cluster.end)
            lane_length = self._lane_lengths.get(extent)
            if lane_length is None:
                lane_length = self._lane_lengths[extent] = _lane_length(state, cluster)
            if cluster.segment is None:
                count = float(len(cluster.vehicles))
                speed = (sum(v.speed for v in cluster.vehicles.values()) / count
                         if count else state.fd.v_f)
            else:
                k = store.slot[cluster.segment]
                a, b = store.bounds[k]
                count = float(np.sum(mass[a:b]))   # `total_mass()`, bit for bit
                speed = means[k]
            density = count / lane_length if lane_length > 0 else 0.0
            inflow, outflow = state.last_flows.get(cluster.id, (0.0, 0.0))
            self.rows.append((step, time, cluster.id, cluster.chain_id,
                              cluster.representation, cluster.start, cluster.end,
                              count, density, speed, inflow, outflow,
                              None, None, None))
        self.rows.append((step, time, "TOTAL", "", "", None, None, None, None, None,
                          None, None, state.ledger.inserted, state.ledger.absorbed,
                          state.total_mass()))


class TrajectoryProbe(Probe):
    """Collects every vehicle's kinematic state each step, as tuples in
    `TRAJECTORY_COLUMNS` order."""

    def __init__(self):
        self.rows: list[tuple] = []

    def on_step_end(self, state: EngineState) -> None:
        step, time = state.step, state.time
        for cid in sorted(state.clusters):
            cluster = state.clusters[cid]
            if cluster.segment is not None:
                continue
            self.rows.extend((step, time, veh.id, veh.road, veh.lane, veh.position, veh.speed)
                             for veh in sorted(cluster.vehicles.values(), key=lambda v: v.id))


@dataclass
class AuditViolation:
    step: int
    kind: str
    value: float


LEDGER_TOLERANCE = 1e-6   # a larger |ledger residual| is a violation


class MassAuditProbe(Probe):
    """One auditor for both the conservation ledger, checked after every
    step, and the structural invariants, checked at every consistent instant."""

    def __init__(self):
        self.violations: list[AuditViolation] = []
        self.problems: list[tuple[int, str]] = []   # from consistency_errors()
        self.initial_mass: float | None = None
        self.final_mass: float | None = None
        self.final_residual: float | None = None

    def _check(self, state: EngineState) -> None:
        self.problems += [(state.step, problem) for problem in state.consistency_errors()]

    def on_initialized(self, state: EngineState) -> None:
        self.initial_mass = state.total_mass()
        self._check(state)

    def on_step_end(self, state: EngineState) -> None:
        residual = state.ledger_residual()
        if abs(residual) > LEDGER_TOLERANCE:
            self.violations.append(AuditViolation(state.step, "ledger", residual))
        self._check(state)

    def on_final(self, state: EngineState) -> None:
        self._check(state)
        self.final_mass = state.total_mass()
        self.final_residual = state.ledger_residual()


class CanaryProbe(Probe):
    """Hashes the state and records any inconsistent snapshot it is shown."""

    def __init__(self):
        self.digests: list[str] = []
        self.problems: list[tuple[int, str]] = []

    def _check(self, state: EngineState) -> None:
        for problem in state.consistency_errors():
            self.problems.append((state.step, problem))
        self.digests.append(state.state_digest())

    def on_initialized(self, state: EngineState) -> None:
        self._check(state)

    def on_step_end(self, state: EngineState) -> None:
        self._check(state)

    def on_final(self, state: EngineState) -> None:
        self._check(state)
