"""Macroscopic flow on a cluster: first-order kinematic waves on cells.

Density per cell evolves by exchanging flux with its neighbors, where each
interface carries min(upstream demand, downstream supply).  The flow-density
relation is triangular: a free branch of slope v_f up to the critical
density, and a congested branch of slope -w down to the jam density.

Densities are per lane (veh/m/lane); demand, supply and fluxes are totals
across lanes (veh/s).  A per-cell capacity factor scales the capacity to
model incidents or restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DensityOutOfRange(ValueError):
    """Density outside [0, rho_jam]."""


class CflViolation(ValueError):
    """Time step too large for the cell sizes and wave speeds."""

    def __init__(self, dt: float, dx: float, wave: float):
        super().__init__(f"dt={dt} s exceeds CFL bound {dx / wave:.4f} s "
                         f"(dx={dx} m, wave speed {wave} m/s)")


@dataclass(frozen=True)
class FundamentalDiagram:
    """Triangular flow-density relation, per lane.

    v_f      free-flow speed, m/s
    rho_jam  jam density, veh/m/lane
    q_max    capacity, veh/s/lane
    The backward wave speed w = q_max / (rho_jam - rho_c) follows from the
    triangle closing at (rho_jam, 0).
    """

    v_f: float = 25.0
    rho_jam: float = 0.15
    q_max: float = 0.5

    def __post_init__(self):
        if min(self.v_f, self.rho_jam, self.q_max) <= 0:
            raise ValueError("v_f, rho_jam, q_max must be positive")
        if self.rho_c >= self.rho_jam:
            raise ValueError(f"critical density {self.rho_c} must be below "
                             f"jam density {self.rho_jam}")

    @property
    def rho_c(self) -> float:
        return self.q_max / self.v_f

    @property
    def w(self) -> float:
        return self.q_max / (self.rho_jam - self.rho_c)

    @property
    def max_wave_speed(self) -> float:
        return max(self.v_f, self.w)


@dataclass
class MacroCell:
    """One cell: length, lane count and per-lane density."""

    dx: float
    lanes: int
    rho: float = 0.0
    capacity_factor: float = 1.0


def fd_flow(rho: float, fd: FundamentalDiagram, capacity_factor: float = 1.0) -> float:
    """Per-lane flow at a density, veh/s/lane."""
    if rho < -1e-12 or rho > fd.rho_jam + 1e-12:
        raise DensityOutOfRange(f"rho={rho} outside [0, {fd.rho_jam}]")
    rho = min(max(rho, 0.0), fd.rho_jam)
    return min(fd.v_f * rho, capacity_factor * fd.q_max, fd.w * (fd.rho_jam - rho))


def demand(cell: MacroCell, fd: FundamentalDiagram) -> float:
    """Sending capacity of a cell toward downstream, veh/s over all lanes."""
    return cell.lanes * min(fd.v_f * cell.rho, cell.capacity_factor * fd.q_max)


def supply(cell: MacroCell, fd: FundamentalDiagram) -> float:
    """Receiving capacity of a cell from upstream, veh/s over all lanes."""
    return cell.lanes * min(cell.capacity_factor * fd.q_max,
                            fd.w * (fd.rho_jam - cell.rho))


def cell_mean_speed(cell: MacroCell, fd: FundamentalDiagram) -> float:
    """Mean speed in a cell; an empty cell moves at the free-flow speed."""
    if cell.rho <= 0.0:
        return fd.v_f
    return fd_flow(cell.rho, fd, cell.capacity_factor) / cell.rho


class MacroSegment:
    """Ordered cells covering one cluster extent, stored as arrays."""

    def __init__(self, dx, lanes, rho, fd: FundamentalDiagram,
                 capacity_factor=None):
        self.dx = np.asarray(dx, dtype=float)
        self.lanes = np.asarray(lanes, dtype=float)
        self.rho = np.asarray(rho, dtype=float).copy()
        self.fd = fd
        if capacity_factor is None:
            capacity_factor = np.ones_like(self.dx)
        self.capacity_factor = np.asarray(capacity_factor, dtype=float).copy()
        if not (len(self.dx) == len(self.lanes) == len(self.rho)
                == len(self.capacity_factor)):
            raise ValueError("cell arrays must have equal length")
        if np.any(self.dx <= 0):
            raise ValueError("cell lengths must be positive")
        if np.any(self.rho < -1e-12) or np.any(self.rho > fd.rho_jam + 1e-12):
            raise DensityOutOfRange("initial densities outside [0, rho_jam]")

    def __len__(self) -> int:
        return len(self.dx)

    def cell(self, i: int) -> MacroCell:
        return MacroCell(dx=float(self.dx[i]), lanes=int(self.lanes[i]),
                         rho=float(self.rho[i]), capacity_factor=float(self.capacity_factor[i]))

    def total_mass(self) -> float:
        return float(np.sum(self.rho * self.dx * self.lanes))

    def room(self, i: int) -> float:
        """Vehicles cell i can still take before it reaches jam density."""
        return (self.fd.rho_jam - self.rho[i]) * self.dx[i] * self.lanes[i]

    def demand_profile(self) -> np.ndarray:
        return self.lanes * np.minimum(self.fd.v_f * self.rho,
                                       self.capacity_factor * self.fd.q_max)

    def supply_profile(self) -> np.ndarray:
        return self.lanes * np.minimum(self.capacity_factor * self.fd.q_max,
                                       self.fd.w * (self.fd.rho_jam - self.rho))

    def cell_speeds(self) -> np.ndarray:
        """Mean speed per cell, equal to `cell_mean_speed` of every cell:
        v_f in empty cells, otherwise the flow at the density clamped as
        `fd_flow` clamps it, divided by the density."""
        fd = self.fd
        rho = self.rho
        if np.any(rho > fd.rho_jam + 1e-12):
            raise DensityOutOfRange(f"rho={float(np.max(rho))} outside [0, {fd.rho_jam}]")
        clamped = np.minimum(np.maximum(rho, 0.0), fd.rho_jam)
        flow = np.minimum(np.minimum(fd.v_f * clamped, self.capacity_factor * fd.q_max),
                          fd.w * (fd.rho_jam - clamped))
        occupied = rho > 0.0
        return np.where(occupied, flow / np.where(occupied, rho, 1.0), fd.v_f)

    def mean_speed(self) -> float:
        """Mass-weighted mean speed over the segment (v_f when empty)."""
        mass = self.rho * self.dx * self.lanes
        total = float(np.sum(mass))
        if total <= 0:
            return self.fd.v_f
        return float(np.sum(mass * self.cell_speeds()) / total)


def ctm_step(segment: MacroSegment, upstream_inflow: float,
             downstream_supply: float, dt: float) -> tuple[float, float]:
    """Advance the segment one step; returns (accepted inflow, outflow) in veh/s.

    Interface flux between consecutive cells is min(demand, supply); the
    boundary fluxes are capped by the first cell's supply and the offered
    downstream supply.  Mutates segment.rho in place."""
    if upstream_inflow < 0 or downstream_supply < 0:
        raise ValueError("boundary rates must be non-negative")
    wave = segment.fd.max_wave_speed
    min_dx = float(np.min(segment.dx))
    if dt > min_dx / wave + 1e-12:
        raise CflViolation(dt, min_dx, wave)

    dem = segment.demand_profile()
    sup = segment.supply_profile()
    flux = np.empty(len(segment) + 1)
    flux[0] = min(upstream_inflow, sup[0])
    flux[1:-1] = np.minimum(dem[:-1], sup[1:])
    flux[-1] = min(dem[-1], downstream_supply)

    segment.rho += dt / (segment.dx * segment.lanes) * (flux[:-1] - flux[1:])
    np.clip(segment.rho, 0.0, segment.fd.rho_jam, out=segment.rho)
    return float(flux[0]), float(flux[-1])
