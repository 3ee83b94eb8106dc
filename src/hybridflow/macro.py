"""Macroscopic flow on a cluster: first-order kinematic waves on cells.

Density per cell evolves by exchanging flux with its neighbors, where each
interface carries min(upstream demand, downstream supply).  The flow-density
relation is triangular: a free branch of slope v_f up to the critical
density, and a congested branch of slope -w down to the jam density.

Densities are per lane (veh/m/lane); demand, supply and fluxes are totals
across lanes (veh/s).  A per-cell capacity factor scales the capacity to
model incidents or restrictions.

`demand_supply`, `cell_speeds` and `CellStore.step` work on every cell at
once; `ctm_step` is the step's form for one segment.  The scalar demand,
supply and cell step, one cell at a time, are the tests' oracle
(`tests/model_oracle.py`), and `cell_mean_speed` is both the speed of one
cell, which the macro-to-micro release reads, and the oracle of
`cell_speeds`.
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


def cell_mean_speed(cell: MacroCell, fd: FundamentalDiagram) -> float:
    """Mean speed in a cell; an empty cell moves at the free-flow speed."""
    if cell.rho <= 0.0:
        return fd.v_f
    return fd_flow(cell.rho, fd, cell.capacity_factor) / cell.rho


def demand_supply(cells: MacroSegment | CellStore) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's demand (sending capacity toward downstream) and supply
    (receiving capacity from upstream), veh/s over all lanes."""
    fd = cells.fd
    cap = cells.capacity_factor * fd.q_max
    return (cells.lanes * np.minimum(fd.v_f * cells.rho, cap),
            cells.lanes * np.minimum(cap, fd.w * (fd.rho_jam - cells.rho)))


def cell_speeds(cells: MacroSegment | CellStore) -> np.ndarray:
    """`cell_mean_speed` of every cell: v_f in empty cells, otherwise the
    flow at the density clamped as `fd_flow` clamps it, divided by the
    density."""
    fd, rho = cells.fd, cells.rho
    if np.any(rho > fd.rho_jam + 1e-12):
        raise DensityOutOfRange(f"rho={float(np.max(rho))} outside [0, {fd.rho_jam}]")
    clamped = np.minimum(np.maximum(rho, 0.0), fd.rho_jam)
    flow = np.minimum(np.minimum(fd.v_f * clamped, cells.capacity_factor * fd.q_max),
                      fd.w * (fd.rho_jam - clamped))
    occupied = rho > 0.0
    return np.where(occupied, flow / np.where(occupied, rho, 1.0), fd.v_f)


def _mass_weighted_mean(mass: np.ndarray, moving: np.ndarray, v_f: float) -> float:
    """Mean speed over cells of this mass and mass times speed (v_f when empty)."""
    total = float(mass.sum())
    return v_f if total <= 0 else float(moving.sum() / total)


class MacroSegment:
    """Ordered cells covering one cluster extent, stored as arrays.

    `COLUMNS` names the per-cell arrays.  `start` is each cell's chain
    coordinate; without it the cells start at 0 and follow on.  `slow`
    counts each cell's consecutive observations below the jam threshold
    (see `lod`); it is state like `rho`, so a split slices it, a merge
    joins it and a new segment starts it at zero."""

    COLUMNS = ("dx", "lanes", "rho", "capacity_factor", "slow", "start")

    def __init__(self, dx, lanes, rho, fd: FundamentalDiagram,
                 capacity_factor=None, slow=None, start=None):
        self.dx = np.asarray(dx, dtype=float)
        self.lanes = np.asarray(lanes, dtype=float)
        self.rho = np.asarray(rho, dtype=float).copy()
        self.fd = fd
        if capacity_factor is None:
            capacity_factor = np.ones_like(self.dx)
        self.capacity_factor = np.asarray(capacity_factor, dtype=float).copy()
        self.slow = np.zeros(len(self.dx), dtype=np.int64) if slow is None \
            else np.asarray(slow, dtype=np.int64).copy()
        self.start = np.cumsum(self.dx) - self.dx if start is None \
            else np.asarray(start, dtype=float).copy()
        if len({len(getattr(self, name)) for name in self.COLUMNS}) != 1:
            raise ValueError("cell arrays must have equal length")
        if np.any(self.dx <= 0):
            raise ValueError("cell lengths must be positive")
        if np.any(self.rho < -1e-12) or np.any(self.rho > fd.rho_jam + 1e-12):
            raise DensityOutOfRange("initial densities outside [0, rho_jam]")

    def part(self, a: int, b: int) -> MacroSegment:
        """Cells a to b-1 as a segment of their own."""
        return MacroSegment(fd=self.fd, **{name: getattr(self, name)[a:b]
                                           for name in self.COLUMNS})

    @staticmethod
    def join(up: MacroSegment, down: MacroSegment) -> MacroSegment:
        """The cells of `up` followed by those of `down`."""
        return MacroSegment(fd=up.fd, **{name: np.concatenate([getattr(up, name),
                                                               getattr(down, name)])
                                         for name in MacroSegment.COLUMNS})

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

    def cell_speeds(self) -> np.ndarray:
        """Mean speed per cell, `cell_mean_speed` of every cell."""
        return cell_speeds(self)

    def mean_speed(self) -> float:
        """Mass-weighted mean speed over the segment (v_f when empty)."""
        mass = self.rho * self.dx * self.lanes
        return _mass_weighted_mean(mass, mass * self.cell_speeds(), self.fd.v_f)


class CellStore:
    """The cells of several segments in one set of arrays, segment after
    segment, so that one pass advances or observes them all.

    Each segment's `COLUMNS`, cell starts and jam counters included, are
    rebound to views into the store, so a write through either side is
    seen by the other; `slot[segments[k]] == k`.  The segment's own
    `cell_speeds` and `mean_speed` call the same kernels as the store and
    so give the same floats."""

    def __init__(self, segments: list[MacroSegment], fd: FundamentalDiagram,
                 dt: float):
        self.segments = segments
        self.slot = {seg: k for k, seg in enumerate(segments)}
        self.fd = fd
        sizes = np.array([len(seg) for seg in segments], dtype=np.intp)
        ends = np.cumsum(sizes)
        self.first = ends - sizes
        self.last = ends - 1
        self.bounds = list(zip(self.first.tolist(), ends.tolist()))
        for name in MacroSegment.COLUMNS:
            whole = np.concatenate([getattr(seg, name) for seg in segments]) \
                if segments else np.empty(0, dtype=np.int64 if name == "slow" else float)
            setattr(self, name, whole)
            for seg, (a, b) in zip(segments, self.bounds):
                setattr(seg, name, whole[a:b])
        if len(self.dx):
            wave = fd.max_wave_speed
            min_dx = float(np.min(self.dx))
            if dt > min_dx / wave + 1e-12:
                raise CflViolation(dt, min_dx, wave)
        self.scale = dt / (self.dx * self.lanes)

    def profiles(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cell's demand and supply, veh/s, as the cells stand."""
        return demand_supply(self)

    def step(self, dem: np.ndarray, sup: np.ndarray, inflow: np.ndarray,
             supply: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance every segment one cell-transmission step, from this
        state's `profiles()` and each segment's upstream inflow and
        downstream supply; returns the accepted inflows and the outflows,
        veh/s, one per segment.  Each interface inside a segment carries
        min(demand, supply); the boundaries are capped by the first cell's
        supply and the offered downstream supply."""
        if np.any(inflow < 0) or np.any(supply < 0):
            raise ValueError("boundary rates must be non-negative")
        rho = self.rho
        flux_in = np.empty(len(rho))
        flux_in[1:] = np.minimum(dem[:-1], sup[1:])
        flux_out = np.empty(len(rho))
        flux_out[:-1] = flux_in[1:]
        accepted = np.minimum(inflow, sup[self.first])
        outflow = np.minimum(dem[self.last], supply)
        flux_in[self.first] = accepted
        flux_out[self.last] = outflow
        rho += self.scale * (flux_in - flux_out)
        np.clip(rho, 0.0, self.fd.rho_jam, out=rho)
        return accepted, outflow

    def speed_ratios(self) -> tuple[np.ndarray, list[float]]:
        """Every cell's `cell_speeds() / v_f`, and per segment
        `mean_speed() / v_f`."""
        v_f = self.fd.v_f
        speeds = cell_speeds(self)
        mass = self.rho * self.dx * self.lanes
        moving = mass * speeds
        return speeds / v_f, [_mass_weighted_mean(mass[a:b], moving[a:b], v_f) / v_f
                              for a, b in self.bounds]


def ctm_step(segment: MacroSegment, upstream_inflow: float,
             downstream_supply: float, dt: float) -> tuple[float, float]:
    """`CellStore.step` on one segment; returns (accepted inflow, outflow) in
    veh/s and writes the new densities into segment.rho.  The store works on
    a copy, so a segment whose columns belong to another store keeps them."""
    store = CellStore([segment.part(0, len(segment))], segment.fd, dt)
    accepted, outflow = store.step(*store.profiles(), np.array([upstream_inflow], dtype=float),
                                   np.array([downstream_supply], dtype=float))
    segment.rho[:] = store.rho
    return accepted.item(), outflow.item()
