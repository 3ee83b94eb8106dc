"""Vehicle sources and sinks.

A flow-mass generator banks a prescribed flow rate into per-lane
accumulators and emits one insertion per whole accumulated vehicle, so the
realized rate matches the profile exactly over time.  A scripted generator
replays user-defined creation events.  Every source sits at the start of
its road.  Insertions that cannot be placed safely wait in a FIFO retry
queue whose content still counts as mass.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .micro import PARAM_NAMES, DriverParams

# sampling bounds keeping DriverParams valid by construction
_LOWER = {"v0": 0.1, "T": 0.1, "a_max": 0.05, "b": 0.05, "delta": 1.0,
          "s0": 0.1, "p": 0.0, "da_th": 0.0, "b_safe": 0.1, "length": 0.5}
_UPPER = {"p": 1.0}


def stream_seed(global_seed: int, name: str) -> list[int]:
    """Independent, reproducible seed material for one named rng stream.

    Seed bits above 31 extend the material only when one is set, so every
    seed below 2**32 keeps the stream it always had."""
    if global_seed < 0:
        raise ValueError(f"seed must be non-negative, got {global_seed}")
    material = [global_seed & 0xFFFFFFFF, zlib.crc32(name.encode())]
    if global_seed >> 32:
        material.append(global_seed >> 32)
    return material


@dataclass(frozen=True)
class Distribution:
    """Scalar sampling rule: constant, uniform(lo, hi) or truncated normal."""

    kind: str                   # "constant" | "uniform" | "normal"
    a: float                    # value | lo | mean
    b: float = 0.0              # unused | hi | sd

    def sample(self, rng: np.random.Generator, name: str) -> float:
        if self.kind == "constant":
            x = self.a
        elif self.kind == "uniform":
            x = float(rng.uniform(self.a, self.b))
        elif self.kind == "normal":
            x = float(rng.normal(self.a, self.b))
            x = min(max(x, self.a - 3 * self.b), self.a + 3 * self.b)
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        x = max(x, _LOWER.get(name, 0.0))
        if name in _UPPER:
            x = min(x, _UPPER[name])
        return x


@dataclass(frozen=True)
class VehicleMix:
    """Driver-parameter and length distributions for one generation point."""

    params: dict = field(default_factory=dict)     # name -> Distribution
    length: Distribution = Distribution("constant", 4.0)
    destinations: tuple = ()                       # (sink id, weight) pairs

    def min_spacing(self) -> float:
        """Tightest admissible front-to-front spacing this mix can produce."""
        s0 = self.params.get("s0", Distribution("constant", DriverParams.s0))
        lo_s0 = s0.a if s0.kind != "uniform" else min(s0.a, s0.b)
        if s0.kind == "normal":
            lo_s0 = max(_LOWER["s0"], s0.a - 3 * s0.b)
        hi_len = self.length.a if self.length.kind != "uniform" \
            else max(self.length.a, self.length.b)
        if self.length.kind == "normal":
            hi_len = self.length.a + 3 * self.length.b
        return max(_LOWER["s0"], lo_s0) + hi_len

    def sample(self, rng: np.random.Generator) -> tuple[DriverParams, float]:
        values = {}
        for name in PARAM_NAMES:
            if name in self.params:
                values[name] = self.params[name].sample(rng, name)
        length = self.length.sample(rng, "length")
        return DriverParams(**values), length

    def pick_destination(self, rng: np.random.Generator) -> str | None:
        if not self.destinations:
            return None
        if len(self.destinations) == 1:
            return self.destinations[0][0]
        names = [d[0] for d in self.destinations]
        weights = np.array([d[1] for d in self.destinations], dtype=float)
        return str(rng.choice(names, p=weights / weights.sum()))


@dataclass(frozen=True)
class InsertionSpec:
    """One vehicle to place: a source's emission, a forced insertion, and,
    as parsed from a scenario, an initial `<vehicle>` or a script `<event>`
    (at its source's road, position 0)."""

    road: str
    lane: int
    position: float
    speed: float | None            # None: as fast as the limit allows
    params: DriverParams
    length: float
    destination: str | None


@dataclass(frozen=True)
class FlowProfile:
    """Piecewise-constant flow, veh/h per lane: steps at (time, rate) knots."""

    knots: tuple                   # ((t, q), ...) with non-decreasing t

    def rate_at(self, t: float) -> float:
        q = 0.0
        for knot_t, knot_q in self.knots:
            if t >= knot_t - 1e-12:
                q = knot_q
            else:
                break
        return q


class FlowMassGenerator:
    """Source releasing whole vehicles from per-lane flow accumulators.

    The default release is deterministic (exact long-run rate); with
    `poisson=True` each step instead draws a Poisson arrival count with the
    same mean, trading exactness for arrival randomness."""

    def __init__(self, gen_id: str, road: str, lanes: tuple[int, ...],
                 profile: FlowProfile, mix: VehicleMix, seed: int,
                 poisson: bool = False):
        self.id = gen_id
        self.road = road
        self.lanes = lanes
        self.profile = profile
        self.mix = mix
        self.poisson = poisson
        self.rng = np.random.default_rng(stream_seed(seed, f"gen:{gen_id}"))
        self.accumulator = np.zeros(len(lanes))
        self.offered = 0.0            # accumulator sum at the last macro offer
        self.retry: deque[InsertionSpec] = deque()

    def mass(self) -> float:
        return float(self.accumulator.sum()) + float(len(self.retry))

    def _draw(self, lane: int) -> InsertionSpec:
        params, length = self.mix.sample(self.rng)
        destination = self.mix.pick_destination(self.rng)
        return InsertionSpec(road=self.road, lane=lane, position=0.0,
                             speed=None, params=params, length=length,
                             destination=destination)

    def generation_influences(self, t: float, dt: float) -> list[InsertionSpec]:
        """Bank q(t)*dt on each lane; emit one insertion per whole vehicle."""
        q = self.profile.rate_at(t)
        out: list[InsertionSpec] = []
        for i, lane in enumerate(self.lanes):
            if self.poisson:
                count = int(self.rng.poisson(q * dt / 3600.0))
                out.extend(self._draw(lane) for _ in range(count))
                continue
            self.accumulator[i] += q * dt / 3600.0
            while self.accumulator[i] >= 1.0 - 1e-9:
                self.accumulator[i] -= 1.0
                out.append(self._draw(lane))
        return out

    # --- macro-entry mode: the attached cluster is currently macroscopic ---

    def offer_macro_inflow(self, t: float, dt: float) -> float:
        """Bank this step's flow and offer everything banked as a rate."""
        q = self.profile.rate_at(t)
        self.accumulator += q * dt / 3600.0
        self.offered = float(self.accumulator.sum())
        return self.offered / dt

    def settle_macro_inflow(self, accepted: float, dt: float) -> float:
        """Drain accepted mass from the accumulators, in proportion to what
        each lane held at this step's offer; returns drained mass."""
        total, self.offered = self.offered, 0.0
        if total <= 0:
            return 0.0
        take = min(accepted * dt, total)
        self.accumulator[:] = [a - a / total * take for a in self.accumulator.tolist()]
        return take


class ScriptedGenerator:
    """Source replaying explicit creation events at fixed times."""

    def __init__(self, gen_id: str, road: str, events):
        # events: iterable of (time, InsertionSpec) with non-decreasing time
        self.id = gen_id
        self.road = road
        self.events = sorted(events, key=lambda e: e[0])
        self._cursor = 0
        self.retry: deque[InsertionSpec] = deque()

    def mass(self) -> float:
        return float(len(self.retry))

    def generation_influences(self, t: float, dt: float) -> list[InsertionSpec]:
        """Emit every scripted event with time inside [t, t+dt), in order."""
        out: list[InsertionSpec] = []
        while self._cursor < len(self.events) and self.events[self._cursor][0] < t + dt:
            ev_t, spec = self.events[self._cursor]
            if ev_t >= t - 1e-12:
                out.append(spec)
            self._cursor += 1
        return out
