"""Timing wrappers installed around the engine's public functions.

`engine.py` imports its collaborators by name, so a wrapper must replace
the name where the caller looks it up (for example
`hybridflow.engine.behavior_chain`, not `hybridflow.micro.behavior_chain`).
Methods are replaced on their class.  Every replacement is undone when the
`Patches` context exits.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter


class Patches:
    """Replace attributes for the duration of a `with` block."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make) -> None:
        """Set `owner.name = make(original)`."""
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


#: the reference kernel's time on an unloaded 2-core reference host
REFERENCE_KERNEL_S = 0.3e-3
#: reference samples on each side of a step that its speed factor uses
REFERENCE_NEIGHBOURS = 2


def reference_kernel() -> float:
    """Fixed interpreter-bound work (dict updates and float math, like the
    engine's inner loops); its duration tracks the host's current speed."""
    table: dict = {}
    acc = 0.0
    for i in range(1000):
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += math.sqrt(i + 1.0) * 1.0001
    return acc


def time_reference() -> float:
    started = perf_counter()
    reference_kernel()
    return perf_counter() - started


class StepClock:
    """Times each `advance_step` call and samples simulated work after it.

    Installed in every round, traced or not; its bookkeeping runs outside
    the timed call.  A shared host changes speed by tens of percent, for
    seconds or for a few steps, as other tenants come and go, so after each
    step the clock also times a fixed reference kernel.  `speed_factors()`
    turns those samples into a per-step factor that rescales measured times
    to a host on which the kernel takes REFERENCE_KERNEL_S."""

    def __init__(self):
        self.latencies: list[float] = []   # seconds inside advance_step
        self.loops: list[float] = []       # call start to next call start, probes included
        self.windows: list[int] = []       # latest reference sample at each step
        self.references: list[float] = []  # reference kernel seconds
        self.steps = 0
        self.veh_steps = 0
        self.cell_steps = 0
        self.pending = 0       # interface release queue depth, summed over steps
        self.retry = 0         # blocked generator insertions, summed over steps
        self._open: float | None = None    # start of the step whose loop is open
        self._excluded = 0.0               # reference time inside the open loop

    def _reference(self) -> None:
        duration = time_reference()
        self.references.append(duration)
        self._excluded += duration

    def begin(self) -> None:
        """Start of a stepping loop."""
        self._open = None
        self._reference()

    def end(self) -> None:
        """End of a stepping loop: closes the last step's loop time."""
        if self._open is not None:
            self.loops.append(perf_counter() - self._open - self._excluded)
        self._open = None

    def wrap(self, advance_step):
        latencies = self.latencies

        def timed_advance_step(state, config):
            started = perf_counter()
            if self._open is not None:
                self.loops.append(started - self._open - self._excluded)
            self._open = None       # an aborted step leaves no loop open
            result = advance_step(state, config)
            latencies.append(perf_counter() - started)
            self.windows.append(len(self.references) - 1)
            self._open, self._excluded = started, 0.0
            self.steps += 1
            for cluster in state.clusters.values():
                if cluster.segment is None:
                    self.veh_steps += len(cluster.vehicles)
                else:
                    self.cell_steps += len(cluster.segment)
            self.pending += sum(len(itf.pending) for itf in state.interfaces.values())
            self.retry += sum(len(gen.retry) for gen in state.generators)
            self._reference()
            return result

        return timed_advance_step

    def speed_factors(self) -> list[float]:
        """Per step: REFERENCE_KERNEL_S over the median of the reference
        samples within REFERENCE_NEIGHBOURS of the one taken before it."""
        refs, k = self.references, REFERENCE_NEIGHBOURS
        smoothed = [statistics.median(refs[max(i - k, 0):i + k + 1])
                    for i in range(len(refs))]
        return [REFERENCE_KERNEL_S / smoothed[w] for w in self.windows]

    def stepping_s(self, normalized: bool) -> float:
        """Time of the stepping loops, probes included, reference runs not."""
        if not normalized:
            return sum(self.loops)
        return sum(t * f for t, f in zip(self.loops, self.speed_factors()))


class Tracer:
    """Aggregated spans keyed by (parent, name), plus plain call counters.

    A span's self time is its duration minus the time covered by the spans
    it encloses.  Per-cell functions get a counter instead of a span: timing
    a call that short would cost more than the call."""

    def __init__(self):
        # (parent, name) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: dict[str, list[int]] = {}
        self.lane_change_intents = 0
        self._stack: list[list] = []   # [name, seconds covered by children]

    def span(self, name: str):
        stack = self._stack
        spans = self.spans

        def make(fn):
            def traced(*args, **kwargs):
                frame = [name, 0.0]
                stack.append(frame)
                started = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - started
                    stack.pop()
                    parent = stack[-1] if stack else None
                    key = (parent[0] if parent else "", name)
                    entry = spans.get(key)
                    if entry is None:
                        entry = spans[key] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
                    if parent is not None:
                        parent[1] += duration
            return traced
        return make

    def counter(self, name: str):
        cell = self.counts.setdefault(name, [0])

        def make(fn):
            def counted(*args):
                cell[0] += 1
                return fn(*args)
            return counted
        return make

    def behavior_span(self):
        """Span for `behavior_chain` that also counts lane-change intents."""
        inner = self.span("micro.behavior_chain")

        def make(fn):
            def chain(vehicle, perception, ctx):
                intent = fn(vehicle, perception, ctx)
                if intent.lane_change != 0:
                    self.lane_change_intents += 1
                return intent
            return inner(chain)
        return make

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of a span over all parents."""
        calls, total, own = 0, 0.0, 0.0
        for (_, span_name), entry in self.spans.items():
            if span_name == name:
                calls += entry[0]
                total += entry[1]
                own += entry[2]
        return calls, total, own

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]


def install_tracer(patches: Patches, tracer: Tracer) -> None:
    """Wrap each layer's public entry points where the engine and CLI look
    them up."""
    from hybridflow import cli, engine, hybrid, probes, scenario
    from hybridflow.generation import FlowMassGenerator
    from hybridflow.lod import LodController

    span = tracer.span
    patches.replace(scenario, "parse_scenario", span("scenario.parse_scenario"))
    patches.replace(cli, "parse_scenario", span("scenario.parse_scenario"))
    patches.replace(engine, "build_state", span("engine.build_state"))
    patches.replace(engine, "advance_step", span("engine.advance_step"))
    patches.replace(engine.Scene, "perceive", span("engine.perceive"))
    patches.replace(engine, "behavior_chain", tracer.behavior_span())
    patches.replace(engine, "ctm_step", span("macro.ctm_step"))
    patches.replace(engine, "cell_mean_speed", tracer.counter("macro.cell_mean_speed"))
    patches.replace(hybrid, "cell_mean_speed", tracer.counter("macro.cell_mean_speed"))
    patches.replace(LodController, "observe", span("lod.observe"))
    patches.replace(LodController, "plan", span("lod.plan"))
    patches.replace(engine, "aggregate_cluster", span("hybrid.switch"))
    patches.replace(engine, "disaggregate_cluster", span("hybrid.switch"))
    patches.replace(engine, "macro_to_micro_release", span("hybrid.release"))
    patches.replace(FlowMassGenerator, "generation_influences",
                    span("generation.influences"))
    patches.replace(engine, "compute_route", span("network.compute_route"))
    patches.replace(probes.StepRecordProbe, "on_step_end", span("probes.steps"))
    patches.replace(probes.TrajectoryProbe, "on_step_end", span("probes.trajectories"))
    patches.replace(probes.MassAuditProbe, "on_step_end", span("probes.audit"))
    patches.replace(probes.CanaryProbe, "on_step_end", span("probes.canary"))
    for export in ("steps", "trajectories", "transitions", "audit"):
        fn = "export_step_records" if export == "steps" else f"export_{export}"
        patches.replace(cli, fn, span(f"cli.export.{export}"))
