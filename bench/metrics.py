"""Metric definitions and their computation from measured rounds.

Times are rescaled to a reference host speed (see `tracing.StepClock`):
a time is reported as measured, times REFERENCE_KERNEL_S over the reference
kernel's time measured alongside it.  Raw times go to the text report.

End-to-end metrics come from untraced rounds.  Per-layer metrics come from
the traced rounds of a `--trace 1` run; counts are given per round, which is
a fixed amount of simulated work, so they repeat exactly.  Each per-layer
entry names the end-to-end metric it should move and the workload where it
does so, as recorded when the benchmark was defined.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from tracing import REFERENCE_KERNEL_S

END_TO_END = [
    # name, unit, better
    ("steps_per_s", "1/s", "higher"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p99", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    # name, unit, better, end-to-end metric it should move -> workload
    ("scenario.parse_s", "s", "lower", "setup_s -> macro_network"),
    ("engine.build_state_s", "s", "lower",
     "setup_s -> micro_corridor (preloaded vehicles), macro_network"),
    ("engine.self_ms_per_step", "ms", "lower", "steps_per_s -> all three"),
    ("engine.perceive_us_per_call", "us", "lower", "steps_per_s -> micro_corridor"),
    ("engine.perceive_calls", "count", "lower", "steps_per_s -> micro_corridor"),
    ("engine.inserted", "count", "higher", "simulated statistic, repeats exactly"),
    ("engine.absorbed", "count", "higher", "simulated statistic, repeats exactly"),
    ("micro.behavior_chain_us_per_call", "us", "lower", "steps_per_s -> micro_corridor"),
    ("micro.veh_steps", "count", "higher", "steps_per_s -> micro_corridor"),
    ("micro.us_per_veh_step", "us", "lower", "steps_per_s -> micro_corridor"),
    ("micro.lane_change_intents", "count", "lower", "steps_per_s -> micro_corridor"),
    ("macro.ctm_step_us_per_call", "us", "lower", "steps_per_s -> macro_network"),
    ("macro.cell_steps", "count", "higher", "steps_per_s -> macro_network"),
    ("macro.us_per_cell_step", "us", "lower", "steps_per_s -> macro_network"),
    ("macro.cell_mean_speed_calls", "count", "lower", "steps_per_s -> macro_network"),
    ("lod.observe_ms_per_step", "ms", "lower",
     "steps_per_s -> macro_network; step_ms_p99 -> hybrid_jams_cli"),
    ("lod.plan_ms_per_step", "ms", "lower",
     "steps_per_s -> macro_network; step_ms_p99 -> hybrid_jams_cli"),
    *[(f"lod.actions.{kind}.{trigger}", "count", "lower",
       "simulated statistic, repeats exactly")
      for kind, trigger in (("split", "jam"), ("refine", "jam"), ("merge", "recovery"),
                            ("coarsen", "recovery"), ("coarsen", "budget"))],
    ("hybrid.switch_ms", "ms", "lower", "step_ms_p99, steps_per_s -> hybrid_jams_cli"),
    ("hybrid.switches", "count", "lower", "step_ms_p99, steps_per_s -> hybrid_jams_cli"),
    ("hybrid.release_us_per_call", "us", "lower",
     "step_ms_p99, steps_per_s -> hybrid_jams_cli"),
    ("hybrid.pending_mean", "count", "lower", "step_ms_p99, steps_per_s -> hybrid_jams_cli"),
    ("generation.influences_us_per_call", "us", "lower", "steps_per_s -> micro_corridor"),
    ("generation.retry_depth_mean", "count", "lower", "steps_per_s -> micro_corridor"),
    ("network.route_calls", "count", "lower", "setup_s, steps_per_s -> micro_corridor"),
    ("network.route_ms", "ms", "lower", "setup_s, steps_per_s -> micro_corridor"),
    *[(f"probes.{probe}_ms_per_step", "ms", "lower", "steps_per_s -> hybrid_jams_cli")
      for probe in ("steps", "trajectories", "audit", "canary")],
    *[(f"cli.export_s.{export}", "s", "lower", "export_s, peak_rss_mb -> hybrid_jams_cli")
      for export in ("steps", "trajectories", "transitions", "audit")],
    ("cli.bytes_written", "bytes", "lower", "export_s, peak_rss_mb -> hybrid_jams_cli"),
    ("trace.overhead_frac", "frac", "lower", "traced run against the untraced run"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def step_latencies_ms(rounds) -> np.ndarray:
    """Rescaled latency of each step: the lower of its two timings in the
    first two rounds.  Rounds replay identical work, so a step that is slow
    in one round only was slowed by the host, not by its work."""
    first, second = (np.multiply(r.clock.latencies, r.clock.speed_factors())
                     for r in rounds[:2])
    n = min(len(first), len(second))
    return np.minimum(first[:n], second[:n]) * 1e3


def end_to_end(rounds, setup_times: list[float]) -> dict[str, float]:
    latencies = step_latencies_ms(rounds)
    steps = sum(r.clock.steps for r in rounds)
    return {
        "steps_per_s": steps / sum(r.clock.stepping_s(normalized=True) for r in rounds),
        "step_ms_p50": float(np.percentile(latencies, 50)),
        "step_ms_p99": float(np.percentile(latencies, 99)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def raw_end_to_end(rounds) -> dict[str, float]:
    """The same step figures as measured, for the report."""
    latencies = np.concatenate([r.clock.latencies for r in rounds]) * 1e3
    return {
        "steps_per_s": sum(r.clock.steps for r in rounds)
        / sum(r.clock.stepping_s(normalized=False) for r in rounds),
        "step_ms_p50": float(np.percentile(latencies, 50)),
        "step_ms_p99": float(np.percentile(latencies, 99)),
        "reference_kernel_ms": float(np.median(
            np.concatenate([r.clock.references for r in rounds]))) * 1e3,
    }


def round_factor(rounds) -> float:
    """One speed factor for times not attributed to single steps."""
    refs = np.concatenate([r.clock.references for r in rounds])
    return REFERENCE_KERNEL_S / float(np.median(refs))


def per_layer(tracer, traced, untraced) -> dict[str, float]:
    """`traced`/`untraced` are the rounds run with and without the tracer."""
    n = len(traced)
    speed = round_factor(traced)
    steps = sum(r.clock.steps for r in traced)
    veh_steps = sum(r.clock.veh_steps for r in traced)
    cell_steps = sum(r.clock.cell_steps for r in traced)

    def span(name: str) -> tuple[int, float, float]:
        calls, total, own = tracer.totals(name)
        return calls, total * speed, own * speed

    out: dict[str, float] = {}

    calls, total, _ = span("scenario.parse_scenario")
    out["scenario.parse_s"] = _per(total, calls)
    calls, total, _ = span("engine.build_state")
    out["engine.build_state_s"] = _per(total, calls)
    _, _, own = span("engine.advance_step")
    out["engine.self_ms_per_step"] = _per(own, steps, 1e3)

    perceive_calls, perceive_s, _ = span("engine.perceive")
    out["engine.perceive_us_per_call"] = _per(perceive_s, perceive_calls, 1e6)
    out["engine.perceive_calls"] = perceive_calls / n
    instances = [i for r in traced for i in r.instances]
    out["engine.inserted"] = sum(i.inserted for i in instances) / n
    out["engine.absorbed"] = sum(i.absorbed for i in instances) / n

    chain_calls, chain_s, _ = span("micro.behavior_chain")
    out["micro.behavior_chain_us_per_call"] = _per(chain_s, chain_calls, 1e6)
    out["micro.veh_steps"] = veh_steps / n
    # the per-vehicle decision cost: perception plus the behavior chain
    out["micro.us_per_veh_step"] = _per(perceive_s + chain_s, chain_calls, 1e6)
    out["micro.lane_change_intents"] = tracer.lane_change_intents / n

    calls, total, _ = span("macro.ctm_step")
    out["macro.ctm_step_us_per_call"] = _per(total, calls, 1e6)
    out["macro.cell_steps"] = cell_steps / n
    out["macro.us_per_cell_step"] = _per(total, cell_steps, 1e6)
    out["macro.cell_mean_speed_calls"] = tracer.count("macro.cell_mean_speed") / n

    out["lod.observe_ms_per_step"] = _per(span("lod.observe")[1], steps, 1e3)
    out["lod.plan_ms_per_step"] = _per(span("lod.plan")[1], steps, 1e3)
    for name, *_ in PER_LAYER:
        if name.startswith("lod.actions."):
            _, _, kind, trigger = name.split(".")
            out[name] = sum(i.actions[(kind, trigger)] for i in instances) / n

    calls, total, _ = span("hybrid.switch")
    out["hybrid.switch_ms"] = _per(total, calls, 1e3)
    out["hybrid.switches"] = calls / n
    calls, total, _ = span("hybrid.release")
    out["hybrid.release_us_per_call"] = _per(total, calls, 1e6)
    out["hybrid.pending_mean"] = _per(sum(r.clock.pending for r in traced), steps)

    calls, total, _ = span("generation.influences")
    out["generation.influences_us_per_call"] = _per(total, calls, 1e6)
    out["generation.retry_depth_mean"] = _per(sum(r.clock.retry for r in traced), steps)

    calls, total, _ = span("network.compute_route")
    out["network.route_calls"] = calls / n
    out["network.route_ms"] = total / n * 1e3

    for probe in ("steps", "trajectories", "audit", "canary"):
        out[f"probes.{probe}_ms_per_step"] = _per(span(f"probes.{probe}")[1], steps, 1e3)
    for export in ("steps", "trajectories", "transitions", "audit"):
        calls, total, _ = span(f"cli.export.{export}")
        out[f"cli.export_s.{export}"] = _per(total, calls)
    out["cli.bytes_written"] = sum(i.bytes_written for i in instances) / n

    traced_rate = sum(r.clock.stepping_s(normalized=True) for r in traced) / steps
    untraced_rate = (sum(r.clock.stepping_s(normalized=True) for r in untraced)
                     / sum(r.clock.steps for r in untraced))
    out["trace.overhead_frac"] = traced_rate / untraced_rate - 1.0
    return out
