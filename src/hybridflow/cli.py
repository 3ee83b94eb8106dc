"""Command-line front end.

Loads a scenario, runs it deterministically with the selected probes, and
exports step records, trajectories and the level-of-detail transition log.
Output files are reproducible byte-for-byte from (scenario, seed, flags)
and are written atomically (temp file, then rename).

Exit codes: 0 success, 1 scenario problems, 2 runtime simulation errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

from .engine import EngineConfig, SimulationEngine
from .lod import LodPolicy
from .probes import (CanaryProbe, MassAuditProbe, StepRecordProbe,
                     TrajectoryProbe, TransitionLogProbe, fmt)
from .scenario import ScenarioError, parse_scenario

STEP_COLUMNS = ("step", "time", "cluster", "chain", "representation", "start",
                "end", "vehicles", "mean_density", "mean_speed", "inflow",
                "outflow", "inserted", "absorbed", "total_mass")
TRAJECTORY_COLUMNS = ("step", "time", "vehicle", "road", "lane", "position", "speed")
TRANSITION_COLUMNS = ("step", "kind", "clusters", "chain", "position", "trigger",
                      "pre_mass", "post_mass")

PROBE_NAMES = ("steps", "trajectories", "transitions", "audit")


def atomic_write(path: Path, text: str) -> None:
    """Write via a sibling temp file so interrupted runs leave no fragment."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def export_step_records(rows: list[dict], fmt_name: str, path: Path) -> None:
    """Fixed column order, 9 significant digits; one totals row per step."""
    if fmt_name == "csv":
        lines = [",".join(STEP_COLUMNS)]
        for row in rows:
            lines.append(",".join(fmt(row.get(col)) for col in STEP_COLUMNS))
        atomic_write(path, "\n".join(lines) + "\n")
        return
    by_step: dict[int, dict] = {}
    for row in rows:
        entry = by_step.setdefault(row["step"], {"step": row["step"],
                                                 "time": _num(row["time"]),
                                                 "clusters": []})
        if row["cluster"] == "TOTAL":
            entry["inserted"] = row["inserted"]
            entry["absorbed"] = row["absorbed"]
            entry["total_mass"] = _num(row["total_mass"])
        else:
            entry["clusters"].append({k: _num(row[k]) for k in
                                      ("cluster", "chain", "representation",
                                       "start", "end", "vehicles",
                                       "mean_density", "mean_speed",
                                       "inflow", "outflow")})
    text = json.dumps([by_step[k] for k in sorted(by_step)], indent=1,
                      sort_keys=True)
    atomic_write(path, text + "\n")


def _num(x):
    if isinstance(x, float):
        return float(fmt(x)) if x == x and abs(x) != float("inf") else str(x)
    return x


def export_trajectories(rows: list[dict], path: Path) -> None:
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt(row[col]) for col in TRAJECTORY_COLUMNS))
    atomic_write(path, "\n".join(lines) + "\n")


def export_transitions(records, path: Path) -> None:
    """One row per applied level-of-detail action."""
    lines = [",".join(TRANSITION_COLUMNS)]
    for rec in records:
        lines.append(",".join([
            str(rec.step), rec.kind, "+".join(rec.cluster_ids), rec.chain_id,
            fmt(rec.position), rec.trigger, fmt(rec.pre_mass), fmt(rec.post_mass)]))
    atomic_write(path, "\n".join(lines) + "\n")


def export_audit(audit: MassAuditProbe, path: Path) -> None:
    payload = {
        "initial_mass": _num(audit.initial_mass or 0.0),
        "final_mass": _num(audit.final_mass or 0.0),
        "final_residual": _num(audit.final_residual or 0.0),
        "violations": [{"step": v.step, "kind": v.kind, "value": _num(v.value)}
                       for v in audit.violations],
    }
    atomic_write(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _parse_lod_overrides(text: str, base: LodPolicy) -> LodPolicy:
    values = {}
    for item in text.split(","):
        if not item.strip():
            continue
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in {f.name for f in dataclasses.fields(LodPolicy)}:
            raise ValueError(f"unknown policy key {key!r}")
        current = getattr(base, key)
        values[key] = type(current)(float(raw)) if isinstance(current, float) \
            else int(raw)
    return dataclasses.replace(base, **values)


def _non_negative(kind):
    """argparse type: a finite number of `kind` that is at least zero."""
    def parse(text: str):
        value = kind(text)
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridflow",
        description="Hybrid micro/macro road-traffic simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario and export records")
    run.add_argument("--scenario", required=True,
                     help="scenario main file or directory")
    group = run.add_mutually_exclusive_group()
    group.add_argument("--steps", type=_non_negative(int), help="number of steps to run")
    group.add_argument("--duration", type=_non_negative(float),
                       help="simulated seconds to run")
    run.add_argument("--seed", type=_non_negative(int), default=0,
                     help="rng seed (default 0)")
    run.add_argument("--out", default="./out", help="output directory")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--lod", default="", help="policy overrides, key=value[,key=value]")
    run.add_argument("--probes", default=",".join(PROBE_NAMES),
                     help="comma list from: " + ", ".join(PROBE_NAMES))
    return parser


def run_command(argv: list[str]) -> int:
    """Entry point behind `hybridflow run ...`; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        model = parse_scenario(args.scenario)
        if args.lod:
            model.lod = _parse_lod_overrides(args.lod, model.lod)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1

    wanted = [name.strip() for name in args.probes.split(",") if name.strip()]
    unknown = [name for name in wanted if name not in PROBE_NAMES]
    if unknown:
        print(f"unknown probes: {', '.join(unknown)}", file=sys.stderr)
        return 1

    steps = args.steps
    if steps is None and args.duration is not None:
        steps = int(round(args.duration / model.time_step))

    probes = {}
    if "steps" in wanted:
        probes["steps"] = StepRecordProbe()
    if "trajectories" in wanted:
        probes["trajectories"] = TrajectoryProbe()
    if "transitions" in wanted:
        probes["transitions"] = TransitionLogProbe()
    if "audit" in wanted:
        probes["audit"] = MassAuditProbe()
    canary = CanaryProbe()

    config = EngineConfig(steps=steps, seed=args.seed)
    engine = SimulationEngine(config, list(probes.values()) + [canary])
    started = time.perf_counter()
    try:
        state = engine.run(model)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # noqa: BLE001 - boundary of the process
        print(f"simulation error: {exc!r}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - started

    out = Path(args.out)
    if "steps" in probes:
        suffix = "csv" if args.format == "csv" else "json"
        export_step_records(probes["steps"].rows, args.format, out / f"steps.{suffix}")
    if "trajectories" in probes:
        export_trajectories(probes["trajectories"].rows, out / "trajectories.csv")
    if "transitions" in probes:
        export_transitions(probes["transitions"].records, out / "transitions.csv")
    if "audit" in probes:
        export_audit(probes["audit"], out / "audit.json")

    transitions = len(probes["transitions"].records) if "transitions" in probes else 0
    summary = (f"steps={engine.report.steps_executed} "
               f"inserted={state.ledger.inserted} absorbed={state.ledger.absorbed} "
               f"transitions={transitions} wall={wall:.2f}s")
    print(summary)
    if canary.problems:
        print(f"warning: {len(canary.problems)} inconsistent snapshots",
              file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
