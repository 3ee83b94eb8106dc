"""Command-line front end.

Loads a scenario, runs it deterministically with the selected probes, and
exports step records, trajectories and the level-of-detail transition log.
Output files are reproducible byte-for-byte from (scenario, seed, flags)
and are written atomically (temp file, then rename).

Exit codes: 0 success; 1 scenario problems, found at load or refused by
the engine's build; 2 runtime simulation errors, a probe failure or an
inconsistent snapshot, which the audit looks for whatever `--probes` lists.
After a probe failure or an inconsistent snapshot the outputs are still
written.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

from .engine import EngineConfig, ScenarioRefused, SimulationEngine
from .lod import LodPolicy
from .probes import (STEP_COLUMNS, TRAJECTORY_COLUMNS, MassAuditProbe,
                     StepRecordProbe, TrajectoryProbe, fmt)
from .scenario import ScenarioError, check_time_step, parse_scenario

TRANSITION_COLUMNS = ("step", "kind", "clusters", "chain", "position", "trigger",
                      "pre_mass", "post_mass")

PROBE_NAMES = ("steps", "trajectories", "transitions", "audit")


def atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Stream the chunks into a sibling temp file, then rename it over
    `path`: a failed or interrupted write leaves no fragment and keeps the
    old file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def export_csv(columns: tuple, rows: Iterable[tuple], path: Path) -> None:
    """A header line, then one line per row of values in column order, each
    value rendered by `fmt`; the lines stream to disk as they are made."""
    lines = (",".join(map(fmt, row)) + "\n" for row in rows)
    atomic_write(path, itertools.chain([",".join(columns) + "\n"], lines))


def export_step_records(rows: list[tuple], fmt_name: str, path: Path) -> None:
    """Fixed column order, 9 significant digits; one totals row per step."""
    if fmt_name == "csv":
        export_csv(STEP_COLUMNS, rows, path)
        return
    by_step: dict[int, dict] = {}
    for values in rows:
        row = dict(zip(STEP_COLUMNS, values))
        entry = by_step.setdefault(row["step"], {"step": row["step"],
                                                 "time": _num(row["time"]),
                                                 "clusters": []})
        if row["cluster"] == "TOTAL":   # inserted, absorbed, total_mass
            entry.update({k: _num(row[k]) for k in STEP_COLUMNS[12:]})
        else:                           # cluster through outflow
            entry["clusters"].append({k: _num(row[k]) for k in STEP_COLUMNS[2:12]})
    text = json.dumps([by_step[k] for k in sorted(by_step)], indent=1,
                      sort_keys=True)
    atomic_write(path, [text, "\n"])


def _num(x):
    if isinstance(x, float):
        return float(fmt(x)) if x == x and abs(x) != float("inf") else str(x)
    return x


def export_trajectories(rows: list[tuple], path: Path) -> None:
    export_csv(TRAJECTORY_COLUMNS, rows, path)


def export_transitions(records, path: Path) -> None:
    """One row per applied level-of-detail action."""
    export_csv(TRANSITION_COLUMNS, ((rec.step, rec.kind, "+".join(rec.cluster_ids),
                                     rec.chain_id, rec.position, rec.trigger,
                                     rec.pre_mass, rec.post_mass) for rec in records),
               path)


def export_audit(audit: MassAuditProbe, path: Path) -> None:
    payload = {
        "initial_mass": _num(audit.initial_mass or 0.0),
        "final_mass": _num(audit.final_mass or 0.0),
        "final_residual": _num(audit.final_residual or 0.0),
        "violations": [{"step": v.step, "kind": v.kind, "value": _num(v.value)}
                       for v in audit.violations],
    }
    atomic_write(path, [json.dumps(payload, indent=1, sort_keys=True), "\n"])


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
            check_time_step(model, args.scenario)
    except (ScenarioError, ValueError) as exc:
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
    audit = MassAuditProbe()

    config = EngineConfig(steps=steps, seed=args.seed)
    engine = SimulationEngine(config, list(probes.values()) + [audit])
    try:
        state = engine.run(model)
    except ScenarioRefused as exc:
        print(f"scenario error: {args.scenario}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # noqa: BLE001 - boundary of the process
        print(f"simulation error: {exc!r}", file=sys.stderr)
        return 2

    out = Path(args.out)
    if "steps" in probes:
        suffix = "csv" if args.format == "csv" else "json"
        export_step_records(probes["steps"].rows, args.format, out / f"steps.{suffix}")
    if "trajectories" in probes:
        export_trajectories(probes["trajectories"].rows, out / "trajectories.csv")
    if "transitions" in wanted:
        export_transitions(state.transitions, out / "transitions.csv")
    if "audit" in wanted:
        export_audit(audit, out / "audit.json")

    summary = (f"steps={engine.report.steps_executed} "
               f"inserted={state.ledger.inserted} absorbed={state.ledger.absorbed} "
               f"transitions={len(state.transitions)} wall={engine.report.wall_time:.2f}s")
    print(summary)
    failures = engine.report.probe_failures
    if failures:
        probe, event, error = failures[0]
        print(f"warning: {len(failures)} probe failures, the first in "
              f"{probe}.{event}: {error}", file=sys.stderr)
    if audit.problems:
        print(f"warning: {len(audit.problems)} inconsistent snapshots",
              file=sys.stderr)
    return 2 if failures or audit.problems else 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
