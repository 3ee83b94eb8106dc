"""Workload rounds: run generated instances, time them and check them.

A round is a fixed amount of simulated work, so its simulated statistics
and digests repeat exactly from round to round and from commit to commit:

* library workloads run instance 0, 1, 2, ... through `parse_scenario`,
  `build_state` and `advance_step` until the round's step budget is spent.
  An instance that raises is recorded as failed and the round goes on with
  the next instance, so every round attempts the same number of steps
  whether or not the engine aborts;
* the CLI workload runs one instance through `cli.run_command` with all
  probes, the canary and CSV export.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from scenarios import write_instance
from tracing import Patches, StepClock

LEDGER_TOLERANCE = 1e-9
MASS_TOLERANCE = 1e-9
CLI_OUTPUTS = ("steps.csv", "trajectories.csv", "transitions.csv", "audit.json")
#: every hybrid_jams_cli instance must apply each of these (kind, trigger) pairs
CLI_REQUIRED_ACTIONS = (("split", "jam"), ("refine", "jam"), ("merge", "recovery"),
                        ("coarsen", "recovery"), ("coarsen", "budget"))


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool
    round_steps: int       # steps attempted per round
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("micro_corridor", cli=False, round_steps=1000,
             why="all-micro 3-lane corridor: perception and the behavior chain "
                 "dominate; macro, lod, probes and cli do almost nothing"),
    Workload("macro_network", cli=False, round_steps=1000,
             why="40 all-macro corridors, about 4,000 cells and no vehicles: "
                 "cell updates, lod observation and macro-entry generation"),
    Workload("hybrid_jams_cli", cli=True, round_steps=1200,
             why="the user's path: cli with all probes and export over corridors "
                 "whose restriction jams split, refine, coarsen and merge"),
)}


@dataclass
class Instance:
    """Outcome of one generated instance within a round."""

    index: int
    steps: int = 0
    error: str | None = None          # the engine raised (an abort)
    problems: list[str] = field(default_factory=list)   # broken checks
    digest: str = ""
    actions: Counter = field(default_factory=Counter)
    inserted: int = 0
    absorbed: int = 0
    bytes_written: int = 0

    def key(self) -> tuple:
        """What must repeat exactly when the same instance runs again."""
        return (self.index, self.steps, self.error, self.digest,
                tuple(sorted(self.actions.items())), self.inserted, self.absorbed)


@dataclass
class Round:
    instances: list[Instance]
    clock: StepClock
    export_s: float = 0.0     # CLI export after the run, 0 for library rounds
    cpu_s: float = 0.0
    wall_s: float = 0.0


def check_state(state, inst: Instance) -> None:
    """End-of-instance invariants; failures are recorded, never raised."""
    residual = state.ledger_residual()
    if not abs(residual) <= LEDGER_TOLERANCE:
        inst.problems.append(f"ledger residual {residual:.3e}")
    errors = state.consistency_errors()
    if errors:
        inst.problems.append(f"consistency: {errors[0]} (+{len(errors) - 1})")
    for rec in state.transitions:
        if not abs(rec.pre_mass - rec.post_mass) <= MASS_TOLERANCE:
            inst.problems.append(f"{rec.kind} at step {rec.step} changed mass "
                                 f"{rec.pre_mass!r} -> {rec.post_mass!r}")
    inst.actions = Counter((rec.kind, rec.trigger) for rec in state.transitions)
    inst.inserted = state.ledger.inserted
    inst.absorbed = state.ledger.absorbed


def run_library_round(workload: Workload, seed: int, workdir: Path) -> Round:
    from hybridflow import engine, scenario

    config = engine.EngineConfig(seed=seed)
    clock = StepClock()
    rnd = Round(instances=[], clock=clock)
    executed = 0   # step attempts, the aborted step of a failed instance included
    with Patches() as patches:
        patches.replace(engine, "advance_step", clock.wrap)
        while executed < workload.round_steps:
            inst = Instance(len(rnd.instances))
            rnd.instances.append(inst)
            try:
                path = write_instance(workload.name, seed, inst.index,
                                      workdir / f"i{inst.index}")
                state = engine.build_state(scenario.parse_scenario(path), config)
            except Exception as exc:   # noqa: BLE001 - reported as a broken check
                inst.problems.append(f"set-up raised {exc!r}")
                break
            clock.begin()
            try:
                for _ in range(workload.round_steps - executed):
                    engine.advance_step(state, config)
            except Exception as exc:   # noqa: BLE001 - an abort fails this instance only
                inst.error = f"{type(exc).__name__} at step {state.step}: {exc}"
            clock.end()
            inst.steps = state.step
            executed += state.step + (inst.error is not None)
            if inst.error is None:
                check_state(state, inst)
                inst.digest = state.state_digest()
    return rnd


def run_cli_round(workload: Workload, seed: int, workdir: Path) -> Round:
    from hybridflow import cli, engine

    clock = StepClock()
    rnd = Round(instances=[], clock=clock)
    inst = Instance(0)
    rnd.instances.append(inst)
    scenario_dir = workdir / "i0"
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    write_instance(workload.name, seed, 0, scenario_dir)
    final: list = []      # the state engine.run returned, then when it returned

    def mark_build(build_state):
        def build(model, config):
            state = build_state(model, config)
            clock.begin()
            return state
        return build

    def mark_run(run):
        def engine_run(self, model):
            try:
                state = run(self, model)
            finally:
                clock.end()
            final.extend((state, perf_counter()))
            return state
        return engine_run

    argv = ["run", "--scenario", str(scenario_dir), "--steps",
            str(workload.round_steps), "--seed", str(seed), "--out", str(out),
            "--format", "csv", "--probes", "steps,trajectories,transitions,audit"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with Patches() as patches:
        patches.replace(engine, "advance_step", clock.wrap)
        patches.replace(engine, "build_state", mark_build)
        patches.replace(engine.SimulationEngine, "run", mark_run)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run_command(argv)
        finished = perf_counter()
    if final:
        rnd.export_s = finished - final[1]
    inst.steps = clock.steps
    if code != 0:
        message = (stderr.getvalue().strip().splitlines() or ["no message"])[-1]
        if code == 2 and message.startswith("simulation error"):
            inst.error = message
        else:
            inst.problems.append(f"exit {code}: {message}")
    if final:
        check_state(final[0], inst)
        missing = [f"{k}/{t}" for k, t in CLI_REQUIRED_ACTIONS if not inst.actions[(k, t)]]
        if missing:
            inst.problems.append("did not exercise " + ", ".join(missing))
    if inst.error is None and not inst.problems:
        digest = hashlib.sha256(final[0].state_digest().encode())
        for name in CLI_OUTPUTS:
            data = (out / name).read_bytes()
            inst.bytes_written += len(data)
            digest.update(hashlib.sha256(data).digest())
        inst.digest = digest.hexdigest()
        violations = len(json.loads((out / "audit.json").read_text())["violations"])
        if violations:
            inst.problems.append(f"audit.json lists {violations} violations")
    return rnd


def run_round(workload: Workload, seed: int, workdir: Path) -> Round:
    cpu = time.process_time()
    wall = perf_counter()
    runner = run_cli_round if workload.cli else run_library_round
    rnd = runner(workload, seed, workdir)
    rnd.cpu_s = time.process_time() - cpu
    rnd.wall_s = perf_counter() - wall
    return rnd
