"""hybridflow benchmark: one command, three generated workloads.

    python3 bench/run.py --workload micro_corridor --seed 1 --seconds 25 --trace 0

Generates scenario XML from the seed, runs fixed rounds of simulated work
in this process on one thread until `--seconds` are used (at least two
rounds, so every instance runs twice and its digest can be compared), checks
every output, and prints a report.  The last line of standard output is one
JSON object: `{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics from untraced rounds.
`--trace 1` alternates untraced and traced rounds and reports the per-layer
metrics, including the tracing overhead.  `--workload all` runs every
workload in a fresh child process and reports them together.

The benchmark imports hybridflow from `src/` of the checkout it lives in
and writes only below `.bench_work/` there.  Without that source tree it
exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
from tracing import (REFERENCE_KERNEL_S, Patches, Tracer, install_tracer,  # noqa: E402
                     time_reference)
from workloads import WORKLOADS, run_round  # noqa: E402
from scenarios import write_instance  # noqa: E402

#: set-up is timed at least this often, and until it has taken SETUP_SECONDS
SETUP_REPEATS = 7
SETUP_SECONDS = 0.5
SETUP_MAX_REPEATS = 100


def import_engine():
    """Import hybridflow from this checkout's source tree, nowhere else."""
    try:
        import hybridflow
    except ImportError as exc:
        raise SystemExit(f"cannot import hybridflow from {ROOT / 'src'}: {exc}")
    source = Path(hybridflow.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise SystemExit(f"hybridflow resolved outside this checkout: {source}")
    return hybridflow


def measure_setup(workload, seed: int, workdir: Path) -> list[float]:
    """parse_scenario plus build_state on instance 0, repeated; each time is
    rescaled by a reference kernel timed just before it."""
    from hybridflow import EngineConfig, build_state, parse_scenario

    path = write_instance(workload.name, seed, 0, workdir / "setup")
    times: list[float] = []
    spent = 0.0
    while len(times) < SETUP_REPEATS or (spent < SETUP_SECONDS
                                         and len(times) < SETUP_MAX_REPEATS):
        reference = time_reference()
        started = perf_counter()
        build_state(parse_scenario(path), EngineConfig(seed=seed))
        elapsed = perf_counter() - started
        spent += elapsed
        times.append(elapsed * REFERENCE_KERNEL_S / reference)
    return times


def measure(workload, seed: int, seconds: float, traced_modes, workdir: Path,
            tracer: Tracer | None):
    """Run whole cycles of rounds (one round per mode) until the next cycle
    would overrun `seconds`; at least two rounds in all."""
    rounds = []
    started = perf_counter()
    while True:
        for traced in traced_modes:
            with Patches() as patches:
                if traced:
                    install_tracer(patches, tracer)
                rounds.append((traced, run_round(workload, seed, workdir)))
        elapsed = perf_counter() - started
        cycle = elapsed / len(rounds) * len(traced_modes)
        if len(rounds) >= 2 and elapsed + cycle > seconds:
            return rounds


def judge(rounds) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, notes) over every instance of every round.

    An instance fails when it raised, broke a check, or did not repeat the
    first round's outcome; failures are counted, never hidden.  `correct`
    is false when a repeat differed, traced or not: the program's outputs
    are then not reproducible and no figure of the run can be trusted."""
    reference = [inst.key() for inst in rounds[0][1].instances]
    correct, attempted, failed, notes = True, 0, 0, []
    for number, (_, rnd) in enumerate(rounds):
        keys = [inst.key() for inst in rnd.instances]
        if keys != reference:
            correct = False
            notes.append(f"round {number} differs from round 0")
        for pos, inst in enumerate(rnd.instances):
            attempted += 1
            repeated = pos < len(reference) and keys[pos] == reference[pos]
            if inst.error or inst.problems or not repeated:
                failed += 1
            if number == 0 and (inst.error or inst.problems):
                notes.append(f"instance {inst.index}: "
                             + "; ".join(filter(None, [inst.error, *inst.problems])))
    return correct, attempted, failed, notes


def simulated_statistics(rnd) -> dict:
    """What a pure speed-up must leave identical, for one round."""
    actions: dict[str, int] = {}
    for inst in rnd.instances:
        for (kind, trigger), count in inst.actions.items():
            actions[f"{kind}.{trigger}"] = actions.get(f"{kind}.{trigger}", 0) + count
    digest = hashlib.sha256(repr([i.key() for i in rnd.instances]).encode())
    return {
        "instances": len(rnd.instances),
        "steps": rnd.clock.steps,
        "veh_steps": rnd.clock.veh_steps,
        "cell_steps": rnd.clock.cell_steps,
        "actions": dict(sorted(actions.items())),
        "inserted": sum(i.inserted for i in rnd.instances),
        "absorbed": sum(i.absorbed for i in rnd.instances),
        "digest": digest.hexdigest()[:16],
    }


def environment(rounds) -> dict:
    import numpy

    try:
        # the ceiling keeps git from looking for a repository above the checkout
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        revision = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    rates = [r.clock.steps / r.clock.stepping_s(normalized=False) for _, r in rounds
             if r.clock.loops]
    return {
        "revision": revision,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "round_rate_spread": (max(rates) - min(rates)) / statistics.median(rates),
        "cpu_per_wall": sum(r.cpu_s for _, r in rounds) / sum(r.wall_s for _, r in rounds),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_engine()
    workload = WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        tracer = Tracer() if trace else None
        modes = (False, True) if trace else (False,)
        rounds = measure(workload, seed, seconds, modes, workdir, tracer)
        untraced = [r for traced, r in rounds if not traced]
        if trace:
            values = metrics.per_layer(tracer, [r for t, r in rounds if t], untraced)
        else:
            values = metrics.end_to_end(untraced, measure_setup(workload, seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, notes = judge(rounds)

    print(f"== {name}  seed={seed}  trace={int(trace)}  rounds={len(rounds)} "
          f"x {workload.round_steps} steps")
    print(f"   why: {workload.why}")
    print(f"   sim: {json.dumps(simulated_statistics(rounds[0][1]))}")
    for note in notes:
        print(f"   {note}")
    print(f"   failed_frac: {failed / attempted:.4f} ({failed} of {attempted} instances)")
    if not trace:
        raw = metrics.raw_end_to_end(untraced)
        print(f"   as measured: {json.dumps(raw)}")
    if workload.cli and not trace:
        export = statistics.median(r.export_s for r in untraced) * metrics.round_factor(untraced)
        print(f"   export_s: {export:.6g} s")
    for key, value in values.items():
        print(f"   {key}: {value:.6g} {metrics.UNITS[key]}")
    if trace:
        print("   spans as measured (parent > name: calls, total s, self s):")
        for (parent, span), (calls, total, own) in sorted(
                tracer.spans.items(), key=lambda kv: -kv[1][1]):
            print(f"     {parent or '-'} > {span}: {calls}, {total:.4f}, {own:.4f}")
    print(f"   env: {json.dumps(environment(rounds))}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": metrics.UNITS[k]}
                        for k, v in values.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh child process, so peak RSS is its own."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        lines = child.stdout.strip().splitlines()
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not lines:
            raise SystemExit(f"{name} exited {child.returncode}")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        result["correct"] &= part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        for key, value in part["metrics"].items():
            result["metrics"][f"{name}.{key}"] = value
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
