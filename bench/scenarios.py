"""Seeded scenario generators for the benchmark workloads.

Each generator renders one instance of a workload as a scenario file set
(file name -> XML text).  The engine only ever sees these files: every
random choice is drawn here, from the workload seed and the instance index,
so the same (seed, index) always yields byte-identical XML.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

TIME_STEP = 0.25

HEADER = '<?xml version="1.0"?>'


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    tag = sum(ord(ch) << (8 * (i % 4)) for i, ch in enumerate(workload))
    return np.random.default_rng([seed, index, tag])


def _num(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _main_file(duration: float, lod: str = "") -> str:
    return "\n".join([
        HEADER,
        f'<simulation time_step="{TIME_STEP}" duration="{_num(duration)}">',
        '  <infrastructure ref="infrastructure.xml"/>',
        '  <level ref="level.xml"/>',
        *([lod] if lod else []),
        '</simulation>', ""])


def _corridors(count: int, roads: int, length: float, lanes: int,
               speed_limit: float) -> tuple[str, list[list[str]]]:
    """Independent linear corridors joined by pass-through nodes.

    Returns the infrastructure XML and, per corridor, its road ids."""
    nodes, road_lines, turns, ids = [], [], [], []
    for c in range(count):
        names = [f"k{c}r{i}" for i in range(roads)]
        ids.append(names)
        for i in range(roads + 1):
            nodes.append(f'  <node id="k{c}n{i}" kind="crossroads"/>')
        for i, rid in enumerate(names):
            road_lines.append(
                f'  <road id="{rid}" from="k{c}n{i}" to="k{c}n{i + 1}" '
                f'length="{_num(length)}" lanes="{lanes}" '
                f'speed_limit="{_num(speed_limit)}"/>')
        for i in range(roads - 1):
            turns.append(f'  <turn node="k{c}n{i + 1}" from_road="{names[i]}" '
                         f'to_road="{names[i + 1]}" lanes="all"/>')
    text = "\n".join([HEADER, "<infrastructure>", *nodes, *road_lines, *turns,
                      "</infrastructure>", ""])
    return text, ids


def _generation(v0_mean: float, v0_sd: float, sink: str) -> str:
    return "\n".join([
        HEADER, "<generation>",
        '  <vehicle_length distribution="constant" value="4"/>',
        f'  <param name="v0" distribution="normal" mean="{_num(v0_mean)}" '
        f'sd="{_num(v0_sd)}"/>',
        f'  <destination sink="{sink}" weight="1"/>',
        "</generation>", ""])


def _rhythm(q: float) -> str:
    return "\n".join([HEADER, '<rhythm kind="flow">', f'  <flow t="0" q="{_num(q)}"/>',
                      "</rhythm>", ""])


def _level(lines: list[str]) -> str:
    return "\n".join([HEADER, "<level>", *lines, "</level>", ""])


def micro_corridor(seed: int, index: int) -> dict[str, str]:
    """5 roads x 2 km, 3 lanes, all micro, about 390 preloaded vehicles with
    desired speeds from N(30, 3) m/s and a 1,200 veh/h/lane inflow."""
    rng = _rng("micro_corridor", seed, index)
    roads, length, lanes = 5, 2000.0, 3
    infra, ids = _corridors(1, roads, length, lanes, speed_limit=36.0)
    names = ids[0]
    lines = [f'  <input_point id="in" road="{names[0]}" lanes="all" '
             'generation_ref="in-generation.xml" rhythm_ref="in-rhythm.xml"/>',
             f'  <end_point id="out" road="{names[-1]}"/>']
    per_lane = 130
    spacing = roads * length / per_lane
    for lane in range(lanes):
        for k in range(per_lane):
            chain_pos = spacing * (k + 0.5) + rng.uniform(-0.2, 0.2) * spacing
            road = int(chain_pos // length)
            v0 = float(np.clip(rng.normal(30.0, 3.0), 21.0, 39.0))
            speed = v0 * rng.uniform(0.8, 1.0)
            lines.append(f'  <vehicle road="{names[road]}" lane="{lane}" '
                         f'position="{_num(chain_pos - road * length)}" '
                         f'speed="{_num(speed)}" length="4" v0="{_num(v0)}" '
                         'destination="out"/>')
    return {
        "scenario.xml": _main_file(duration=3600.0),
        "infrastructure.xml": infra,
        "level.xml": _level(lines),
        "in-generation.xml": _generation(30.0, 3.0, "out"),
        "in-rhythm.xml": _rhythm(1200.0),
    }


def macro_network(seed: int, index: int) -> dict[str, str]:
    """40 independent 4-road x 2.5 km, 3-lane corridors, each one macro
    cluster (about 4,000 cells); inflow stays below capacity."""
    rng = _rng("macro_network", seed, index)
    count, roads, length, lanes = 40, 4, 2500.0, 3
    infra, ids = _corridors(count, roads, length, lanes, speed_limit=25.0)
    files = {"scenario.xml": _main_file(duration=3600.0), "infrastructure.xml": infra}
    lines = []
    for c, names in enumerate(ids):
        lines.append(f'  <input_point id="in{c}" road="{names[0]}" lanes="all" '
                     f'generation_ref="in{c}-generation.xml" '
                     f'rhythm_ref="in{c}-rhythm.xml"/>')
        lines.append(f'  <end_point id="out{c}" road="{names[-1]}"/>')
        lines.append('  <cluster representation="macro">')
        for rid in names:
            lines.append(f'    <extent road="{rid}" start="0" end="{_num(length)}"/>')
        lines.append('  </cluster>')
        for rid in names:
            lines.append(f'  <initial_density road="{rid}" start="0" '
                         f'end="{_num(length)}" value="{_num(rng.uniform(0.004, 0.012))}"/>')
        files[f"in{c}-generation.xml"] = _generation(28.0, 1.5, f"out{c}")
        files[f"in{c}-rhythm.xml"] = _rhythm(rng.uniform(600.0, 1400.0))
    files["level.xml"] = _level(lines)
    return files


def hybrid_jams_cli(seed: int, index: int) -> dict[str, str]:
    """6 corridors x 4 km, 2 lanes: a 1 km micro entry, a macro remainder and
    a 100 m restriction at factor 0.3 active 120 s of every 300 s, under a
    150-vehicle micro budget."""
    rng = _rng("hybrid_jams_cli", seed, index)
    count, roads, length, lanes = 6, 2, 2000.0, 2
    infra, ids = _corridors(count, roads, length, lanes, speed_limit=25.0)
    lod = ('  <lod theta_down="0.5" theta_up="0.8" persistence="10" '
           'min_cluster_length="200" micro_vehicle_budget="150" cooldown="50" '
           'target_dx="100"/>')
    files = {"scenario.xml": _main_file(duration=600.0, lod=lod),
             "infrastructure.xml": infra}
    lines = []
    for c, names in enumerate(ids):
        lines.append(f'  <input_point id="in{c}" road="{names[0]}" lanes="all" '
                     f'generation_ref="in{c}-generation.xml" '
                     f'rhythm_ref="in{c}-rhythm.xml"/>')
        lines.append(f'  <end_point id="out{c}" road="{names[-1]}"/>')
        lines.append(f'  <cluster representation="micro" road="{names[0]}" '
                     'start="0" end="1000"/>')
        lines.append('  <cluster representation="macro">')
        lines.append(f'    <extent road="{names[0]}" start="1000" end="{_num(length)}"/>')
        lines.append(f'    <extent road="{names[1]}" start="0" end="{_num(length)}"/>')
        lines.append('  </cluster>')
        for rid, start in ((names[0], 1000.0), (names[1], 0.0)):
            lines.append(f'  <initial_density road="{rid}" start="{_num(start)}" '
                         f'end="{_num(length)}" value="{_num(rng.uniform(0.009, 0.011))}"/>')
        # the same jam in every corridor, its timing staggered so switches
        # do not all land on one step
        offset = 10.0 * c + float(rng.integers(0, 5))
        for cycle_start in (0.0, 300.0):
            lines.append(f'  <restriction road="{names[1]}" start="800" end="900" '
                         f'factor="0.3" from_t="{_num(cycle_start + offset)}" '
                         f'to_t="{_num(cycle_start + offset + 120.0)}"/>')
        files[f"in{c}-generation.xml"] = _generation(28.0, 1.5, f"out{c}")
        files[f"in{c}-rhythm.xml"] = _rhythm(rng.uniform(970.0, 1030.0))
    files["level.xml"] = _level(lines)
    return files


GENERATORS = {
    "micro_corridor": micro_corridor,
    "macro_network": macro_network,
    "hybrid_jams_cli": hybrid_jams_cli,
}


def write_instance(workload: str, seed: int, index: int, directory: Path) -> Path:
    """Render one instance into `directory`; returns the main file's path."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in GENERATORS[workload](seed, index).items():
        (directory / name).write_text(text)
    return directory / "scenario.xml"
