"""Scenario file set: parsing, validation and canonical serialization.

A scenario is a small tree of XML files.  The main file carries the clock
and global parameters and points at an infrastructure file (roads, nodes,
signs, turns) and one or more level files (generation and destruction
connectors, cluster layout, initial state, restrictions).  Each generation
point is described by a pair of files: generation parameters (vehicle mix)
and rhythm parameters (flow profile or event script).

The exact element and attribute vocabulary is documented in
docs/formats.md, which is the normative reference for these files.
Unresolved references, and destinations that no path reaches, are always
errors, never defaults.
"""

from __future__ import annotations

import functools
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from .generation import Distribution, FlowProfile, InsertionSpec, VehicleMix
from .lod import LodPolicy
from .macro import FundamentalDiagram
from .micro import PARAM_NAMES, DriverParams
from .network import (MAX_LANES, NODE_KINDS, SIGN_KINDS, Chain, InputPoint, Node, Road,
                      RoadNetwork, SinkPoint, Turn, UnreachableError, VerticalSign,
                      compute_route, derive_chains, validate_network)


class ScenarioError(Exception):
    """Base class: every scenario problem names the offending file."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = str(path)


class ScenarioFileNotFound(ScenarioError):
    def __init__(self, path):
        super().__init__(path, "file not found")


class ScenarioSyntaxError(ScenarioError):
    def __init__(self, path, line: int, detail: str):
        super().__init__(path, f"line {line}: {detail}")
        self.line = line


class DanglingReference(ScenarioError):
    def __init__(self, path, ref: str, detail: str):
        super().__init__(path, f"dangling reference {ref!r}: {detail}")
        self.ref = ref


class SchemaViolation(ScenarioError):
    def __init__(self, path, fld: str, reason: str):
        super().__init__(path, f"{fld}: {reason}")
        self.field = fld
        self.reason = reason


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterSpec:
    representation: str
    extents: tuple            # ((road, start, end), ...)


@dataclass(frozen=True)
class DensitySpec:
    road: str
    start: float
    end: float
    value: float              # veh/m/lane


@dataclass(frozen=True)
class RestrictionSpec:
    """Capacity restriction over a road interval and a time window."""

    road: str
    start: float
    end: float
    factor: float
    from_t: float = 0.0
    to_t: float = math.inf


@dataclass(frozen=True)
class GenerationPoint:
    input: InputPoint
    mix: VehicleMix
    kind: str                 # "flow" | "script"
    profile: FlowProfile | None
    events: tuple             # ((t, InsertionSpec), ...) for scripts
    generation_ref: str
    rhythm_ref: str
    poisson: bool = False


@dataclass(frozen=True)
class LevelSpec:
    ref: str
    generation_points: tuple
    sinks: tuple              # SinkPoint
    clusters: tuple           # ClusterSpec
    densities: tuple          # DensitySpec
    vehicles: tuple           # InsertionSpec
    restrictions: tuple       # RestrictionSpec
    release_mix: VehicleMix | None
    release_ref: str | None   # the file release_mix was read from


@dataclass
class ScenarioModel:
    time_step: float
    duration: float
    infrastructure_ref: str
    network: RoadNetwork
    levels: tuple             # LevelSpec
    fd: FundamentalDiagram
    lod: LodPolicy
    chains: list[Chain] = field(default_factory=list)
    # chain id -> its declared clusters as sorted (start, end, representation)
    partition: dict[str, list[tuple[float, float, str]]] = field(default_factory=dict)

    @property
    def generation_points(self) -> list[GenerationPoint]:
        return [g for lv in self.levels for g in lv.generation_points]

    @property
    def cluster_specs(self) -> list[ClusterSpec]:
        return [c for lv in self.levels for c in lv.clusters]

    @property
    def densities(self) -> list[DensitySpec]:
        return [d for lv in self.levels for d in lv.densities]

    @property
    def vehicles(self) -> list[InsertionSpec]:
        return [v for lv in self.levels for v in lv.vehicles]

    @property
    def restrictions(self) -> list[RestrictionSpec]:
        return [r for lv in self.levels for r in lv.restrictions]

    @property
    def release_mix(self) -> VehicleMix:
        for lv in self.levels:
            if lv.release_mix is not None:
                return lv.release_mix
        return VehicleMix()


# ---------------------------------------------------------------------------
# Low-level XML helpers
# ---------------------------------------------------------------------------

def _load_xml(path: Path) -> ET.Element:
    if not path.is_file():
        raise ScenarioFileNotFound(path)
    try:
        return ET.parse(path).getroot()
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else 0
        raise ScenarioSyntaxError(path, line, exc.msg if hasattr(exc, "msg") else str(exc))


def _attr(el: ET.Element, name: str, path: Path, cast=str, default=None,
          allow_inf: bool = False, signed: bool = False):
    """Read one attribute through `cast`, the only place numbers are parsed.
    A number must be non-negative unless `signed`, and a float finite;
    `allow_inf` also admits `inf`, which the canonical serializer writes for
    open-ended values."""
    raw = el.get(name)
    if raw is None:
        if default is not None:
            return default
        raise SchemaViolation(path, f"<{el.tag} {name}>", "missing attribute")
    try:
        value = cast(raw)
    except (TypeError, ValueError):
        raise SchemaViolation(path, f"<{el.tag} {name}>",
                              f"cannot read {raw!r} as {cast.__name__}")
    if cast is float and not (math.isfinite(value) or allow_inf and value == math.inf):
        raise SchemaViolation(path, f"<{el.tag} {name}>",
                              f"{raw!r} is not a finite number")
    if cast in (int, float) and not signed and value < 0:
        raise SchemaViolation(path, f"<{el.tag} {name}>", f"{raw!r} is negative")
    return value


def _build(cls, path: Path, fld: str, **kwargs):
    """Construct a validated value object; its ValueError names the file."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SchemaViolation(path, fld, str(exc))


def _insertion(el: ET.Element, path: Path, road: str, position: float,
               speed: float | None) -> InsertionSpec:
    """The vehicle a <vehicle> or script <event> places: both read the lane,
    the length, the destination and any driver parameter alike."""
    overrides = {k: _attr(el, k, path, float) for k in PARAM_NAMES if el.get(k)}
    return InsertionSpec(road=road, lane=_attr(el, "lane", path, int), position=position,
                         speed=speed,
                         params=_build(DriverParams, path, f"<{el.tag}>", **overrides),
                         length=_attr(el, "length", path, float, 4.0),
                         destination=el.get("destination"))


def _lanes_attr(el: ET.Element, path: Path) -> frozenset[int] | None:
    raw = el.get("lanes", "all")
    if raw == "all":
        return None
    try:
        lanes = frozenset(int(x) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise SchemaViolation(path, f"<{el.tag} lanes>", f"bad lane list {raw!r}")
    if not lanes:
        raise SchemaViolation(path, f"<{el.tag} lanes>", f"empty lane list {raw!r}")
    return lanes


def _expect_root(root: ET.Element, tag: str, path: Path) -> None:
    if root.tag != tag:
        raise SchemaViolation(path, "root element",
                              f"expected <{tag}>, found <{root.tag}>")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_scenario(root_file: str | Path) -> ScenarioModel:
    """Load and fully resolve a scenario from its main file.

    A directory is accepted as shorthand for `<dir>/scenario.xml`.  All
    referenced sub-files load transitively; the resulting model is
    validated (network invariants, cluster partition, CFL bound)."""
    root_path = Path(root_file)
    if root_path.is_dir():
        root_path = root_path / "scenario.xml"
    root = _load_xml(root_path)
    _expect_root(root, "simulation", root_path)
    base = root_path.parent

    time_step = _attr(root, "time_step", root_path, float)
    duration = _attr(root, "duration", root_path, float)
    if time_step <= 0 or duration < 0:
        raise SchemaViolation(root_path, "time_step/duration", "must be positive")

    infra_el = root.find("infrastructure")
    if infra_el is None:
        raise SchemaViolation(root_path, "<infrastructure>", "missing element")
    infra_ref = _attr(infra_el, "ref", root_path)
    network = _parse_infrastructure(base / infra_ref)

    fd = FundamentalDiagram()
    macro_el = root.find("macro")
    if macro_el is not None:
        fd = _build(
            FundamentalDiagram, root_path, "<macro>",
            v_f=_attr(macro_el, "free_speed", root_path, float, fd.v_f),
            rho_jam=_attr(macro_el, "jam_density", root_path, float, fd.rho_jam),
            q_max=_attr(macro_el, "capacity", root_path, float, fd.q_max))

    lod = LodPolicy()
    lod_el = root.find("lod")
    if lod_el is not None:
        lod = _build(
            LodPolicy, root_path, "<lod>",
            theta_down=_attr(lod_el, "theta_down", root_path, float, lod.theta_down),
            theta_up=_attr(lod_el, "theta_up", root_path, float, lod.theta_up),
            persistence=_attr(lod_el, "persistence", root_path, int, lod.persistence),
            min_cluster_length=_attr(lod_el, "min_cluster_length", root_path, float,
                                     lod.min_cluster_length),
            micro_vehicle_budget=_attr(lod_el, "micro_vehicle_budget", root_path, int,
                                       lod.micro_vehicle_budget),
            cooldown=_attr(lod_el, "cooldown", root_path, int, lod.cooldown),
            target_dx=_attr(lod_el, "target_dx", root_path, float, lod.target_dx))

    level_els = root.findall("level")
    if not level_els:
        raise SchemaViolation(root_path, "<level>", "at least one level file required")
    levels = tuple(_parse_level(base / _attr(el, "ref", root_path), network,
                                _attr(el, "ref", root_path))
                   for el in level_els)

    # attach connectors to the network; an id names one connector of its kind
    input_ids: set[str] = set()
    for lv in levels:
        for gp in lv.generation_points:
            if gp.input.id in input_ids:
                raise SchemaViolation(base / lv.ref, f"<input_point {gp.input.id}>",
                                      "duplicate input point id")
            input_ids.add(gp.input.id)
        for sink in lv.sinks:
            if sink.id in network.end_points:
                raise SchemaViolation(base / lv.ref, f"<end_point {sink.id}>",
                                      "duplicate end point id")
            network.end_points[sink.id] = sink

    model = ScenarioModel(time_step=time_step, duration=duration,
                          infrastructure_ref=infra_ref, network=network,
                          levels=levels, fd=fd, lod=lod)
    _validate_model(model, root_path, base)
    return model


def _parse_infrastructure(path: Path) -> RoadNetwork:
    root = _load_xml(path)
    _expect_root(root, "infrastructure", path)
    nodes: dict[str, Node] = {}
    turns_by_node: dict[str, list[Turn]] = {}
    roads: dict[str, Road] = {}

    for el in root.findall("node"):
        nid = _attr(el, "id", path)
        kind = _attr(el, "kind", path)
        if kind not in NODE_KINDS:
            raise SchemaViolation(path, f"<node {nid} kind>", f"unknown kind {kind!r}")
        if nid in nodes:
            raise SchemaViolation(path, f"<node {nid}>", "duplicate node id")
        nodes[nid] = Node(id=nid, kind=kind)
        turns_by_node[nid] = []

    for el in root.findall("road"):
        rid = _attr(el, "id", path)
        if rid in roads:
            raise SchemaViolation(path, f"<road {rid}>", "duplicate road id")
        lane_count = _attr(el, "lanes", path, int)
        length = _attr(el, "length", path, float)
        if not 1 <= lane_count <= MAX_LANES:
            raise SchemaViolation(path, f"<road {rid} lanes>",
                                  f"lane count {lane_count} outside [1, {MAX_LANES}]")
        if length <= 0:
            raise SchemaViolation(path, f"<road {rid} length>", f"{length} not positive")
        signs = []
        for sl in el.findall("sign"):
            kind = _attr(sl, "kind", path)
            if kind not in SIGN_KINDS:
                raise SchemaViolation(path, f"<road {rid} sign>", f"unknown kind {kind!r}")
            value = _attr(sl, "value", path, float) if kind == "speed_limit" else None
            signs.append(VerticalSign(kind=kind,
                                      position=_attr(sl, "position", path, float),
                                      lanes=_lanes_attr(sl, path), value=value))
        for end_attr in ("from", "to"):
            node_id = _attr(el, end_attr, path)
            if node_id not in nodes:
                raise DanglingReference(path, node_id, f"road {rid} {end_attr} node")
        roads[rid] = Road(id=rid, from_node=el.get("from"), to_node=el.get("to"),
                          length=length, lane_count=lane_count,
                          speed_limit=_attr(el, "speed_limit", path, float),
                          signs=tuple(signs))

    for el in root.findall("turn"):
        node_id = _attr(el, "node", path)
        if node_id not in nodes:
            raise DanglingReference(path, node_id, "turn node")
        from_road, to_road = _attr(el, "from_road", path), _attr(el, "to_road", path)
        for rid in (from_road, to_road):
            if rid not in roads:
                raise DanglingReference(path, rid, "turn road")
        if el.get("lanes") == "all":
            common = min(roads[from_road].lane_count, roads[to_road].lane_count)
            for lane in range(common):
                turns_by_node[node_id].append(Turn(from_road, lane, to_road, lane))
        else:
            turns_by_node[node_id].append(Turn(
                from_road, _attr(el, "from_lane", path, int),
                to_road, _attr(el, "to_lane", path, int)))

    nodes = {nid: Node(id=nid, kind=n.kind, turns=tuple(turns_by_node[nid]))
             for nid, n in nodes.items()}
    network = RoadNetwork(roads=roads, nodes=nodes)

    violations = validate_network(network)
    if violations:
        raise SchemaViolation(path, "network",
                              "; ".join(str(v) for v in violations))
    return network


def _parse_distribution(el: ET.Element, path: Path) -> Distribution:
    kind = _attr(el, "distribution", path)
    if kind == "constant":
        return Distribution("constant", _attr(el, "value", path, float))
    if kind == "uniform":
        return Distribution("uniform", _attr(el, "lo", path, float),
                            _attr(el, "hi", path, float))
    if kind == "normal":
        return Distribution("normal", _attr(el, "mean", path, float),
                            _attr(el, "sd", path, float))
    raise SchemaViolation(path, f"<{el.tag} distribution>", f"unknown kind {kind!r}")


def _parse_generation(path: Path, network: RoadNetwork) -> VehicleMix:
    root = _load_xml(path)
    _expect_root(root, "generation", path)
    params: dict[str, Distribution] = {}
    for el in root.findall("param"):
        name = _attr(el, "name", path)
        if name not in PARAM_NAMES:
            raise SchemaViolation(path, f"<param {name}>", "unknown driver parameter")
        params[name] = _parse_distribution(el, path)
    length = Distribution("constant", 4.0)
    vl = root.find("vehicle_length")
    if vl is not None:
        length = _parse_distribution(vl, path)
    destinations = []
    for el in root.findall("destination"):
        sid = _attr(el, "sink", path)
        destinations.append((sid, _attr(el, "weight", path, float, 1.0)))
    return VehicleMix(params=params, length=length, destinations=tuple(destinations))


def _parse_rhythm(path: Path, road: str) -> tuple[str, FlowProfile | None, tuple, bool]:
    root = _load_xml(path)
    _expect_root(root, "rhythm", path)
    kind = _attr(root, "kind", path)
    poisson = root.get("poisson", "false") == "true"
    if kind == "flow":
        knots = []
        last_t = -math.inf
        for el in root.findall("flow"):
            t, q = _attr(el, "t", path, float), _attr(el, "q", path, float)
            if t < last_t:
                raise SchemaViolation(path, "<flow t>", "knots must be time-ordered")
            last_t = t
            knots.append((t, q))
        return "flow", FlowProfile(knots=tuple(knots)), (), poisson
    if kind == "script":
        events = []
        last_t = -math.inf
        for el in root.findall("event"):
            t = _attr(el, "t", path, float)
            if t < last_t:
                raise SchemaViolation(path, "<event t>", "events must be time-ordered")
            last_t = t
            speed = _attr(el, "speed", path, float, -1.0, signed=True)
            events.append((t, _insertion(el, path, road, 0.0, None if speed < 0 else speed)))
        return "script", None, tuple(events), poisson
    raise SchemaViolation(path, "<rhythm kind>", f"unknown kind {kind!r}")


def _parse_level(path: Path, network: RoadNetwork, ref: str) -> LevelSpec:
    root = _load_xml(path)
    _expect_root(root, "level", path)
    base = path.parent

    def known_road(rid, what):
        if rid not in network.roads:
            raise DanglingReference(path, rid, what)
        return rid

    def extent(el, what) -> tuple[str, float, float]:
        """An element's (road, start, end), which must lie on the road."""
        road = known_road(_attr(el, "road", path), f"{what} road")
        start, end = _attr(el, "start", path, float), _attr(el, "end", path, float)
        length = network.roads[road].length
        if not 0 <= start < end <= length + 1e-9:
            raise SchemaViolation(path, f"<{el.tag}>", f"[{start}, {end}] is not an "
                                  f"extent within road {road} of {length} m")
        return road, start, end

    points = []
    for el in root.findall("input_point"):
        pid = _attr(el, "id", path)
        road = known_road(_attr(el, "road", path), f"input point {pid} road")
        lane_count = network.roads[road].lane_count
        lanes = _lanes_attr(el, path)
        lane_tuple = tuple(sorted(lanes)) if lanes is not None \
            else tuple(range(lane_count))
        if any(not 0 <= lane < lane_count for lane in lane_tuple):
            raise SchemaViolation(path, f"<input_point {pid} lanes>",
                                  f"{lane_tuple} not within lanes 0..{lane_count - 1} of {road}")
        gen_ref = _attr(el, "generation_ref", path)
        rhythm_ref = _attr(el, "rhythm_ref", path)
        mix = _parse_generation(base / gen_ref, network)
        kind, profile, events, poisson = _parse_rhythm(base / rhythm_ref, road)
        for _t, event in events:
            if not 0 <= event.lane < lane_count:
                raise SchemaViolation(base / rhythm_ref, "<event lane>",
                                      f"{event.lane} not within lanes 0..{lane_count - 1} "
                                      f"of {road}, the road of input point {pid}")
        points.append(GenerationPoint(
            input=InputPoint(id=pid, road=road, lanes=lane_tuple),
            mix=mix, kind=kind, profile=profile, events=events,
            generation_ref=gen_ref, rhythm_ref=rhythm_ref, poisson=poisson))

    sinks = []
    for el in root.findall("end_point"):
        sid = _attr(el, "id", path)
        road = known_road(_attr(el, "road", path), f"end point {sid} road")
        capacity = _attr(el, "capacity", path, float, math.inf, allow_inf=True)
        sinks.append(SinkPoint(id=sid, road=road, capacity=capacity))

    clusters = []
    for el in root.findall("cluster"):
        rep = _attr(el, "representation", path)
        if rep not in ("micro", "macro"):
            raise SchemaViolation(path, "<cluster representation>", f"unknown {rep!r}")
        extents = [extent(el, "cluster")] if el.get("road") else []
        extents += [extent(ex, "cluster extent") for ex in el.findall("extent")]
        if not extents:
            raise SchemaViolation(path, "<cluster>", "no extent given")
        clusters.append(ClusterSpec(representation=rep, extents=tuple(extents)))

    densities = tuple(DensitySpec(*extent(el, "density"), value=_attr(el, "value", path, float))
                      for el in root.findall("initial_density"))

    vehicles = tuple(
        _insertion(el, path, known_road(_attr(el, "road", path), "vehicle road"),
                   _attr(el, "position", path, float), _attr(el, "speed", path, float))
        for el in root.findall("vehicle"))

    restrictions = tuple(
        RestrictionSpec(*extent(el, "restriction"),
                        factor=_attr(el, "factor", path, float),
                        from_t=_attr(el, "from_t", path, float, 0.0),
                        to_t=_attr(el, "to_t", path, float, math.inf, allow_inf=True))
        for el in root.findall("restriction"))

    release_mix = release_ref = None
    rel = root.find("release_mix")
    if rel is not None:
        release_ref = _attr(rel, "generation_ref", path)
        release_mix = _parse_generation(base / release_ref, network)

    return LevelSpec(ref=ref, generation_points=tuple(points), sinks=tuple(sinks),
                     clusters=tuple(clusters), densities=densities,
                     vehicles=vehicles, restrictions=restrictions,
                     release_mix=release_mix, release_ref=release_ref)


# ---------------------------------------------------------------------------
# Model-level validation
# ---------------------------------------------------------------------------

def _validate_model(model: ScenarioModel, root_path: Path, base: Path) -> None:
    network = model.network
    model.chains = derive_chains(network)
    by_road = {}
    for chain in model.chains:
        for rid in chain.roads:
            by_road[rid] = chain

    @functools.cache
    def unreachable(road: str, sink: str) -> bool:
        try:
            compute_route(network, road, sink)
        except UnreachableError:
            return True
        return False

    def check_destination(spec: InsertionSpec, path: Path, what: str) -> None:
        sid = spec.destination
        if sid is not None and (sid not in network.end_points or unreachable(spec.road, sid)):
            raise DanglingReference(path, sid, f"{what} destination unknown or "
                                    f"unreachable from road {spec.road}")

    for lv in model.levels:
        path = base / lv.ref
        for gp in lv.generation_points:
            road = gp.input.road
            for sid, _w in gp.mix.destinations:
                if sid not in network.end_points or unreachable(road, sid):
                    raise DanglingReference(path.parent / gp.generation_ref, sid,
                                            f"destination of {gp.input.id} unknown or "
                                            f"unreachable from road {road}")
            for _t, event in gp.events:
                check_destination(event, path.parent / gp.rhythm_ref, "event")
        # cluster extents must chain up contiguously
        for spec in lv.clusters:
            chain = by_road.get(spec.extents[0][0])
            pos = None
            for road, start, end in spec.extents:
                if by_road.get(road) is not chain:
                    raise SchemaViolation(path, "<cluster>",
                                          f"extents span different chains at {road}")
                cpos = chain.to_chain_pos(road, start)
                if pos is not None and abs(cpos - pos) > 1e-6:
                    raise SchemaViolation(path, "<cluster>",
                                          "extents are not contiguous")
                pos = chain.to_chain_pos(road, end)
        for veh in lv.vehicles:
            road = network.roads[veh.road]
            if not 0 <= veh.position <= road.length or not 0 <= veh.lane < road.lane_count:
                raise SchemaViolation(path, "<vehicle>",
                                      f"placement outside road {veh.road}")
            check_destination(veh, path, "vehicle")
        for rs in lv.restrictions:
            if not (0 < rs.factor <= 1):
                raise SchemaViolation(path, "<restriction factor>",
                                      f"{rs.factor} outside (0, 1]")

    # every chain either has no declarations or is exactly partitioned
    for spec in model.cluster_specs:
        chain = by_road[spec.extents[0][0]]
        s = chain.to_chain_pos(spec.extents[0][0], spec.extents[0][1])
        e = chain.to_chain_pos(spec.extents[-1][0], spec.extents[-1][2])
        model.partition.setdefault(chain.id, []).append((s, e, spec.representation))
    for chain in model.chains:
        parts = model.partition.get(chain.id)
        if not parts:
            continue
        parts.sort()
        cursor = 0.0
        for s, e, _rep in parts:
            if abs(s - cursor) > 1e-6:
                raise SchemaViolation(root_path, "clusters",
                                      f"chain {chain.id} has a gap/overlap at {s}")
            cursor = e
        if abs(cursor - chain.length) > 1e-6:
            raise SchemaViolation(root_path, "clusters",
                                  f"chain {chain.id} not fully covered "
                                  f"({cursor} of {chain.length} m)")

    check_time_step(model, root_path)


def check_time_step(model: ScenarioModel, path) -> None:
    """The time step must satisfy the stability bound of the policy's cell
    size; run again when the policy changes after loading."""
    bound = model.lod.target_dx / 2.0 / model.fd.max_wave_speed
    if model.time_step > bound + 1e-12:
        raise SchemaViolation(path, "time_step",
                              f"{model.time_step} s violates the stability bound "
                              f"{bound:.4f} s for {model.lod.target_dx} m cells")


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return repr(x)
    return str(x)


def _lanes_fmt(lanes) -> str:
    if lanes is None:
        return "all"
    return ",".join(str(l) for l in sorted(lanes))


def _dist_attrs(d: Distribution) -> str:
    if d.kind == "constant":
        return f'distribution="constant" value="{_fmt(d.a)}"'
    if d.kind == "uniform":
        return f'distribution="uniform" lo="{_fmt(d.a)}" hi="{_fmt(d.b)}"'
    return f'distribution="normal" mean="{_fmt(d.a)}" sd="{_fmt(d.b)}"'


def serialize_scenario(model: ScenarioModel) -> dict[str, str]:
    """Render the model back to its file set in canonical form.

    Keys are paths relative to the main file's directory; values are XML
    text.  Canonical means: fixed element order, sorted collections, and
    shortest-round-trip numbers, so equal models serialize byte-identically."""
    files: dict[str, str] = {}

    main = ['<?xml version="1.0"?>']
    main.append(f'<simulation time_step="{_fmt(model.time_step)}" '
                f'duration="{_fmt(model.duration)}">')
    main.append(f'  <infrastructure ref="{model.infrastructure_ref}"/>')
    for lv in model.levels:
        main.append(f'  <level ref="{lv.ref}"/>')
    fd = model.fd
    main.append(f'  <macro free_speed="{_fmt(fd.v_f)}" jam_density="{_fmt(fd.rho_jam)}" '
                f'capacity="{_fmt(fd.q_max)}"/>')
    p = model.lod
    main.append(f'  <lod theta_down="{_fmt(p.theta_down)}" theta_up="{_fmt(p.theta_up)}" '
                f'persistence="{p.persistence}" min_cluster_length="{_fmt(p.min_cluster_length)}" '
                f'micro_vehicle_budget="{p.micro_vehicle_budget}" cooldown="{p.cooldown}" '
                f'target_dx="{_fmt(p.target_dx)}"/>')
    main.append('</simulation>')
    files["scenario.xml"] = "\n".join(main) + "\n"

    files[model.infrastructure_ref] = _serialize_infrastructure(model.network)
    for lv in model.levels:
        files[lv.ref] = _serialize_level(lv)
        lv_dir = str(Path(lv.ref).parent)
        for gp in lv.generation_points:
            files[_join(lv_dir, gp.generation_ref)] = _serialize_generation(gp.mix)
            files[_join(lv_dir, gp.rhythm_ref)] = _serialize_rhythm(gp)
        if lv.release_mix is not None:
            files[_join(lv_dir, lv.release_ref)] = _serialize_generation(lv.release_mix)
    return files


def _join(base: str, ref: str) -> str:
    return str(Path(base) / ref) if base not in (".", "") else ref


def _serialize_infrastructure(network: RoadNetwork) -> str:
    out = ['<?xml version="1.0"?>', '<infrastructure>']
    for nid in sorted(network.nodes):
        out.append(f'  <node id="{nid}" kind="{network.nodes[nid].kind}"/>')
    for rid in sorted(network.roads):
        r = network.roads[rid]
        head = (f'  <road id="{rid}" from="{r.from_node}" to="{r.to_node}" '
                f'length="{_fmt(r.length)}" lanes="{r.lane_count}" '
                f'speed_limit="{_fmt(r.speed_limit)}"')
        if not r.signs:
            out.append(head + "/>")
        else:
            out.append(head + ">")
            for s in sorted(r.signs, key=lambda s: (s.position, s.kind)):
                val = f' value="{_fmt(s.value)}"' if s.value is not None else ""
                out.append(f'    <sign kind="{s.kind}" position="{_fmt(s.position)}"'
                           f'{val} lanes="{_lanes_fmt(s.lanes)}"/>')
            out.append("  </road>")
    for nid in sorted(network.nodes):
        for t in sorted(network.nodes[nid].turns,
                        key=lambda t: (t.from_road, t.from_lane, t.to_road, t.to_lane)):
            out.append(f'  <turn node="{nid}" from_road="{t.from_road}" '
                       f'from_lane="{t.from_lane}" to_road="{t.to_road}" '
                       f'to_lane="{t.to_lane}"/>')
    out.append('</infrastructure>')
    return "\n".join(out) + "\n"


def _serialize_level(lv: LevelSpec) -> str:
    out = ['<?xml version="1.0"?>', '<level>']
    for gp in sorted(lv.generation_points, key=lambda g: g.input.id):
        out.append(f'  <input_point id="{gp.input.id}" road="{gp.input.road}" '
                   f'lanes="{",".join(str(l) for l in gp.input.lanes)}" '
                   f'generation_ref="{gp.generation_ref}" rhythm_ref="{gp.rhythm_ref}"/>')
    for s in sorted(lv.sinks, key=lambda s: s.id):
        out.append(f'  <end_point id="{s.id}" road="{s.road}" capacity="{_fmt(s.capacity)}"/>')
    if lv.release_mix is not None:
        out.append(f'  <release_mix generation_ref="{lv.release_ref}"/>')
    for c in sorted(lv.clusters, key=lambda c: (c.extents[0][0], c.extents[0][1])):
        out.append(f'  <cluster representation="{c.representation}">')
        for road, start, end in c.extents:
            out.append(f'    <extent road="{road}" start="{_fmt(start)}" end="{_fmt(end)}"/>')
        out.append('  </cluster>')
    for d in sorted(lv.densities, key=lambda d: (d.road, d.start)):
        out.append(f'  <initial_density road="{d.road}" start="{_fmt(d.start)}" '
                   f'end="{_fmt(d.end)}" value="{_fmt(d.value)}"/>')
    for v in sorted(lv.vehicles, key=lambda v: (v.road, v.lane, v.position)):
        out.append(f'  <vehicle road="{v.road}" lane="{v.lane}" '
                   f'position="{_fmt(v.position)}" {_insertion_attrs(v)}/>')
    for r in sorted(lv.restrictions, key=lambda r: (r.road, r.start, r.from_t)):
        out.append(f'  <restriction road="{r.road}" start="{_fmt(r.start)}" '
                   f'end="{_fmt(r.end)}" factor="{_fmt(r.factor)}" '
                   f'from_t="{_fmt(r.from_t)}" to_t="{_fmt(r.to_t)}"/>')
    out.append('</level>')
    return "\n".join(out) + "\n"


def _insertion_attrs(spec: InsertionSpec) -> str:
    """The attributes a <vehicle> and an <event> share, from `speed` on;
    an event's speed left to the limit is written as -1."""
    speed = -1.0 if spec.speed is None else spec.speed
    dest = f' destination="{spec.destination}"' if spec.destination else ""
    params = "".join(f' {k}="{_fmt(getattr(spec.params, k))}"' for k in PARAM_NAMES)
    return f'speed="{_fmt(speed)}" length="{_fmt(spec.length)}"{dest}{params}'


def _serialize_generation(mix: VehicleMix) -> str:
    out = ['<?xml version="1.0"?>', '<generation>']
    out.append(f'  <vehicle_length {_dist_attrs(mix.length)}/>')
    for name in PARAM_NAMES:
        if name in mix.params:
            out.append(f'  <param name="{name}" {_dist_attrs(mix.params[name])}/>')
    for sid, weight in mix.destinations:
        out.append(f'  <destination sink="{sid}" weight="{_fmt(weight)}"/>')
    out.append('</generation>')
    return "\n".join(out) + "\n"


def _serialize_rhythm(gp: GenerationPoint) -> str:
    out = ['<?xml version="1.0"?>']
    flag = ' poisson="true"' if gp.poisson else ''
    if gp.kind == "flow":
        out.append(f'<rhythm kind="flow"{flag}>')
        for t, q in gp.profile.knots:
            out.append(f'  <flow t="{_fmt(t)}" q="{_fmt(q)}"/>')
    else:
        out.append('<rhythm kind="script">')
        for t, spec in gp.events:
            out.append(f'  <event t="{_fmt(t)}" lane="{spec.lane}" {_insertion_attrs(spec)}/>')
    out.append('</rhythm>')
    return "\n".join(out) + "\n"


def write_scenario(model: ScenarioModel, directory: str | Path) -> None:
    """Write the canonical file set under a directory."""
    base = Path(directory)
    for rel, text in serialize_scenario(model).items():
        target = base / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
