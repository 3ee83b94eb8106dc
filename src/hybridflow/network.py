"""Semantic road-network model: roads, typed nodes, signs, routing.

The network is a graph of roads connected at nodes.  There is no physical
lane geometry: a road is a directed edge with a length, a lane count and a
speed limit, and a node holds a turn map listing which (incoming road, lane)
pairs may continue onto which (outgoing road, lane) pairs.

Lane indices run 0..lane_count-1 with lane 0 the leftmost lane and
lane_count-1 the rightmost (slow / exit) lane.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

NODE_KINDS = ("crossroads", "roundabout", "highway_insertion", "highway_extraction")
SIGN_KINDS = ("stop", "speed_limit", "yield")

MAX_LANES = 5


class NetworkError(Exception):
    """Base class for network-level errors."""


class UnreachableError(NetworkError):
    """No path exists between the requested origin and destination."""

    def __init__(self, origin: str, destination: str):
        super().__init__(f"no route from road {origin!r} to sink {destination!r}")
        self.origin = origin
        self.destination = destination


@dataclass(frozen=True)
class VerticalSign:
    """A vertical sign placed along a road, affecting a subset of lanes."""

    kind: str                      # one of SIGN_KINDS
    position: float                # meters from road start
    lanes: frozenset[int] | None = None   # None means all lanes
    value: float | None = None     # m/s, speed_limit signs only

    def applies_to(self, lane: int) -> bool:
        return self.lanes is None or lane in self.lanes


@dataclass(frozen=True)
class Road:
    id: str
    from_node: str
    to_node: str
    length: float                  # m
    lane_count: int
    speed_limit: float             # m/s
    signs: tuple[VerticalSign, ...] = ()


@dataclass(frozen=True)
class Turn:
    """One permitted movement through a node."""

    from_road: str
    from_lane: int
    to_road: str
    to_lane: int


@dataclass(frozen=True)
class Node:
    id: str
    kind: str                      # one of NODE_KINDS
    turns: tuple[Turn, ...] = ()


@dataclass(frozen=True)
class InputPoint:
    """Traffic source connector at the start of a road."""

    id: str
    road: str
    lanes: tuple[int, ...]         # lanes carrying generated traffic


@dataclass(frozen=True)
class SinkPoint:
    """Traffic destruction connector at the end of a road."""

    id: str
    road: str
    capacity: float = float("inf")   # veh/s a macro boundary may discharge


@dataclass(frozen=True)
class Route:
    """Static, per-vehicle path: an ordered road sequence ending at a sink."""

    roads: tuple[str, ...]
    destination: str

    def next_after(self, road_id: str) -> str | None:
        """Road that follows `road_id` on this route, or None at the end."""
        for i, r in enumerate(self.roads):
            if r == road_id:
                return self.roads[i + 1] if i + 1 < len(self.roads) else None
        return None


@dataclass
class RoadNetwork:
    roads: dict[str, Road]
    nodes: dict[str, Node]
    end_points: dict[str, SinkPoint] = field(default_factory=dict)

    def incoming(self, node_id: str) -> list[Road]:
        return [r for r in self.roads.values() if r.to_node == node_id]

    def outgoing(self, node_id: str) -> list[Road]:
        return [r for r in self.roads.values() if r.from_node == node_id]

    def speed_limit_at(self, road_id: str, lane: int, position: float) -> float:
        """Effective limit at a point: road limit, lowered by the nearest
        upstream speed_limit sign applying to the lane."""
        road = self.roads[road_id]
        limit = road.speed_limit
        best_pos = -1.0
        for sign in road.signs:
            if sign.kind == "speed_limit" and sign.applies_to(lane) \
                    and sign.position <= position and sign.position > best_pos:
                best_pos = sign.position
                limit = min(road.speed_limit, float(sign.value))
        return limit


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}({self.subject}): {self.message}"


def validate_network(network: RoadNetwork) -> list[Violation]:
    """Check every structural invariant of the road graph; returns all
    violations found.  Connectors are checked where a level file declares them.

    Never mutates the network.  An empty list means the network is valid.
    """
    out: list[Violation] = []
    roads, nodes = network.roads, network.nodes

    for rid, road in roads.items():
        if road.id != rid:
            out.append(Violation("IdMismatch", rid, f"road keyed {rid} has id {road.id}"))
        if road.length <= 0:
            out.append(Violation("NonPositiveLength", rid, f"length {road.length}"))
        if not (1 <= road.lane_count <= MAX_LANES):
            out.append(Violation("LaneCountOutOfRange", rid,
                                 f"lane_count {road.lane_count} outside [1, {MAX_LANES}]"))
        if road.speed_limit <= 0:
            out.append(Violation("NonPositiveSpeedLimit", rid, f"speed_limit {road.speed_limit}"))
        for end in (road.from_node, road.to_node):
            if end not in nodes:
                out.append(Violation("DanglingRoadEndpoint", rid, f"unknown node {end!r}"))
        for sign in road.signs:
            if not (0 <= sign.position <= road.length):
                out.append(Violation("SignPositionOutOfRange", rid,
                                     f"sign at {sign.position} on {road.length} m road"))
            if sign.lanes is not None:
                if not sign.lanes:
                    out.append(Violation("EmptySignLanes", rid, "sign bound to no lane"))
                elif any(l < 0 or l >= road.lane_count for l in sign.lanes):
                    out.append(Violation("SignLaneOutOfRange", rid,
                                         f"sign lanes {sorted(sign.lanes)}"))
            if sign.kind == "speed_limit" and (sign.value is None or sign.value <= 0):
                out.append(Violation("BadSpeedLimitSign", rid, f"value {sign.value}"))

    for nid, node in nodes.items():
        incident_in = {r.id for r in network.incoming(nid)}
        incident_out = {r.id for r in network.outgoing(nid)}
        if not incident_in and not incident_out:
            out.append(Violation("OrphanNode", nid, "node references no road"))
        if node.kind == "highway_insertion" and len(incident_in) < 2:
            out.append(Violation("InsertionInDegree", nid,
                                 f"{len(incident_in)} incoming road(s), needs >= 2"))
        if node.kind == "highway_extraction" and len(incident_out) < 2:
            out.append(Violation("ExtractionOutDegree", nid,
                                 f"{len(incident_out)} outgoing road(s), needs >= 2"))
        for turn in node.turns:
            if turn.from_road not in incident_in or turn.to_road not in incident_out:
                out.append(Violation("DanglingTurn", nid,
                                     f"turn {turn.from_road}->{turn.to_road} not incident"))
                continue
            if not (0 <= turn.from_lane < roads[turn.from_road].lane_count) or \
                    not (0 <= turn.to_lane < roads[turn.to_road].lane_count):
                out.append(Violation("TurnLaneOutOfRange", nid,
                                     f"turn {turn.from_road}[{turn.from_lane}]"
                                     f"->{turn.to_road}[{turn.to_lane}]"))

    return out


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def road_successors(network: RoadNetwork, road_id: str) -> list[str]:
    """Outgoing roads reachable from `road_id` through its end node's turns."""
    road = network.roads[road_id]
    node = network.nodes.get(road.to_node)
    if node is None:
        return []
    seen: list[str] = []
    for turn in node.turns:
        if turn.from_road == road_id and turn.to_road not in seen:
            seen.append(turn.to_road)
    return sorted(seen)


def compute_route(network: RoadNetwork, origin: str, destination: str,
                  free_speed: float = 25.0) -> Route:
    """Minimum free-flow-travel-time path from an origin road to a sink.

    Edge weight is length / min(speed_limit, free_speed).  Among equal-time
    paths the lexicographically smallest road-id sequence wins.
    """
    if origin not in network.roads:
        raise NetworkError(f"unknown origin road {origin!r}")
    sink = network.end_points.get(destination)
    if sink is None:
        raise NetworkError(f"unknown sink {destination!r}")

    def cost(road_id: str) -> float:
        road = network.roads[road_id]
        return road.length / min(road.speed_limit, free_speed)

    # Dijkstra over roads; heap entries carry the road-id path so that time
    # ties resolve to the lexicographically smallest sequence.
    best: dict[str, tuple[float, tuple[str, ...]]] = {}
    heap: list[tuple[float, tuple[str, ...]]] = [(cost(origin), (origin,))]
    while heap:
        t, path = heapq.heappop(heap)
        head = path[-1]
        if head in best and (best[head][0], best[head][1]) <= (t, path):
            continue
        best[head] = (t, path)
        if head == sink.road:
            return Route(roads=path, destination=destination)
        for nxt in road_successors(network, head):
            if nxt in path:
                continue
            heapq.heappush(heap, (t + cost(nxt), path + (nxt,)))
    raise UnreachableError(origin, destination)


def lanes_toward(network: RoadNetwork, road_id: str, next_road: str) -> frozenset[int]:
    """Lanes of `road_id` whose turn at its end node leads onto `next_road`.
    Empty means a mandatory lane change upstream was missed."""
    node = network.nodes[network.roads[road_id].to_node]
    return frozenset(t.from_lane for t in node.turns
                     if t.from_road == road_id and t.to_road == next_road)


def permitted_entry_lane(network: RoadNetwork, road_id: str, lane: int,
                         next_road: str) -> int | None:
    """Lane on `next_road` reached from (road, lane), or None if not permitted.
    When several target lanes are permitted the smallest index wins."""
    node = network.nodes[network.roads[road_id].to_node]
    lanes = sorted(t.to_lane for t in node.turns
                   if t.from_road == road_id and t.from_lane == lane
                   and t.to_road == next_road)
    return lanes[0] if lanes else None


# ---------------------------------------------------------------------------
# Chain decomposition
# ---------------------------------------------------------------------------
#
# A chain is a maximal run of roads joined by pass-through nodes (exactly one
# incoming and one outgoing road).  Clusters and their boundary interfaces
# live on chains; branching nodes always coincide with chain ends.

@dataclass(frozen=True)
class Chain:
    id: str
    roads: tuple[str, ...]
    offsets: tuple[float, ...]     # cumulative start offset of each road
    length: float
    cyclic: bool

    def offset_of(self, road_id: str) -> float:
        return self.offsets[self.roads.index(road_id)]

    def to_chain_pos(self, road_id: str, position: float) -> float:
        return self.offset_of(road_id) + position

    def locate(self, chain_pos: float) -> tuple[str, float]:
        """Map a chain coordinate back to (road id, position on road)."""
        if not 0 <= chain_pos <= self.length + 1e-9:
            raise ValueError(f"chain position {chain_pos} outside [0, {self.length}]")
        for rid, off in zip(reversed(self.roads), reversed(self.offsets)):
            if chain_pos >= off - 1e-9:
                return rid, min(chain_pos - off, self.length - off)
        return self.roads[0], 0.0

    def pieces(self, start: float, end: float) -> list[tuple[str, float, float]]:
        """Split [start, end) into per-road (road id, from, to) pieces."""
        out = []
        for i, (rid, off) in enumerate(zip(self.roads, self.offsets)):
            road_end = self.offsets[i + 1] if i + 1 < len(self.roads) else self.length
            a, b = max(start, off), min(end, road_end)
            if b - a > 1e-9:
                out.append((rid, a - off, b - off))
        return out


def _is_pass_through(network: RoadNetwork, node_id: str) -> bool:
    return len(network.incoming(node_id)) == 1 and len(network.outgoing(node_id)) == 1


def derive_chains(network: RoadNetwork) -> list[Chain]:
    """Decompose the road graph into maximal linear chains.

    Roads are chained through pass-through nodes; cycles made entirely of
    pass-through nodes become cyclic chains starting at the smallest road id.
    """
    unassigned = set(network.roads)
    chains: list[Chain] = []

    def follow(start: str) -> list[str]:
        seq = [start]
        while True:
            head = network.roads[seq[-1]]
            if not _is_pass_through(network, head.to_node):
                break
            nxt = network.outgoing(head.to_node)[0]
            if nxt.id == seq[0] or nxt.id not in unassigned:
                break
            seq.append(nxt.id)
        return seq

    # open chains start on roads whose origin node is not pass-through
    heads = sorted(r.id for r in network.roads.values()
                   if not _is_pass_through(network, r.from_node))
    for head in heads:
        if head not in unassigned:
            continue
        seq = follow(head)
        unassigned.difference_update(seq)
        chains.append(_build_chain(network, f"chain{len(chains)}", seq, cyclic=False))

    # remaining roads belong to pure cycles
    while unassigned:
        start = min(unassigned)
        seq = follow(start)
        unassigned.difference_update(seq)
        chains.append(_build_chain(network, f"chain{len(chains)}", seq, cyclic=True))

    return chains


def _build_chain(network: RoadNetwork, cid: str, seq: list[str], cyclic: bool) -> Chain:
    offsets, total = [], 0.0
    for rid in seq:
        offsets.append(total)
        total += network.roads[rid].length
    return Chain(id=cid, roads=tuple(seq), offsets=tuple(offsets),
                 length=total, cyclic=cyclic)
