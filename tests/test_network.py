"""Road-graph validation, routing and lane-permission tests."""

import pytest

from hybridflow.network import (Chain, Node, Road, RoadNetwork, Route,
                                SinkPoint, Turn, UnreachableError, VerticalSign,
                                compute_route, derive_chains, lanes_toward,
                                permitted_entry_lane, road_successors,
                                validate_network)


def simple_network(**overrides):
    """Y-shaped: main road forks into two branches with sinks."""
    nodes = {
        "a": Node("a", "crossroads"),
        "b": Node("b", "highway_extraction", turns=(
            Turn("main", 0, "left", 0), Turn("main", 1, "right", 0))),
        "cl": Node("cl", "crossroads"),
        "cr": Node("cr", "crossroads"),
    }
    roads = {
        "main": Road("main", "a", "b", 1000.0, 2, 25.0),
        "left": Road("left", "b", "cl", 500.0, 1, 25.0),
        "right": Road("right", "b", "cr", 800.0, 1, 15.0),
    }
    net = RoadNetwork(roads=roads, nodes=nodes,
                      end_points={"sl": SinkPoint("sl", "left"),
                                  "sr": SinkPoint("sr", "right")})
    for key, value in overrides.items():
        setattr(net, key, value)
    return net


class TestValidation:
    def test_valid_network_has_no_violations(self):
        assert validate_network(simple_network()) == []

    def test_lane_count_bound(self):
        net = simple_network()
        net.roads["main"] = Road("main", "a", "b", 1000.0, 6, 25.0)
        codes = {v.code for v in validate_network(net)}
        assert "LaneCountOutOfRange" in codes

    def test_negative_length(self):
        net = simple_network()
        net.roads["left"] = Road("left", "b", "cl", -5.0, 1, 25.0)
        assert "NonPositiveLength" in {v.code for v in validate_network(net)}

    def test_dangling_turn(self):
        net = simple_network()
        net.nodes["b"] = Node("b", "highway_extraction", turns=(
            Turn("main", 0, "left", 0), Turn("main", 1, "right", 0),
            Turn("ghost", 0, "left", 0)))
        assert "DanglingTurn" in {v.code for v in validate_network(net)}

    def test_dropped_node_detected(self):
        net = simple_network()
        del net.nodes["cl"]
        assert "DanglingRoadEndpoint" in {v.code for v in validate_network(net)}

    def test_extraction_out_degree(self):
        nodes = {"a": Node("a", "crossroads"),
                 "b": Node("b", "highway_extraction"),
                 "c": Node("c", "crossroads")}
        roads = {"r1": Road("r1", "a", "b", 100.0, 1, 10.0),
                 "r2": Road("r2", "b", "c", 100.0, 1, 10.0)}
        net = RoadNetwork(roads=roads, nodes=nodes)
        assert "ExtractionOutDegree" in {v.code for v in validate_network(net)}

    def test_sign_bounds(self):
        net = simple_network()
        net.roads["main"] = Road("main", "a", "b", 1000.0, 2, 25.0, signs=(
            VerticalSign("stop", 1500.0, None),))
        assert "SignPositionOutOfRange" in {v.code for v in validate_network(net)}

    def test_mutation_set_always_caught(self):
        """Every single mutation from the defined set yields a violation."""
        mutations = [
            lambda n: n.nodes.pop("cl"),
            lambda n: n.roads.__setitem__(
                "main", Road("main", "a", "b", 1000.0, 2, 25.0, signs=(
                    VerticalSign("stop", 10.0, frozenset({7})),))),
            lambda n: n.roads.__setitem__(
                "left", Road("left", "b", "cl", 500.0, 0, 25.0)),
            lambda n: n.roads.__setitem__(
                "right", Road("right", "b", "cr", 800.0, 1, -2.0)),
        ]
        for mutate in mutations:
            net = simple_network()
            mutate(net)
            assert validate_network(net), "mutation went undetected"


def grid_network():
    """Diamond with unequal branches plus a slow detour, for route tests."""
    nodes = {
        "s": Node("s", "crossroads"),
        "x": Node("x", "crossroads", turns=(
            Turn("in", 0, "up", 0), Turn("in", 0, "down", 0), Turn("in", 0, "slow", 0))),
        "u": Node("u", "crossroads", turns=(Turn("up", 0, "out_u", 0),)),
        "d": Node("d", "crossroads", turns=(Turn("down", 0, "out_d", 0),)),
        "w": Node("w", "crossroads", turns=(Turn("slow", 0, "out_w", 0),)),
        "t": Node("t", "crossroads"),
    }
    roads = {
        "in": Road("in", "s", "x", 500.0, 1, 25.0),
        "up": Road("up", "x", "u", 1000.0, 1, 25.0),
        "down": Road("down", "x", "d", 1000.0, 1, 25.0),
        "slow": Road("slow", "x", "w", 800.0, 1, 5.0),
        "out_u": Road("out_u", "u", "t", 500.0, 1, 25.0),
        "out_d": Road("out_d", "d", "t", 500.0, 1, 25.0),
        "out_w": Road("out_w", "w", "t", 500.0, 1, 25.0),
    }
    # all three arms terminate in the same sink road? they must end at
    # distinct roads for sink placement; give each its own sink
    net = RoadNetwork(roads=roads, nodes=nodes, end_points={
        "su": SinkPoint("su", "out_u"), "sd": SinkPoint("sd", "out_d"),
        "sw": SinkPoint("sw", "out_w")})
    return net


def brute_force_route(net, origin, sink_id, free_speed=25.0):
    """Enumerate all simple paths; pick minimum travel time, then road ids."""
    sink = net.end_points[sink_id]
    best = None

    def cost(path):
        return sum(net.roads[r].length / min(net.roads[r].speed_limit, free_speed)
                   for r in path)

    def expand(path):
        nonlocal best
        head = path[-1]
        if head == sink.road:
            key = (cost(path), path)
            if best is None or key < best:
                best = key
            return
        for nxt in road_successors(net, head):
            if nxt not in path:
                expand(path + (nxt,))

    expand((origin,))
    return best


class TestRouting:
    def test_single_road_route(self):
        net = simple_network()
        route = compute_route(net, "left", "sl")
        assert route.roads == ("left",)
        assert route.destination == "sl"

    def test_fastest_path_vs_enumeration(self):
        net = grid_network()
        for sink_id in ("su", "sd", "sw"):
            route = compute_route(net, "in", sink_id)
            expected = brute_force_route(net, "in", sink_id)
            assert expected is not None
            assert route.roads == expected[1]

    def test_equal_time_tie_breaks_lexicographically(self):
        net = grid_network()
        # up and down arms have identical cost; "down" < "up"
        route_u = compute_route(net, "in", "su")
        route_d = compute_route(net, "in", "sd")
        assert route_u.roads == ("in", "up", "out_u")
        assert route_d.roads == ("in", "down", "out_d")

    def test_unreachable(self):
        net = grid_network()
        with pytest.raises(UnreachableError):
            compute_route(net, "out_u", "sd")

    def test_route_respects_turn_connectivity(self):
        net = grid_network()
        route = compute_route(net, "in", "sw")
        for a, b in zip(route.roads, route.roads[1:]):
            assert b in road_successors(net, a)


class TestLanesToDestination:
    def test_both_lanes_permitted(self):
        nodes = {"a": Node("a", "crossroads"),
                 "b": Node("b", "crossroads", turns=(
                     Turn("r1", 0, "r2", 0), Turn("r1", 1, "r2", 1))),
                 "c": Node("c", "crossroads")}
        roads = {"r1": Road("r1", "a", "b", 100.0, 2, 10.0),
                 "r2": Road("r2", "b", "c", 100.0, 2, 10.0)}
        net = RoadNetwork(roads=roads, nodes=nodes,
                          end_points={"s": SinkPoint("s", "r2")})
        route = Route(roads=("r1", "r2"), destination="s")
        assert lanes_toward(net, "r1", route.next_after("r1")) == {0, 1}

    def test_extraction_rightmost_lane_only(self):
        net = simple_network()
        route = Route(roads=("main", "right"), destination="sr")
        assert lanes_toward(net, "main", route.next_after("main")) == {1}

    def test_enumerated_straight_lanes(self):
        nodes = {"a": Node("a", "crossroads"),
                 "b": Node("b", "highway_extraction", turns=(
                     Turn("r1", 0, "r2", 0), Turn("r1", 1, "r2", 1),
                     Turn("r1", 2, "exit", 0))),
                 "c": Node("c", "crossroads"), "e": Node("e", "crossroads")}
        roads = {"r1": Road("r1", "a", "b", 100.0, 3, 10.0),
                 "r2": Road("r2", "b", "c", 100.0, 2, 10.0),
                 "exit": Road("exit", "b", "e", 100.0, 1, 10.0)}
        net = RoadNetwork(roads=roads, nodes=nodes,
                          end_points={"s": SinkPoint("s", "r2"),
                                      "se": SinkPoint("se", "exit")})
        straight = Route(roads=("r1", "r2"), destination="s")
        assert lanes_toward(net, "r1", straight.next_after("r1")) == {0, 1}
        exiting = Route(roads=("r1", "exit"), destination="se")
        assert lanes_toward(net, "r1", exiting.next_after("r1")) == {2}

    def test_entry_lane_mapping(self):
        net = simple_network()
        assert permitted_entry_lane(net, "main", 1, "right") == 0
        assert permitted_entry_lane(net, "main", 0, "right") is None


class TestChains:
    def test_linear_chain(self):
        net = simple_network()
        chains = derive_chains(net)
        by_first = {c.roads[0]: c for c in chains}
        assert set(by_first) == {"main", "left", "right"}
        assert not any(c.cyclic for c in chains)

    def test_cycle_detected(self):
        nodes = {f"n{i}": Node(f"n{i}", "crossroads", turns=(
            Turn(f"r{i}", 0, f"r{(i + 1) % 3}", 0),)) for i in range(3)}
        # fix turn homes: the turn at node i connects r(i-1) -> r(i)
        nodes = {}
        for i in range(3):
            nodes[f"n{i}"] = Node(f"n{i}", "crossroads", turns=(
                Turn(f"r{(i - 1) % 3}", 0, f"r{i}", 0),))
        roads = {f"r{i}": Road(f"r{i}", f"n{i}", f"n{(i + 1) % 3}", 400.0, 1, 20.0)
                 for i in range(3)}
        net = RoadNetwork(roads=roads, nodes=nodes)
        chains = derive_chains(net)
        assert len(chains) == 1
        assert chains[0].cyclic
        assert chains[0].length == pytest.approx(1200.0)

    def test_chain_coordinates_round_trip(self):
        net = simple_network()
        chain = next(c for c in derive_chains(net) if c.roads[0] == "main")
        pos = chain.to_chain_pos("main", 250.0)
        assert chain.locate(pos) == ("main", pytest.approx(250.0))

    def test_pieces_split_by_road(self):
        chain = Chain(id="c", roads=("a", "b"), offsets=(0.0, 300.0),
                      length=800.0, cyclic=False)
        pieces = chain.pieces(100.0, 500.0)
        assert pieces == [("a", 100.0, 300.0), ("b", 0.0, 200.0)]
