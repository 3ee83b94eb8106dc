"""Cluster conversion and boundary-interface bookkeeping tests."""

import numpy as np
import pytest

from hybridflow.hybrid import (MACRO, MICRO, BoundaryInterface, Cluster,
                               OverCapacity, aggregate_cluster,
                               boundary_gate_open, build_cell_layout,
                               disaggregate_cluster, macro_to_micro_release,
                               total_mass)
from hybridflow.macro import FundamentalDiagram, MacroCell, MacroSegment
from hybridflow.micro import Vehicle
from hybridflow.network import Node, Road, RoadNetwork, derive_chains

FD = FundamentalDiagram()


def corridor(length=1000.0, lanes=2):
    nodes = {"a": Node("a", "crossroads"), "b": Node("b", "crossroads")}
    roads = {"r": Road("r", "a", "b", length, lanes, 25.0)}
    net = RoadNetwork(roads=roads, nodes=nodes)
    chain = derive_chains(net)[0]
    return net, chain


def micro_cluster(net, chain, positions, lanes=None, start=0.0, end=None):
    end = end if end is not None else chain.length
    cluster = Cluster(id="c", chain_id=chain.id, start=start, end=end)
    for i, pos in enumerate(positions):
        lane = 0 if lanes is None else lanes[i]
        veh = Vehicle(id=f"v{i}", road="r", lane=lane, position=pos, speed=20.0)
        cluster.vehicles[veh.id] = veh
    return cluster


def make_vehicle_factory():
    counter = [0]

    def make(road, lane, position, speed):
        counter[0] += 1
        return Vehicle(id=f"n{counter[0]}", road=road, lane=lane,
                       position=position, speed=speed)
    return make


def release_factory():
    counter = [0]

    def make(lane, speed):
        counter[0] += 1
        return Vehicle(id=f"n{counter[0]}", road="r", lane=lane,
                       position=500.0, speed=speed)
    return make


class TestFluxArithmetic:
    def test_gate_closes_when_cell_full(self):
        seg = MacroSegment(dx=[100.0], lanes=[2.0], rho=[FD.rho_jam], fd=FD)
        assert not boundary_gate_open(seg, 2)
        seg.rho[0] = 0.0
        assert boundary_gate_open(seg, 2)


class TestAggregate:
    def test_empty_cluster_all_zero(self):
        net, chain = corridor()
        cluster = micro_cluster(net, chain, [])
        aggregate_cluster(cluster, chain, net, FD, 100.0)
        assert cluster.representation == MACRO
        assert np.all(cluster.segment.rho == 0.0)

    def test_mass_is_exactly_the_vehicle_count(self):
        net, chain = corridor(1000.0, 2)
        positions = np.linspace(50, 950, 12)
        cluster = micro_cluster(net, chain, positions)
        aggregate_cluster(cluster, chain, net, FD, 100.0)
        assert cluster.segment.total_mass() == pytest.approx(12.0, abs=1e-9)
        assert len(cluster.segment) == 10

    def test_overfull_cell_spills_upstream(self):
        net, chain = corridor(1000.0, 1)
        # cram 12 vehicles into one 100 m cell: capacity is 15 per cell,
        # so use a tiny cell by choosing positions within [900, 910)
        positions = np.linspace(901, 909, 12)
        cluster = micro_cluster(net, chain, positions)
        aggregate_cluster(cluster, chain, net, FD, 100.0)
        seg = cluster.segment
        assert seg.total_mass() == pytest.approx(12.0, abs=1e-9)
        assert np.all(seg.rho <= FD.rho_jam + 1e-12)

    def test_beyond_jam_capacity_raises(self):
        net, chain = corridor(100.0, 1)   # capacity 15 vehicles
        cluster = micro_cluster(net, chain, np.linspace(1, 99, 20))
        with pytest.raises(OverCapacity):
            aggregate_cluster(cluster, chain, net, FD, 100.0)


class TestDisaggregate:
    def test_zero_density_releases_nothing(self):
        net, chain = corridor()
        cluster = Cluster(id="c", chain_id=chain.id, start=0.0, end=1000.0)
        dx, lanes, starts = build_cell_layout(chain, net, 0.0, 1000.0, 100.0)
        cluster.segment = MacroSegment(dx=dx, lanes=lanes, rho=np.zeros(len(dx)), fd=FD,
                                       start=starts)
        vehicles, residual = disaggregate_cluster(cluster, chain, net,
                                                  make_vehicle_factory())
        assert vehicles == [] and residual == pytest.approx(0.0)

    def test_uniform_density_counts_and_spacing(self):
        net, chain = corridor(1000.0, 2)
        cluster = Cluster(id="c", chain_id=chain.id, start=0.0, end=1000.0)
        dx, lanes, starts = build_cell_layout(chain, net, 0.0, 1000.0, 100.0)
        cluster.segment = MacroSegment(dx=dx, lanes=lanes,
                                       rho=np.full(len(dx), 0.05), fd=FD, start=starts)
        vehicles, residual = disaggregate_cluster(cluster, chain, net,
                                                  make_vehicle_factory())
        assert len(vehicles) + residual == pytest.approx(100.0, abs=1e-9)
        assert len(vehicles) == 100
        per_cell = np.zeros(10)
        for veh in vehicles:
            per_cell[min(int(veh.position // 100), 9)] += 1
        assert all(9 <= c <= 11 for c in per_cell)
        # spacing within a lane is the inverse of the per-lane density
        lane0 = sorted(v.position for v in vehicles if v.lane == 0)
        gaps = np.diff(lane0)
        assert np.allclose(gaps, 20.0, atol=1e-6)

    def test_round_trip_count_exact(self):
        net, chain = corridor(1000.0, 2)
        positions = np.linspace(30, 970, 12)
        cluster = micro_cluster(net, chain, positions)
        aggregate_cluster(cluster, chain, net, FD, 100.0)
        vehicles, residual = disaggregate_cluster(cluster, chain, net,
                                                  make_vehicle_factory())
        assert len(vehicles) == 12
        assert residual == pytest.approx(0.0, abs=1e-9)
        assert cluster.representation == MICRO

    def test_dense_cells_push_excess_upstream(self):
        net, chain = corridor(300.0, 1)
        cluster = Cluster(id="c", chain_id=chain.id, start=0.0, end=300.0)
        dx, lanes, starts = build_cell_layout(chain, net, 0.0, 300.0, 100.0)
        rho = np.array([0.0, 0.0, FD.rho_jam])    # 15 vehicles in the last cell
        cluster.segment = MacroSegment(dx=dx, lanes=lanes, rho=rho, fd=FD, start=starts)
        vehicles, residual = disaggregate_cluster(
            cluster, chain, net, make_vehicle_factory(), min_spacing=10.0)
        # only 10 fit in the last cell at 10 m spacing, the rest move upstream
        assert len(vehicles) + residual == pytest.approx(15.0, abs=1e-9)
        last_cell = [v for v in vehicles if v.position >= 200.0]
        assert len(last_cell) == 10


class TestRelease:
    def interface(self, lanes=1):
        return BoundaryInterface(id="i", chain_id="chain0", position=500.0,
                                 upstream_id="up", downstream_id="down",
                                 lanes=lanes)

    def test_carryover_accumulates_and_releases_at_step_eight(self):
        itf = self.interface()
        cell = MacroCell(dx=100.0, lanes=1, rho=0.01)
        released_at = []
        make = release_factory()
        for step in range(1, 17):
            out = macro_to_micro_release(itf, 0.5, cell, FD, 0.25, make,
                                         lambda veh: True)
            if out:
                released_at.append(step)
            assert np.all(itf.carryover < 1.0)
        assert released_at == [8, 16]

    def test_zero_outflow_empty_queue_is_silent(self):
        itf = self.interface()
        out = macro_to_micro_release(itf, 0.0, MacroCell(100.0, 1, 0.0), FD,
                                     0.25, release_factory(), lambda v: True)
        assert out == []
        assert itf.mass() == 0.0

    def test_blocked_insertions_queue_and_conserve_mass(self):
        itf = self.interface()
        cell = MacroCell(dx=100.0, lanes=1, rho=0.05)
        make = release_factory()
        for _ in range(40):
            macro_to_micro_release(itf, 0.5, cell, FD, 0.25, make, lambda v: False)
        # 40 steps * 0.125 banked per step = 5 vehicles worth of mass
        assert itf.mass() == pytest.approx(5.0, abs=1e-9)
        assert len(itf.pending) == 5
        assert itf.throttled() is False   # threshold is strict
        macro_to_micro_release(itf, 0.5, cell, FD, 0.25, make, lambda v: False)
        for _ in range(7):
            macro_to_micro_release(itf, 0.5, cell, FD, 0.25, make, lambda v: False)
        assert itf.throttled()

    def test_fifo_release_order(self):
        itf = self.interface()
        cell = MacroCell(dx=100.0, lanes=1, rho=0.01)
        make = release_factory()
        for _ in range(24):   # bank three vehicles, all blocked
            macro_to_micro_release(itf, 0.5, cell, FD, 0.25, make, lambda v: False)
        queued = [v.id for v in itf.pending]
        # the second candidate is refused: the drain stops there, the first
        # goes and the other two stay queued in their order
        tried = []
        out = macro_to_micro_release(itf, 0.0, cell, FD, 0.25, make,
                                     lambda v: tried.append(v.id) or len(tried) == 1)
        assert tried == queued[:2]
        assert [v.id for v in out] == queued[:1]
        assert [v.id for v in itf.pending] == queued[1:]
        released = []
        out = macro_to_micro_release(itf, 0.0, cell, FD, 0.25, make,
                                     lambda v: released.append(v.id) or True)
        assert released == [v.id for v in out] == queued[1:]
        assert not itf.pending

    def test_release_speed_is_cell_mean_speed(self):
        itf = self.interface()
        cell = MacroCell(dx=100.0, lanes=1, rho=0.12)
        captured = []
        def make(lane, speed):
            veh = Vehicle(id="x", road="r", lane=lane, position=0.0, speed=speed)
            captured.append(speed)
            return veh
        for _ in range(8):
            macro_to_micro_release(itf, 0.5, cell, FD, 0.25, make, lambda v: True)
        assert captured and captured[0] == pytest.approx(0.9615384615, abs=1e-6)


class TestTotalMass:
    def test_fresh_empty_is_zero(self):
        assert total_mass([], [], []) == 0.0

    def test_sums_all_stores(self):
        net, chain = corridor()
        cluster = micro_cluster(net, chain, [100.0, 200.0, 300.0])
        itf = BoundaryInterface(id="i", chain_id=chain.id, position=500.0,
                                upstream_id="c", downstream_id="c", lanes=2)
        itf.carryover[:] = [0.25, 0.5]
        itf.pending.append(Vehicle(id="q", road="r", lane=0, position=0.0, speed=0.0))

        class FakeGen:
            def mass(self):
                return 0.125

        assert total_mass([cluster], [itf], [FakeGen()]) == pytest.approx(4.875)
