"""Kinematic-wave cell tests: flux laws, stepping, shocks, conservation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridflow.macro import (CellStore, CflViolation, DensityOutOfRange, FundamentalDiagram,
                              MacroCell, MacroSegment, cell_mean_speed, ctm_step,
                              demand_supply, fd_flow)
from model_oracle import cell_step, demand, mean_speed, supply

FD = FundamentalDiagram()   # v_f=25, rho_jam=0.15, q_max=0.5


def scalar_flow(rho, fd=FD):
    """Independent statement of the triangular flux."""
    return min(fd.v_f * rho, fd.q_max / (fd.rho_jam - fd.q_max / fd.v_f)
               * (fd.rho_jam - rho))


class TestFundamentalDiagram:
    def test_derived_quantities(self):
        assert FD.rho_c == pytest.approx(0.02)
        assert FD.w == pytest.approx(0.5 / 0.13)

    def test_rejects_degenerate_shape(self):
        with pytest.raises(ValueError):
            FundamentalDiagram(v_f=1.0, rho_jam=0.1, q_max=1.0)   # rho_c >= rho_jam


class TestFlux:
    def test_empty_and_jammed_give_zero(self):
        assert fd_flow(0.0, FD) == 0.0
        assert fd_flow(FD.rho_jam, FD) == 0.0

    def test_congested_branch_value(self):
        assert fd_flow(0.12, FD) == pytest.approx(scalar_flow(0.12))
        assert fd_flow(0.12, FD) == pytest.approx(0.1153846153, abs=1e-9)

    def test_peaks_at_capacity(self):
        assert fd_flow(FD.rho_c, FD) == pytest.approx(FD.q_max)

    def test_continuity_at_critical_density(self):
        for eps in (1e-3, 1e-6, 1e-9):
            jump = abs(fd_flow(FD.rho_c - eps, FD) - fd_flow(FD.rho_c + eps, FD))
            assert jump < 30 * eps

    def test_out_of_range_rejected(self):
        with pytest.raises(DensityOutOfRange):
            fd_flow(-0.01, FD)
        with pytest.raises(DensityOutOfRange):
            fd_flow(FD.rho_jam + 0.01, FD)


def profile(lanes, rho, capacity_factor=1.0):
    """`demand_supply` of a one-cell segment, as two floats."""
    dem, sup = demand_supply(MacroSegment(dx=[100.0], lanes=[lanes], rho=[rho], fd=FD,
                                          capacity_factor=[capacity_factor]))
    return dem.item(), sup.item()


class TestDemandSupply:
    def test_empty_cell(self):
        dem, sup = profile(lanes=2, rho=0.0)
        assert dem == 0.0
        assert sup == 2 * FD.q_max

    def test_jammed_cell(self):
        dem, sup = profile(lanes=2, rho=FD.rho_jam)
        assert dem == pytest.approx(2 * FD.q_max)
        assert sup == pytest.approx(0.0)

    def test_light_traffic_demand(self):
        dem, _ = profile(lanes=2, rho=0.01)
        assert dem == pytest.approx(0.5)   # 2 * v_f * rho

    def test_capacity_factor_caps_both(self):
        dem, sup = profile(lanes=1, rho=0.05, capacity_factor=0.3)
        assert dem == pytest.approx(0.15)
        assert sup == pytest.approx(0.15)


class TestMeanSpeed:
    def test_empty_moves_at_free_speed(self):
        assert cell_mean_speed(MacroCell(100.0, 1, 0.0), FD) == FD.v_f

    def test_free_branch_is_exactly_free_speed(self):
        for rho in (0.001, 0.01, FD.rho_c):
            assert cell_mean_speed(MacroCell(100.0, 1, rho), FD) == pytest.approx(FD.v_f)

    def test_congested_value(self):
        v = cell_mean_speed(MacroCell(100.0, 1, 0.12), FD)
        assert v == pytest.approx(scalar_flow(0.12) / 0.12)
        assert v == pytest.approx(0.9615384615, abs=1e-9)


def random_segment(rng, n=200):
    """Cells drawn across the diagram: empty, critical, jammed, within the
    clamping tolerance of both ends, and anywhere in between."""
    special = [0.0, FD.rho_c, FD.rho_jam, FD.rho_jam + 5e-13, -5e-13]
    rho = np.where(rng.random(n) < 0.5, rng.choice(special, n),
                   rng.uniform(0.0, FD.rho_jam, n))
    return MacroSegment(dx=rng.uniform(20.0, 150.0, n),
                        lanes=rng.integers(1, 4, n), rho=rho, fd=FD,
                        capacity_factor=rng.choice([1.0, 0.3], n))


class TestCellSpeeds:

    def test_bitwise_equal_to_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            seg = random_segment(rng)
            expected = np.array([cell_mean_speed(seg.cell(i), FD)
                                 for i in range(len(seg))])
            assert seg.cell_speeds().tobytes() == expected.tobytes()

    def test_profiles_bitwise_equal_to_scalar_oracles(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            seg = random_segment(rng)
            cells = [seg.cell(i) for i in range(len(seg))]
            dem, sup = CellStore([seg], FD, 0.25).profiles()
            assert dem.tobytes() == np.array([demand(c, FD) for c in cells]).tobytes()
            assert sup.tobytes() == np.array([supply(c, FD) for c in cells]).tobytes()

    def test_density_above_jam_raises_like_the_oracle(self):
        seg = uniform_segment(rho=0.05)
        seg.rho[3] = FD.rho_jam + 1e-9
        with pytest.raises(DensityOutOfRange):
            cell_mean_speed(seg.cell(3), FD)
        with pytest.raises(DensityOutOfRange):
            seg.cell_speeds()


def uniform_segment(n=10, rho=0.01, dx=100.0, lanes=1):
    return MacroSegment(dx=[dx] * n, lanes=[lanes] * n, rho=[rho] * n, fd=FD)


class TestCtmStep:
    def test_empty_stays_empty(self):
        seg = uniform_segment(rho=0.0)
        accepted, outflow = ctm_step(seg, 0.0, math.inf, 0.25)
        assert accepted == 0.0 and outflow == 0.0
        assert np.all(seg.rho == 0.0)

    def test_uniform_ring_is_invariant(self):
        seg = uniform_segment(rho=0.01)
        dem, sup = demand_supply(seg)
        wrap = min(dem[-1].item(), sup[0].item())
        before = seg.rho.copy()
        for _ in range(200):
            ctm_step(seg, wrap, wrap, 0.25)
        assert np.allclose(seg.rho, before, atol=1e-12)

    def test_cfl_violation_raises(self):
        seg = uniform_segment(dx=5.0)
        with pytest.raises(CflViolation):
            ctm_step(seg, 0.0, math.inf, 0.25)

    def test_mass_balance_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = rng.integers(2, 30)
            seg = MacroSegment(dx=rng.uniform(50, 200, n),
                               lanes=rng.integers(1, 4, n).astype(float),
                               rho=rng.uniform(0, FD.rho_jam, n), fd=FD)
            before = seg.total_mass()
            inflow = rng.uniform(0, 2)
            sup = rng.uniform(0, 2)
            accepted, outflow = ctm_step(seg, inflow, sup, 0.25)
            after = seg.total_mass()
            assert after - before == pytest.approx(0.25 * (accepted - outflow),
                                                   abs=1e-9)
            assert np.all(seg.rho >= -1e-12)
            assert np.all(seg.rho <= FD.rho_jam + 1e-12)

    def test_bitwise_equal_to_scalar_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            seg = random_segment(rng, n=int(rng.integers(1, 30)))
            oracle = MacroSegment(seg.dx, seg.lanes, seg.rho, FD, seg.capacity_factor)
            inflow, sup = (float(rng.choice([0.0, rng.uniform(0, 3), math.inf]))
                           for _ in range(2))
            found = ctm_step(seg, inflow, sup, 0.25)
            expected = cell_step(oracle, inflow, sup, 0.25)
            assert [q.hex() for q in found] == [q.hex() for q in expected]
            assert seg.rho.tobytes() == oracle.rho.tobytes()

    def test_riemann_shock_speed(self):
        """A congestion front must travel at the flux-jump ratio."""
        dx = 25.0
        n = 120   # 3000 m
        rho = np.where(np.arange(n) * dx < 1500.0, 0.01, 0.12)
        seg = MacroSegment(dx=[dx] * n, lanes=[1] * n, rho=rho, fd=FD)
        q_free, q_cong = scalar_flow(0.01), scalar_flow(0.12)
        expected = (q_cong - q_free) / (0.12 - 0.01)   # about -1.2238 m/s
        assert expected == pytest.approx(-1.223776, abs=1e-5)

        dt = 0.25
        mid = (0.01 + 0.12) / 2.0
        centers = (np.arange(n) + 0.5) * dx

        def front_position():
            above = np.flatnonzero(seg.rho > mid)
            i = int(above[0])
            if i == 0:
                return centers[0]
            # linear interpolation between the cells straddling the front
            r0, r1 = seg.rho[i - 1], seg.rho[i]
            frac = (mid - r0) / (r1 - r0)
            return centers[i - 1] + frac * dx

        times, fronts = [], []
        for k in range(int(200.0 / dt) + 1):
            if k * dt >= 50.0:
                times.append(k * dt)
                fronts.append(front_position())
            ctm_step(seg, q_free, q_cong, dt)
        slope = np.polyfit(times, fronts, 1)[0]
        assert abs(slope - expected) / abs(expected) < 0.05


class TestSegment:
    def test_mean_speed_mass_weighted(self):
        seg = MacroSegment(dx=[100.0, 100.0], lanes=[1, 1], rho=[0.0, 0.12], fd=FD)
        # all mass sits in the congested cell
        assert seg.mean_speed() == pytest.approx(scalar_flow(0.12) / 0.12)

    def test_empty_segment_reports_free_speed(self):
        assert uniform_segment(rho=0.0).mean_speed() == FD.v_f

    def test_rejects_overfull_density(self):
        with pytest.raises(DensityOutOfRange):
            MacroSegment(dx=[100.0], lanes=[1], rho=[0.2], fd=FD)

    def test_part_slices_and_join_keeps_every_column(self):
        seg = MacroSegment(dx=[50.0, 60.0, 70.0, 80.0], lanes=[1, 2, 2, 3],
                           rho=[0.01, 0.02, 0.03, 0.04], fd=FD,
                           capacity_factor=[1.0, 0.5, 0.5, 1.0], slow=[4, 0, 7, 2])
        up, down = seg.part(0, 1), seg.part(1, 4)
        assert up.slow.tolist() == [4] and down.slow.tolist() == [0, 7, 2]
        assert down.dx.tolist() == [60.0, 70.0, 80.0] and up.fd is FD
        down.slow[1] += 1
        assert seg.slow.tolist() == [4, 0, 7, 2]      # a part owns its counts
        joined = MacroSegment.join(up, down)
        assert joined.slow.dtype == np.int64
        assert joined.slow.tolist() == [4, 0, 8, 2]
        for name in MacroSegment.COLUMNS:
            if name != "slow":
                assert same_bits(getattr(joined, name), getattr(seg, name)), name
        assert not MacroSegment(dx=[100.0], lanes=[1], rho=[0.0], fd=FD).slow.any()


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestCellStore:
    """The one pass over concatenated segments equals the scalar oracles,
    `cell_step`, `cell_mean_speed` and `mean_speed`, segment by segment and
    bit for bit, and so do the single-segment `cell_speeds` and
    `mean_speed`."""

    DT = 0.25   # CFL needs dx >= 25 m/s * 0.25 s

    @staticmethod
    def draw_segment(data, dx=st.floats(6.25, 200.0)):
        n = data.draw(st.integers(1, 40))
        cells = st.lists
        return MacroSegment(
            dx=data.draw(cells(dx, min_size=n, max_size=n)),
            lanes=data.draw(cells(st.integers(1, 4), min_size=n, max_size=n)),
            rho=data.draw(cells(st.floats(0.0, FD.rho_jam), min_size=n, max_size=n)),
            fd=FD,
            capacity_factor=data.draw(cells(st.floats(0.0, 1.0, exclude_min=True),
                                            min_size=n, max_size=n)))

    @staticmethod
    def twin(seg):
        return MacroSegment(seg.dx.copy(), seg.lanes.copy(), seg.rho, FD, seg.capacity_factor)

    @given(st.data())
    def test_pass_equals_ctm_step_and_speeds(self, data):
        segments = [self.draw_segment(data) for _ in range(data.draw(st.integers(1, 6)))]
        oracles = [self.twin(seg) for seg in segments]
        store = CellStore(segments, FD, self.DT)
        for seg in segments:
            assert np.shares_memory(seg.rho, store.rho)
        rate = st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.just(math.inf))
        for _ in range(3):
            cells, mass, means = store.observe()
            for oracle, (a, b), mean in zip(oracles, store.bounds, means):
                speeds = [cell_mean_speed(oracle.cell(i), FD) for i in range(len(oracle))]
                assert same_bits(cells[a:b], speeds)
                assert same_bits(oracle.cell_speeds(), speeds)
                assert same_bits(mass[a:b], oracle.rho * oracle.dx * oracle.lanes)
                assert same_bits(mean, mean_speed(oracle))
                assert same_bits(oracle.mean_speed(), mean)
            inflow = [data.draw(rate) for _ in segments]
            supply_ = [data.draw(rate) for _ in segments]
            accepted, outflow = store.step(*store.profiles(), np.array(inflow),
                                           np.array(supply_))
            for k, (seg, oracle) in enumerate(zip(segments, oracles)):
                a, q = cell_step(oracle, inflow[k], supply_[k], self.DT)
                assert same_bits(accepted[k], a) and same_bits(outflow[k], q)
                assert same_bits(seg.rho, oracle.rho)

    @given(st.data())
    def test_cfl_violation_raises(self, data):
        segments = [self.draw_segment(data) for _ in range(data.draw(st.integers(0, 5)))]
        bad = self.draw_segment(data)
        bad.dx[data.draw(st.integers(0, len(bad) - 1))] = data.draw(st.floats(1.0, 6.2))
        at = data.draw(st.integers(0, len(segments)))
        with pytest.raises(CflViolation):
            CellStore(segments[:at] + [bad] + segments[at:], FD, self.DT)

    @given(st.data())
    def test_negative_rate_raises(self, data):
        segments = [self.draw_segment(data) for _ in range(data.draw(st.integers(1, 6)))]
        store = CellStore(segments, FD, self.DT)
        rates = np.zeros(len(segments))
        rates[data.draw(st.integers(0, len(segments) - 1))] = -data.draw(
            st.floats(1e-300, 5.0))
        before = store.rho.copy()
        with pytest.raises(ValueError):
            store.step(*store.profiles(), rates, np.zeros(len(segments)))
        with pytest.raises(ValueError):
            store.step(*store.profiles(), np.zeros(len(segments)), rates)
        assert same_bits(store.rho, before)

    def test_overfull_density_raises(self):
        store = CellStore([uniform_segment(), uniform_segment(n=3)], FD, self.DT)
        store.segments[1].rho[2] = FD.rho_jam + 1e-6
        with pytest.raises(DensityOutOfRange):
            store.observe()
