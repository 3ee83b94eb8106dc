"""Kinematic-wave cell tests: flux laws, stepping, shocks, conservation."""

import math

import numpy as np
import pytest

from hybridflow.macro import (CflViolation, DensityOutOfRange, FundamentalDiagram,
                              MacroCell, MacroSegment, cell_mean_speed, ctm_step,
                              demand, fd_flow, supply)

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


class TestDemandSupply:
    def test_empty_cell(self):
        cell = MacroCell(dx=100.0, lanes=2, rho=0.0)
        assert demand(cell, FD) == 0.0
        assert supply(cell, FD) == 2 * FD.q_max

    def test_jammed_cell(self):
        cell = MacroCell(dx=100.0, lanes=2, rho=FD.rho_jam)
        assert demand(cell, FD) == pytest.approx(2 * FD.q_max)
        assert supply(cell, FD) == pytest.approx(0.0)

    def test_light_traffic_demand(self):
        cell = MacroCell(dx=100.0, lanes=2, rho=0.01)
        assert demand(cell, FD) == pytest.approx(0.5)   # 2 * v_f * rho

    def test_capacity_factor_caps_both(self):
        cell = MacroCell(dx=100.0, lanes=1, rho=0.05, capacity_factor=0.3)
        assert demand(cell, FD) == pytest.approx(0.15)
        assert supply(cell, FD) == pytest.approx(0.15)


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


class TestCellSpeeds:
    def random_segment(self, rng, n=200):
        """Cells drawn across the diagram: empty, critical, jammed, within
        the clamping tolerance of both ends, and anywhere in between."""
        special = [0.0, FD.rho_c, FD.rho_jam, FD.rho_jam + 5e-13, -5e-13]
        rho = np.where(rng.random(n) < 0.5, rng.choice(special, n),
                       rng.uniform(0.0, FD.rho_jam, n))
        return MacroSegment(dx=rng.uniform(20.0, 150.0, n),
                            lanes=rng.integers(1, 4, n), rho=rho, fd=FD,
                            capacity_factor=rng.choice([1.0, 0.3], n))

    def test_bitwise_equal_to_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            seg = self.random_segment(rng)
            expected = np.array([cell_mean_speed(seg.cell(i), FD)
                                 for i in range(len(seg))])
            assert seg.cell_speeds().tobytes() == expected.tobytes()

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
        wrap = min(float(seg.demand_profile()[-1]), float(seg.supply_profile()[0]))
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
