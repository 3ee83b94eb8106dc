"""Source and sink behavior: accumulators, scripts, distributions, streams."""

import zlib

import numpy as np
import pytest

from hybridflow.generation import (Distribution, FlowMassGenerator, FlowProfile,
                                   InsertionSpec, ScriptedGenerator, VehicleMix,
                                   stream_seed)
from hybridflow.micro import DriverParams


def flat_profile(q):
    return FlowProfile(knots=((0.0, q),))


class TestFlowMassGenerator:
    def test_zero_rate_never_emits(self):
        gen = FlowMassGenerator("g", "r", (0,), flat_profile(0.0), VehicleMix(), 1)
        for k in range(500):
            assert gen.generation_influences(k * 0.25, 0.25) == []
        assert gen.mass() == 0.0

    def test_accumulator_release_cadence(self):
        gen = FlowMassGenerator("g", "r", (0,), flat_profile(1800.0), VehicleMix(), 1)
        emitted = []
        for k in range(1, 25):
            out = gen.generation_influences((k - 1) * 0.25, 0.25)
            emitted.extend([k] * len(out))
        assert emitted == [8, 16, 24]   # +0.125 per step

    def test_piecewise_profile_switches(self):
        profile = FlowProfile(knots=((0.0, 3600.0), (10.0, 0.0)))
        gen = FlowMassGenerator("g", "r", (0,), profile, VehicleMix(), 1)
        count = 0
        for k in range(400):
            count += len(gen.generation_influences(k * 0.25, 0.25))
        assert count == 10   # one per second for ten seconds, then silence

    def test_per_lane_accumulators(self):
        gen = FlowMassGenerator("g", "r", (0, 1), flat_profile(1800.0),
                                VehicleMix(), 1)
        out = []
        for k in range(8):
            out.extend(gen.generation_influences(k * 0.25, 0.25))
        assert len(out) == 2
        assert sorted(spec.lane for spec in out) == [0, 1]

    def test_macro_inflow_offer_and_settle(self):
        gen = FlowMassGenerator("g", "r", (0,), flat_profile(3600.0), VehicleMix(), 1)
        offered = gen.offer_macro_inflow(0.0, 0.25)
        assert offered == pytest.approx(1.0)       # 0.25 veh banked / 0.25 s
        settled = gen.settle_macro_inflow(0.4, 0.25)
        assert settled == pytest.approx(0.1)
        assert gen.mass() == pytest.approx(0.15)   # the unaccepted remainder


class TestScriptedGenerator:
    def spec(self, lane=0):
        return InsertionSpec(road="r", lane=lane, position=0.0, speed=10.0,
                             params=DriverParams(), length=4.0, destination=None)

    def test_events_fire_in_their_window_in_order(self):
        events = [(1.0, self.spec(0)), (1.1, self.spec(1))]
        gen = ScriptedGenerator("s", "r", events)
        out = gen.generation_influences(1.0, 0.25)
        assert [s.lane for s in out] == [0, 1]
        assert gen.generation_influences(1.25, 0.25) == []

    def test_window_is_half_open(self):
        events = [(0.5, self.spec(0))]
        gen = ScriptedGenerator("s", "r", events)
        assert gen.generation_influences(0.25, 0.25) == []
        assert len(gen.generation_influences(0.5, 0.25)) == 1


class TestDistributions:
    def test_constant(self):
        rng = np.random.default_rng(0)
        assert Distribution("constant", 3.3).sample(rng, "v0") == 3.3

    def test_uniform_bounds(self):
        rng = np.random.default_rng(0)
        dist = Distribution("uniform", 10.0, 20.0)
        draws = [dist.sample(rng, "v0") for _ in range(500)]
        assert all(10.0 <= d <= 20.0 for d in draws)

    def test_normal_truncated_and_positive(self):
        rng = np.random.default_rng(0)
        dist = Distribution("normal", 1.0, 5.0)
        draws = [dist.sample(rng, "T") for _ in range(2000)]
        assert all(0.1 <= d <= 16.0 for d in draws)   # floor and +-3 sd

    def test_politeness_clipped_to_unit_interval(self):
        rng = np.random.default_rng(0)
        dist = Distribution("normal", 0.9, 0.4)
        draws = [dist.sample(rng, "p") for _ in range(2000)]
        assert all(0.0 <= d <= 1.0 for d in draws)

    def test_mix_always_produces_valid_params(self):
        mix = VehicleMix(params={
            "v0": Distribution("normal", 30.0, 3.0),
            "T": Distribution("uniform", 1.0, 2.0),
            "p": Distribution("normal", 0.3, 0.3),
        })
        rng = np.random.default_rng(5)
        for _ in range(1000):
            params, length = mix.sample(rng)
            assert isinstance(params, DriverParams)
            assert length > 0

    def test_min_spacing_reflects_support(self):
        mix = VehicleMix(params={"s0": Distribution("constant", 2.0)},
                         length=Distribution("constant", 4.0))
        assert mix.min_spacing() == pytest.approx(6.0)


class TestStreams:
    def test_stream_seeds_differ_by_name(self):
        assert stream_seed(1, "gen:a") != stream_seed(1, "gen:b")

    def test_seed_bits_above_31_select_other_streams(self):
        def draws(seed):
            return np.random.default_rng(stream_seed(seed, "gen:a")).random(4).tolist()

        assert draws(7) != draws(2**32 + 7)
        assert draws(2**32 - 1) != draws(2**33 - 1)
        assert draws(2**32 + 7) != draws(2**33 + 7)

    def test_seeds_below_2_pow_32_keep_their_material(self):
        for seed in (0, 7, 2**31, 2**32 - 1):
            assert stream_seed(seed, "gen:a") == [seed, zlib.crc32(b"gen:a")]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            stream_seed(-1, "gen:a")

    def test_generator_streams_are_independent(self):
        """Adding a second generator must not disturb the first one's draws."""
        mix = VehicleMix(params={"v0": Distribution("normal", 30.0, 2.0)})

        def draws_of_first(extra_generator: bool):
            a = FlowMassGenerator("a", "r", (0,), flat_profile(3600.0), mix, 9)
            gens = [a]
            if extra_generator:
                gens.append(FlowMassGenerator("b", "r", (0,),
                                              flat_profile(3600.0), mix, 9))
            out = []
            for k in range(40):
                for gen in gens:
                    for spec in gen.generation_influences(k * 0.25, 0.25):
                        if gen.id == "a":
                            out.append(spec.params.v0)
            return out

        assert draws_of_first(False) == draws_of_first(True)

    def test_same_seed_reproduces_draws(self):
        mix = VehicleMix(params={"v0": Distribution("uniform", 25.0, 35.0)})
        def run():
            gen = FlowMassGenerator("a", "r", (0,), flat_profile(3600.0), mix, 4)
            out = []
            for k in range(40):
                out.extend(s.params.v0 for s in gen.generation_influences(k * 0.25, 0.25))
            return out
        assert run() == run()


class TestPoissonOption:
    def test_poisson_mode_approximates_the_rate(self):
        gen = FlowMassGenerator("g", "r", (0,), flat_profile(1800.0),
                                VehicleMix(), 3, poisson=True)
        count = 0
        for k in range(14_400):   # one simulated hour
            count += len(gen.generation_influences(k * 0.25, 0.25))
        assert count == pytest.approx(1800, rel=0.05)

    def test_poisson_mode_is_seed_reproducible(self):
        def run():
            gen = FlowMassGenerator("g", "r", (0,), flat_profile(1800.0),
                                    VehicleMix(), 5, poisson=True)
            return [len(gen.generation_influences(k * 0.25, 0.25))
                    for k in range(400)]
        assert run() == run()
