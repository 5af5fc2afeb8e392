import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magrev.signals import (
    MU_0,
    ArrayGeometry,
    CoilParams,
    MotorProfile,
    NoiseProfile,
    SensorTrace,
    apply_path_loss,
    compute_ser,
    induce_voltage,
    simulate_array,
    simulate_mixture,
)


def make_profile(rpm=6000.0, harmonics=None, **kwargs):
    if harmonics is None:
        harmonics = [(1, 1.0, 0.0), (2, 0.5, 0.7), (3, 0.25, 2.1)]
    return MotorProfile.from_rpm(rpm, harmonics=harmonics, **kwargs)


class TestSensorTrace:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        channels = np.ones((2, 64))
        channels[1, 10] = bad
        with pytest.raises(ValueError, match="finite"):
            SensorTrace(channels=channels, sample_rate_hz=8192.0)


class TestMotorProfile:
    def test_from_rpm_period(self):
        p = make_profile(rpm=3000.0)
        assert p.fundamental_hz == pytest.approx(50.0)
        assert p.period_s == pytest.approx(0.02)
        assert p.rpm == pytest.approx(3000.0)

    def test_max_harmonic(self):
        p = make_profile(rpm=6000.0)
        assert p.max_harmonic_hz == pytest.approx(300.0)

    def test_dict_roundtrip(self):
        p = make_profile(rpm=4321.0, position_cm=(1.0, -2.0))
        q = MotorProfile(**json.loads(json.dumps(asdict(p))))
        assert q == p

    def test_at_position_moves_only_position(self):
        p = make_profile()
        q = p.at_position((3.0, 4.0))
        assert q.position_cm == (3.0, 4.0)
        assert q.harmonics == p.harmonics
        assert q.period_s == p.period_s

    def test_rejects_bad_harmonics(self):
        with pytest.raises(ValueError):
            MotorProfile(period_s=0.01, harmonics=[(0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            MotorProfile(period_s=-1.0, harmonics=[(1, 1.0, 0.0)])


class TestFieldAndVoltage:
    def test_voltage_is_scaled_field_derivative(self):
        p = make_profile(rpm=1200.0)
        coil = CoilParams()
        fs, dur = 8192.0, 0.5
        v = induce_voltage(p, coil, dur, fs)
        t = np.arange(int(dur * fs)) / fs
        w0 = 2 * np.pi / p.period_s
        expected = np.zeros_like(t)
        for k, amp, phase in p.harmonics:
            expected += coil.scale * amp * k * w0 * np.sin(k * w0 * t - phase)
        np.testing.assert_allclose(v, expected, rtol=1e-12, atol=1e-12)

    def test_single_harmonic_voltage_amplitude(self):
        # amplitude read off an exact-bin transform; 32 Hz fits 8192/256
        p = MotorProfile(period_s=1.0 / 32.0, harmonics=[(1, 2.0, 0.0)])
        coil = CoilParams()
        v = induce_voltage(p, coil, 1.0, 8192.0)
        spec = np.fft.rfft(v)
        measured = 2.0 * np.abs(spec[32]) / v.size
        assert measured == pytest.approx(coil.scale * 2.0 * 2 * np.pi * 32.0, rel=1e-9)

    def test_coil_scale_formula(self):
        coil = CoilParams(relative_permeability=100.0, turns=10, area_m2=2.0)
        assert coil.scale == pytest.approx(MU_0 * 100.0 * 10 * 2.0)

    def test_coil_turns_must_be_integral(self):
        for bad in (2.7, 3500.0, True, "3500", float("inf"), 0):
            with pytest.raises(ValueError, match="^turns must be an integer >= 1"):
                CoilParams(turns=bad)
        turns = CoilParams(turns=np.int64(3500)).turns
        assert turns == 3500 and type(turns) is int

    def test_nyquist_guard(self):
        p = make_profile(rpm=60000.0)  # 3rd harmonic at 3 kHz
        with pytest.raises(ValueError):
            induce_voltage(p, CoilParams(), 0.1, 4000.0)


class TestCanonicalForms:
    """JSON spellings (lists, integers for reals, NumPy scalars) are stored as
    tuples, floats and ints, so equal configurations compare equal."""

    @staticmethod
    def assert_types(value, expected):
        if isinstance(expected, tuple):
            assert type(value) is tuple and len(value) == len(expected)
            for item, kind in zip(value, expected):
                TestCanonicalForms.assert_types(item, kind)
        else:
            assert type(value) is expected

    def test_motor_profile(self):
        p = MotorProfile(period_s=1, harmonics=[[1, 1, 0], [np.int64(2), 0.5, np.float32(1)]],
                         position_cm=[0, np.float64(3)])
        self.assert_types(p.period_s, float)
        self.assert_types(p.harmonics, ((int, float, float), (int, float, float)))
        self.assert_types(p.position_cm, (float, float))
        assert p == MotorProfile(period_s=1.0, harmonics=((1, 1.0, 0.0), (2, 0.5, 1.0)),
                                 position_cm=(0.0, 3.0))

    def test_coil_params(self):
        c = CoilParams(relative_permeability=300, turns=np.int64(10), area_m2=np.float32(0.5))
        self.assert_types((c.relative_permeability, c.turns, c.area_m2), (float, int, float))

    def test_array_geometry(self):
        g = ArrayGeometry(sensor_positions_cm=[[-4, 0], [4, 0]], effective_speed_cm_s=500,
                          reference_distance_cm=np.int32(5), amplitude_falloff_exponent=2)
        self.assert_types(g.sensor_positions_cm, ((float, float), (float, float)))
        self.assert_types(
            (g.effective_speed_cm_s, g.reference_distance_cm, g.amplitude_falloff_exponent),
            (float, float, float),
        )

    def test_noise_profile(self):
        n = NoiseProfile(mains_components=[[60, 1]], broadband_sigma=0, shared_fraction=1)
        self.assert_types(n.mains_components, ((float, float),))
        self.assert_types((n.broadband_sigma, n.shared_fraction), (float, float))
        assert NoiseProfile().mains_components == ()

    def test_lists_write_the_same_json(self):
        p = MotorProfile(period_s=0.02, harmonics=[[1, 1.0, 0.0]], position_cm=[1.0, 2.0])
        assert json.loads(json.dumps(asdict(p))) == {
            "period_s": 0.02, "harmonics": [[1, 1.0, 0.0]], "position_cm": [1.0, 2.0]
        }


class TestRealFieldsRefuseBooleansAndStrings:
    """``float`` takes JSON's true and "0.1"; the sensing sections do not."""

    @staticmethod
    def refused(build, cases):
        for bad in (True, "0.1"):
            for key, kwargs in cases(bad):
                with pytest.raises(ValueError, match=f"^{key} must be .*a finite real number"):
                    build(**kwargs)

    def test_motor_profile(self):
        def build(**kwargs):
            return MotorProfile(**{"period_s": 0.02, "harmonics": [(1, 1.0, 0.0)], **kwargs})

        self.refused(build, lambda bad: [
            ("period_s", {"period_s": bad}),
            ("harmonics", {"harmonics": [(1, bad, 0.0)]}),
            ("harmonics", {"harmonics": [(1, 1.0, bad)]}),
            ("position_cm", {"position_cm": (bad, 0.0)}),
        ])
        with pytest.raises(ValueError, match=r"^harmonics must be a list, .* an integer >= 1"):
            build(harmonics=[(True, 1.0, 0.0)])
        assert build(period_s=np.float64(0.02), position_cm=(1, 2)).position_cm == (1.0, 2.0)

    def test_array_geometry(self):
        def build(**kwargs):
            return ArrayGeometry(**{"sensor_positions_cm": [(0.0, 0.0)], **kwargs})

        self.refused(build, lambda bad: [
            ("sensor_positions_cm", {"sensor_positions_cm": [(0.0, bad)]}),
            *((key, {key: bad}) for key in (
                "effective_speed_cm_s", "reference_distance_cm", "amplitude_falloff_exponent"
            )),
        ])
        assert build(effective_speed_cm_s=np.int64(500)).effective_speed_cm_s == 500.0

    def test_noise_profile(self):
        self.refused(NoiseProfile, lambda bad: [
            ("mains_components", {"mains_components": [(60.0, bad)]}),
            ("broadband_sigma", {"broadband_sigma": bad}),
            ("shared_fraction", {"shared_fraction": bad}),
        ])
        assert NoiseProfile(broadband_sigma=1).broadband_sigma == 1.0

    def test_coil_params(self):
        self.refused(CoilParams, lambda bad: [
            ("relative_permeability", {"relative_permeability": bad}),
            ("area_m2", {"area_m2": bad}),
        ])
        assert CoilParams(area_m2=np.float32(0.5)).area_m2 == 0.5


class TestPathLoss:
    def test_reference_distance_is_unity(self):
        g = ArrayGeometry(sensor_positions_cm=[(0.0, 0.0)])
        assert apply_path_loss(1.0, g.reference_distance_cm, g) == pytest.approx(1.0)

    def test_inverse_square_default(self):
        g = ArrayGeometry(sensor_positions_cm=[(0.0, 0.0)])
        assert apply_path_loss(2.0, 10.0, g) == pytest.approx(2.0 * (5.0 / 10.0) ** 2)

    def test_custom_exponent(self):
        g = ArrayGeometry(
            sensor_positions_cm=[(0.0, 0.0)], amplitude_falloff_exponent=3.0
        )
        assert apply_path_loss(1.0, 20.0, g) == pytest.approx((5.0 / 20.0) ** 3)

    def test_invalid_distance(self):
        g = ArrayGeometry(sensor_positions_cm=[(0.0, 0.0)])
        with pytest.raises(ValueError):
            apply_path_loss(1.0, 0.0, g)
        with pytest.raises(ValueError):
            apply_path_loss(1.0, -2.0, g)

    def test_exponent_floor(self):
        with pytest.raises(ValueError):
            ArrayGeometry(
                sensor_positions_cm=[(0.0, 0.0)], amplitude_falloff_exponent=1.0
            )

    @given(
        d1=st.floats(min_value=1.0, max_value=500.0),
        d2=st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_distance(self, d1, d2):
        g = ArrayGeometry(sensor_positions_cm=[(0.0, 0.0)])
        a1 = apply_path_loss(1.0, d1, g)
        a2 = apply_path_loss(1.0, d2, g)
        if d1 < d2:
            assert a1 >= a2
        elif d1 > d2:
            assert a1 <= a2


class TestSimulation:
    def test_channels_are_closed_form_shifts(self, quad_geometry, silence, coil):
        p = make_profile(rpm=4800.0, position_cm=(0.0, 30.0))
        fs, dur = 8192.0, 0.5
        trace = simulate_array(p, quad_geometry, silence, coil, dur, fs, seed=0)
        dists = quad_geometry.distances_cm(p.position_cm)
        w0 = 2 * np.pi / p.period_s
        for i, d in enumerate(dists):
            # delays are taken relative to the first sensor's path length
            delay = round((d - dists[0]) / quad_geometry.effective_speed_cm_s * fs)
            shifted = [
                (k, a, phase + k * w0 * delay / fs) for k, a, phase in p.harmonics
            ]
            ref = induce_voltage(
                MotorProfile(period_s=p.period_s, harmonics=shifted), coil, dur, fs
            )
            loss = apply_path_loss(1.0, d, quad_geometry)
            np.testing.assert_allclose(
                trace.channels[i], loss * ref, rtol=1e-10, atol=1e-12
            )

    def test_equidistant_channels_identical(self, silence, coil):
        g = ArrayGeometry(sensor_positions_cm=[(-5.0, 0.0), (5.0, 0.0)])
        p = make_profile(position_cm=(0.0, 12.0))
        trace = simulate_array(p, g, silence, coil, 0.25, 8192.0, seed=1)
        np.testing.assert_array_equal(trace.channels[0], trace.channels[1])

    def test_noise_seeded_deterministically(self, quad_geometry, coil):
        noise = NoiseProfile(
            mains_components=[(60.0, 0.1)], broadband_sigma=0.05, shared_fraction=0.3
        )
        p = make_profile(position_cm=(0.0, 40.0))
        a = simulate_array(p, quad_geometry, noise, coil, 0.25, 8192.0, seed=9)
        b = simulate_array(p, quad_geometry, noise, coil, 0.25, 8192.0, seed=9)
        c = simulate_array(p, quad_geometry, noise, coil, 0.25, 8192.0, seed=10)
        np.testing.assert_array_equal(a.channels, b.channels)
        assert not np.array_equal(a.channels, c.channels)

    def test_fully_shared_noise_is_common_to_channels(self, coil):
        g = ArrayGeometry(sensor_positions_cm=[(-5.0, 0.0), (5.0, 0.0)])
        quiet = MotorProfile.from_rpm(
            3000.0, harmonics=[(1, 0.0, 0.0)], position_cm=(0.0, 10.0)
        )
        noise = NoiseProfile(
            mains_components=(), broadband_sigma=0.1, shared_fraction=1.0
        )
        trace = simulate_array(quiet, g, noise, coil, 0.1, 4096.0, seed=2)
        np.testing.assert_allclose(
            trace.channels[0], trace.channels[1], rtol=0, atol=1e-15
        )

    def test_independent_noise_differs_across_channels(self, coil):
        g = ArrayGeometry(sensor_positions_cm=[(-5.0, 0.0), (5.0, 0.0)])
        quiet = MotorProfile.from_rpm(
            3000.0, harmonics=[(1, 0.0, 0.0)], position_cm=(0.0, 10.0)
        )
        noise = NoiseProfile(
            mains_components=(), broadband_sigma=0.1, shared_fraction=0.0
        )
        trace = simulate_array(quiet, g, noise, coil, 0.1, 4096.0, seed=2)
        assert not np.array_equal(trace.channels[0], trace.channels[1])

    def test_mixture_superposes(self, silence, coil):
        g = ArrayGeometry(sensor_positions_cm=[(0.0, 0.0)])
        p1 = make_profile(rpm=3000.0, position_cm=(0.0, 10.0))
        p2 = make_profile(rpm=5100.0, position_cm=(0.0, 20.0))
        both = simulate_mixture([p1, p2], g, silence, coil, 0.25, 8192.0, seed=0)
        solo1 = simulate_array(p1, g, silence, coil, 0.25, 8192.0, seed=0)
        solo2 = simulate_array(p2, g, silence, coil, 0.25, 8192.0, seed=0)
        np.testing.assert_allclose(
            both.channels, solo1.channels + solo2.channels, rtol=1e-12, atol=1e-12
        )

    def test_trace_metadata(self, quad_geometry, silence, coil):
        p = make_profile(position_cm=(0.0, 25.0))
        trace = simulate_array(p, quad_geometry, silence, coil, 0.5, 8192.0, seed=3)
        assert trace.n_channels == 4
        assert trace.n_samples == 4096
        assert trace.sample_rate_hz == 8192.0


class TestSer:
    def test_aligned_copy_is_unity(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=4096)
        m = 12
        delayed = np.concatenate([np.zeros(m), s[:-m]])
        assert compute_ser(s, delayed, m / 1000.0, 1000.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_scaling_cancels(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=2048)
        delayed = 0.01 * np.concatenate([np.zeros(5), s[:-5]])
        assert compute_ser(s, delayed, 5 / 512.0, 512.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_inverted_copy_is_zero(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=2048)
        assert compute_ser(s, -s, 0.0, 1000.0) == pytest.approx(0.0, abs=1e-12)

    def test_independent_noise_near_inverse_sqrt2(self):
        rng = np.random.default_rng(3)
        vals = [
            compute_ser(rng.normal(size=8192), rng.normal(size=8192), 0.0, 8192.0)
            for _ in range(20)
        ]
        assert abs(np.mean(vals) - 1.0 / math.sqrt(2.0)) < 0.02

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_unity(self, seed):
        rng = np.random.default_rng(seed)
        s1 = rng.normal(size=512)
        s2 = rng.normal(size=512)
        assert 0.0 <= compute_ser(s1, s2, 0.0, 512.0) <= 1.0 + 1e-12

    def test_rejects_excessive_advance(self):
        s = np.ones(64)
        with pytest.raises(ValueError):
            compute_ser(s, s, 64.0, 1.0)

    def test_rejects_silent_pair(self):
        z = np.zeros(64)
        with pytest.raises(ValueError):
            compute_ser(z, z, 0.0, 100.0)


def test_noise_profile_silence_detection():
    assert NoiseProfile(
        mains_components=(), broadband_sigma=0.0, shared_fraction=0.0
    ).is_silent
    assert not NoiseProfile(
        mains_components=[(60.0, 0.1)], broadband_sigma=0.0, shared_fraction=0.0
    ).is_silent
