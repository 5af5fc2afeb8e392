import numpy as np
import pytest

from magrev.sensor_io import (
    PCM_FULL_SCALE,
    load_sensing_config,
    load_trace_csv,
    load_trace_wav,
    parse_sensing_config,
    save_sensing_config,
    save_trace_csv,
    save_trace_wav,
)
from magrev.signals import (
    ArrayGeometry,
    CoilParams,
    MotorProfile,
    NoiseProfile,
    SensorTrace,
)


def small_trace(seed=0, n_channels=3, n=256, fs=8192.0):
    rng = np.random.default_rng(seed)
    return SensorTrace(
        channels=rng.normal(0.0, 0.3, size=(n_channels, n)), sample_rate_hz=fs
    )


class TestWav:
    def test_roundtrip_within_quantization(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.wav"
        scale = save_trace_wav(trace, path)
        back = load_trace_wav(path, volts_per_count=scale)
        assert back.n_channels == trace.n_channels
        assert back.sample_rate_hz == trace.sample_rate_hz
        # 16-bit quantization: worst error is half a count
        assert np.max(np.abs(back.channels - trace.channels)) <= 0.5 * scale + 1e-12

    def test_auto_scale_uses_peak(self, tmp_path):
        trace = small_trace()
        scale = save_trace_wav(trace, tmp_path / "t.wav")
        peak = np.max(np.abs(trace.channels))
        assert scale == pytest.approx(peak / PCM_FULL_SCALE)

    def test_explicit_scale_clips(self, tmp_path):
        trace = SensorTrace(
            channels=np.array([[0.0, 10.0, -10.0]]), sample_rate_hz=100.0
        )
        path = tmp_path / "t.wav"
        scale = save_trace_wav(trace, path, volts_per_count=1.0 / PCM_FULL_SCALE)
        back = load_trace_wav(path, volts_per_count=scale)
        assert back.channels[0, 1] == pytest.approx(1.0, rel=1e-3)
        assert back.channels[0, 2] == pytest.approx(-1.0, rel=1e-3)

    def test_silent_trace_roundtrips(self, tmp_path):
        trace = SensorTrace(channels=np.zeros((2, 64)), sample_rate_hz=1000.0)
        scale = save_trace_wav(trace, tmp_path / "t.wav")
        back = load_trace_wav(tmp_path / "t.wav", volts_per_count=scale)
        np.testing.assert_array_equal(back.channels, 0.0)

    def test_nonpositive_scale_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace_wav(small_trace(), tmp_path / "t.wav", volts_per_count=0.0)

    def test_fractional_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        with pytest.raises(ValueError, match="integer sample rate"):
            save_trace_wav(small_trace(fs=8192.5), path)
        assert not path.exists()

    def test_channel_interleaving_order(self, tmp_path):
        # distinct constant channels must come back in the same slots
        trace = SensorTrace(
            channels=np.array([[0.1] * 8, [0.2] * 8, [0.3] * 8]),
            sample_rate_hz=100.0,
        )
        scale = save_trace_wav(trace, tmp_path / "t.wav")
        back = load_trace_wav(tmp_path / "t.wav", volts_per_count=scale)
        means = back.channels.mean(axis=1)
        assert means[0] < means[1] < means[2]


class TestCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        trace = small_trace(n_channels=4, n=64)
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        back = load_trace_csv(path)
        np.testing.assert_array_equal(back.channels, trace.channels)
        assert back.sample_rate_hz == trace.sample_rate_hz

    def test_header_line_format(self, tmp_path):
        trace = small_trace(n_channels=2, n=4, fs=1234.5)
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# fs_hz=1234.5"
        assert lines[1] == "ch0,ch1"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ch0,ch1\n0.0,0.0\n")
        with pytest.raises(ValueError, match="fs_hz"):
            load_trace_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# fs_hz=100.0\nch0\n")
        with pytest.raises(ValueError, match="no samples"):
            load_trace_csv(path)


class TestSensingConfig:
    def make_sections(self):
        motor = MotorProfile.from_rpm(
            3000.0, harmonics=[(1, 1.0, 0.0), (2, 0.5, 0.7)]
        )
        geometry = ArrayGeometry(
            sensor_positions_cm=((-4.0, 30.0), (4.0, 30.0)),
        )
        noise = NoiseProfile(
            mains_components=((60.0, 0.01),),
            broadband_sigma=0.002,
            shared_fraction=0.25,
        )
        coil = CoilParams()
        return motor, geometry, noise, coil

    def test_full_roundtrip(self, tmp_path):
        motor, geometry, noise, coil = self.make_sections()
        path = tmp_path / "cfg.json"
        save_sensing_config(
            path, motor=motor, geometry=geometry, noise=noise, coil=coil
        )
        loaded = load_sensing_config(path)
        assert loaded["motor"] == motor
        assert loaded["geometry"] == geometry
        assert loaded["noise"] == noise
        assert loaded["coil"] == coil
        assert loaded["raw"]["motor"] == motor.to_dict()

    def test_multi_motor_roundtrip(self, tmp_path):
        motor, geometry, _, _ = self.make_sections()
        second = MotorProfile.from_rpm(5100.0, harmonics=[(1, 0.8, 0.2)])
        path = tmp_path / "cfg.json"
        save_sensing_config(path, motors=[motor, second], geometry=geometry)
        loaded = load_sensing_config(path)
        assert loaded["motors"] == [motor, second]
        assert "motor" not in loaded

    def test_motor_and_motors_together_rejected(self, tmp_path):
        motor, _, _, _ = self.make_sections()
        with pytest.raises(ValueError):
            save_sensing_config(tmp_path / "cfg.json", motor=motor, motors=[motor])

    def test_sections_are_optional(self, tmp_path):
        _, geometry, _, _ = self.make_sections()
        path = tmp_path / "cfg.json"
        save_sensing_config(path, geometry=geometry)
        loaded = load_sensing_config(path)
        assert set(loaded) == {"raw", "geometry"}

    def test_bad_section_error_names_source_and_section(self):
        with pytest.raises(ValueError, match=r"my-setup.*'noise'"):
            parse_sensing_config(
                {"noise": {"broadband_sigma": -1.0}}, source="my-setup"
            )

    def test_invalid_json_error_names_file(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="mangled.json"):
            load_sensing_config(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sensing_config(tmp_path / "absent.json")

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError, match="top level"):
            parse_sensing_config([1, 2, 3])

    def test_extra_keys_survive_in_raw(self, tmp_path):
        _, geometry, _, _ = self.make_sections()
        path = tmp_path / "cfg.json"
        save_sensing_config(
            path, geometry=geometry, extra={"label": "bench-west"}
        )
        loaded = load_sensing_config(path)
        assert loaded["raw"]["label"] == "bench-west"
