import json
import wave
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from magrev.detector import (
    DetectionMap,
    TrainingSample,
    load_training_set,
    save_training_set,
)
from magrev.fields import POWER_OF_TWO, check_fields, integer, list_of, real, row
from magrev.sensor_io import (
    PCM_FULL_SCALE,
    load_trace_csv,
    load_trace_wav,
    parse_sensing_config,
    read_json,
    read_table,
    save_trace_csv,
    save_trace_wav,
    write_table,
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


    def test_channels_are_c_contiguous_and_decoded_exactly(self, tmp_path):
        path = tmp_path / "t.wav"
        scale = save_trace_wav(small_trace(n_channels=4, n=1000), path)
        with wave.open(str(path), "rb") as handle:
            raw = handle.readframes(handle.getnframes())
        for volts_per_count in (scale, 1.0, 2, 1e-4):
            back = load_trace_wav(path, volts_per_count=volts_per_count)
            # the two-step decode: widen to float64, then scale the transposed view
            counts = np.frombuffer(raw, dtype="<i2").astype(np.float64)
            expected = counts.reshape(-1, 4).T * volts_per_count
            assert back.channels.flags.c_contiguous
            np.testing.assert_array_equal(back.channels, expected)


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

    def test_crlf_file_in_old_layout_loads_identically(self, tmp_path):
        # the LF comment line followed by CRLF rows that csv.writer produced
        trace = small_trace(n_channels=2, n=5)
        path = tmp_path / "old.csv"
        rows = ["ch0,ch1"] + [f"{a!r},{b!r}" for a, b in trace.channels.T.tolist()]
        path.write_bytes(("# fs_hz=8192.0\n" + "\r\n".join(rows) + "\r\n").encode())
        back = load_trace_csv(path)
        np.testing.assert_array_equal(back.channels, trace.channels)
        assert back.sample_rate_hz == 8192.0


def _sample(seed=0, n=8):
    rng = np.random.default_rng(seed)
    return TrainingSample(
        features=rng.uniform(size=n),
        mask=(rng.uniform(size=n) > 0.5).astype(float),
        bin_frequencies=np.arange(n) * 0.5,
        fundamental_hz=1.5,
    )


def _arrays(obj):
    if isinstance(obj, list):
        return [a for sample in obj for a in _arrays(sample)]
    names = {
        SensorTrace: ("channels",),
        DetectionMap: ("probabilities", "bin_frequencies"),
        TrainingSample: ("features", "mask", "bin_frequencies"),
    }[type(obj)]
    return [getattr(obj, name) for name in names]


# (make, save, load, file written) for every table format with a reader
TABLE_FORMATS = {
    "trace": (small_trace, save_trace_csv, load_trace_csv, None),
    "detection_map": (
        lambda: DetectionMap(
            probabilities=np.random.default_rng(2).uniform(size=7),
            bin_frequencies=np.arange(7) * 0.73,
        ),
        DetectionMap.save_csv,
        DetectionMap.load_csv,
        None,
    ),
    "training_sample": (
        lambda: [_sample(0), _sample(1)],
        save_training_set,
        load_training_set,
        "sample_0001.csv",
    ),
}


@pytest.mark.parametrize("fmt", sorted(TABLE_FORMATS))
class TestTableFormats:
    def written(self, fmt, tmp_path):
        make, save, load, name = TABLE_FORMATS[fmt]
        obj = make()
        target = tmp_path / ("dir" if name else "table.csv")
        save(obj, target)
        return obj, load, target, (target / name if name else target)

    def test_written_with_lf_and_read_with_crlf(self, fmt, tmp_path):
        obj, load, target, csv_path = self.written(fmt, tmp_path)
        data = csv_path.read_bytes()
        assert b"\r" not in data
        csv_path.write_bytes(data.replace(b"\n", b"\r\n"))
        got, want = _arrays(load(target)), _arrays(obj)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_short_row_error_names_file_and_line(self, fmt, tmp_path):
        _, load, target, csv_path = self.written(fmt, tmp_path)
        lines = csv_path.read_text().splitlines()
        body = 2 if lines[0].startswith("#") else 1
        lines[body] = lines[body].split(",")[0]
        csv_path.write_text("\n".join(lines) + "\n")
        message = rf"{csv_path.name}, line {body + 1}: 1 fields"
        with pytest.raises(ValueError, match=message):
            load(target)


class TestTable:
    def test_cell_rule(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(np.float64(0.1), np.int64(3), 7), ("x", 2.5, True)]
        write_table(path, ("a", "b", "c"), rows)
        assert path.read_text() == "a,b,c\n0.1,3.0,7\nx,2.5,True\n"

    def test_separator_in_cell_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            write_table(tmp_path / "t.csv", ("a",), [("x,y",)])

    def test_header_must_match_exactly(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# note\na,b\n1,2\n")
        assert read_table(path, ("a", "b"))[0] == "note"
        with pytest.raises(ValueError, match=r"t.csv, line 2: expected header 'b,a'"):
            read_table(path, ("b", "a"))

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\n\nzero\n")
        with pytest.raises(ValueError, match="t.csv, line 4"):
            read_table(path, ("a",))


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

    def test_full_roundtrip(self):
        motor, geometry, noise, coil = self.make_sections()
        doc = {"motor": asdict(motor), "geometry": asdict(geometry),
               "noise": asdict(noise), "coil": asdict(coil)}
        loaded = parse_sensing_config(json.loads(json.dumps(doc)))
        assert loaded["motor"] == motor
        assert loaded["geometry"] == geometry
        assert loaded["noise"] == noise
        assert loaded["coil"] == coil
        assert MotorProfile(**loaded["raw"]["motor"]) == motor

    def test_multi_motor_roundtrip(self):
        motor, geometry, _, _ = self.make_sections()
        second = MotorProfile.from_rpm(5100.0, harmonics=[(1, 0.8, 0.2)])
        doc = {"motors": [asdict(motor), asdict(second)], "geometry": asdict(geometry)}
        loaded = parse_sensing_config(json.loads(json.dumps(doc)))
        assert loaded["motors"] == [motor, second]
        assert "motor" not in loaded

    def test_sections_are_optional(self):
        _, geometry, _, _ = self.make_sections()
        loaded = parse_sensing_config({"geometry": asdict(geometry)})
        assert set(loaded) == {"raw", "geometry"}

    def test_bad_section_error_names_source_and_section(self):
        with pytest.raises(ValueError, match=r"my-setup.*'noise'"):
            parse_sensing_config(
                {"noise": {"broadband_sigma": -1.0}}, source="my-setup"
            )

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match=r"'coil'.*turn_count"):
            parse_sensing_config({"coil": {"turn_count": 10}})

    def test_invalid_json_error_names_file(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="mangled.json"):
            read_json(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(tmp_path / "absent.json")

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError, match="top level"):
            parse_sensing_config([1, 2, 3])

    def test_extra_keys_survive_in_raw(self):
        _, geometry, _, _ = self.make_sections()
        loaded = parse_sensing_config({"geometry": asdict(geometry), "label": "bench-west"})
        assert loaded["raw"]["label"] == "bench-west"


class TestFieldKinds:
    def test_ranges_bound_the_kind(self):
        noun, accepts, _ = integer(">= 2")
        assert noun == "an integer >= 2"
        assert accepts(2) and accepts(np.int64(7))
        assert not any(map(accepts, (1, 2.0, True, "3")))
        noun, accepts, _ = real("in (0, 1]")
        assert noun == "a finite real number in (0, 1]"
        assert accepts(1) and accepts(np.float64(0.5))
        assert not any(map(accepts, (0.0, 1.5, float("nan"), "0.5", False)))
        _, accepts, _ = list_of(real("> 0"), non_empty=True)
        assert accepts((1.0,)) and accepts([2, 3.5])
        assert not any(map(accepts, ([], [1.0, 0.0], 1.0)))

    def test_power_of_two(self):
        noun, accepts, _ = POWER_OF_TWO
        assert noun == "a power of two >= 2"
        assert accepts(2) and accepts(8192) and accepts(np.int64(2**20))
        assert not any(map(accepts, (1, 0, -2, -4, 3, 12, 512.0, True, "512")))

    def test_canonical_forms(self):
        *_, as_float = real()
        *_, as_int = integer()
        assert type(as_float(np.int64(3))) is float and type(as_int(np.int64(3))) is int
        noun, accepts, canonical = list_of(row("[order, amplitude]", integer(">= 1"), real()))
        assert noun == (
            "a list, each item [order, amplitude] with order an integer >= 1, "
            "amplitude a finite real number"
        )
        assert accepts([[1, 2]]) and accepts(((1, 2.0),)) and accepts([])
        assert not any(map(accepts, ([[1]], [[1, 2, 3]], [[0, 2]], [[1, float("inf")]], [1, 2])))
        assert canonical([[1, 2], [np.int64(3), np.float32(0.5)]]) == ((1, 2.0), (3, 0.5))
        assert [type(v) for v in canonical([[1, 2]])[0]] == [int, float]

    def test_check_fields_stores_a_dataclass_in_canonical_form(self):
        @dataclass(frozen=True)
        class Knobs:
            rate: float = 1.0
            sizes: tuple = ()

        kinds = {"rate": real("> 0"), "sizes": list_of(integer(">= 1"))}
        knobs = Knobs(rate=2, sizes=[np.int64(3)])
        check_fields(knobs, kinds)
        assert knobs == Knobs(rate=2.0, sizes=(3,)) and type(knobs.rate) is float
        doc = {"rate": 2, "sizes": [3]}
        check_fields(doc, kinds)
        assert doc == {"rate": 2, "sizes": [3]} and type(doc["rate"]) is int

    def test_check_fields_names_the_key(self):
        kinds = {"epochs": integer(">= 0")}
        check_fields({"epochs": 0}, kinds)
        with pytest.raises(ValueError, match=r"^epochs must be an integer >= 0, got -1$"):
            check_fields({"epochs": -1}, kinds)
        with pytest.raises(ValueError, match=r"^epocs is unknown \(known keys: epochs\)$"):
            check_fields({"epocs": 1}, kinds)

    def test_a_dataclass_field_defaulting_to_none_may_be_none(self):
        @dataclass
        class Knob:
            size: int | None = None

        kinds = {"size": integer(">= 1")}
        check_fields(Knob(), kinds)
        check_fields(Knob(size=2), kinds)
        with pytest.raises(ValueError, match="^size must be "):
            check_fields(Knob(size=0), kinds)
        with pytest.raises(ValueError, match="^size must be "):
            check_fields({"size": None}, kinds)
