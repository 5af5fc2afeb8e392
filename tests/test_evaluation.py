import hashlib
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.stats

from magrev.evaluation import (
    _biased_autocorrelation,
    ERROR_CAP_PCT,
    BenchResult,
    SerMap,
    SweepScenario,
    autocorrelation_baseline,
    calibrated_map_speed,
    peak_detection_baseline,
    run_distance_sweep,
    run_ser_map,
)

from magrev.estimator import PipelineConfig
from magrev.ppsp import PpspConfig, PpspWeights, init_weights

from conftest import tone


class TestBaselines:
    def test_autocorrelation_recovers_pure_tone(self):
        # 100 Hz at fs 44100: dominant lag 441 samples -> exactly 6000 RPM
        fs = 44100.0
        sig = tone(100.0, fs, 44100)
        est = autocorrelation_baseline(sig, fs, 20.0, 400.0)
        assert est == pytest.approx(60.0 * fs / 441.0)

    def test_autocorrelation_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        for n in (2, 7, 256, 1001, 8192):
            x = rng.normal(size=n) + np.sin(np.arange(n) * rng.uniform(0.01, 1.0))
            direct = np.correlate(x, x, mode="full")[n - 1 :] / n
            ac = _biased_autocorrelation(x)
            assert np.max(np.abs(ac - direct)) <= 1e-9 * direct[0]
        fs = 8192.0
        for _ in range(10):
            f0 = rng.uniform(20.0, 140.0)
            t = np.arange(8192) / fs
            x = np.sin(2 * np.pi * f0 * t) + 0.5 * np.sin(4 * np.pi * f0 * t + 1.0)
            x += 0.3 * rng.normal(size=t.size)
            direct = np.correlate(x, x, mode="full")[t.size - 1 :]
            lag = 41 + int(np.argmax(direct[41 : 410 + 1]))
            assert autocorrelation_baseline(x, fs, 20.0, 200.0) == 60.0 * fs / lag

    def test_autocorrelation_band_validation(self):
        sig = tone(100.0, 1024.0, 2048)
        with pytest.raises(ValueError):
            autocorrelation_baseline(sig, 1024.0, 400.0, 100.0)
        with pytest.raises(ValueError):
            autocorrelation_baseline(sig, 1024.0, 0.1, 400.0)  # lag >= n

    def test_peak_baseline_finds_tallest_bin(self):
        fs = 8192.0
        sig = tone(50.0, fs, 8192) + 0.2 * tone(130.0, fs, 8192)
        est = peak_detection_baseline(sig, fs, 10.0, 400.0)
        assert est == pytest.approx(3000.0)

    def test_peak_baseline_follows_dominant_harmonic(self):
        # the defining failure mode: second harmonic 3x stronger
        fs = 8192.0
        sig = tone(50.0, fs, 8192) + 3.0 * tone(100.0, fs, 8192, phase=0.5)
        est = peak_detection_baseline(sig, fs, 10.0, 400.0)
        assert est == pytest.approx(6000.0)

    def test_peak_baseline_band_validation(self):
        sig = tone(50.0, 1024.0, 2048)
        with pytest.raises(ValueError):
            peak_detection_baseline(sig, 1024.0, 600.0, 900.0, segment_len=1024)


class TestScenario:
    def test_fingerprint_stable_across_identical_scenarios(self):
        a = SweepScenario()
        b = SweepScenario()
        assert a.fingerprint() == b.fingerprint()
        assert len(a.fingerprint()) == 16

    def test_fingerprint_tracks_any_field(self):
        a = SweepScenario()
        b = SweepScenario(master_seed=a.master_seed + 1)
        assert a.fingerprint() != b.fingerprint()

    def test_dict_roundtrip(self):
        a = SweepScenario(trials_per_cell=2, distances_cm=(5.0, 25.0))
        back = SweepScenario(**json.loads(json.dumps(asdict(a))))
        assert back == a
        assert back.fingerprint() == a.fingerprint()

    def test_fingerprint_is_pinned(self):
        # meta.json and BenchResult carry it; a change orphans old results
        assert SweepScenario().fingerprint() == "bb72fb091ebb4e46"

    def test_integer_spelling_of_a_real_keeps_the_pinned_fingerprint(self):
        # `--set duration_s=1` and `duration_s=1.0` describe the same sweep
        spelled = SweepScenario(sample_rate_hz=8192, duration_s=1, target_peak_rpm=3000)
        assert spelled == SweepScenario()
        assert spelled.fingerprint() == "bb72fb091ebb4e46"
        assert type(spelled.duration_s) is float

    def test_integer_spelling_inside_the_pipeline_keeps_the_pinned_fingerprint(self):
        spelled = SweepScenario(pipeline={"f_min_hz": 5})
        assert type(spelled.pipeline.f_min_hz) is float
        assert spelled.fingerprint() == SweepScenario().fingerprint() == "bb72fb091ebb4e46"

    def test_json_lists_and_pipeline_dict_normalize(self):
        a = SweepScenario(
            distances_cm=[5, 25], sensor_positions_cm=[[-4, 0], [4, 0]],
            pipeline={"gamma": 10},
        )
        assert a == SweepScenario(
            distances_cm=(5.0, 25.0), sensor_positions_cm=((-4.0, 0.0), (4.0, 0.0)),
            pipeline=PipelineConfig(gamma=10),
        )
        with pytest.raises(TypeError):
            SweepScenario(pipeline={"gama": 10})
        with pytest.raises(TypeError):
            SweepScenario(pipeline=5)

    def test_json_safe(self):
        blob = json.dumps(asdict(SweepScenario()))
        assert isinstance(blob, str)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trials_per_cell": 0},
            {"trials_per_cell": 1.5},
            {"trials_per_cell": True},
            {"master_seed": 1.5},
            {"master_seed": -1},
            {"distances_cm": []},
            {"distances_cm": [5.0, 0.0]},
            {"speeds_rpm": []},
            {"speeds_rpm": [3000.0, -60.0]},
            {"use_noise_reference": "no"},
            {"use_noise_reference": 1},
            {"sample_rate_hz": 0.0},
            {"duration_s": -1.0},
            {"duration_s": math.inf},
            {"mains": [[60.0]]},
            {"harmonic_shape": [[1.5, 1.0]]},
            {"sensor_positions_cm": [[0.0, "far"]]},
            {"broadband_sigma_v": "loud"},
        ],
        ids=lambda overrides: "-".join(f"{k}={v!r}" for k, v in overrides.items()),
    )
    def test_bad_value_is_value_error_naming_its_field(self, overrides):
        (name,) = overrides
        with pytest.raises(ValueError, match=f"^{name} must be "):
            SweepScenario(**overrides)

    def test_network_pipeline_without_weights_is_rejected(self):
        with pytest.raises(ValueError, match="^pipeline "):
            SweepScenario(pipeline=PipelineConfig(detector="network"))
        with pytest.raises(ValueError, match="^pipeline "):
            SweepScenario(pipeline={"detector": "network"})
        named = SweepScenario(pipeline={"detector": "network", "weights_path": "w.ppsp"})
        assert named.pipeline.weights_path == "w.ppsp"

    def test_valid_edge_values_construct(self):
        # the reduced single-cell scenarios perfbench builds with replace()
        base = SweepScenario()
        cell = replace(
            base, distances_cm=(105.0,), speeds_rpm=(8400.0,), trials_per_cell=1,
            master_seed=2**32 - 1,
        )
        assert cell.master_seed == 2**32 - 1
        assert SweepScenario(master_seed=0, mains=[], use_noise_reference=False).mains == ()


def tiny_scenario(**overrides):
    base = dict(
        duration_s=1.0,
        distances_cm=(5.0, 45.0, 85.0),
        speeds_rpm=(2400.0, 6000.0),
        trials_per_cell=2,
        master_seed=404,
    )
    base.update(overrides)
    return SweepScenario(**base)


class TestDistanceSweep:
    def test_tiny_sweep_shape_and_determinism(self, tmp_path):
        scenario = tiny_scenario()
        first = run_distance_sweep(scenario, out_dir=tmp_path / "a")
        second = run_distance_sweep(scenario, out_dir=tmp_path / "b")
        assert first.distances_cm == [5.0, 45.0, 85.0]
        assert set(first.mean_error_pct) == {"pipeline", "autocorrelation", "peak"}
        for method, series in first.mean_error_pct.items():
            assert len(series) == 3
            assert series == second.mean_error_pct[method]
            for v in series:
                assert 0.0 <= v <= ERROR_CAP_PCT
        assert first.fingerprint == scenario.fingerprint()
        assert (tmp_path / "a" / "trials.csv").read_bytes() == (
            tmp_path / "b" / "trials.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "aggregate.csv").read_bytes() == (
            tmp_path / "b" / "aggregate.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == (
            tmp_path / "b" / "summary.json"
        ).read_bytes()

    def test_output_files_parse(self, tmp_path):
        scenario = tiny_scenario(distances_cm=(5.0,), speeds_rpm=(3000.0,))
        result = run_distance_sweep(scenario, out_dir=tmp_path)
        trials = (tmp_path / "trials.csv").read_text().strip().splitlines()
        assert trials[0] == (
            "distance_cm,speed_rpm,trial,method,rpm_estimate,error_pct,failed"
        )
        # 1 distance x 1 speed x 2 trials x 3 methods
        assert len(trials) == 1 + 6
        for line in trials[1:]:
            cells = line.split(",")
            assert len(cells) == 7
            float(cells[4])  # parses without numpy reprs
        loaded = BenchResult(**json.loads((tmp_path / "summary.json").read_text()))
        assert loaded.mean_error_pct == result.mean_error_pct
        assert loaded.fingerprint == result.fingerprint
        assert loaded.distances_cm == result.distances_cm

    def test_near_noiseless_cell_is_accurate(self):
        scenario = tiny_scenario(
            distances_cm=(5.0,),
            speeds_rpm=(3000.0,),
            broadband_sigma_v=0.0,
            mains=(),
        )
        result = run_distance_sweep(scenario)
        assert result.mean_error_pct["pipeline"][0] < 0.1
        assert result.dropped["pipeline"] == 0

    def test_network_weights_are_read_once_per_sweep(self, tmp_path, monkeypatch):
        config = PpspConfig(
            input_bins=32, encoder_levels=2, filters_per_conv=2,
            multiscale_kernel_widths=(3,), pyramid_pool_kernels=(1, 2),
        )
        path = tmp_path / "net.ppsp"
        init_weights(config).save(path)
        loads = []
        load = PpspWeights.load
        monkeypatch.setattr(
            PpspWeights, "load", lambda p: loads.append(p) or load(p)
        )
        scenario = tiny_scenario(
            distances_cm=(5.0,),
            speeds_rpm=(3000.0,),
            trials_per_cell=3,
            pipeline=PipelineConfig(
                detector="network", weights_path=str(path), input_bins=32
            ),
        )
        run_distance_sweep(scenario)
        assert loads == [str(path)]

    def test_failed_reads_are_capped_and_counted(self, tmp_path):
        # f_min_hz=3000 leaves the pipeline no candidate, and a 0.5 Hz floor
        # asks the autocorrelation for lags longer than the 1 s trace, so
        # only the peak baseline reads a value
        scenario = SweepScenario(
            duration_s=1.0, distances_cm=(5.0, 45.0), speeds_rpm=(3000.0,),
            trials_per_cell=2, master_seed=42, baseline_f_min_hz=0.5,
            pipeline=PipelineConfig(f_min_hz=3000.0),
        )
        result = run_distance_sweep(scenario, out_dir=tmp_path)
        assert result.dropped == {"pipeline": 4, "autocorrelation": 4, "peak": 0}
        assert result.mean_error_pct["pipeline"] == [ERROR_CAP_PCT, ERROR_CAP_PCT]
        assert result.mean_error_pct["autocorrelation"] == [ERROR_CAP_PCT] * 2
        rows = (tmp_path / "trials.csv").read_text().splitlines()[1:]
        failed = [row for row in rows if row.endswith(",1")]
        assert len(failed) == 8
        assert all(",nan,100.0," in row for row in failed)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
            for name in ("trials.csv", "aggregate.csv")
        }
        assert digests == {
            "trials.csv": "e91fe61d55c24e84",
            "aggregate.csv": "9ece91a392546f99",
        }


class TestBenchResult:
    def test_roundtrip(self, tmp_path):
        result = BenchResult(
            distances_cm=[5.0, 10.0],
            mean_error_pct={"pipeline": [0.1, 0.4], "peak": [3.0, 9.0]},
            dropped={"pipeline": 0, "peak": 1},
            fingerprint="abc123",
            scenario={"master_seed": 1},
        )
        path = tmp_path / "r.json"
        path.write_text(json.dumps(asdict(result)))
        back = BenchResult(**json.loads(path.read_text()))
        assert back == result


class TestSerMapGrid:
    def test_value_at_and_peak(self):
        m = SerMap(
            x_cm=np.array([0.0, 1.0]),
            y_cm=np.array([0.0, 1.0]),
            values=np.array([[0.1, 0.2], [0.3, 0.9]]),
            delta_t_s=0.004,
        )
        assert m.values[0, 1] == 0.2  # row y = 0, column x = 1
        assert m.peak() == (1.0, 1.0, 0.9)

    def test_save_csv_layout(self, tmp_path):
        m = SerMap(
            x_cm=np.array([0.0, 2.0]),
            y_cm=np.array([5.0]),
            values=np.array([[0.25, 0.75]]),
            delta_t_s=0.001,
        )
        path = tmp_path / "m.csv"
        m.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "y_cm\\x_cm,0.0,2.0"
        assert lines[1] == "5.0,0.25,0.75"


class TestCalibratedMapSpeed:
    def test_hand_geometry(self):
        # target (-4, 11), sensors (+/-8, -8): path difference over 4 ms
        d0 = math.hypot(-4.0 + 8.0, 11.0 + 8.0)
        d1 = math.hypot(-4.0 - 8.0, 11.0 + 8.0)
        expected = (d1 - d0) / 0.004
        assert calibrated_map_speed() == pytest.approx(expected)

    def test_requires_two_sensors(self):
        with pytest.raises(ValueError):
            calibrated_map_speed(sensor_positions_cm=((0.0, 0.0),))
        with pytest.raises(ValueError):
            calibrated_map_speed(delta_t_s=0.0)


class TestRunSerMap:
    def test_small_grid_properties(self):
        m = run_ser_map(
            0.004,
            duration_s=0.25,
            x_range_cm=(-6.0, -2.0),
            y_range_cm=(9.0, 13.0),
            step_cm=2.0,
        )
        assert m.values.shape == (3, 3)
        assert m.delta_t_s == 0.004
        finite = m.values[np.isfinite(m.values)]
        assert np.all((finite >= 0.0) & (finite <= 1.0 + 1e-9))
        # the calibrated cell is on this grid and aligns almost perfectly
        assert m.values[list(m.y_cm).index(11.0), list(m.x_cm).index(-4.0)] > 0.99

    @pytest.mark.parametrize(
        "setting",
        [{"step_cm": 0.0}, {"step_cm": -1.0}, {"duration_s": float("nan")},
         {"effective_speed_cm_s": 0.0}, {"speed_rpm": True}],
        ids=repr,
    )
    def test_a_setting_outside_its_kind_is_refused_by_name(self, setting):
        key = next(iter(setting))
        with pytest.raises(ValueError, match=f"^{key} must be "):
            run_ser_map(0.004, **setting)

    def test_misaligned_delay_scores_lower(self):
        speed = calibrated_map_speed()
        cell = dict(
            duration_s=0.25,
            effective_speed_cm_s=speed,
            x_range_cm=(-4.0, -4.0),
            y_range_cm=(11.0, 11.0),
            step_cm=1.0,
        )
        # a one-cell grid: (-4, 11) only
        aligned = run_ser_map(0.004, **cell).values[0, 0]
        misaligned = run_ser_map(0.0, **cell).values[0, 0]
        assert aligned > misaligned
