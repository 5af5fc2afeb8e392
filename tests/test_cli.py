import json
from dataclasses import asdict

import numpy as np
import pytest

from magrev.cli import main
from magrev.detector import DetectionMap, TrainingSample, build_label_mask, save_training_set
from magrev.dsp import NoiseReference
from magrev.estimator import PipelineConfig, estimate_rpm_multi
from magrev.ppsp import PpspWeights
from magrev.sensor_io import load_trace_csv, load_trace_wav, save_trace_csv
from magrev.signals import SensorTrace


@pytest.fixture
def sensing_config(tmp_path):
    doc = {
        "motor": {
            "period_s": 0.02,  # 3000 RPM
            "harmonics": [[1, 1.0, 0.0], [2, 0.5, 0.7], [3, 0.25, 1.9]],
        },
        "geometry": {
            "sensor_positions_cm": [
                [-12.0, 30.0], [-4.0, 30.0], [4.0, 30.0], [12.0, 30.0]
            ],
        },
        "noise": {
            "mains_components": [[60.0, 0.0005]],
            "broadband_sigma": 0.0005,
            "shared_fraction": 0.0,
        },
    }
    path = tmp_path / "sensing.json"
    path.write_text(json.dumps(doc))
    return path


def simulate(tmp_path, sensing_config, name="sim", extra=()):
    out = tmp_path / name
    code = main([
        "simulate", "--config", str(sensing_config), "--seed", "7",
        "--duration", "1.0", "--out", str(out), *extra,
    ])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_capture_files(self, tmp_path, sensing_config):
        out = simulate(tmp_path, sensing_config)
        assert (out / "trace.wav").exists()
        assert (out / "trace.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["command"] == "simulate"
        assert meta["n_channels"] == 4
        trace = load_trace_csv(out / "trace.csv")
        assert trace.n_channels == 4
        assert trace.sample_rate_hz == 8192.0

    def test_byte_identical_reruns(self, tmp_path, sensing_config):
        a = simulate(tmp_path, sensing_config, "a")
        b = simulate(tmp_path, sensing_config, "b")
        for name in ("trace.wav", "trace.csv", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_is_required(self, tmp_path, sensing_config):
        code = main([
            "simulate", "--config", str(sensing_config),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_config_is_required(self, tmp_path):
        assert main(["simulate", "--seed", "1", "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_file_is_io_error(self, tmp_path):
        code = main([
            "simulate", "--config", str(tmp_path / "absent.json"),
            "--seed", "1", "--out", str(tmp_path / "x"),
        ])
        assert code == 3

    def test_bad_section_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"motor": {"period_s": -5.0, "harmonics": []}}))
        code = main([
            "simulate", "--config", str(path), "--seed", "1",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_unknown_section_key_is_config_error(self, tmp_path, sensing_config, capsys):
        code = main([
            "simulate", "--config", str(sensing_config), "--seed", "7",
            "--out", str(tmp_path / "x"), "--set", "motor.pole_cont=3",
        ])
        assert code == 2
        assert "pole_cont" in capsys.readouterr().err

    def test_trace_csv_has_lf_line_endings(self, tmp_path, sensing_config):
        out = simulate(tmp_path, sensing_config)
        assert b"\r" not in (out / "trace.csv").read_bytes()

    def test_set_overrides_nested_config(self, tmp_path, sensing_config):
        out = tmp_path / "quiet"
        code = main([
            "simulate", "--config", str(sensing_config), "--seed", "7",
            "--duration", "1.0", "--out", str(out),
            "--set", "noise.broadband_sigma=0.0",
            "--set", "noise.mains_components=[]",
        ])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["noise"]["broadband_sigma"] == 0.0

    @pytest.mark.parametrize(
        "entry, key",
        [
            ("durration_s=2", "durration_s"),
            ("duration_s=[1]", "duration_s"),
            ("motor=5", "motor"),
            ("coil.turns=2.7", "turns"),
            ("coil.turns=true", "turns"),
            ("noise.shared_fraction=true", "'noise' section: shared_fraction"),
            ('noise.broadband_sigma="0.1"', "'noise' section: broadband_sigma"),
            ("geometry.effective_speed_cm_s=true", "'geometry' section: effective_speed_cm_s"),
            ("motor.period_s=true", "'motor' section: period_s"),
            ("coil.area_m2=true", "'coil' section: area_m2"),
            ("geometry.amplitude_falloff_exponent=Infinity",
             "bad 'geometry' section: amplitude_falloff_exponent must be a finite real "
             "number >= 2, got inf"),
            ("geometry.effective_speed_cm_s=Infinity",
             "bad 'geometry' section: effective_speed_cm_s must be a finite real number > 0"),
            ("noise.broadband_sigma=NaN", "bad 'noise' section: broadband_sigma must be "),
            ("noise.broadband_sigma=Infinity", "bad 'noise' section: broadband_sigma must be "),
            ("noise.mains_components=[[60,Infinity]]",
             "bad 'noise' section: mains_components must be "),
            ("motor.harmonics=[[1,NaN,0]]", "bad 'motor' section: harmonics must be "),
            ("motor.harmonics=[[0,1,0]]", "bad 'motor' section: harmonics must be "),
            ("motor.position_cm=[NaN,0]", "bad 'motor' section: position_cm must be "),
            ("coil.area_m2=Infinity", "bad 'coil' section: area_m2 must be "),
            ("coil.relative_permeability=0", "bad 'coil' section: relative_permeability must be "),
            ("coil.turns=3500.0", "bad 'coil' section: turns must be an integer >= 1, got 3500.0"),
        ],
    )
    def test_bad_value_is_config_error_naming_its_key(
        self, tmp_path, sensing_config, capsys, entry, key
    ):
        out = tmp_path / "x"
        code = main([
            "simulate", "--config", str(sensing_config), "--seed", "7",
            "--out", str(out), "--set", entry,
        ])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--fs", "inf", "sample_rate_hz"), ("--fs", "nan", "sample_rate_hz"),
         ("--duration", "inf", "duration_s"), ("--duration", "-1", "duration_s")],
    )
    def test_duration_and_rate_flags_take_their_keys_kinds(
        self, tmp_path, sensing_config, capsys, flag, value, key
    ):
        out = tmp_path / "x"
        code = main([
            "simulate", "--config", str(sensing_config), "--seed", "7",
            "--out", str(out), flag, value,
        ])
        assert code == 2
        assert f"simulate key {key} must be a finite real number > 0" in capsys.readouterr().err
        assert not out.exists()


class TestEstimate:
    def test_estimates_simulated_capture(self, tmp_path, sensing_config, capsys):
        sim = simulate(tmp_path, sensing_config)
        out = tmp_path / "est"
        code = main([
            "estimate", "--trace", str(sim / "trace.csv"), "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert len(doc["estimates"]) == 1
        assert abs(doc["estimates"][0]["rpm"] - 3000.0) <= 1.2
        csv_lines = (out / "estimate.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "rpm,fine_hz,coarse_hz,confidence,flags"
        assert len(csv_lines) == 2
        assert "RPM" in capsys.readouterr().out

    def test_wav_input_gives_same_speed(self, tmp_path, sensing_config):
        sim = simulate(tmp_path, sensing_config)
        out = tmp_path / "est_wav"
        code = main([
            "estimate", "--trace", str(sim / "trace.wav"), "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert abs(doc["estimates"][0]["rpm"] - 3000.0) <= 1.2

    def test_multi_on_single_motor_reports_shortfall(self, tmp_path, sensing_config):
        # noiseless capture: the mains line would otherwise stand in as a
        # legitimate second periodic source
        sim = simulate(
            tmp_path, sensing_config, extra=(
                "--set", "noise.broadband_sigma=0.0",
                "--set", "noise.mains_components=[]",
            ),
        )
        out = tmp_path / "multi"
        code = main([
            "estimate", "--trace", str(sim / "trace.csv"), "--multi", "2",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert len(doc["estimates"]) == 1
        assert "harmonic_shortfall" in doc["estimates"][0]["flags"]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_multi_below_one_is_config_error_before_any_output(
        self, tmp_path, sensing_config, capsys, count
    ):
        sim = simulate(tmp_path, sensing_config)
        out = tmp_path / "multi"
        code = main([
            "estimate", "--trace", str(sim / "trace.wav"), "--multi", count, "--out", str(out),
        ])
        assert code == 2
        assert "--multi must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_weights_flag_selects_network_detector(self, tmp_path, sensing_config):
        samples = make_sample_dir(tmp_path)
        net = tmp_path / "net"
        assert main([
            "train", "--samples", str(samples), "--seed", "5",
            "--out", str(net), "--set", "epochs=1", *TINY_NET_SETS,
        ]) == 0
        sim = simulate(tmp_path, sensing_config)
        # 64-bin weights against the default 1024-bin band: only the network
        # detector can notice the mismatch; the threshold detector would have
        # silently succeeded
        code = main([
            "estimate", "--trace", str(sim / "trace.wav"),
            "--weights", str(net / "weights.ppsp"),
            "--out", str(tmp_path / "est_net"),
        ])
        assert code == 2
        # with matching bins the network runs, and meta records the switch
        out = tmp_path / "det_net"
        code = main([
            "detect", "--trace", str(sim / "trace.wav"),
            "--weights", str(net / "weights.ppsp"),
            "--set", "input_bins=64", "--out", str(out),
        ])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["pipeline"]["detector"] == "network"

    @pytest.mark.parametrize(
        "command, entry, section",
        [
            ("estimate", "bogus_knob=1", "pipeline"),
            ("estimate", "foo=1", "pipeline"),
            ("detect", "foo=1", "pipeline"),
            ("bench", "foo=1", "scenario"),
            ("bench", "pipeline.foo=1", "pipeline"),
            ("train", "network.foo=1", "network"),
        ],
    )
    def test_unknown_key_is_named_with_its_section_before_any_output(
        self, tmp_path, sensing_config, capsys, command, entry, section
    ):
        sim = simulate(tmp_path, sensing_config)
        capsys.readouterr()
        key = entry.rpartition(".")[2].partition("=")[0]
        out = tmp_path / "x"
        extra = {"estimate": ["--trace", str(sim / "trace.wav")],
                 "detect": ["--trace", str(sim / "trace.wav")]}.get(command, ["--seed", "5"])
        code = main([command, *extra, "--out", str(out), "--set", entry])
        assert code == 2
        assert f"{section} key {key} is unknown (known keys: " in capsys.readouterr().err
        assert not out.exists()

    def test_background_gives_the_estimates_of_its_noise_reference(
        self, tmp_path, sensing_config
    ):
        sim = simulate(tmp_path, sensing_config)
        background = simulate(
            tmp_path, sensing_config, "background",
            ("--seed", "8", "--set", "motor.harmonics=[[1,0.0,0.0]]"),
        )
        out = tmp_path / "est"
        code = main([
            "estimate", "--trace", str(sim / "trace.wav"),
            "--background", str(background / "trace.wav"), "--out", str(out),
        ])
        assert code == 0
        noise = load_trace_wav(background / "trace.wav")
        want = estimate_rpm_multi(
            load_trace_wav(sim / "trace.wav"), 1, PipelineConfig(),
            noise_reference=NoiseReference.from_signal(noise.channels[0]),
        )
        doc = json.loads((out / "estimate.json").read_text())
        assert doc["estimates"] == json.loads(json.dumps([asdict(e) for e in want]))

    def test_background_of_another_shape_is_config_error_naming_both(
        self, tmp_path, sensing_config, capsys
    ):
        sim = simulate(tmp_path, sensing_config)
        longer = simulate(tmp_path, sensing_config, "longer", ("--duration", "2"))
        capsys.readouterr()
        out = tmp_path / "x"
        code = main([
            "estimate", "--trace", str(sim / "trace.wav"),
            "--background", str(longer / "trace.wav"), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(sim / "trace.wav") in err and str(longer / "trace.wav") in err
        assert not out.exists()

    def test_unreadable_background_is_io_error_naming_it(self, tmp_path, sensing_config, capsys):
        sim = simulate(tmp_path, sensing_config)
        background = tmp_path / "noise.csv"
        background.write_text("not a trace\n")
        capsys.readouterr()
        code = main([
            "estimate", "--trace", str(sim / "trace.wav"),
            "--background", str(background), "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        assert str(background) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, field",
        [
            ("input_bins=100.5", "input_bins"),
            ('max_lag_s="abc"', "max_lag_s"),
            ("gamma=true", "gamma"),
            ("gamma=2.5", "gamma"),
        ],
    )
    def test_mistyped_pipeline_value_is_config_error(
        self, tmp_path, sensing_config, capsys, entry, field
    ):
        sim = simulate(tmp_path, sensing_config)
        capsys.readouterr()
        code = main([
            "estimate", "--trace", str(sim / "trace.csv"),
            "--out", str(tmp_path / "x"), "--set", entry,
        ])
        assert code == 2
        assert field in capsys.readouterr().err

    def test_integer_spelling_of_a_real_keeps_the_default_fingerprint(
        self, tmp_path, sensing_config
    ):
        sim = simulate(tmp_path, sensing_config)
        metas = []
        for name, extra in (("default", ()), ("spelled", ("--set", "f_min_hz=5"))):
            out = tmp_path / name
            code = main(["estimate", "--trace", str(sim / "trace.csv"), "--out", str(out), *extra])
            assert code == 0
            metas.append((out / "meta.json").read_bytes())
        assert metas[0] == metas[1]

    def test_missing_trace_is_io_error(self, tmp_path):
        code = main([
            "estimate", "--trace", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 3

    def test_flat_trace_is_pipeline_error(self, tmp_path):
        flat = SensorTrace(channels=np.zeros((4, 8192)), sample_rate_hz=8192.0)
        path = tmp_path / "flat.csv"
        save_trace_csv(flat, path)
        code = main([
            "estimate", "--trace", str(path), "--out", str(tmp_path / "x"),
        ])
        assert code == 4

    def test_impossible_band_is_pipeline_error_on_both_paths(
        self, tmp_path, sensing_config, capsys
    ):
        sim = simulate(tmp_path, sensing_config)
        for name, extra in (("single", ()), ("multi", ("--multi", "2"))):
            code = main([
                "estimate", "--trace", str(sim / "trace.csv"), *extra,
                "--set", "f_min_hz=3000", "--out", str(tmp_path / name),
            ])
            assert code == 4
            assert "[coarse]" in capsys.readouterr().err

    def test_set_adjusts_pipeline(self, tmp_path, sensing_config):
        sim = simulate(tmp_path, sensing_config)
        out = tmp_path / "coarse_only"
        code = main([
            "estimate", "--trace", str(sim / "trace.csv"), "--out", str(out),
            "--set", "gamma=1",
        ])
        assert code == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert doc["pipeline"]["gamma"] == 1
        est = doc["estimates"][0]
        assert est["fine_hz"] == est["coarse_hz"]


class TestDenoiseAndDetect:
    def test_denoise_writes_spectrum(self, tmp_path, sensing_config):
        sim = simulate(tmp_path, sensing_config)
        out = tmp_path / "den"
        code = main([
            "denoise", "--trace", str(sim / "trace.csv"), "--out", str(out),
        ])
        assert code == 0
        enhanced = load_trace_csv(out / "enhanced.csv")
        assert enhanced.n_channels == 1
        spectrum_lines = (out / "spectrum.csv").read_text().strip().splitlines()
        assert len(spectrum_lines) > 100

    def test_denoise_reads_max_lag_s(self, tmp_path, sensing_config, capsys):
        sim = simulate(tmp_path, sensing_config)
        outs = {}
        for name, sets in (("default", ()), ("same", ("--set", "max_lag_s=0.01")),
                           ("unaligned", ("--set", "max_lag_s=0"))):
            outs[name] = tmp_path / name
            code = main([
                "denoise", "--trace", str(sim / "trace.csv"), "--out", str(outs[name]), *sets,
            ])
            assert code == 0
        for table in ("enhanced.csv", "spectrum.csv", "meta.json"):
            assert (outs["same"] / table).read_bytes() == (outs["default"] / table).read_bytes()
        assert json.loads((outs["same"] / "meta.json").read_text())["max_lag_s"] == 0.01
        assert json.loads((outs["unaligned"] / "meta.json").read_text())["max_lag_s"] == 0
        enhanced = (outs["unaligned"] / "enhanced.csv").read_bytes()
        assert enhanced != (outs["default"] / "enhanced.csv").read_bytes()

    @pytest.mark.parametrize(
        "entry, message",
        [("max_lag_s=-1", "denoise key max_lag_s must be "),
         ("welch_segment=256", "denoise key welch_segment is unknown"),
         ("gamma=5", "denoise key gamma is unknown")],
    )
    def test_denoise_refuses_keys_it_does_not_read(
        self, tmp_path, sensing_config, capsys, entry, message
    ):
        sim = simulate(tmp_path, sensing_config)
        out = tmp_path / "bad"
        code = main([
            "denoise", "--trace", str(sim / "trace.csv"), "--out", str(out), "--set", entry,
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("segment, code", [(0, 2), (-5, 2), (3, 2), (2**20, 4)])
    def test_welch_segment_range_up_front_and_fit_at_the_spectrum(
        self, tmp_path, sensing_config, capsys, segment, code
    ):
        sim = simulate(tmp_path, sensing_config)
        capsys.readouterr()
        out = tmp_path / "est"
        assert main([
            "estimate", "--trace", str(sim / "trace.csv"), "--out", str(out),
            "--set", f"welch_segment={segment}",
        ]) == code
        err = capsys.readouterr().err
        assert ("welch_segment must be a power of two >= 2" if code == 2 else "spectrum") in err
        if code == 2:
            assert not out.exists()

    def test_detect_writes_loadable_map(self, tmp_path, sensing_config):
        sim = simulate(tmp_path, sensing_config)
        out = tmp_path / "det"
        code = main([
            "detect", "--trace", str(sim / "trace.csv"), "--out", str(out),
        ])
        assert code == 0
        dmap = DetectionMap.load_csv(out / "detection.csv")
        detected = dmap.bin_frequencies[dmap.binarize()]
        # the 50 Hz fundamental (or a neighborhood bin) must be flagged
        assert np.any(np.abs(detected - 50.0) <= 1.0)


def make_sample_dir(tmp_path, n_bins=64):
    rng = np.random.default_rng(3)
    freqs = np.arange(float(n_bins))
    samples = []
    for f0 in (9.0, 13.0):
        mask = build_label_mask(f0, freqs, delta_f=0.25)
        features = 0.05 * rng.uniform(size=n_bins)
        features[np.flatnonzero(mask)] = 1.0
        samples.append(
            TrainingSample(
                features=features, mask=mask, bin_frequencies=freqs,
                fundamental_hz=f0,
            )
        )
    directory = tmp_path / "samples"
    save_training_set(samples, directory)
    return directory


TINY_NET_SETS = [
    "--set", "network.input_bins=64",
    "--set", "network.encoder_levels=2",
    "--set", "network.filters_per_conv=4",
    "--set", "network.multiscale_kernel_widths=[3,7]",
    "--set", "network.pyramid_pool_kernels=[1,2,4]",
]


class TestTrain:
    def test_tiny_training_run(self, tmp_path):
        samples = make_sample_dir(tmp_path)
        out = tmp_path / "run"
        code = main([
            "train", "--samples", str(samples), "--seed", "5",
            "--out", str(out), "--set", "epochs=3", *TINY_NET_SETS,
        ])
        assert code == 0
        weights = PpspWeights.load(out / "weights.ppsp")
        assert weights.config.input_bins == 64
        history = (out / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,loss"
        assert len(history) == 4

    def test_reruns_are_byte_identical(self, tmp_path):
        samples = make_sample_dir(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main([
                "train", "--samples", str(samples), "--seed", "5",
                "--out", str(out), "--set", "epochs=2", *TINY_NET_SETS,
            ])
            assert code == 0
            outs.append(out)
        for name in ("weights.ppsp", "history.csv", "meta.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_training_keys_at_their_defaults_train_the_same_weights(self, tmp_path):
        samples = make_sample_dir(tmp_path)
        runs = {}
        for name, entry in (
            ("none", ()),
            ("batch_size", ("--set", "batch_size=8")),
            ("learning_rate", ("--set", "learning_rate=0.001")),
            ("dice_eps", ("--set", "dice_eps=1.0")),
        ):
            out = tmp_path / name
            code = main([
                "train", "--samples", str(samples), "--seed", "5",
                "--out", str(out), "--set", "epochs=2", *TINY_NET_SETS, *entry,
            ])
            assert code == 0
            runs[name] = [(out / f).read_bytes() for f in ("weights.ppsp", "history.csv")]
        assert all(run == runs["none"] for run in runs.values())

    def test_unknown_key_is_config_error(self, tmp_path):
        samples = make_sample_dir(tmp_path)
        for entry in ("optimizer=sgd", "network.dropout=0.1", "network=5"):
            code = main([
                "train", "--samples", str(samples), "--seed", "5",
                "--out", str(tmp_path / "x"), "--set", entry,
            ])
            assert code == 2, entry

    @pytest.mark.parametrize(
        "entry, field",
        [
            ("network.filters_per_conv=2.5", "filters_per_conv"),
            ("network.encoder_levels=true", "encoder_levels"),
            ("network.input_bins=64.0", "input_bins"),
            ("network.seed=1.5", "seed"),
            ("network.multiscale_kernel_widths=[3.0,7]", "multiscale_kernel_widths"),
            ("network.pyramid_reduced_filters=0", "pyramid_reduced_filters"),
            ("network.bn_eps=NaN", "bn_eps"),
        ],
    )
    def test_mistyped_network_value_is_config_error(self, tmp_path, capsys, entry, field):
        samples = make_sample_dir(tmp_path)
        code = main([
            "train", "--samples", str(samples), "--seed", "5",
            "--out", str(tmp_path / "x"), *TINY_NET_SETS, "--set", entry,
        ])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, key",
        [
            ("epochs=2.5", "epochs"),
            ("epochs=-1", "epochs"),
            ("batch_size=true", "batch_size"),
            ("batch_size=0", "batch_size"),
            ("count=4.0", "count"),
            ("count=0", "count"),
            ("learning_rate=NaN", "learning_rate"),
            ("learning_rate=0", "learning_rate"),
            ("learning_rate=fast", "learning_rate"),
            ("dice_eps=Infinity", "dice_eps"),
            ("dice_eps=-0.5", "dice_eps"),
        ],
    )
    def test_bad_training_key_is_config_error(self, tmp_path, capsys, entry, key):
        samples = make_sample_dir(tmp_path)
        out = tmp_path / "x"
        code = main([
            "train", "--samples", str(samples), "--seed", "5",
            "--out", str(out), *TINY_NET_SETS, "--set", entry,
        ])
        assert code == 2
        assert f"training key {key} " in capsys.readouterr().err
        assert not (out / "weights.ppsp").exists()

    def test_training_keys_at_their_bounds_are_accepted(self, tmp_path):
        samples = make_sample_dir(tmp_path)
        code = main([
            "train", "--samples", str(samples), "--seed", "5",
            "--out", str(tmp_path / "x"), *TINY_NET_SETS,
            "--set", "epochs=0", "--set", "batch_size=1", "--set", "count=1",
            "--set", "learning_rate=1", "--set", "dice_eps=0",
        ])
        assert code == 0

    def test_sample_without_fundamental_is_io_error(self, tmp_path, capsys):
        samples = make_sample_dir(tmp_path)
        (samples / "sample_0001.json").write_text("{}\n")
        code = main([
            "train", "--samples", str(samples), "--seed", "5",
            "--out", str(tmp_path / "x"), *TINY_NET_SETS,
        ])
        assert code == 3
        assert "sample_0001.json" in capsys.readouterr().err

    def test_missing_samples_dir_is_io_error(self, tmp_path):
        code = main([
            "train", "--samples", str(tmp_path / "absent"), "--seed", "5",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 3

    def test_seed_is_required(self, tmp_path):
        samples = make_sample_dir(tmp_path)
        code = main([
            "train", "--samples", str(samples), "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_inconsistent_synthesis_band_is_config_error(self, tmp_path, capsys):
        # default speed range puts fundamentals far above a 64-bin band
        code = main([
            "train", "--seed", "0", "--out", str(tmp_path / "x"),
            "--set", "count=4", *TINY_NET_SETS,
        ])
        assert code == 2
        assert "band" in capsys.readouterr().err


class TestSermap:
    def test_small_map(self, tmp_path, capsys):
        out = tmp_path / "map"
        code = main([
            "sermap", "--delta-t-ms", "4.0", "--out", str(out),
            "--set", "duration_s=0.25", "--set", "step_cm=4.0",
        ])
        assert code == 0
        lines = (out / "sermap.csv").read_text().strip().splitlines()
        assert lines[0].startswith("y_cm\\x_cm,")
        assert "peak" in capsys.readouterr().out

    def test_unknown_key_is_config_error(self, tmp_path):
        code = main([
            "sermap", "--delta-t-ms", "4.0", "--out", str(tmp_path / "x"),
            "--set", "grid=fine",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "entry, key",
        [
            ("step_cm=0", "step_cm"),
            ("step_cm=[1]", "step_cm"),
            ("grid=fine", "grid"),
            pytest.param("step_cm=1" + "0" * 400, "step_cm", id="step_cm=1e400-step_cm"),
        ],
    )
    def test_bad_key_is_config_error_naming_it(self, tmp_path, capsys, entry, key):
        out = tmp_path / "x"
        code = main(["sermap", "--delta-t-ms", "4.0", "--out", str(out), "--set", entry])
        assert code == 2
        assert f"sermap key {key} " in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_tiny_benchmark_is_deterministic(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "duration_s": 1.0,
            "distances_cm": [5.0, 45.0],
            "speeds_rpm": [3000.0],
            "trials_per_cell": 1,
        }))
        outs = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            code = main([
                "bench", "--config", str(cfg), "--seed", "11",
                "--out", str(out),
            ])
            assert code == 0
            outs.append(out)
        for name in ("trials.csv", "aggregate.csv", "summary.json", "meta.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_unknown_scenario_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"warp_factor": 9}))
        code = main([
            "bench", "--config", str(cfg), "--seed", "11",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "entry, key",
        [
            ("trials_per_cell=0", "trials_per_cell"),
            ("trials_per_cell=1.5", "trials_per_cell"),
            ("master_seed=1.5", "master_seed"),
            ("distances_cm=[]", "distances_cm"),
            ('use_noise_reference="no"', "use_noise_reference"),
        ],
    )
    def test_bad_scenario_value_is_config_error(self, tmp_path, capsys, entry, key):
        out = tmp_path / "x"
        code = main([
            "bench", "--set", "distances_cm=[5]", "--set", "speeds_rpm=[3000]",
            "--set", entry, "--out", str(out),
        ])
        assert code == 2
        assert f"{key} must be " in capsys.readouterr().err
        assert not (out / "trials.csv").exists()

    @pytest.mark.parametrize(
        "entry, named",
        [
            ("shared_fraction=2", "shared_fraction"),
            ("amplitude_falloff_exponent=1.5", "amplitude_falloff_exponent"),
            ("effective_speed_cm_s=-1", "effective_speed_cm_s"),
            ("reference_distance_cm=0", "reference_distance_cm"),
            ("broadband_sigma_v=-0.1", "broadband_sigma"),
            ("mains=[[-60,0.1]]", "mains"),
            ("sensor_positions_cm=[]", "sensor_positions_cm"),
            ("harmonic_shape=[[0,1.0]]", "harmonic_shape"),
            ("target_peak_rpm=-5", "target_peak_rpm"),
            ("baseline_f_min_hz=200", "baseline_f_min_hz"),
            ("harmonic_shape=[[1,1.0],[1,0.5]]", "harmonic_shape: harmonic orders must be"),
            ("harmonic_shape=[[1,0.0]]", "harmonic_shape needs an amplitude"),
            ("speeds_rpm=[300000]", "speeds_rpm"),
        ],
    )
    def test_array_noise_and_baseline_band_are_checked_before_any_output(
        self, tmp_path, capsys, entry, named
    ):
        out = tmp_path / "x"
        code = main([
            "bench", "--seed", "3", "--set", "distances_cm=[5]", "--set", "speeds_rpm=[3000]",
            "--set", "trials_per_cell=1", "--set", entry, "--out", str(out),
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_welch_segment_not_a_power_of_two_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main([
            "bench", "--set", "distances_cm=[5]", "--set", "speeds_rpm=[3000]",
            "--set", "pipeline.welch_segment=3", "--out", str(out),
        ])
        assert code == 2
        assert "welch_segment must be a power of two" in capsys.readouterr().err
        assert not out.exists()

    def test_network_detector_without_weights_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main([
            "bench", "--set", "distances_cm=[5]", "--set", "speeds_rpm=[3000]",
            "--set", "pipeline.detector=network", "--out", str(out),
        ])
        assert code == 2
        assert "pipeline" in capsys.readouterr().err
        assert not out.exists()
