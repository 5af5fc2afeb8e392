"""End-to-end acceptance checks.

Each test covers one headline behavior of the toolkit and prints a single
PASS/FAIL line (run with ``pytest -s`` to see them on success).  The suite
leans on brute-force oracles and enumeration rather than golden values
wherever the property allows it.
"""

import itertools
import json
import time
from collections import deque

import numpy as np
import pytest
import scipy.stats

from magrev.cli import main
from magrev.detector import DetectionMap, TrainingSample, train
from magrev.dsp import NoiseReference, delay_and_sum, welch_psd
from magrev.estimator import coarse_estimate, estimate_rpm, fine_estimate
from magrev.evaluation import (
    SweepScenario,
    peak_detection_baseline,
    run_distance_sweep,
    run_ser_map,
)
from magrev.ppsp import (
    PpspConfig,
    batchnorm_backward,
    batchnorm_forward_train,
    avgpool_backward,
    avgpool_forward,
    conv1d_backward,
    conv1d_forward,
    dice_loss,
    dice_loss_grad,
    init_weights,
    loss_and_grads,
    maxpool_backward,
    maxpool_forward,
    resize_backward,
    resize_forward,
    sigmoid_backward,
    sigmoid_forward,
)
from magrev.signals import (
    ArrayGeometry,
    CoilParams,
    MotorProfile,
    NoiseProfile,
    SensorTrace,
    compute_ser,
    simulate_mixture,
)

from conftest import tone
from test_dsp import reference_welch
from test_ppsp import central_diff, rel_err


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance {num:02d} {label} failed{tail}"


QUAD_GEOMETRY = ArrayGeometry(
    sensor_positions_cm=((-12.0, 30.0), (-4.0, 30.0), (4.0, 30.0), (12.0, 30.0)),
)


def motor_trace(rpm, harmonics, seed=None, noise=None, duration_s=1.0, fs=8192.0):
    profile = MotorProfile.from_rpm(rpm, harmonics=harmonics)
    noise = noise if noise is not None else NoiseProfile()
    return simulate_mixture(
        [profile], QUAD_GEOMETRY, noise, CoilParams(), duration_s, fs, seed
    )


def test_criterion_01_noiseless_end_to_end():
    speeds = (2000.0, 3750.0, 5500.0, 7250.0, 9000.0)
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst = 0.0
    trials = 0
    for rpm in speeds:
        for _ in range(20):
            harmonics = [
                (k, rng.uniform(0.4, 1.0) / k, rng.uniform(0.0, 2.0 * np.pi))
                for k in (1, 2, 3)
            ]
            trace = motor_trace(rpm, harmonics)
            est = estimate_rpm(trace)
            worst = max(worst, abs(est.rpm - rpm))
            trials += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "noiseless end-to-end accuracy",
        trials == 100 and worst <= 1.2 and elapsed < 60.0,
        f"100 trials, worst |err| {worst:.3f} RPM, {elapsed:.1f} s",
    )


def test_criterion_02_fine_stage_resolution():
    fs = 1024.0
    n = 8192
    segment = 1024
    fine = fine_estimate(tone(64.3, fs, n), fs, 64.0, segment_len=segment, gamma=50)
    fixed_ok = abs(fine - 64.3) <= 0.02
    rng = np.random.default_rng(2)
    hits = 0
    worst = 0.0
    for _ in range(20):
        off = float(rng.uniform(-1.0, 1.0))
        est = fine_estimate(
            tone(64.0 + off, fs, n), fs, 64.0, segment_len=segment, gamma=50
        )
        err = abs(est - (64.0 + off))
        worst = max(worst, err)
        hits += err <= 0.02
    _report(
        2,
        "fine-stage sub-bin resolution",
        fixed_ok and hits == 20,
        f"+0.3 Hz case err {abs(fine - 64.3):.4f} Hz, 20/20 random"
        f" offsets, worst {worst:.4f} Hz",
    )


def test_criterion_03_coherent_gain_and_snr():
    fs = 8192.0
    n = 8192
    rng = np.random.default_rng(3)

    # exact coherent gain: four identical aligned channels
    base = rng.normal(size=n)
    trace = SensorTrace(channels=np.stack([base] * 4), sample_rate_hz=fs)
    out = delay_and_sum(trace, NoiseReference.unity(n), max_lag=16)
    rms_ratio = np.sqrt(np.mean(out**2) / np.mean(base**2))
    aligned_ok = abs(rms_ratio - 4.0) <= 4.0 * 1e-6

    # same, with integer delays: interior must realign to 4x the base
    delays = [0, 5, -9, 12]
    rolled = np.stack([np.roll(base, d) for d in delays])
    out_d = delay_and_sum(
        SensorTrace(channels=rolled, sample_rate_hz=fs),
        NoiseReference.unity(n),
        max_lag=16,
    )
    core = slice(16, -16)
    ratio_d = np.sqrt(np.mean(out_d[core] ** 2) / np.mean(base[core] ** 2))
    delayed_ok = abs(ratio_d - 4.0) <= 4.0 * 1e-6

    # independent-noise SNR power gain: 4 +/- 30% on average
    def snr(x, f0):
        t = np.arange(n) / fs
        a = 2.0 * float(x @ np.cos(2.0 * np.pi * f0 * t)) / n
        b = 2.0 * float(x @ np.sin(2.0 * np.pi * f0 * t)) / n
        p_sig = (a * a + b * b) / 2.0
        p_tot = float(x @ x) / n
        return p_sig / max(p_tot - p_sig, 1e-300)

    f0 = 200.0
    sig = tone(f0, fs, n)
    gains = []
    for seed in range(100):
        local = np.random.default_rng(seed)
        channels = np.stack([sig + local.normal(0.0, 0.5, size=n) for _ in range(4)])
        summed = delay_and_sum(
            SensorTrace(channels=channels, sample_rate_hz=fs),
            NoiseReference.unity(n),
            max_lag=16,
        )
        gains.append(snr(summed, f0) / snr(channels[0], f0))
    mean_gain = float(np.mean(gains))
    snr_ok = 4.0 * 0.7 <= mean_gain <= 4.0 * 1.3
    _report(
        3,
        "delay-and-sum coherent gain",
        aligned_ok and delayed_ok and snr_ok,
        f"aligned ratio {rms_ratio:.9f}, delayed {ratio_d:.9f}, "
        f"SNR power gain {mean_gain:.2f}",
    )


def test_criterion_04_ser_identities():
    fs = 8192.0
    n = 8192
    rng = np.random.default_rng(4)
    x = rng.normal(size=n)
    delayed = np.roll(x, 7)
    same = abs(compute_ser(x, delayed, 7.0 / fs, fs) - 1.0)
    inverted = abs(compute_ser(x, -x, 0.0, fs))
    means = []
    for seed in range(100):
        local = np.random.default_rng(1000 + seed)
        a = local.normal(size=n)
        b = local.normal(size=n)
        means.append(compute_ser(a, b, 0.0, fs))
    indep = float(np.mean(means))
    ok = same <= 1e-9 and inverted <= 1e-9 and abs(indep - 1.0 / np.sqrt(2.0)) <= 0.05
    _report(
        4,
        "signal-energy-ratio identities",
        ok,
        f"copy dev {same:.1e}, inverted dev {inverted:.1e}, "
        f"independent mean {indep:.4f} vs {1.0 / np.sqrt(2.0):.4f}",
    )


def test_criterion_05_alignment_map_band():
    start = time.perf_counter()
    ser_map = run_ser_map(0.004)
    elapsed = time.perf_counter() - start
    px, py, pv = ser_map.peak()
    region = ser_map.values >= 0.9  # NaN cells compare False
    cells = {(int(ix), int(iy)) for iy, ix in zip(*np.nonzero(region))}

    def neighbors(c):
        x, y = c
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if (dx or dy) and (x + dx, y + dy) in cells:
                    yield (x + dx, y + dy)

    components = 0
    target = None
    tx = int(np.argmin(np.abs(ser_map.x_cm - (-4.0))))
    ty = int(np.argmin(np.abs(ser_map.y_cm - 11.0)))
    seen = set()
    target_component = False
    for cell in cells:
        if cell in seen:
            continue
        components += 1
        queue = deque([cell])
        seen.add(cell)
        while queue:
            cur = queue.popleft()
            if cur == (tx, ty):
                target_component = True
            for nb in neighbors(cur):
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    ok = (
        (px, py) == (-4.0, 11.0)
        and len(cells) > 0
        and components == 1
        and target_component
        and elapsed < 120.0
    )
    _report(
        5,
        "two-sensor alignment map",
        ok,
        f"peak {pv:.3f} at ({px:.0f}, {py:.0f}), {len(cells)} cells >= 0.9 in "
        f"{components} component(s), {elapsed:.1f} s",
    )


def test_criterion_06_welch_against_bruteforce():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(600, 4000))
        fs = float(rng.uniform(100.0, 48000.0))
        segment = int(2 ** rng.integers(5, 9))
        overlap = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
        window = str(rng.choice(["hann", "hamming", "blackman", "rectangular"]))
        nfft = segment * int(rng.choice([1, 2, 4]))
        x = rng.normal(size=n)
        ours = welch_psd(
            x, fs, segment_len=segment, overlap_fraction=overlap,
            window=window, nfft=nfft,
        )
        ref_p = reference_welch(
            x, fs, segment, overlap=overlap, window=window, nfft=nfft
        )
        np.testing.assert_allclose(
            ours.frequencies, np.fft.rfftfreq(nfft, 1.0 / fs), rtol=1e-12, atol=1e-9
        )
        scale = np.maximum(np.abs(ref_p), np.abs(ref_p).max() * 1e-12)
        worst = max(worst, float(np.max(np.abs(ours.densities - ref_p) / scale)))
    grid_ok = worst < 1e-9

    amp = 0.7
    fs = 8192.0
    spec = welch_psd(amp * tone(440.0, fs, 8192), fs, segment_len=1024)
    power = float(np.sum(spec.densities) * spec.resolution_df)
    tone_ok = abs(power - amp**2 / 2.0) <= 0.02 * amp**2 / 2.0
    _report(
        6,
        "averaged-periodogram equivalence",
        grid_ok and tone_ok,
        f"50 cases worst rel dev {worst:.2e}, tone power {power:.5f} "
        f"vs {amp**2 / 2.0:.5f}",
    )


def test_criterion_07_gradient_correctness():
    # every layer type in isolation against central finite differences
    rng = np.random.default_rng(7)
    worst_layer = 0.0

    x = rng.normal(size=(2, 3, 8))
    w = rng.normal(size=(4, 3, 3))
    b = rng.normal(size=4)
    proj = rng.normal(size=(2, 4, 8))
    dx, dw, db = conv1d_backward(proj, x, w)
    for an, ref in (
        (dx, central_diff(lambda: float((conv1d_forward(x, w, b) * proj).sum()), x)),
        (dw, central_diff(lambda: float((conv1d_forward(x, w, b) * proj).sum()), w)),
        (db, central_diff(lambda: float((conv1d_forward(x, w, b) * proj).sum()), b)),
    ):
        worst_layer = max(worst_layer, rel_err(an, ref))

    xm = rng.permutation(np.arange(32, dtype=np.float64)).reshape(1, 2, 16)
    pm = rng.normal(size=(1, 2, 8))
    _, idx = maxpool_forward(xm, 2)
    worst_layer = max(
        worst_layer,
        rel_err(
            maxpool_backward(pm, idx, 2),
            central_diff(lambda: float((maxpool_forward(xm, 2)[0] * pm).sum()), xm),
        ),
    )

    xa = rng.normal(size=(2, 3, 12))
    pa = rng.normal(size=(2, 3, 4))
    worst_layer = max(
        worst_layer,
        rel_err(
            avgpool_backward(pa, 12),
            central_diff(lambda: float((avgpool_forward(xa, 4) * pa).sum()), xa),
        ),
    )

    xr = rng.normal(size=(1, 2, 5))
    pr = rng.normal(size=(1, 2, 12))
    worst_layer = max(
        worst_layer,
        rel_err(
            resize_backward(pr, 5),
            central_diff(lambda: float((resize_forward(xr, 12) * pr).sum()), xr),
        ),
    )

    xb = rng.normal(size=(3, 2, 8))
    gamma = rng.uniform(0.5, 1.5, size=2)
    beta = rng.normal(size=2)
    pb = rng.normal(size=(3, 2, 8))

    def bn_loss():
        out, _, _, _ = batchnorm_forward_train(xb, gamma, beta, 1e-5)
        return float((out * pb).sum())

    _, cache, _, _ = batchnorm_forward_train(xb, gamma, beta, 1e-5)
    dxb, dgamma, dbeta = batchnorm_backward(pb, cache)
    worst_layer = max(worst_layer, rel_err(dxb, central_diff(bn_loss, xb)))
    worst_layer = max(worst_layer, rel_err(dgamma, central_diff(bn_loss, gamma)))
    worst_layer = max(worst_layer, rel_err(dbeta, central_diff(bn_loss, beta)))

    xs = rng.normal(size=16)
    ps = rng.normal(size=16)
    worst_layer = max(
        worst_layer,
        rel_err(
            sigmoid_backward(ps, sigmoid_forward(xs)),
            central_diff(lambda: float((sigmoid_forward(xs) * ps).sum()), xs),
        ),
    )

    # dice loss gradient on 4-bin cases, much tighter bar
    worst_dice = 0.0
    for _ in range(5):
        p = rng.uniform(0.05, 0.95, size=4)
        y = (rng.uniform(size=4) > 0.5).astype(np.float64)
        worst_dice = max(
            worst_dice,
            rel_err(
                dice_loss_grad(p, y, eps=1.0),
                central_diff(lambda: dice_loss(p, y, eps=1.0), p, h=1e-6),
            ),
        )

    # full network, frozen configuration, every coordinate
    cfg = PpspConfig(
        input_bins=32,
        encoder_levels=2,
        filters_per_conv=4,
        multiscale_kernel_widths=(3, 7),
        pyramid_pool_kernels=(1, 2, 4),
        seed=1,
    )
    weights = init_weights(cfg)
    data = np.random.default_rng(1)
    xs2 = data.uniform(0.0, 1.0, size=(2, 32))
    ys2 = (data.uniform(size=(2, 32)) > 0.8).astype(np.float64)
    _, grads, _ = loss_and_grads(xs2, ys2, weights)
    h = 1e-5
    worst_net = 0.0
    n_coords = 0
    for key, tensor in weights.params.items():
        flat = tensor.reshape(-1)
        an_flat = grads[key].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            hi, _, _ = loss_and_grads(xs2, ys2, weights)
            flat[j] = orig - h
            lo, _, _ = loss_and_grads(xs2, ys2, weights)
            flat[j] = orig
            fd = (hi - lo) / (2 * h)
            worst_net = max(
                worst_net, abs(fd - an_flat[j]) / max(1e-10, abs(fd) + abs(an_flat[j]))
            )
            n_coords += 1
    ok = worst_layer < 1e-4 and worst_dice < 1e-8 and worst_net < 1e-4
    _report(
        7,
        "analytic gradients vs finite differences",
        ok,
        f"layers {worst_layer:.1e}, dice {worst_dice:.1e}, "
        f"network {worst_net:.1e} over {n_coords} coords",
    )


def overfit_sample() -> TrainingSample:
    n_bins = 64
    features = np.zeros(n_bins)
    mask = np.zeros(n_bins)
    for center in (9, 18, 27, 36):
        mask[center - 1 : center + 2] = 1.0
        features[center] = 1.0
        features[center - 1] = 0.8
        features[center + 1] = 0.8
    features[30] = 0.4  # distractor the net must learn to ignore
    return TrainingSample(
        features=features,
        mask=mask,
        bin_frequencies=np.arange(float(n_bins)),
        fundamental_hz=9.0,
    )


OVERFIT_CONFIG = PpspConfig(
    input_bins=64,
    encoder_levels=3,
    filters_per_conv=8,
    multiscale_kernel_widths=(3, 7),
    pyramid_pool_kernels=(1, 2, 4),
    seed=5,
)


def test_criterion_08_training_sanity():
    sample = overfit_sample()
    start = time.perf_counter()
    _, history = train(
        [sample], OVERFIT_CONFIG, epochs=500, batch_size=1,
        learning_rate=3e-2, seed=0,
    )
    elapsed = time.perf_counter() - start
    below = [i for i, v in enumerate(history) if v < 0.1]
    reached = bool(below)
    _, history2 = train(
        [sample], OVERFIT_CONFIG, epochs=100, batch_size=1,
        learning_rate=3e-2, seed=0,
    )
    identical = history[:100] == history2
    _report(
        8,
        "one-sample overfit and determinism",
        reached and identical,
        f"dice < 0.1 at epoch {below[0] if below else 'never'}, final "
        f"{history[-1]:.4f}, {elapsed:.1f} s, reruns identical: {identical}",
    )


def test_criterion_09_coarse_estimator_enumeration():
    # 9 Hz fundamental on a 1 Hz grid spanning eight harmonics: deep
    # enough that three stray detections plus one missing harmonic can
    # never hand an impostor a longer ladder than the truth
    n_bins = 73
    freqs = np.arange(float(n_bins))
    f0 = 9
    harmonic_bins = tuple(f0 * k for k in range(1, 9))
    non_harmonic = [b for b in range(n_bins) if b not in harmonic_bins]
    deletions = (None,) + harmonic_bins[1:]
    f_min, f_max = 5, 36

    def fp_is_supported(b, present) -> bool:
        """Mirror of the removal rule for a false-positive candidate."""
        if not f_min <= b <= f_max:
            return False  # not a candidate: support is irrelevant
        top = min(4, (n_bins - 1) // b)
        for m in range(2, top + 1):
            mb = m * b
            if any(q in present for q in (mb - 1, mb, mb + 1)):
                return True
        return False

    start = time.perf_counter()
    cases = 0
    recovered = 0
    fallbacks = 0
    for deleted in deletions:
        truth = {b for b in harmonic_bins if b != deleted}
        for size in range(4):
            for combo in itertools.combinations(non_harmonic, size):
                present = truth | set(combo)
                # only inject false positives that stay unsupported on the
                # final map (supported ones are legitimate candidates)
                if any(fp_is_supported(b, present) for b in combo):
                    continue
                probs = np.zeros(n_bins)
                probs[list(present)] = 1.0
                dmap = DetectionMap(probabilities=probs, bin_frequencies=freqs)
                result = coarse_estimate(dmap, f_min_hz=float(f_min))
                cases += 1
                if "fallback" in result.flags:
                    fallbacks += 1
                elif result.frequency_hz == float(f0):
                    recovered += 1
    elapsed = time.perf_counter() - start
    ok = cases > 100000 and recovered == cases and fallbacks == 0
    _report(
        9,
        "coarse estimator robustness enumeration",
        ok,
        f"{recovered}/{cases} recovered, {fallbacks} fallbacks, {elapsed:.1f} s",
    )


def test_criterion_10_dominant_harmonic_baseline_failure():
    rng = np.random.default_rng(10)
    baseline_doubles = 0
    pipeline_hits = 0
    for trial in range(20):
        rpm = float(rng.uniform(2400.0, 4800.0))
        harmonics = [
            (1, 1.0, rng.uniform(0.0, 2.0 * np.pi)),
            (2, 3.0, rng.uniform(0.0, 2.0 * np.pi)),
            (3, 0.2, rng.uniform(0.0, 2.0 * np.pi)),
        ]
        trace = motor_trace(rpm, harmonics)
        raw = trace.channels[0]
        base = peak_detection_baseline(raw, trace.sample_rate_hz, 5.0, 1000.0)
        if 1.9 * rpm <= base <= 2.1 * rpm:
            baseline_doubles += 1
        est = estimate_rpm(trace)
        if abs(est.rpm - rpm) <= 1.2:
            pipeline_hits += 1
    _report(
        10,
        "octave-robustness vs peak baseline",
        baseline_doubles == 20 and pipeline_hits == 20,
        f"baseline at 2x truth {baseline_doubles}/20, pipeline exact "
        f"{pipeline_hits}/20",
    )


def test_criterion_11_distance_sweep_trend():
    scenario = SweepScenario()
    start = time.perf_counter()
    result = run_distance_sweep(scenario)
    elapsed = time.perf_counter() - start
    pipe = result.mean_error_pct["pipeline"]
    rho = scipy.stats.spearmanr(result.distances_cm, pipe).statistic
    far = [
        i for i, d in enumerate(result.distances_cm) if d >= 25.0
    ]
    below_both = all(
        pipe[i] < result.mean_error_pct["autocorrelation"][i]
        and pipe[i] < result.mean_error_pct["peak"][i]
        for i in far
    )
    ok = rho > 0.8 and below_both and elapsed < 900.0
    _report(
        11,
        "distance-sweep degradation trend",
        ok,
        f"spearman {rho:.3f}, pipeline below both baselines at all "
        f"{len(far)} buckets >= 25 cm: {below_both}, {elapsed:.1f} s",
    )


def test_criterion_12_cli_determinism(tmp_path):
    sensing = tmp_path / "sensing.json"
    sensing.write_text(json.dumps({
        "motor": {
            "period_s": 0.02,
            "harmonics": [[1, 1.0, 0.0], [2, 0.5, 0.7]],
        },
        "geometry": {
            "sensor_positions_cm": [
                [-12.0, 30.0], [-4.0, 30.0], [4.0, 30.0], [12.0, 30.0]
            ],
        },
        "noise": {
            "mains_components": [[60.0, 0.0005]],
            "broadband_sigma": 0.0005,
            "shared_fraction": 0.25,
        },
    }))
    sim_same = True
    for name in ("s1", "s2"):
        code = main([
            "simulate", "--config", str(sensing), "--seed", "42",
            "--duration", "1.0", "--out", str(tmp_path / name),
        ])
        assert code == 0
    for fname in ("trace.wav", "trace.csv", "meta.json"):
        sim_same &= (
            (tmp_path / "s1" / fname).read_bytes()
            == (tmp_path / "s2" / fname).read_bytes()
        )

    bench_cfg = tmp_path / "scenario.json"
    bench_cfg.write_text(json.dumps({
        "duration_s": 1.0,
        "distances_cm": [5.0, 45.0],
        "speeds_rpm": [3000.0],
        "trials_per_cell": 1,
    }))
    bench_same = True
    for name in ("b1", "b2"):
        code = main([
            "bench", "--config", str(bench_cfg), "--seed", "42",
            "--out", str(tmp_path / name),
        ])
        assert code == 0
    for fname in ("trials.csv", "aggregate.csv", "summary.json", "meta.json"):
        bench_same &= (
            (tmp_path / "b1" / fname).read_bytes()
            == (tmp_path / "b2" / fname).read_bytes()
        )
    _report(
        12,
        "seeded runs are byte-identical",
        sim_same and bench_same,
        f"simulate identical: {sim_same}, bench identical: {bench_same}",
    )
