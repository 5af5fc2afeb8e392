"""Command-line front end.

Subcommands mirror the library stages: ``simulate`` writes synthetic array
captures, ``denoise`` runs enhancement on a capture, ``detect`` produces a
detection map, ``estimate`` runs the full speed pipeline, ``train`` fits the
detector network, ``bench`` runs the distance sweep, and ``sermap`` renders
the two-sensor alignment map.

Conventions shared by all subcommands:

* settings are read by one path (:func:`_settings`): the ``--config PATH``
  JSON document, then each ``--set key=value`` (repeatable; dots nest, as in
  ``pipeline.gamma=100``; values parse as JSON, falling back to plain
  strings), then flags such as ``simulate --duration``.  :func:`_checked`
  then checks them against their section's table of field kinds, which
  lives beside the code it configures, or builds the settings dataclass.
  An unknown or invalid key exits 2 as ``<section> key <k> ...`` before
  anything runs or ``--out`` is created.  Whether ``welch_segment`` (a power
  of two) fits a capture is known only once the trace is read, so a misfit
  fails the spectrum stage (exit 4; ``bench`` counts those trials as failed).
* ``--background CAPTURE`` (``denoise``, ``detect``, ``estimate``) is a
  noise-only capture of the trace's shape to denoise against.
* commands that draw randomness require ``--seed``; given the same seed and
  config they write byte-identical outputs.
* ``--out DIR`` names the output directory (created if needed); every run
  also writes ``meta.json`` with the resolved config and its fingerprint.
* exit codes: 0 success, 2 bad configuration or arguments, 3 I/O problems
  (message names the path), 4 estimation or training failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .detector import TRAINING_FIELDS, load_training_set, synthesize_training_set, train
from .dsp import NoiseReference
from .estimator import (
    ENHANCE_FIELDS,
    PipelineConfig,
    PipelineError,
    SpeedEstimate,
    detect_harmonics,
    enhanced_spectrum,
    estimate_rpm_multi,
)
from .evaluation import SERMAP_FIELDS, SweepScenario, run_distance_sweep, run_ser_map
from .fields import check_fields, construct
from .ppsp import PpspConfig, TrainingDivergedError
from .sensor_io import (
    SENSING_FIELDS,
    json_fingerprint,
    load_trace_csv,
    load_trace_wav,
    parse_sensing_config,
    read_json,
    save_trace_csv,
    save_trace_wav,
    write_json,
    write_table,
)
from .signals import ArrayGeometry, CoilParams, NoiseProfile, SensorTrace, simulate_mixture

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PIPELINE = 4


def _parse_set(entry: str) -> tuple[list[str], object]:
    if "=" not in entry:
        raise ValueError(f"--set needs key=value, got '{entry}'")
    key, _, raw = entry.partition("=")
    key = key.strip()
    if not key:
        raise ValueError(f"--set needs a non-empty key in '{entry}'")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_sets(doc: dict, entries) -> None:
    for entry in entries or ():
        path, value = _parse_set(entry)
        node = doc
        for part in path[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[path[-1]] = value


def _settings(args, defaults=None, **given) -> dict:
    """A subcommand's settings document, read in one order: ``defaults``,
    the --config document (where the subcommand has one), each --set, then
    every flag value in ``given`` that is not None."""
    doc = dict(defaults or {})
    if getattr(args, "config", None) is not None:
        config = read_json(args.config)  # its OSError and ValueError name the file
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: top level must be a JSON object")
        doc.update(config)
    _apply_sets(doc, args.set)
    doc.update((key, value) for key, value in given.items() if value is not None)
    return doc


def _checked(section: str, doc: dict, spec):
    """``doc`` as the ``section`` settings: checked against ``spec`` when it
    is a table of field kinds (and returned), or built into ``spec`` when it
    is a settings dataclass (and the instance returned).  An unknown key, a
    value not of its kind or the constructor's TypeError or ValueError is a
    ValueError that reads ``<section> key ...`` (exit 2)."""
    try:
        if isinstance(spec, dict):
            check_fields(doc, spec)
            return doc
        return construct(spec, doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{section} key {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"{out}: cannot create output directory ({exc})") from exc
    return out


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValueError("this command draws randomness: --seed is required")
    return int(args.seed)


def _load_trace(path: str) -> SensorTrace:
    p = Path(path)
    try:
        if p.suffix.lower() == ".wav":
            return load_trace_wav(p)
        return load_trace_csv(p)
    except (ValueError, OSError) as exc:
        raise OSError(f"{p}: cannot read trace ({exc})") from exc


def _noise_reference(args, trace: SensorTrace) -> NoiseReference:
    """The reference of the --background capture, or the unity one."""
    if args.background is None:
        return NoiseReference.unity(trace.n_samples)
    background = _load_trace(args.background)
    shape = (background.n_samples, background.sample_rate_hz)
    if shape != (trace.n_samples, trace.sample_rate_hz):
        raise ValueError(
            f"{args.background} has {shape[0]} samples at {shape[1]} Hz, but {args.trace} "
            f"has {trace.n_samples} at {trace.sample_rate_hz} Hz: the background must match"
        )
    return NoiseReference.from_signal(background.channels[0])


def _keys(cls) -> list[str]:
    return sorted(f.name for f in fields(cls))


def _pipeline_settings(args) -> PipelineConfig:
    # passing weights means the network detector, unless the config said
    # otherwise explicitly
    defaults = {"detector": "network"} if args.weights is not None else None
    return _checked("pipeline", _settings(args, defaults, weights_path=args.weights),
                    PipelineConfig)


def _write_meta(out: Path, command: str, doc: dict) -> None:
    meta = dict(doc)
    meta["command"] = command
    meta["fingerprint"] = json_fingerprint(doc)
    write_json(out / "meta.json", meta)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    seed = _require_seed(args)
    doc = _checked(
        "simulate",
        _settings(args, duration_s=args.duration, sample_rate_hz=args.fs),
        SENSING_FIELDS,
    )
    if "motor" not in doc and "motors" not in doc:
        raise ValueError("simulate needs --config with a 'motor' or 'motors' section")
    parsed = parse_sensing_config(doc)
    motors = parsed.get("motors") or [parsed["motor"]]
    geometry = parsed.get("geometry") or ArrayGeometry([(0.0, 0.0)])
    noise = parsed.get("noise") or NoiseProfile()
    coil = parsed.get("coil") or CoilParams()
    duration = float(doc.get("duration_s", 1.0))
    fs = float(doc.get("sample_rate_hz", 8192.0))
    trace = simulate_mixture(motors, geometry, noise, coil, duration, fs, seed)
    out = _out_dir(args)
    volts_per_count = save_trace_wav(trace, out / "trace.wav")
    save_trace_csv(trace, out / "trace.csv")
    _write_meta(
        out,
        "simulate",
        {
            "config": doc,
            "seed": seed,
            "duration_s": duration,
            "sample_rate_hz": fs,
            "volts_per_count": volts_per_count,
            "n_channels": trace.n_channels,
            "n_samples": trace.n_samples,
        },
    )
    print(f"wrote {out / 'trace.wav'} and {out / 'trace.csv'}")
    return EXIT_OK


def _cmd_denoise(args) -> int:
    config = PipelineConfig(**_checked("denoise", _settings(args), ENHANCE_FIELDS))
    trace = _load_trace(args.trace)
    reference = _noise_reference(args, trace)
    enhanced, segment, spectrum = enhanced_spectrum(trace, config, noise_reference=reference)
    out = _out_dir(args)
    save_trace_csv(
        SensorTrace(channels=enhanced[None, :], sample_rate_hz=trace.sample_rate_hz),
        out / "enhanced.csv",
    )
    spectrum.save_csv(out / "spectrum.csv")
    _write_meta(
        out,
        "denoise",
        {
            "trace": str(args.trace),
            "background": args.background,
            "max_lag_s": config.max_lag_s,
            "segment_len": segment,
        },
    )
    print(f"wrote {out / 'enhanced.csv'} and {out / 'spectrum.csv'}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    config = _pipeline_settings(args)
    trace = _load_trace(args.trace)
    reference = _noise_reference(args, trace)
    _, _, dmap = detect_harmonics(trace, config, noise_reference=reference)
    out = _out_dir(args)
    dmap.save_csv(out / "detection.csv")
    _write_meta(out, "detect", {"trace": str(args.trace), "pipeline": asdict(config)})
    print(f"wrote {out / 'detection.csv'} ({int(dmap.binarize().sum())} bins flagged)")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    if args.multi is not None and args.multi < 1:
        raise ValueError("--multi must be >= 1")
    config = _pipeline_settings(args)
    trace = _load_trace(args.trace)
    reference = _noise_reference(args, trace)
    out = _out_dir(args)
    estimates = estimate_rpm_multi(trace, args.multi or 1, config, noise_reference=reference)
    config_doc = asdict(config)
    doc = {
        "trace": str(args.trace),
        "pipeline": config_doc,
        "estimates": [asdict(e) for e in estimates],
    }
    write_json(out / "estimate.json", doc)
    write_table(
        out / "estimate.csv", SpeedEstimate.CSV_HEADER, [e.csv_row() for e in estimates]
    )
    _write_meta(out, "estimate", {"trace": str(args.trace), "pipeline": config_doc})
    for e in estimates:
        flag_note = f" [{','.join(e.flags)}]" if e.flags else ""
        print(f"{e.rpm:.2f} RPM (confidence {e.confidence:.2f}){flag_note}")
    return EXIT_OK


def _cmd_train(args) -> int:
    seed = _require_seed(args)
    doc = _checked("training", _settings(args), TRAINING_FIELDS)
    net_config = _checked("network", {"seed": seed, **doc.get("network", {})}, PpspConfig)
    if args.samples is not None:
        samples_dir = Path(args.samples)
        if not samples_dir.exists():
            raise OSError(f"{samples_dir}: samples directory not found")
        try:
            samples = load_training_set(samples_dir)
        except ValueError as exc:
            raise OSError(f"{samples_dir}: {exc}") from exc
    else:
        samples = synthesize_training_set(
            doc.get("count", 16), seed, input_bins=net_config.input_bins
        )
    options = {key: doc[key] for key in ("batch_size", "learning_rate", "dice_eps") if key in doc}
    weights, history = train(
        samples, net_config, epochs=doc.get("epochs", 30), seed=seed, **options
    )
    out = _out_dir(args)
    weights.save(out / "weights.ppsp")
    write_table(out / "history.csv", ("epoch", "loss"), enumerate(history))
    _write_meta(
        out,
        "train",
        {"config": doc, "seed": seed, "network": asdict(net_config),
         "n_samples": len(samples)},
    )
    final = f"{history[-1]:.4f}" if history else "n/a"
    print(f"trained {len(history)} epochs (final loss {final}); "
          f"wrote {out / 'weights.ppsp'}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    doc = _settings(args, master_seed=args.seed)
    if isinstance(doc.get("pipeline"), dict):
        doc["pipeline"] = _checked("pipeline", doc["pipeline"], PipelineConfig)
    scenario = _checked("scenario", doc, SweepScenario)
    out = _out_dir(args)
    result = run_distance_sweep(scenario, out_dir=out)
    _write_meta(out, "bench", {"scenario": asdict(scenario)})
    print(f"fingerprint {result.fingerprint}")
    for method, errs in sorted(result.mean_error_pct.items()):
        print(f"{method}: {errs[0]:.2f}% at {result.distances_cm[0]:.0f} cm, "
              f"{errs[-1]:.2f}% at {result.distances_cm[-1]:.0f} cm")
    return EXIT_OK


def _cmd_sermap(args) -> int:
    doc = _checked("sermap", _settings(args), SERMAP_FIELDS)
    ser_map = run_ser_map(args.delta_t_ms / 1000.0, **doc)
    out = _out_dir(args)
    ser_map.save_csv(out / "sermap.csv")
    _write_meta(
        out,
        "sermap",
        {"delta_t_ms": args.delta_t_ms, "overrides": doc},
    )
    x, y, value = ser_map.peak()
    print(f"wrote {out / 'sermap.csv'}; peak {value:.3f} at ({x:.0f}, {y:.0f}) cm")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_PIPELINE_KEYS_HELP = "config keys: " + ", ".join(_keys(PipelineConfig)) + "."
_SCENARIO_KEYS_HELP = (
    "config keys: " + ", ".join(_keys(SweepScenario))
    + "; pipeline.* nests the estimate keys."
)
_TRAIN_KEYS_HELP = (
    "config keys: " + ", ".join(TRAINING_FIELDS)
    + "; network.* nests " + ", ".join(_keys(PpspConfig)) + "."
)


def _add_common(sub, *, config=True, seed=False):
    sub.add_argument("--out", required=True, help="output directory")
    if config:
        sub.add_argument("--config", help="JSON configuration file")
    if seed:
        sub.add_argument("--seed", type=int, help="random seed (required)")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config entry (repeatable; dots nest)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magrev",
        description="Rotation-speed estimation from magnetic sensor arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate",
        help="synthesize an array capture",
        epilog="config keys: " + ", ".join(SENSING_FIELDS) + ".",
    )
    _add_common(p, seed=True)
    p.add_argument("--duration", type=float, help="capture length in seconds")
    p.add_argument("--fs", type=float, help="sample rate in Hz")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "denoise",
        help="enhance a capture and write its spectrum",
        epilog="--set keys: max_lag_s (alignment search half-window in seconds, "
        "default 0.01).",
    )
    p.add_argument("--trace", required=True, help="input trace (.csv or .wav)")
    p.add_argument("--background", help="noise-only capture to denoise against (.csv or .wav)")
    _add_common(p, config=False)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser(
        "detect",
        help="write the harmonic detection map for a capture",
        epilog=_PIPELINE_KEYS_HELP,
    )
    p.add_argument("--trace", required=True, help="input trace (.csv or .wav)")
    p.add_argument("--background", help="noise-only capture to denoise against (.csv or .wav)")
    p.add_argument("--weights", help="trained detector weights (.ppsp)")
    _add_common(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser(
        "estimate",
        help="estimate rotation speed from a capture",
        epilog=_PIPELINE_KEYS_HELP,
    )
    p.add_argument("--trace", required=True, help="input trace (.csv or .wav)")
    p.add_argument("--background", help="noise-only capture to denoise against (.csv or .wav)")
    p.add_argument("--weights", help="trained detector weights (.ppsp)")
    p.add_argument("--multi", type=int, help="estimate this many concurrent motors")
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "train",
        help="train the detector network",
        epilog=_TRAIN_KEYS_HELP,
    )
    p.add_argument("--samples", help="directory of saved training samples")
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "bench",
        help="run the distance-sweep benchmark",
        epilog=_SCENARIO_KEYS_HELP,
    )
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "sermap",
        help="render the two-sensor alignment map",
        epilog="--set keys: " + ", ".join(SERMAP_FIELDS) + ".",
    )
    p.add_argument("--delta-t-ms", type=float, required=True,
                   help="compensation delay in milliseconds")
    _add_common(p, config=False)
    p.set_defaults(func=_cmd_sermap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # bad settings or arguments, and invalid parameter combinations in the library
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PipelineError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
