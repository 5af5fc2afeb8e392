"""Command-line front end.

Subcommands mirror the library stages: ``simulate`` writes synthetic array
captures, ``denoise`` runs enhancement on a capture, ``detect`` produces a
detection map, ``estimate`` runs the full speed pipeline, ``train`` fits the
detector network, ``bench`` runs the distance sweep, and ``sermap`` renders
the two-sensor alignment map.

Conventions shared by all subcommands:

* ``--config PATH`` loads a JSON document; ``--set key=value`` (repeatable)
  overrides single entries, with dots for nesting (``pipeline.gamma=100``).
  Values parse as JSON, falling back to plain strings.  Every key is
  checked against its section's table of field kinds (``magrev.fields``)
  before anything runs, so an unknown or invalid key exits 2 and is named.
  Whether ``welch_segment`` (a power of two) fits a capture is known only
  once the trace is read, so a misfit fails the spectrum stage (exit 4;
  ``bench`` counts those trials as failed).
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

from .detector import load_training_set, synthesize_training_set, train
from .dsp import NoiseReference
from .estimator import (
    PipelineConfig,
    PipelineError,
    SpeedEstimate,
    detect_harmonics,
    enhanced_spectrum,
    estimate_rpm_multi,
)
from .evaluation import SweepScenario, run_distance_sweep, run_ser_map
from .fields import OBJECT, check_fields, integer, real
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
from .signals import (
    ArrayGeometry,
    CoilParams,
    NoiseProfile,
    SensorTrace,
    simulate_mixture,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PIPELINE = 4


class _ConfigError(Exception):
    pass


class _IoError(Exception):
    pass


def _parse_set(entry: str) -> tuple[list[str], object]:
    if "=" not in entry:
        raise _ConfigError(f"--set needs key=value, got '{entry}'")
    key, _, raw = entry.partition("=")
    key = key.strip()
    if not key:
        raise _ConfigError(f"--set needs a non-empty key in '{entry}'")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_sets(doc: dict, entries) -> dict:
    for entry in entries or ():
        path, value = _parse_set(entry)
        node = doc
        for part in path[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[path[-1]] = value
    return doc


def _load_json_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    try:
        data = read_json(p)
    except FileNotFoundError as exc:
        raise _IoError(f"{p}: config file not found") from exc
    except OSError as exc:
        raise _IoError(f"{p}: {exc}") from exc
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    if not isinstance(data, dict):
        raise _ConfigError(f"{p}: top level must be a JSON object")
    return data


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _IoError(f"{out}: cannot create output directory ({exc})") from exc
    return out


def _require_seed(args) -> int:
    if args.seed is None:
        raise _ConfigError("this command draws randomness: --seed is required")
    return int(args.seed)


def _load_trace(path: str) -> SensorTrace:
    p = Path(path)
    if not p.exists():
        raise _IoError(f"{p}: trace file not found")
    try:
        if p.suffix.lower() == ".wav":
            return load_trace_wav(p)
        return load_trace_csv(p)
    except (ValueError, OSError) as exc:
        raise _IoError(f"{p}: cannot read trace ({exc})") from exc


def _load_reference(path: str | None, n_samples: int) -> NoiseReference:
    if path is None:
        return NoiseReference.unity(n_samples)
    p = Path(path)
    if not p.exists():
        raise _IoError(f"{p}: noise reference not found")
    try:
        return NoiseReference.load_csv(p)
    except (ValueError, OSError) as exc:
        raise _IoError(f"{p}: cannot read noise reference ({exc})") from exc


def _keys(cls) -> list[str]:
    return sorted(f.name for f in fields(cls))


def _check_keys(doc: dict, kinds: dict, section: str) -> None:
    try:
        check_fields(doc, kinds)
    except ValueError as exc:
        raise _ConfigError(f"{section} key {exc}") from exc


def _pipeline_config(args) -> tuple[PipelineConfig, dict]:
    doc = _load_json_config(args.config)
    doc = _apply_sets(doc, args.set)
    if args.weights is not None:
        # passing weights means the network detector, unless the config
        # said otherwise explicitly
        doc = {"detector": "network", **doc, "weights_path": args.weights}
    try:
        config = PipelineConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise _ConfigError(f"bad pipeline config: {exc}") from exc
    return config, asdict(config)


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
    doc = _load_json_config(args.config)
    doc = _apply_sets(doc, args.set)
    _check_keys(doc, SENSING_FIELDS, "simulate")
    if "motor" not in doc and "motors" not in doc:
        raise _ConfigError("simulate needs --config with a 'motor' or 'motors' section")
    parsed = parse_sensing_config(doc)
    motors = parsed.get("motors") or [parsed["motor"]]
    geometry = parsed.get("geometry") or ArrayGeometry([(0.0, 0.0)])
    noise = parsed.get("noise") or NoiseProfile()
    coil = parsed.get("coil") or CoilParams()
    duration = float(args.duration if args.duration is not None else doc.get("duration_s", 1.0))
    fs = float(args.fs if args.fs is not None else doc.get("sample_rate_hz", 8192.0))
    _check_keys({"duration_s": duration, "sample_rate_hz": fs}, SENSING_FIELDS, "simulate")
    try:
        trace = simulate_mixture(motors, geometry, noise, coil, duration, fs, seed)
    except ValueError as exc:
        raise _ConfigError(f"bad simulation setup: {exc}") from exc
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


_DENOISE_FIELDS = {"max_lag_s": real(">= 0")}


def _cmd_denoise(args) -> int:
    doc = _apply_sets({}, args.set)
    _check_keys(doc, _DENOISE_FIELDS, "denoise")
    config = PipelineConfig(**doc)
    trace = _load_trace(args.trace)
    reference = _load_reference(args.reference, trace.n_samples)
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
            "reference": str(args.reference) if args.reference else None,
            "max_lag_s": config.max_lag_s,
            "segment_len": segment,
        },
    )
    print(f"wrote {out / 'enhanced.csv'} and {out / 'spectrum.csv'}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    config, config_doc = _pipeline_config(args)
    trace = _load_trace(args.trace)
    reference = _load_reference(args.reference, trace.n_samples)
    _, _, dmap = detect_harmonics(trace, config, noise_reference=reference)
    out = _out_dir(args)
    dmap.save_csv(out / "detection.csv")
    _write_meta(out, "detect", {"trace": str(args.trace), "pipeline": config_doc})
    print(f"wrote {out / 'detection.csv'} ({int(dmap.binarize().sum())} bins flagged)")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    if args.multi is not None and args.multi < 1:
        raise _ConfigError("--multi must be >= 1")
    config, config_doc = _pipeline_config(args)
    trace = _load_trace(args.trace)
    reference = _load_reference(args.reference, trace.n_samples)
    out = _out_dir(args)
    estimates = estimate_rpm_multi(trace, args.multi or 1, config, noise_reference=reference)
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


_TRAINING_FIELDS = {
    "network": OBJECT,
    "epochs": integer(">= 0"),
    "batch_size": integer(">= 1"),
    "count": integer(">= 1"),
    "learning_rate": real("> 0"),
    "dice_eps": real(">= 0"),
}


def _cmd_train(args) -> int:
    seed = _require_seed(args)
    doc = _load_json_config(args.config)
    doc = _apply_sets(doc, args.set)
    _check_keys(doc, _TRAINING_FIELDS, "training")
    try:
        net_config = PpspConfig(**{"seed": seed, **doc.get("network", {})})
    except (TypeError, ValueError) as exc:
        raise _ConfigError(f"bad network config: {exc}") from exc
    if args.samples is not None:
        samples_dir = Path(args.samples)
        if not samples_dir.exists():
            raise _IoError(f"{samples_dir}: samples directory not found")
        try:
            samples = load_training_set(samples_dir)
        except ValueError as exc:
            raise _IoError(f"{samples_dir}: {exc}") from exc
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
    doc = _load_json_config(args.config)
    doc = _apply_sets(doc, args.set)
    if args.seed is not None:
        doc["master_seed"] = int(args.seed)
    try:
        scenario = SweepScenario(**doc)
    except (TypeError, ValueError) as exc:
        raise _ConfigError(f"bad scenario: {exc}") from exc
    out = _out_dir(args)
    result = run_distance_sweep(scenario, out_dir=out)
    _write_meta(out, "bench", {"scenario": asdict(scenario)})
    print(f"fingerprint {result.fingerprint}")
    for method, errs in sorted(result.mean_error_pct.items()):
        print(f"{method}: {errs[0]:.2f}% at {result.distances_cm[0]:.0f} cm, "
              f"{errs[-1]:.2f}% at {result.distances_cm[-1]:.0f} cm")
    return EXIT_OK


_SERMAP_FIELDS = dict.fromkeys(
    ("sample_rate_hz", "duration_s", "speed_rpm", "effective_speed_cm_s", "step_cm"),
    real("> 0"),
)


def _cmd_sermap(args) -> int:
    doc = _apply_sets({}, args.set)
    _check_keys(doc, _SERMAP_FIELDS, "sermap")
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
    "config keys: " + ", ".join(_TRAINING_FIELDS)
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
    p.add_argument("--reference", help="noise reference CSV")
    _add_common(p, config=False)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser(
        "detect",
        help="write the harmonic detection map for a capture",
        epilog=_PIPELINE_KEYS_HELP,
    )
    p.add_argument("--trace", required=True, help="input trace (.csv or .wav)")
    p.add_argument("--reference", help="noise reference CSV")
    p.add_argument("--weights", help="trained detector weights (.ppsp)")
    _add_common(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser(
        "estimate",
        help="estimate rotation speed from a capture",
        epilog=_PIPELINE_KEYS_HELP,
    )
    p.add_argument("--trace", required=True, help="input trace (.csv or .wav)")
    p.add_argument("--reference", help="noise reference CSV")
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
        epilog="--set keys: " + ", ".join(_SERMAP_FIELDS) + ".",
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
    except (_ConfigError, ValueError) as exc:
        # the library signals invalid parameter combinations with ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (_IoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PipelineError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
