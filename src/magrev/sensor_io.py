"""File formats for sensor traces and sensing configurations.

Traces persist either as multi-channel 16-bit PCM WAV (the capture format of
the target hardware) or as CSV with one column per channel.  The CSV header
carries the sample rate on a leading comment line:

    # fs_hz=8192.0
    ch0,ch1,ch2,ch3
    ...

WAV files do not carry a voltage scale, so exports return the volts-per-count
used; keep it (e.g. in a sidecar) if absolute amplitudes matter.  The speed
estimation pipeline is scale-invariant, so a default of 1.0 on import is fine
for estimation work.

Sensing configurations (motor, geometry, noise, coil) persist as one JSON
document with those four sections.
"""

from __future__ import annotations

import csv
import json
import wave
from pathlib import Path

import numpy as np

from .signals import ArrayGeometry, CoilParams, MotorProfile, NoiseProfile, SensorTrace

PCM_FULL_SCALE = 32767


def save_trace_wav(
    trace: SensorTrace, path: str | Path, volts_per_count: float | None = None
) -> float:
    """Write a trace as interleaved 16-bit PCM.  Returns the volts-per-count
    actually used (auto-scaled to the trace peak when not given).  The WAV
    header holds an integer rate, so a fractional rate is rejected."""
    path = Path(path)
    if not trace.sample_rate_hz.is_integer():
        raise ValueError(
            f"WAV stores an integer sample rate; {trace.sample_rate_hz!r} Hz would be rounded"
        )
    peak = float(np.max(np.abs(trace.channels))) if trace.channels.size else 0.0
    if volts_per_count is None:
        volts_per_count = (peak / PCM_FULL_SCALE) if peak > 0 else 1.0 / PCM_FULL_SCALE
    if volts_per_count <= 0:
        raise ValueError("volts_per_count must be positive")
    counts = np.round(trace.channels / volts_per_count)
    counts = np.clip(counts, -PCM_FULL_SCALE - 1, PCM_FULL_SCALE).astype("<i2")
    interleaved = counts.T.reshape(-1)
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(trace.n_channels)
        handle.setsampwidth(2)
        handle.setframerate(int(trace.sample_rate_hz))
        handle.writeframes(interleaved.tobytes())
    return volts_per_count


def load_trace_wav(path: str | Path, volts_per_count: float = 1.0) -> SensorTrace:
    with wave.open(str(path), "rb") as handle:
        n_channels = handle.getnchannels()
        fs = float(handle.getframerate())
        if handle.getsampwidth() != 2:
            raise ValueError(f"{path}: only 16-bit PCM WAV is supported")
        raw = handle.readframes(handle.getnframes())
    counts = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    channels = counts.reshape(-1, n_channels).T * volts_per_count
    return SensorTrace(channels=channels, sample_rate_hz=fs)


def save_trace_csv(trace: SensorTrace, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="") as handle:
        handle.write(f"# fs_hz={trace.sample_rate_hz!r}\n")
        writer = csv.writer(handle)
        writer.writerow([f"ch{i}" for i in range(trace.n_channels)])
        for row in trace.channels.T:
            writer.writerow([repr(float(v)) for v in row])


def load_trace_csv(path: str | Path) -> SensorTrace:
    path = Path(path)
    with path.open("r", newline="") as handle:
        first = handle.readline().strip()
        if not first.startswith("#") or "fs_hz=" not in first:
            raise ValueError(f"{path}: missing '# fs_hz=' header line")
        fs = float(first.split("fs_hz=", 1)[1])
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: missing channel header row")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no samples")
    channels = np.asarray(rows, dtype=np.float64).T
    return SensorTrace(channels=channels, sample_rate_hz=fs)


def save_sensing_config(
    path: str | Path,
    motor: MotorProfile | None = None,
    motors: list[MotorProfile] | None = None,
    geometry: ArrayGeometry | None = None,
    noise: NoiseProfile | None = None,
    coil: CoilParams | None = None,
    extra: dict | None = None,
) -> None:
    """Persist a sensing setup as JSON.  Either ``motor`` or ``motors`` may be
    given; other sections are optional and omitted when None."""
    doc: dict = {}
    if motor is not None and motors is not None:
        raise ValueError("give either motor or motors, not both")
    if motor is not None:
        doc["motor"] = motor.to_dict()
    if motors is not None:
        doc["motors"] = [m.to_dict() for m in motors]
    if geometry is not None:
        doc["geometry"] = geometry.to_dict()
    if noise is not None:
        doc["noise"] = noise.to_dict()
    if coil is not None:
        doc["coil"] = coil.to_dict()
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _section(data: dict, key: str, parser, path) -> object | None:
    if key not in data:
        return None
    try:
        return parser(data[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad '{key}' section: {exc}") from exc


def parse_sensing_config(data: dict, source: str = "<config>") -> dict:
    """Typed sections from an in-memory sensing document.  Returns a dict
    with any of the keys motor / motors / geometry / noise / coil populated,
    plus 'raw' holding the full document; ``source`` names the origin in
    error messages."""
    if not isinstance(data, dict):
        raise ValueError(f"{source}: top level must be a JSON object")
    out: dict = {"raw": data}
    motor = _section(data, "motor", MotorProfile.from_dict, source)
    if motor is not None:
        out["motor"] = motor
    if "motors" in data:
        try:
            out["motors"] = [MotorProfile.from_dict(m) for m in data["motors"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{source}: bad 'motors' section: {exc}") from exc
    geometry = _section(data, "geometry", ArrayGeometry.from_dict, source)
    if geometry is not None:
        out["geometry"] = geometry
    noise = _section(data, "noise", NoiseProfile.from_dict, source)
    if noise is not None:
        out["noise"] = noise
    coil = _section(data, "coil", CoilParams.from_dict, source)
    if coil is not None:
        out["coil"] = coil
    return out


def load_sensing_config(path: str | Path) -> dict:
    """Load a sensing setup from JSON; see :func:`parse_sensing_config`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return parse_sensing_config(data, source=str(path))
