"""File formats: every trace, table and JSON document magrev reads or writes
goes through this module (the network weights archive is ``magrev.ppsp``'s).

Tables (traces, noise references, spectra, detection maps, training
samples, alignment maps, benchmark rows, estimates, loss histories) share
one CSV convention, written by :func:`write_table` and read back by
:func:`read_table`:

* an optional first line ``# <comment>`` (traces keep ``fs_hz=<rate>``
  there), then one header line, then one line per row;
* fields are separated by commas, lines end in LF (files with CRLF endings
  load the same);
* a cell is written with ``str`` when it is a string or an integer and as
  ``repr(float(v))`` otherwise, so floats round-trip exactly and NumPy
  scalars never leak their type name;
* the reader checks the header exactly and requires every row to have as
  many fields as the header; every problem is a ``ValueError`` naming the
  file and line.

A trace looks like::

    # fs_hz=8192.0
    ch0,ch1,ch2,ch3
    ...

Traces also persist as multi-channel 16-bit PCM WAV (the capture format of
the target hardware).  WAV files do not carry a voltage scale, so exports
return the volts-per-count used; keep it (e.g. in a sidecar) if absolute
amplitudes matter.  The speed estimation pipeline is scale-invariant, so a
default of 1.0 on import is fine for estimation work.

JSON documents (``meta.json``, estimates, benchmark summaries,
training-sample metadata) are written by :func:`write_json`:
sorted keys, indent 2 unless asked otherwise, and a trailing newline.
Configuration dataclasses round-trip through ``dataclasses.asdict`` and
their constructors, which normalise JSON lists back to tuples; a key the
constructor does not know is an error, never silently ignored.  A sensing
configuration is one JSON document with the sections motor (or motors),
geometry, noise and coil, read by :func:`parse_sensing_config`;
``SENSING_FIELDS`` names its top-level keys.

The field kinds live here too: every configuration magrev reads maps each
key to a kind, a description with its range and a predicate (see
:func:`integer` and :func:`real`), and :func:`check_fields` raises
``<key> must be <kind>, got <value>`` for the first bad or unknown key.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import wave
from collections.abc import Callable, Iterable, Sequence
from dataclasses import fields
from functools import partial
from operator import ge, gt, le, lt
from pathlib import Path

import numpy as np

from .signals import ArrayGeometry, CoilParams, MotorProfile, NoiseProfile, SensorTrace

PCM_FULL_SCALE = 32767

# ---------------------------------------------------------------------------
# Configuration fields
# ---------------------------------------------------------------------------


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


_LIST = (tuple, list)
_COMPARE = {">": gt, ">=": ge, "(": gt, "[": ge, ")": lt, "]": le}


def _ranged(noun: str, accepts, where: str = "") -> tuple:
    """The kind ``noun`` narrowed to the range ``where``: ``> 0``, ``>= 2``,
    ``in (0, 1]`` or empty for none."""
    if where.startswith("in "):
        low, high = where[4:-1].split(",")
        bounds = ((where[3], low), (where[-1], high))
    else:
        bounds = (where.split(),) if where else ()
    tests = [(_COMPARE[sign], float(bound)) for sign, bound in bounds]
    return f"{noun} {where}".rstrip(), lambda value: accepts(value) and all(
        compare(value, bound) for compare, bound in tests
    )


integer = partial(_ranged, "an integer", _is_integer)
real = partial(_ranged, "a finite real number", _is_real)
STRING = ("a string", lambda value: isinstance(value, str))
BOOLEAN = ("true or false", lambda value: isinstance(value, bool))
OBJECT = ("a JSON object", lambda value: isinstance(value, dict))
ODD = _ranged("an odd integer", lambda value: _is_integer(value) and value % 2 == 1, ">= 1")


def one_of(*choices) -> tuple:
    return "one of " + ", ".join(map(repr, choices)), lambda value: value in choices


def instance_of(cls) -> tuple:
    return f"a {cls.__name__}", lambda value: isinstance(value, cls)


def list_of(kind: tuple, non_empty: bool = False) -> tuple:
    noun, accepts = kind
    size = "non-empty list" if non_empty else "list"
    return f"a {size}, each item {noun}", lambda value: (
        isinstance(value, _LIST) and (len(value) > 0 or not non_empty) and all(map(accepts, value))
    )


def pairs(names: str, first: tuple, second: tuple) -> tuple:
    """A list of two-item lists, of the kinds ``first`` and ``second``."""
    return f"a list of {names} pairs", lambda value: isinstance(value, _LIST) and all(
        isinstance(row, _LIST) and len(row) == 2 and first[1](row[0]) and second[1](row[1])
        for row in value
    )


def check_fields(config, kinds: dict) -> None:
    """Raise a ValueError for the first entry of ``config``, a dataclass or
    a dict, that ``kinds`` does not name or whose value is not of its kind.
    ``kinds`` maps each key to a (description, predicate) pair.  A dataclass
    field whose default is None may be None."""
    if isinstance(config, dict):
        entries = [(key, value, False) for key, value in config.items()]
    else:
        entries = [(f.name, getattr(config, f.name), f.default is None) for f in fields(config)]
    for key, value, may_be_none in entries:
        if key not in kinds:
            raise ValueError(f"{key} is unknown (known keys: {', '.join(sorted(kinds))})")
        noun, accepts = kinds[key]
        if not (value is None and may_be_none or accepts(value)):
            raise ValueError(f"{key} must be {noun}, got {value!r}")


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, str):
        if "," in value or "\n" in value or "\r" in value:
            raise ValueError(f"cell {value!r} holds a separator")
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_table(
    path: str | Path,
    header: Sequence,
    rows: Iterable[Sequence],
    comment: str | None = None,
) -> None:
    """Write ``rows`` under ``header`` in the table format of this module."""
    path = Path(path)
    lines = [] if comment is None else [f"# {comment}"]
    width = len(header)
    for number, cells in enumerate((header, *rows), start=len(lines) + 1):
        try:
            texts = [_cell(c) for c in cells]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from exc
        if len(texts) != width:
            raise ValueError(
                f"{path}, line {number}: {len(texts)} fields, header has {width}"
            )
        lines.append(",".join(texts))
    path.write_text("\n".join(lines) + "\n")


def read_table(
    path: str | Path,
    header: Sequence[str] | Callable[[int], Sequence[str]],
) -> tuple[str | None, np.ndarray]:
    """Read a table written by :func:`write_table`.

    ``header`` is the exact list of column names, or, for tables whose width
    varies (traces), a function from the file's column count to that list.
    Returns the comment (the first line without its ``#``, or None) and the
    cells as a float array of shape (rows, columns).  Blank lines are
    skipped.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    comment = None
    start = 0
    if lines and lines[0].startswith("#"):
        comment = lines[0][1:].strip()
        start = 1
    if start >= len(lines):
        raise ValueError(f"{path}, line {start + 1}: missing header line")
    names = lines[start].split(",")
    expected = list(header(len(names)) if callable(header) else header)
    if names != expected:
        raise ValueError(
            f"{path}, line {start + 1}: expected header {','.join(expected)!r}, "
            f"got {lines[start]!r}"
        )
    rows = []
    for number, line in enumerate(lines[start + 1 :], start=start + 2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(expected):
            raise ValueError(
                f"{path}, line {number}: {len(cells)} fields, header has {len(expected)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
    return comment, np.array(rows, dtype=np.float64).reshape(len(rows), len(expected))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def write_json(path: str | Path, doc, indent: int | None = 2) -> None:
    """Write ``doc`` with sorted keys and a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


def read_json(path: str | Path):
    """Parse a JSON file.  A missing file raises FileNotFoundError; bad JSON
    raises ValueError naming the file."""
    path = Path(path)
    text = path.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def json_fingerprint(doc) -> str:
    """First 16 hex digits of the SHA-256 of ``doc`` as compact, key-sorted
    JSON."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


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


def _channel_names(n: int) -> list[str]:
    return [f"ch{i}" for i in range(n)]


def save_trace_csv(trace: SensorTrace, path: str | Path) -> None:
    write_table(
        path,
        _channel_names(trace.n_channels),
        trace.channels.T,
        comment=f"fs_hz={trace.sample_rate_hz!r}",
    )


def load_trace_csv(path: str | Path) -> SensorTrace:
    comment, values = read_table(path, _channel_names)
    if comment is None or not comment.startswith("fs_hz="):
        raise ValueError(f"{path}, line 1: missing '# fs_hz=' header line")
    try:
        fs = float(comment.split("=", 1)[1])
    except ValueError as exc:
        raise ValueError(f"{path}, line 1: bad sample rate ({exc})") from None
    if not values.size:
        raise ValueError(f"{path}: no samples")
    return SensorTrace(channels=values.T, sample_rate_hz=fs)


# ---------------------------------------------------------------------------
# Sensing configurations
# ---------------------------------------------------------------------------

_SECTIONS = {
    "motor": MotorProfile,
    "geometry": ArrayGeometry,
    "noise": NoiseProfile,
    "coil": CoilParams,
}

# the top-level keys of a sensing document; parse_sensing_config keeps any
# other key in 'raw', so a caller that refuses them checks this table first
SENSING_FIELDS = {
    **dict.fromkeys(_SECTIONS, OBJECT),
    "motors": list_of(OBJECT, non_empty=True),
    **dict.fromkeys(("duration_s", "sample_rate_hz"), real("> 0")),
}


def parse_sensing_config(data: dict, source: str = "<config>") -> dict:
    """Typed sections from an in-memory sensing document.  Returns a dict
    with any of the keys motor / motors / geometry / noise / coil populated,
    plus 'raw' holding the full document; ``source`` names the origin in
    error messages.  A section with a missing, unknown or invalid key raises
    ValueError naming the section."""
    if not isinstance(data, dict):
        raise ValueError(f"{source}: top level must be a JSON object")
    out: dict = {"raw": data}
    for key in (*_SECTIONS, "motors"):
        if key not in data:
            continue
        try:
            if key == "motors":
                out[key] = [MotorProfile(**m) for m in data[key]]
            else:
                out[key] = _SECTIONS[key](**data[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{source}: bad '{key}' section: {exc}") from exc
    return out
