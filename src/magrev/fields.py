"""Field kinds: the one vocabulary in which every configuration magrev reads
is checked.  This module imports only the standard library.

A kind is a triple (noun, accepts, canonical): the noun names the kind and
its range in error messages, ``accepts`` is its predicate, and ``canonical``
gives an accepted value the form a dataclass stores (a float for
:func:`real`, an int for :func:`integer`, a tuple for :func:`list_of` and
:func:`row`, the value itself otherwise).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields
from functools import partial
from operator import ge, gt, le, lt


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite real number; an integer too large for a float is not one."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _same(value):
    return value


_LIST = (tuple, list)
_COMPARE = {">": gt, ">=": ge, "(": gt, "[": ge, ")": lt, "]": le}


def _ranged(noun: str, accepts, canonical, where: str = "") -> tuple:
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
    ), canonical


integer = partial(_ranged, "an integer", _is_integer, int)
real = partial(_ranged, "a finite real number", _is_real, float)
STRING = ("a string", lambda value: isinstance(value, str), _same)
BOOLEAN = ("true or false", lambda value: isinstance(value, bool), _same)
OBJECT = ("a JSON object", lambda value: isinstance(value, dict), _same)
ODD = _ranged("an odd integer", lambda value: _is_integer(value) and value % 2 == 1, int, ">= 1")
POWER_OF_TWO = _ranged(
    "a power of two", lambda value: _is_integer(value) and value & (value - 1) == 0, int, ">= 2"
)


def one_of(*choices) -> tuple:
    return "one of " + ", ".join(map(repr, choices)), lambda value: value in choices, _same


def instance_of(cls) -> tuple:
    return f"a {cls.__name__}", lambda value: isinstance(value, cls), _same


def list_of(kind: tuple, non_empty: bool = False) -> tuple:
    noun, accepts, canonical = kind
    size = "non-empty list" if non_empty else "list"
    return f"a {size}, each item {noun}", lambda value: (
        isinstance(value, _LIST) and (len(value) > 0 or not non_empty) and all(map(accepts, value))
    ), lambda value: tuple(map(canonical, value))


def row(names: str, *kinds: tuple) -> tuple:
    """A list of one item per kind, the i-th of the i-th kind; ``names``
    labels the items, as in ``"[x, y]"``."""
    labels = names.strip("[]").split(", ")
    return f"{names} with " + ", ".join(
        f"{label} {noun}" for label, (noun, _, _) in zip(labels, kinds)
    ), lambda value: isinstance(value, _LIST) and len(value) == len(kinds) and all(
        accepts(item) for (_, accepts, _), item in zip(kinds, value)
    ), lambda value: tuple(canonical(item) for (_, _, canonical), item in zip(kinds, value))


def check_keys(keys, known) -> None:
    """Raise ``<key> is unknown (known keys: ...)`` for the first of ``keys`` not in ``known``."""
    for key in keys:
        if key not in known:
            raise ValueError(f"{key} is unknown (known keys: {', '.join(sorted(known))})")


def construct(cls, doc: dict):
    """``cls(**doc)``, a key ``cls`` has no field for refused by :func:`check_keys`."""
    check_keys(doc, [f.name for f in fields(cls)])
    return cls(**doc)


def check_fields(config, kinds: dict) -> None:
    """Raise ``<key> must be <noun>, got <value>`` (a ValueError) for the
    first entry of ``config``, a dataclass or a dict, that ``kinds`` does not
    name or whose value is not of its kind.  A dataclass field whose default
    is None may be None; every other field of a dataclass is stored in its
    kind's canonical form.  A dict is only checked."""
    if isinstance(config, dict):
        entries = [(key, value, False) for key, value in config.items()]
    else:
        entries = [(f.name, getattr(config, f.name), f.default is None) for f in fields(config)]
    check_keys([key for key, _, _ in entries], kinds)
    for key, value, may_be_none in entries:
        noun, accepts, canonical = kinds[key]
        if value is None and may_be_none:
            continue
        if not accepts(value):
            raise ValueError(f"{key} must be {noun}, got {value!r}")
        if not isinstance(config, dict):
            object.__setattr__(config, key, canonical(value))  # frozen ones too
