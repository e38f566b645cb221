"""The file formats: reading the JSON documents that configure a run
(geometry and sweep files), and writing every JSON and CSV output.

A document is read field by field (`read_fields`), and that is the one place
where a number is checked: a non-finite value, whether the NaN/Infinity
token of a file, a literal that overflows, or a float of a mapping, is
refused with a message that names its field.

Output floats are written as `repr(float(v))`, the shortest text that reads
back to the same double, so identical results give identical bytes whatever
numpy version produced them.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import os
from collections.abc import Mapping
from numbers import Integral, Real
from pathlib import Path

import numpy as np


def load_json_object(source, what: str) -> dict:
    """The JSON object held by `source`: a path (str, bytes or os.PathLike),
    or a mapping that is taken as already parsed. ValueError when the
    document is not a JSON object."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, "
                         f"got {type(data).__name__}")
    return dict(data)


_KINDS = {"integer": "an integer", "number": "a number",
          "numbers": "a list of numbers", "array": "a rectangular array of numbers"}


def _is_number(value) -> bool:
    """A real number, numpy scalars included, but not a bool (numpy's bool
    is no `Real`)."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _field_value(name: str, value, kind: str):
    """`value` read as `kind`, one of the kinds of `read_fields`."""
    if value is None and kind.endswith("?"):
        return None
    kind = kind.rstrip("?")
    leaves = np.asarray(value, dtype=object)      # ragged lists give list leaves
    # the nesting the kind asks for; an array may nest to any depth
    ndim = {"integer": 0, "number": 0, "numbers": 1}.get(kind, max(leaves.ndim, 1))
    if (leaves.ndim != ndim or not all(map(_is_number, leaves.flat))
            or kind == "integer" and not isinstance(value, Integral)
            and not float(value).is_integer()):
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    if kind == "integer":
        return int(value)
    try:
        numbers = leaves.astype(float)
    except OverflowError:     # an int beyond float range
        numbers = np.array(np.inf)
    if not np.all(np.isfinite(numbers)):
        finite = _KINDS[kind].replace("number", "finite number")
        raise ValueError(f"{name} must be {finite}, got {value!r}")
    return numbers.tolist()


def read_fields(source, what: str, kinds: Mapping[str, str],
                required=()) -> dict:
    """The fields of the JSON object held by `source` (see
    `load_json_object`), each read as its kind in `kinds`: "integer" (an
    integer, or a real with an integral value; read as int), "number" (read
    as float), "numbers" (a flat list, read as a list of floats) or "array"
    (rectangular nested lists, read as nested lists of floats). A number is
    any real, numpy scalars included; it must be finite, and booleans and
    strings are never numbers; a kind with a trailing "?" also allows null.
    ValueError, naming the field, for an unknown field, a missing one of
    `required`, or a value of another kind.
    """
    data = load_json_object(source, what)
    unknown = set(data) - set(kinds)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ValueError(f"missing {what} fields: {sorted(missing)}")
    return {name: _field_value(name, value, kinds[name])
            for name, value in data.items()}


def _plain(obj):
    """JSON form of the objects the json module does not know: a dataclass
    instance becomes the dict of its fields, an array or numpy scalar its
    `tolist()`."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def write_json(path, obj) -> None:
    """Write `obj` as indented JSON with sorted keys, creating the parent
    directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_plain)


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def write_csv(path, header, rows) -> None:
    """Write a header row and data rows as CSV (RFC 4180 quoting), creating
    the parent directory. Float cells are written as `repr(float(v))` and
    None as an empty cell."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])
