"""The file formats: reading the JSON documents that configure a run
(geometry and sweep files), and writing every JSON and CSV output.

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

import numpy as np


def _non_finite_token(value):
    """The JSON token (NaN, Infinity or -Infinity) of the first non-finite
    float in an already parsed value, searching nested mappings, lists,
    tuples and arrays; None when there is none."""
    if isinstance(value, (float, np.floating)):
        if np.isfinite(value):
            return None
        return "NaN" if np.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, Mapping):
        value = list(value.values())
    elif isinstance(value, np.ndarray):
        value = value.tolist()
    elif not isinstance(value, (list, tuple)):
        return None
    for item in value:
        token = _non_finite_token(item)
        if token is not None:
            return token
    return None


def load_json_object(source, what: str) -> dict:
    """The JSON object held by `source`: a path (str, bytes or os.PathLike),
    an open text file, or a mapping that is taken as already parsed.

    Raises ValueError when the document is not a JSON object, or when it
    holds a non-finite number: one of the tokens NaN, Infinity and
    -Infinity in a file (strict JSON does not have them), or a non-finite
    float anywhere in a mapping. A malformed document thus reads as a
    usage error and not as a crash or a non-finite result.
    """
    def reject(token):
        raise ValueError(f"{what} holds the non-finite number {token}")

    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source) as fh:
            data = json.load(fh, parse_constant=reject)
    elif hasattr(source, "read"):
        data = json.load(source, parse_constant=reject)
    else:
        data = source
        token = _non_finite_token(data)
        if token is not None:
            reject(token)
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, "
                         f"got {type(data).__name__}")
    return dict(data)


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
    """Write `obj` as indented JSON with sorted keys."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_plain)


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def write_csv(path, header, rows) -> None:
    """Write a header row and data rows as CSV (RFC 4180 quoting). Float
    cells are written as `repr(float(v))` and None as an empty cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])
