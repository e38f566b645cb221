"""Reading the JSON documents that configure a run (geometry and sweep
files)."""
from __future__ import annotations

import json
import os
from collections.abc import Mapping


def load_json_object(source, what: str) -> dict:
    """The JSON object held by `source`: a path (str, bytes or os.PathLike),
    an open text file, or a mapping that is taken as already parsed.

    Raises ValueError when the document is not a JSON object, so that a
    malformed file reads as a usage error and not as a crash.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source) as fh:
            data = json.load(fh)
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        data = source
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, "
                         f"got {type(data).__name__}")
    return dict(data)
