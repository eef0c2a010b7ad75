"""JSON serialization helpers with bit-exact round trips and atomic writes."""

from __future__ import annotations

import base64
import json
import os
import tempfile

import numpy as np


def pack_array(a: np.ndarray) -> dict:
    """Encode a float64 array as base64 so every bit survives the trip."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "dtype": "float64",
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def unpack_array(obj) -> np.ndarray:
    """Decode :func:`pack_array`'s form; a float64 array passes as it is,
    and a (nested) list, as a config holds, becomes one."""
    if not isinstance(obj, dict):
        return np.asarray(obj, dtype=np.float64)
    raw = base64.b64decode(obj["data"])
    a = np.frombuffer(raw, dtype=np.float64).copy()
    return a.reshape(obj["shape"])


def packed(obj):
    """``obj`` with every array in its dicts and lists packed, as JSON needs."""
    if isinstance(obj, np.ndarray):
        return pack_array(obj)
    if isinstance(obj, dict):
        return {k: packed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [packed(v) for v in obj]
    return obj


def vec(x) -> list:
    """Plain-list form of a small vector; json floats round-trip exactly."""
    return [float(v) for v in np.asarray(x).ravel()]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    write_text(path, dumps(obj))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_text(path, text: str) -> None:
    """Atomic write: temp file in the destination directory, then rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
