"""Canonical JSON and atomic file output.

Reports must be byte-identical across reruns and thread counts, so
serialization is fully deterministic: the standard library's encoder
with sorted keys, two-space indentation (one item per line) and LF line
endings.  Floats are written in Python's shortest round-trip form
(``repr``), so ``json.loads`` reads back the exact 64-bit value; NaN
and infinities raise ``ValueError``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, is_dataclass
from enum import Enum

import numpy as np


def _plain(obj):
    """What ``json`` cannot encode itself: numpy arrays and scalars as
    lists and Python numbers, enums as their values, dataclass
    instances as dicts."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    raise TypeError(f"cannot serialize {type(obj)} to JSON")


def canonical_json(obj) -> str:
    """Deterministic JSON text for dicts/lists/scalars/arrays."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, ensure_ascii=False,
                      default=_plain)


def write_atomic(path, text: str):
    """Write via temp file + rename in the destination directory.  The
    temp file is created with mode 0o666, so the file gets the mode the
    umask leaves, as with ``open``; rename keeps it."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
