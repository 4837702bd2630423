"""Canonical JSON and atomic file output.

Reports must be byte-identical across reruns and thread counts, so
serialization is fully deterministic: sorted keys, LF line endings, and
floats printed with 17 significant digits (round-trip exact for 64-bit
floats).
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, is_dataclass
from enum import Enum

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x} cannot be serialized to JSON")
    if x == int(x) and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text for dicts/lists/scalars/arrays."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, Enum):
        return canonical_json(obj.value, indent)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if is_dataclass(obj) and not isinstance(obj, type):
        return canonical_json(asdict(obj), indent)
    if isinstance(obj, dict):
        items = []
        for k in sorted(obj):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            items.append(f'{pad}  "{_escape(k)}": {canonical_json(obj[k], indent + 2)}')
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [canonical_json(v, indent + 2) for v in obj]
        if not items:
            return "[]"
        if all(len(s) < 24 and "\n" not in s for s in items):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(pad + "  " + s for s in items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)} to JSON")


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
