"""Canonical machine-readable reports: stable key order, rationals as "p/q",
floats printed with 17 significant digits."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

SCHEMA_VERSION = "2"


def jsonable(obj):
    """Recursively convert report structures to JSON-stable primitives."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return [jsonable(x) for x in sorted(obj)]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return str(obj)


def canonical_json(obj):
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def digest_file(path):
    with open(path, "rb") as fh:
        return digest_bytes(fh.read())
