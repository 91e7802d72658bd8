"""The one walker from records to JSON data."""

from __future__ import annotations

import enum
from dataclasses import fields, is_dataclass

import numpy as np


def plain(value):
    """``value`` as JSON data: dataclasses as field dicts, enums by value,
    tuples and numpy arrays as lists, mapping keys as ``str``."""
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.value if isinstance(value, enum.Enum) else value
