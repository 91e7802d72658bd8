"""The one walker from records to JSON data, and the one reader back."""

from __future__ import annotations

import enum
import typing
from dataclasses import fields, is_dataclass
from functools import lru_cache

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


def unplain(cls, data):
    """The ``cls`` record that ``plain`` wrote as ``data``, each field read
    as its annotation says. Every field is required: a missing or mistyped
    one is a ``ValueError`` that names the class; a ``ValueError`` from a
    field or from ``cls`` itself passes through."""
    readers, values = _readers(cls), {}
    try:
        for name, read in readers:
            values[name] = read(data[name])
    except KeyError as exc:
        raise ValueError(f"{cls.__name__} record lacks field {name!r}") from exc
    except TypeError as exc:
        raise ValueError(f"{cls.__name__} field {name!r} is mistyped: {exc}") from exc
    return cls(**values)


@lru_cache(maxsize=None)
def _readers(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, _reader(hints[f.name])) for f in fields(cls))


def _reader(hint):
    """The function that reads one JSON value as ``hint`` says."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        (inner,) = (arg for arg in args if arg is not type(None))
        read = _reader(inner)
        return lambda value: None if value is None else read(value)
    if origin is tuple:  # Tuple[X, ...] or Tuple[X, X]: every item an X
        read = _reader(args[0])
        return lambda value: tuple(map(read, value))
    if hint is np.ndarray:
        return np.asarray
    if hint in (tuple, int, float, bool) or isinstance(hint, enum.EnumMeta):
        return hint
    raise TypeError(f"unplain cannot read a field annotated {hint!r}")
