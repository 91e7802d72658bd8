"""Versioned binary weight container.

Layout (all integers little-endian):
  magic "LSRV" | u16 version | u8 method tag | u32 header length + UTF-8
  JSON header {"spec": encoder spec} | u32 parameter count |
  records | u32 CRC32 over all parameter payload bytes.
Each record: u16 name length + UTF-8 name | u8 rank | u32 per dim |
float32 payload.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Optional

import numpy as np

from .. import autodiff as ad
from ..plain import plain, unplain
from .models import ModelWeights, expected_shapes
from .specs import METHOD_TAGS, TAG_METHODS, EncoderSpec, Method

MAGIC = b"LSRV"
VERSION = 1


class WeightFormatError(ValueError):
    """Malformed, truncated, or inconsistent weight file."""


def save(model: ModelWeights, path) -> None:
    path = Path(path)
    header = json.dumps({"spec": plain(model.spec)}, sort_keys=True).encode("utf-8")
    names = sorted(model.params)
    crc = 0
    parts = [MAGIC, struct.pack("<H", VERSION),
             struct.pack("<B", METHOD_TAGS[model.spec.method]),
             struct.pack("<I", len(header)), header,
             struct.pack("<I", len(names))]
    for name in names:
        arr = np.ascontiguousarray(model.params[name].data, dtype="<f4")
        payload = arr.tobytes()
        crc = zlib.crc32(payload, crc)
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(payload)
    parts.append(struct.pack("<I", crc & 0xFFFFFFFF))
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(b"".join(parts))
    tmp.replace(path)


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise WeightFormatError(f"{self.path}: truncated while reading {what}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u(self, fmt: str, what: str) -> int:
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))[0]


def load(path, expect_method: Optional[Method] = None) -> ModelWeights:
    path = Path(path)
    r = _Reader(path.read_bytes(), path)
    if r.take(4, "magic") != MAGIC:
        raise WeightFormatError(f"{path}: bad magic, not a weight file")
    version = r.u("<H", "version")
    if version != VERSION:
        raise WeightFormatError(f"{path}: unsupported version {version}")
    tag = r.u("<B", "method tag")
    if tag not in TAG_METHODS:
        raise WeightFormatError(f"{path}: unknown method tag {tag}")
    method = TAG_METHODS[tag]
    if expect_method is not None and method is not expect_method:
        raise WeightFormatError(
            f"{path}: method tag mismatch — file holds {method.value}, "
            f"caller requested {expect_method.value}")
    header = r.take(r.u("<I", "header length"), "header")
    try:
        # Older files also hold two digests beside the spec; nothing reads them.
        spec = unplain(EncoderSpec, json.loads(header.decode("utf-8"))["spec"])
    except (ValueError, KeyError, TypeError) as exc:  # TypeError: not an object
        raise WeightFormatError(f"{path}: unreadable spec header ({exc})") from exc
    if spec.method is not method:
        raise WeightFormatError(
            f"{path}: method tag {method.value} disagrees with spec "
            f"{spec.method.value}")

    count = r.u("<I", "parameter count")
    shapes = expected_shapes(spec)
    params = {}
    crc = 0
    for _ in range(count):
        name_len = r.u("<H", "name length")
        name = r.take(name_len, "name").decode("utf-8")
        rank = r.u("<B", f"rank of {name}")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, f"dims of {name}"))
        payload = r.take(4 * int(np.prod(dims)), f"payload of {name}")
        crc = zlib.crc32(payload, crc)
        if name not in shapes:
            raise WeightFormatError(f"{path}: unexpected parameter '{name}'")
        if tuple(dims) != shapes[name]:
            raise WeightFormatError(
                f"{path}: parameter '{name}' has shape {tuple(dims)}, "
                f"architecture expects {shapes[name]}")
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        params[name] = ad.parameter(arr)
    stored_crc = r.u("<I", "checksum")
    if crc & 0xFFFFFFFF != stored_crc:
        raise WeightFormatError(f"{path}: payload checksum mismatch")
    if r.pos != len(r.blob):
        raise WeightFormatError(f"{path}: {len(r.blob) - r.pos} trailing bytes")
    missing = set(shapes) - set(params)
    if missing:
        raise WeightFormatError(f"{path}: missing parameters {sorted(missing)}")
    return ModelWeights(spec=spec, params=params)
