"""Run manifest: per-stage status, outputs, and content-addressed caching.

The manifest is rewritten atomically (temp file + rename) at every stage
boundary. Each stage attempt, done or failed, records a ``key`` (a sha256
over what the stage read: its config paths and its inputs' recorded key
and output digests) and the content digest of every file it wrote, by path
relative to the run directory. A stage is current iff it is done, its
recorded key equals the key it would run under now and every recorded
output still has its recorded digest; otherwise it runs again.

Beside each digest the entry keeps the output's stat signature, ``[size,
mtime_ns, ctime_ns, inode]``, as the file was when it was opened for
hashing, and only when both timestamps lie strictly before a kernel
timestamp taken after the hashing: the creation time of the manifest's own
temp file. An output whose stat still equals its signature has kept its
digest and is not read again; any other output is hashed. User space
cannot set ctime, and kernel timestamps only move forward unless the
system clock is stepped back, so any write, ``utime``, rename or chmod
after that timestamp leaves a stamp at or above it, which no signature
holds. An output stamped in the same tick as the timestamp gets no
signature (the "racy git" case), and neither does one stamped in the
future.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .. import __version__


class ManifestError(RuntimeError):
    """Unreadable or structurally invalid manifest."""


_CHUNK = 1 << 20  # bytes read at a time, so a model never sits in memory whole


def _hash(path) -> Tuple[Optional[str], Optional[os.stat_result]]:
    """sha256 of a regular file's bytes and the file's stat as it was
    opened; ``(None, None)`` for anything else."""
    if not os.path.isfile(path):
        return None, None
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as f:
        st = os.fstat(f.fileno())
        buf = memoryview(bytearray(max(1, min(st.st_size, _CHUNK))))
        while n := f.readinto(buf):
            digest.update(buf[:n])
    return digest.hexdigest(), st


def content_digest(path) -> Optional[str]:
    """sha256 of a regular file's bytes; None for anything else."""
    return _hash(path)[0]


def _signature(st: os.stat_result) -> list:
    return [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]


def _unchanged(path: str, signature) -> bool:
    """Whether ``path`` still has the stat ``signature`` a record stored."""
    if signature is None:
        return False
    try:
        return _signature(os.stat(path)) == signature
    except OSError:
        return False


def _beneath(rel: str) -> bool:
    """Whether the relative POSIX path ``rel`` names something beneath the
    directory it is joined to: not absolute, no ``..``, not the directory."""
    parts = rel.split("/")
    return not rel.startswith("/") and ".." not in parts \
        and any(part not in ("", ".") for part in parts)


@dataclass
class RunManifest:
    path: Path
    config_digest: str  # provenance only; stage keys decide caching
    tool_version: str
    stages: dict

    @staticmethod
    def open(out_dir, config_digest: Optional[str]) -> "RunManifest":
        """The run's manifest, or an empty one; ``config_digest=None`` keeps
        the recorded digest."""
        path = Path(out_dir) / "manifest.json"
        data = {"stages": {}}
        if path.exists():
            try:
                data = json.loads(path.read_text())
                if not isinstance(data, dict) or not isinstance(data["stages"], dict):
                    raise TypeError("the manifest and its stages must be objects")
                if not all(isinstance(e, dict) for e in data["stages"].values()):
                    raise TypeError("every stage entry must be an object")
            except (ValueError, KeyError, TypeError) as exc:  # undecodable bytes too
                raise ManifestError(f"{path}: corrupted manifest ({exc})") from exc
            # A stage that re-runs removes its recorded outputs first, so each
            # must name something inside the run directory.
            for stage, entry in data["stages"].items():
                outputs = entry.get("outputs")
                for rel in outputs if isinstance(outputs, dict) else ():
                    if not _beneath(rel):
                        raise ManifestError(f"{path}: stage {stage} records output "
                                            f"{rel!r} outside the run directory")
        if config_digest is None:
            config_digest = data.get("config_digest", "")
        return RunManifest(path=path, config_digest=config_digest,
                           tool_version=__version__, stages=data["stages"])

    @property
    def run_dir(self) -> Path:
        return self.path.parent

    def key(self, reads: dict, inputs: Iterable[str]) -> str:
        """sha256 over the config values a stage reads and each input
        stage's recorded key and output digests."""
        recorded = {}
        for stage in inputs:
            entry = self.stages.get(stage) or {}
            recorded[stage] = {"key": entry.get("key"), "outputs": entry.get("outputs")}
        # "args" is always empty; it stays so that existing runs keep their keys.
        blob = json.dumps({"reads": reads, "args": {}, "inputs": recorded},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def is_current(self, stage: str, key: str) -> bool:
        """Done under ``key``, and every recorded output still has its digest.

        An output whose stat equals the signature recorded with its digest
        is not read; every other output (no signature, a malformed one, a
        copied or edited file) is hashed and compared with its digest."""
        entry = self.stages.get(stage) or {}
        outputs = entry.get("outputs")
        if entry.get("status") != "done" or entry.get("key") != key \
                or not isinstance(outputs, dict):
            return False
        signatures = entry.get("stat")
        if not isinstance(signatures, dict):
            signatures = {}
        run_dir = str(self.run_dir)
        for rel, digest in outputs.items():
            path = os.path.join(run_dir, rel)
            if not _unchanged(path, signatures.get(rel)) and content_digest(path) != digest:
                return False
        return True

    def outputs(self, stage: str) -> List[str]:
        """The stage's recorded output paths, under the run directory."""
        outputs = (self.stages.get(stage) or {}).get("outputs")
        if not isinstance(outputs, dict):
            return []
        run_dir = str(self.run_dir)
        return [os.path.join(run_dir, rel) for rel in outputs]

    def record(self, stage: str, key: Optional[str], outputs: List[str],
               wall_clock_s: float, error: Optional[str] = None) -> None:
        """One attempt at ``stage``: done, or failed with ``error``. Either
        way every file it wrote is recorded, so the next attempt removes it."""
        digests, opened = {}, {}
        for o in outputs:
            rel = Path(o).relative_to(self.run_dir).as_posix()
            digests[rel], opened[rel] = _hash(o)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".json.tmp")
        tmp.unlink(missing_ok=True)  # left by a call that died mid-write
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "w") as f:
            # A file created now: anything written after it is stamped at or
            # after its ctime, so an output stamped before it is signed.
            stamp = os.fstat(fd).st_ctime_ns
            signatures = {rel: _signature(st) for rel, st in opened.items() if st is not None
                          and max(st.st_mtime_ns, st.st_ctime_ns) < stamp}
            entry = self.stages[stage] = {
                "status": "done",
                "key": key,
                "outputs": dict(sorted(digests.items())),
                "stat": dict(sorted(signatures.items())),
                "wall_clock_s": round(wall_clock_s, 3),
            }
            if error is not None:
                entry.update(status="failed", error=error)
            f.write(json.dumps({
                "tool_version": self.tool_version,
                "config_digest": self.config_digest,
                "stages": self.stages,
            }, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def _remove(path: Path) -> None:
    # A run directory written before demos became single files records each
    # demo as a directory.
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


class StageOutputs:
    """The files one stage run writes: each is recorded as it is made."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.paths: List[str] = []

    def path(self, rel: str) -> Path:
        """``rel`` under the run directory, with its parent made, recorded."""
        path = self.run_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        self.paths.append(str(path))
        return path

    def write(self, rel: str, text: str) -> None:
        self.path(rel).write_text(text)

    def csv(self, rel: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
        """A comma-separated table: ``header``, then one line per row, each
        cell written with ``str`` (the caller formats its numbers)."""
        self.write(rel, "".join(",".join(map(str, line)) + "\n"
                                for line in [header, *rows]))

    def json(self, rel: str, record) -> None:
        """A JSON record, indented by one space, keys sorted."""
        self.write(rel, json.dumps(record, indent=1, sort_keys=True))


def run_stage(manifest: RunManifest, stage: str, key: Optional[str], force: bool,
              action: Callable[[StageOutputs], None],
              log: Callable[[str], None] = print) -> None:
    """Execute one cached stage under ``key``.

    ``action`` writes every output through the ``StageOutputs`` it is
    given, so the manifest records exactly what the stage wrote, whether
    it finishes, fails or is interrupted. A stage that runs first removes
    the outputs its last attempt recorded, so a file it no longer writes
    cannot outlive the change that dropped it.
    """
    if not force and manifest.is_current(stage, key):
        log(f"[{stage}] up to date, skipping")
        return
    log(f"[{stage}] running")
    t0 = time.perf_counter()
    for path in manifest.outputs(stage):
        _remove(Path(path))
    out = StageOutputs(manifest.run_dir)
    try:
        action(out)
    except BaseException as exc:  # Ctrl-C too: what it wrote is recorded
        manifest.record(stage, key, out.paths, time.perf_counter() - t0,
                        error=f"{type(exc).__name__}: {exc}")
        raise
    manifest.record(stage, key, out.paths, time.perf_counter() - t0)
    log(f"[{stage}] done ({time.perf_counter() - t0:.1f}s)")
